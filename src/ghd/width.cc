#include "ghd/width.h"

#include <algorithm>
#include <numeric>

#include "ghd/md_ghd.h"

namespace topofaq {
namespace {

/// Rebuilds `ghd` rooted at `new_root`, keeping node ids and bags. Valid for
/// join trees of acyclic H: RIP is a property of the *unrooted* tree, so any
/// node may serve as root.
Ghd Reroot(const Ghd& ghd, int new_root) {
  // Undirected adjacency.
  std::vector<std::vector<int>> adj(ghd.num_nodes());
  for (int v = 0; v < ghd.num_nodes(); ++v)
    if (ghd.node(v).parent >= 0) {
      adj[v].push_back(ghd.node(v).parent);
      adj[ghd.node(v).parent].push_back(v);
    }
  Ghd out;
  for (int v = 0; v < ghd.num_nodes(); ++v) {
    GhdNode n = ghd.node(v);
    n.parent = -1;
    n.children.clear();
    out.AddNode(std::move(n));
  }
  out.set_root(new_root);
  std::vector<int> stack{new_root};
  std::vector<bool> seen(ghd.num_nodes(), false);
  seen[new_root] = true;
  while (!stack.empty()) {
    int v = stack.back();
    stack.pop_back();
    for (int w : adj[v])
      if (!seen[w]) {
        seen[w] = true;
        out.SetParent(w, v);
        stack.push_back(w);
      }
  }
  return out;
}

/// For acyclic single-tree H, tries every node as root (each re-rooting
/// is a different GYO-GHD), flattening each; keeps the best. Updates the
/// root-edge bookkeeping in `gg->core_forest` when the root changes.
void ImproveByRerooting(GyoGhd* gg, const Hypergraph* h) {
  const CoreForest& cf = gg->core_forest;
  if (!cf.core_edges.empty() || cf.root_edges.size() != 1) return;
  int best_root = gg->ghd.root();
  int best_count = gg->ghd.InternalNodeCount();
  Ghd best = gg->ghd;
  for (int r = 0; r < gg->ghd.num_nodes(); ++r) {
    if (r == gg->ghd.root()) continue;
    Ghd cand = Reroot(gg->ghd, r);
    FlattenToMdGhd(&cand);
    const int count = cand.InternalNodeCount();
    if (count < best_count) {
      best_count = count;
      best_root = r;
      best = std::move(cand);
    }
  }
  if (best_root != gg->ghd.root()) {
    gg->ghd = std::move(best);
    // node_of_edge is unchanged (node ids were preserved); update the
    // root-edge summary so n2 reflects the new decomposition.
    const int edge = gg->ghd.node(best_root).edge_id;
    if (edge >= 0 && h != nullptr) {
      gg->core_forest.root_edges = {edge};
      gg->core_forest.core_vertices = h->edge(edge);
    }
  }
}

WidthResult Assemble(GyoGhd gg, const Hypergraph* h) {
  WidthResult r;
  FlattenToMdGhd(&gg.ghd);
  ImproveByRerooting(&gg, h);
  r.internal_nodes = gg.ghd.InternalNodeCount();
  r.n2 = gg.core_forest.n2();
  r.decomposition = std::move(gg);
  return r;
}

/// Applies a vertex and edge permutation to H, producing the relabeled
/// hypergraph and the mappings needed to translate results back.
struct Permuted {
  Hypergraph h;
  std::vector<VarId> vertex_to_orig;  // new id -> original id
  std::vector<int> edge_to_orig;      // new edge id -> original edge id
};

Permuted PermuteHypergraph(const Hypergraph& h, Rng* rng) {
  Permuted p;
  std::vector<VarId> vperm(h.num_vertices());
  std::iota(vperm.begin(), vperm.end(), 0);
  rng->Shuffle(&vperm);  // vperm[orig] = new id
  p.vertex_to_orig.resize(h.num_vertices());
  for (int v = 0; v < h.num_vertices(); ++v) p.vertex_to_orig[vperm[v]] = v;

  std::vector<int> eorder(h.num_edges());
  std::iota(eorder.begin(), eorder.end(), 0);
  rng->Shuffle(&eorder);  // new edge i is original eorder[i]
  p.edge_to_orig = eorder;

  std::vector<std::vector<VarId>> edges;
  for (int i = 0; i < h.num_edges(); ++i) {
    std::vector<VarId> e;
    for (VarId v : h.edge(eorder[i])) e.push_back(vperm[v]);
    edges.push_back(std::move(e));
  }
  p.h = Hypergraph(h.num_vertices(), std::move(edges));
  return p;
}

/// Maps a decomposition of the permuted hypergraph back to original labels.
GyoGhd Unpermute(const GyoGhd& gg, const Permuted& p, int orig_num_edges) {
  GyoGhd out = gg;
  for (int v = 0; v < out.ghd.num_nodes(); ++v) {
    GhdNode& n = out.ghd.mutable_node(v);
    for (VarId& x : n.chi) x = p.vertex_to_orig[x];
    std::sort(n.chi.begin(), n.chi.end());
    for (int& e : n.lambda) e = p.edge_to_orig[e];
    if (n.edge_id >= 0) n.edge_id = p.edge_to_orig[n.edge_id];
  }
  out.node_of_edge.assign(orig_num_edges, -1);
  for (int i = 0; i < static_cast<int>(gg.node_of_edge.size()); ++i)
    if (gg.node_of_edge[i] >= 0)
      out.node_of_edge[p.edge_to_orig[i]] = gg.node_of_edge[i];

  CoreForest& cf = out.core_forest;
  for (int& e : cf.core_edges) e = p.edge_to_orig[e];
  for (int& e : cf.root_edges) e = p.edge_to_orig[e];
  for (int& e : cf.forest_edges) e = p.edge_to_orig[e];
  for (VarId& v : cf.core_vertices) v = p.vertex_to_orig[v];
  std::sort(cf.core_vertices.begin(), cf.core_vertices.end());
  // Remap the parent array (indexed by edge id).
  std::vector<int> parent(orig_num_edges, -1);
  for (int i = 0; i < static_cast<int>(cf.parent.size()); ++i)
    if (cf.parent[i] >= 0)
      parent[p.edge_to_orig[i]] = p.edge_to_orig[cf.parent[i]];
  cf.parent = std::move(parent);
  // Note: cf.gyo retains permuted labels; only the summary fields above are
  // remapped. Protocols consume core/forest/parent and the GHD itself.
  return out;
}

}  // namespace

WidthResult ComputeWidth(const Hypergraph& h) {
  return Assemble(BuildGyoGhd(h), &h);
}

WidthResult MinimizeWidthWithRoot(const Hypergraph& h,
                                  const std::vector<VarId>& required_vars,
                                  int restarts, uint64_t seed) {
  auto covers = [&](const std::vector<VarId>& bag) {
    for (VarId v : required_vars)
      if (!std::binary_search(bag.begin(), bag.end(), v)) return false;
    return true;
  };
  WidthResult base = MinimizeWidth(h, restarts, seed);
  if (covers(base.decomposition.ghd.node(base.decomposition.ghd.root()).chi))
    return base;
  // Single-tree acyclic case: any node can be made the root.
  const CoreForest& cf = base.decomposition.core_forest;
  if (!cf.core_edges.empty() || cf.root_edges.size() != 1) return base;
  const Ghd& ghd = base.decomposition.ghd;
  for (int v = 0; v < ghd.num_nodes(); ++v) {
    if (!covers(ghd.node(v).chi) || ghd.node(v).edge_id < 0) continue;
    GyoGhd gg = base.decomposition;
    gg.ghd = Reroot(gg.ghd, v);
    FlattenToMdGhd(&gg.ghd);
    const int edge = gg.ghd.node(v).edge_id;
    gg.core_forest.root_edges = {edge};
    gg.core_forest.core_vertices = h.edge(edge);
    WidthResult out;
    out.internal_nodes = gg.ghd.InternalNodeCount();
    out.n2 = gg.core_forest.n2();
    out.decomposition = std::move(gg);
    return out;
  }
  return base;
}

WidthResult MinimizeWidth(const Hypergraph& h, int restarts, uint64_t seed) {
  WidthResult best = ComputeWidth(h);
  Rng rng(seed);
  for (int i = 0; i < restarts; ++i) {
    Permuted p = PermuteHypergraph(h, &rng);
    WidthResult cand =
        Assemble(Unpermute(BuildGyoGhd(p.h), p, h.num_edges()), &h);
    if (cand.internal_nodes < best.internal_nodes ||
        (cand.internal_nodes == best.internal_nodes && cand.n2 < best.n2)) {
      best = std::move(cand);
    }
  }
  return best;
}

}  // namespace topofaq
