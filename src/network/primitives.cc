#include "network/primitives.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <queue>

#include "util/bits.h"

namespace topofaq {

RootedTree OrientTree(const Graph& g, const std::vector<int>& edges,
                      NodeId root) {
  RootedTree t;
  t.root = root;
  const int n = g.num_nodes();
  t.parent_edge.assign(n, -1);
  t.parent.assign(n, -1);
  t.children.assign(n, {});
  t.in_tree.assign(n, false);
  t.depth.assign(n, -1);

  std::vector<std::vector<std::pair<NodeId, int>>> adj(n);
  for (int e : edges) {
    auto [u, v] = g.edge(e);
    adj[u].push_back({v, e});
    adj[v].push_back({u, e});
  }
  t.in_tree[root] = true;
  t.depth[root] = 0;
  std::deque<NodeId> q{root};
  while (!q.empty()) {
    NodeId v = q.front();
    q.pop_front();
    for (auto [w, e] : adj[v]) {
      if (t.in_tree[w]) continue;
      t.in_tree[w] = true;
      t.parent[w] = v;
      t.parent_edge[w] = e;
      t.depth[w] = t.depth[v] + 1;
      t.children[v].push_back(w);
      q.push_back(w);
    }
  }
  return t;
}

int64_t UnicastBits(SyncNetwork* net, NodeId from, NodeId to, int64_t bits,
                    int64_t start_round) {
  if (from == to || bits == 0) return start_round;
  const std::vector<NodeId> path = net->graph().ShortestPath(from, to);
  TOPOFAQ_CHECK_MSG(!path.empty(), "no route between endpoints");
  const int hops = static_cast<int>(path.size()) - 1;
  // buf[i] = bits currently held at path[i] and not yet forwarded.
  std::vector<int64_t> buf(hops + 1, 0);
  buf[0] = bits;
  int64_t round = start_round;
  // Rounds already reserved by earlier traffic may grant nothing; fresh
  // rounds always have capacity, so the transfer provably finishes by
  // horizon + ceil(bits/cap) + hops. Guard generously against bugs.
  const int64_t guard = net->horizon() + start_round +
                        CeilDiv(bits, net->capacity_bits()) + hops + 16;
  while (buf[hops] < bits) {
    // Snapshot sends based on state at the start of the round; data moved in
    // round r becomes available at the next hop in round r+1.
    std::vector<int64_t> moved(hops, 0);
    for (int i = 0; i < hops; ++i) {
      if (buf[i] == 0) continue;
      const int e = net->graph().EdgeBetween(path[i], path[i + 1]);
      moved[i] = net->Reserve(e, path[i], round, buf[i]);
    }
    for (int i = 0; i < hops; ++i) {
      buf[i] -= moved[i];
      buf[i + 1] += moved[i];
    }
    ++round;
    TOPOFAQ_CHECK_MSG(round <= guard, "unicast ran past its guard bound");
  }
  return round;
}

int64_t BroadcastBits(SyncNetwork* net, NodeId src,
                      const std::vector<NodeId>& targets, int64_t bits,
                      int64_t start_round) {
  if (bits == 0) return start_round;
  std::vector<NodeId> needed;
  for (NodeId t : targets)
    if (t != src) needed.push_back(t);
  if (needed.empty()) return start_round;

  // BFS tree from src, pruned to branches containing targets.
  const Graph& g = net->graph();
  std::vector<int> all_edges;
  for (int e = 0; e < g.num_edges(); ++e) all_edges.push_back(e);
  RootedTree bfs = OrientTree(g, all_edges, src);
  std::vector<bool> keep(g.num_nodes(), false);
  for (NodeId t : needed) {
    TOPOFAQ_CHECK_MSG(bfs.in_tree[t], "broadcast target unreachable");
    for (NodeId v = t; v >= 0 && !keep[v]; v = bfs.parent[v]) keep[v] = true;
  }

  // have[v] = bits received at v (src has everything).
  std::vector<int64_t> have(g.num_nodes(), 0);
  have[src] = bits;
  // sent[v] = bits already forwarded to v by its parent.
  std::vector<int64_t> sent(g.num_nodes(), 0);
  int64_t round = start_round;
  const int64_t guard = net->horizon() + start_round +
                        CeilDiv(bits, net->capacity_bits()) +
                        g.num_nodes() + 16;
  auto done = [&] {
    for (NodeId t : needed)
      if (have[t] < bits) return false;
    return true;
  };
  while (!done()) {
    std::vector<std::pair<NodeId, int64_t>> deliveries;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (!keep[v] || v == src) continue;
      const NodeId p = bfs.parent[v];
      const int64_t avail = have[p] - sent[v];
      if (avail <= 0) continue;
      const int64_t granted = net->Reserve(bfs.parent_edge[v], p, round, avail);
      if (granted > 0) deliveries.push_back({v, granted});
    }
    for (auto [v, granted] : deliveries) {
      sent[v] += granted;
      have[v] += granted;
    }
    ++round;
    TOPOFAQ_CHECK_MSG(round <= guard, "broadcast ran past its guard bound");
  }
  return round;
}

int64_t BroadcastOnTree(SyncNetwork* net, const RootedTree& tree, int64_t bits,
                        int64_t start_round) {
  if (bits == 0) return start_round;
  const Graph& g = net->graph();
  const int n = g.num_nodes();
  std::vector<int64_t> have(n, 0), sent(n, 0);
  have[tree.root] = bits;
  int64_t outstanding = 0;
  for (NodeId v = 0; v < n; ++v)
    if (tree.in_tree[v] && v != tree.root) ++outstanding;
  if (outstanding == 0) return start_round;
  int64_t round = start_round;
  const int64_t guard = net->horizon() + start_round +
                        CeilDiv(bits, net->capacity_bits()) + n + 16;
  while (true) {
    bool all_done = true;
    for (NodeId v = 0; v < n; ++v)
      if (tree.in_tree[v] && v != tree.root && have[v] < bits) all_done = false;
    if (all_done) break;
    std::vector<std::pair<NodeId, int64_t>> deliveries;
    for (NodeId v = 0; v < n; ++v) {
      if (!tree.in_tree[v] || v == tree.root) continue;
      const NodeId p = tree.parent[v];
      const int64_t avail = have[p] - sent[v];
      if (avail <= 0) continue;
      const int64_t granted = net->Reserve(tree.parent_edge[v], p, round, avail);
      if (granted > 0) deliveries.push_back({v, granted});
    }
    for (auto [v, granted] : deliveries) {
      sent[v] += granted;
      have[v] += granted;
    }
    ++round;
    TOPOFAQ_CHECK_MSG(round <= guard, "tree broadcast ran past its guard");
  }
  return round;
}

int64_t MultiTreeBroadcast(SyncNetwork* net,
                           const std::vector<RootedTree>& trees, int64_t bits,
                           int64_t start_round) {
  TOPOFAQ_CHECK(!trees.empty());
  const int64_t t = static_cast<int64_t>(trees.size());
  const int64_t chunk = CeilDiv(bits, t);
  int64_t finish = start_round;
  for (int64_t i = 0; i < t; ++i) {
    const int64_t this_chunk = std::min(chunk, bits - i * chunk);
    if (this_chunk <= 0) break;
    finish = std::max(
        finish, BroadcastOnTree(net, trees[i], this_chunk, start_round));
  }
  return finish;
}

int64_t ConvergecastItems(SyncNetwork* net, const RootedTree& tree,
                          int64_t n_items, int item_bits, int64_t start_round) {
  if (n_items == 0) return start_round;
  const Graph& g = net->graph();
  const int n = g.num_nodes();
  // A node's aggregated prefix is limited by the slowest child stream; we
  // track received bits from each child and derive the ready item count.
  std::vector<std::vector<int64_t>> recv(n);
  std::vector<int64_t> sent_up(n, 0);
  for (NodeId v = 0; v < n; ++v)
    if (tree.in_tree[v]) recv[v].assign(tree.children[v].size(), 0);

  auto ready_items = [&](NodeId v) -> int64_t {
    // Leaf (or node with no children): own vector is ready immediately.
    int64_t r = n_items;
    for (size_t c = 0; c < tree.children[v].size(); ++c)
      r = std::min(r, recv[v][c] / item_bits);
    return r;
  };

  int64_t round = start_round;
  const int64_t guard =
      net->horizon() + start_round +
      CeilDiv(n_items * item_bits, net->capacity_bits()) * (g.num_nodes() + 1) +
      g.num_nodes() + 16;
  while (ready_items(tree.root) < n_items) {
    struct Delivery {
      NodeId parent;
      size_t child_slot;
      int64_t bits;
    };
    std::vector<Delivery> deliveries;
    for (NodeId v = 0; v < n; ++v) {
      if (!tree.in_tree[v] || v == tree.root) continue;
      const int64_t sendable = ready_items(v) * item_bits - sent_up[v];
      if (sendable <= 0) continue;
      const int64_t granted =
          net->Reserve(tree.parent_edge[v], v, round, sendable);
      if (granted <= 0) continue;
      const NodeId p = tree.parent[v];
      size_t slot = 0;
      while (tree.children[p][slot] != v) ++slot;
      deliveries.push_back({p, slot, granted});
      sent_up[v] += granted;
    }
    for (const auto& d : deliveries) recv[d.parent][d.child_slot] += d.bits;
    ++round;
    TOPOFAQ_CHECK_MSG(round <= guard, "convergecast ran past its guard bound");
  }
  return round;
}

std::vector<std::vector<NodeId>> GatherRoutes(
    const Graph& g, const std::vector<FlowDemand>& demands, NodeId target) {
  // Congestion-aware static routing: biggest demands pick paths first;
  // edge weight grows with load already assigned.
  std::vector<std::vector<NodeId>> paths(demands.size());
  std::vector<double> load(g.num_edges(), 0.0);
  std::vector<size_t> order(demands.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return demands[a].bits > demands[b].bits;
  });
  double total_bits = 1.0;
  for (const auto& d : demands) total_bits += static_cast<double>(d.bits);
  for (size_t idx : order) {
    const NodeId s = demands[idx].source;
    if (s == target) {
      paths[idx] = {target};
      continue;
    }
    // Dijkstra with weight 1 + load-share penalty.
    std::vector<double> dist(g.num_nodes(),
                             std::numeric_limits<double>::infinity());
    std::vector<int> par_edge(g.num_nodes(), -1);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[s] = 0;
    pq.push({0, s});
    while (!pq.empty()) {
      auto [dv, v] = pq.top();
      pq.pop();
      if (dv > dist[v]) continue;
      for (auto [w, e] : g.Neighbors(v)) {
        const double wgt = 1.0 + 4.0 * load[e] / total_bits;
        if (dist[v] + wgt < dist[w]) {
          dist[w] = dist[v] + wgt;
          par_edge[w] = e;
          pq.push({dist[w], w});
        }
      }
    }
    TOPOFAQ_CHECK_MSG(par_edge[target] >= 0, "gather source disconnected");
    std::vector<NodeId> path{target};
    for (NodeId v = target; v != s;) {
      const int e = par_edge[v];
      load[e] += static_cast<double>(demands[idx].bits);
      v = g.OtherEnd(e, v);
      path.push_back(v);
    }
    std::reverse(path.begin(), path.end());
    paths[idx] = std::move(path);
  }
  return paths;
}

int64_t GatherFlows(SyncNetwork* net, const std::vector<FlowDemand>& demands,
                    NodeId target, int64_t start_round) {
  const Graph& g = net->graph();
  const std::vector<std::vector<NodeId>> paths =
      GatherRoutes(g, demands, target);

  // Store-and-forward simulation: buf[i][h] = bits of demand i waiting at
  // hop h of its path. Round-robin order rotates for fairness on shared
  // edges.
  std::vector<std::vector<int64_t>> buf(demands.size());
  int64_t outstanding = 0;
  for (size_t i = 0; i < demands.size(); ++i) {
    buf[i].assign(paths[i].size(), 0);
    buf[i][0] = demands[i].bits;
    if (paths[i].size() > 1) outstanding += demands[i].bits;
  }
  int64_t round = start_round;
  int64_t guard = net->horizon() + start_round + 16;
  for (size_t i = 0; i < demands.size(); ++i)
    guard += CeilDiv(demands[i].bits, net->capacity_bits()) +
             static_cast<int64_t>(paths[i].size());
  size_t rotate = 0;
  while (outstanding > 0) {
    struct Move {
      size_t demand;
      size_t hop;
      int64_t bits;
    };
    std::vector<Move> moves;
    for (size_t k = 0; k < demands.size(); ++k) {
      const size_t i = (k + rotate) % demands.size();
      const auto& path = paths[i];
      for (size_t h = 0; h + 1 < path.size(); ++h) {
        if (buf[i][h] <= 0) continue;
        const int e = g.EdgeBetween(path[h], path[h + 1]);
        const int64_t granted = net->Reserve(e, path[h], round, buf[i][h]);
        if (granted > 0) moves.push_back({i, h, granted});
      }
    }
    for (const auto& m : moves) {
      buf[m.demand][m.hop] -= m.bits;
      buf[m.demand][m.hop + 1] += m.bits;
      if (m.hop + 2 == paths[m.demand].size()) outstanding -= m.bits;
    }
    ++round;
    ++rotate;
    TOPOFAQ_CHECK_MSG(round <= guard, "gather ran past its guard bound");
  }
  return round;
}

}  // namespace topofaq
