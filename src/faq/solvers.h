// Centralized FAQ solver: YannakakisSolve, the GHD message-passing upward
// pass of Theorem G.3 — O~(N) for acyclic H, with aggregate push-down
// (Corollary G.2) at every node. Each node runs one step,
// internal::SolveNode, which the standing queries of ivm/standing_query.h
// and the protocol schedule share. Every validated FAQ runs on its plan: a
// free variable is never aggregated, so a node keeps the free columns its
// operands carry and hands them up to the root, whether or not one bag holds
// all of F. The step picks its join plan from the node and its operands: an
// edge bag whose operands all lie inside it is one factor Eliminate — the
// operand over the whole bag walked once, every child message probed per
// row, the products folded straight into the message's groups, no Join;
// anything else — the synthetic core bag of Construction 2.8, or a bag that
// receives carried free columns — runs JoinAndEliminate, which sends three
// or more operands through the worst-case-optimal MultiwayJoin
// (relation/multiway.h). The peak materialization there is the join's
// output, not a pairwise intermediate — the central twin of the protocols'
// core finish.
//
// Every solver threads one ExecContext through the sorted-relation kernel
// (relation/ops.h): operators reuse the context's scratch buffers and
// consume their inputs through typed column views (columnar storage,
// docs/kernel.md — Eliminate in particular never copies or even reads the
// eliminated columns), bound variables are eliminated in batches (one
// group-by per aggregate run instead of one per variable), and callers can
// read operator statistics off the context afterwards. Passing nullptr uses a thread-local context.
// Setting ctx->parallelism > 1 (or TOPOFAQ_PARALLELISM, which both the
// explicit and the thread-local context inherit) makes every pass's large
// joins and eliminations morsel-parallel with bit-identical results
// (docs/kernel.md, "Morsel-parallel execution").
#ifndef TOPOFAQ_FAQ_SOLVERS_H_
#define TOPOFAQ_FAQ_SOLVERS_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <unordered_map>

#include "faq/query.h"
#include "ghd/plan_cache.h"
#include "ghd/width.h"
#include "relation/exec.h"
#include "relation/multiway.h"

namespace topofaq {

namespace internal {

/// Unit relation: empty schema, single empty tuple annotated 1.
template <CommutativeSemiring S>
Relation<S> UnitRelation() {
  Relation<S> r{Schema(std::vector<VarId>{})};
  r.Add(std::initializer_list<Value>{}, S::One());
  r.Canonicalize();  // one row, trivially sorted — certify so the unit can
                     // flow anywhere a canonical relation is required
  return r;
}

/// Variables of `sc` outside `keep` (any order), in schema order.
inline std::vector<VarId> VarsOutside(const Schema& sc,
                                      const std::vector<VarId>& keep) {
  std::vector<VarId> out;
  for (VarId x : sc.vars())
    if (std::find(keep.begin(), keep.end(), x) == keep.end()) out.push_back(x);
  return out;
}

/// Eliminates `vars` from r ⊗ factors with each variable's own aggregate,
/// batched: Eliminate() orders them descending (the Eq. (4) innermost-first
/// order restricted to this bag) and groups once per run of equal
/// aggregates. `r` and the factors are only read; `lead` factors precede r
/// in the product (see Eliminate).
template <CommutativeSemiring S>
Relation<S> EliminateAll(const Relation<S>& r, std::vector<VarId> vars,
                         const FaqQuery<S>& q, ExecContext* ctx = nullptr,
                         const std::vector<const Relation<S>*>& factors = {},
                         size_t lead = 0) {
  std::vector<VarOp> ops;
  ops.reserve(vars.size());
  for (VarId v : vars) ops.push_back(q.OpFor(v));
  return Eliminate(r, factors, std::move(vars), std::move(ops), ctx, lead);
}

/// Joins a bag of relations and eliminates every variable outside `keep`,
/// working one variable-connected component at a time.
///
/// Correctness of the component reordering (Theorem G.1): components share
/// no variables (hence no relations), so the ⊗-product of the inputs
/// factorizes over components, every bound-variable aggregate ⊕(i) commutes
/// past the factors that do not mention variable i (the Theorem G.1
/// push-down condition, trivially met across components), and the final
/// cross-combination of the reduced components is the same function as
/// joining everything first and eliminating afterwards — without ever
/// materializing cross products of unreduced inputs.
///
/// Within a component the join plan is routed by shape: a component of >= 3
/// relations goes through the worst-case-optimal MultiwayJoin, whose peak
/// materialization is its output (every *cyclic* component has >= 3 edges —
/// any two-edge hypergraph is GYO-reducible — so cyclic cores never pay the
/// pairwise chain's super-AGM intermediates). One- and two-relation
/// components keep the pairwise sort-merge Join, which also survives as the
/// differential-test oracle for the multiway path (tests/multiway_test.cc).
template <CommutativeSemiring S>
Relation<S> JoinAndEliminate(std::vector<Relation<S>> parts,
                             const std::vector<VarId>& keep,
                             const FaqQuery<S>& q, ExecContext* ctx = nullptr) {
  // Union-find over parts keyed by variable: each variable remembers the
  // first part it appeared in and every later occurrence unions with it —
  // O(total arity) pairings instead of the old O(parts²) pairwise
  // schema-intersection scan.
  std::vector<int> comp(parts.size());
  for (size_t i = 0; i < parts.size(); ++i) comp[i] = static_cast<int>(i);
  std::function<int(int)> find = [&](int x) {
    return comp[x] == x ? x : comp[x] = find(comp[x]);
  };
  std::unordered_map<VarId, int> var_part;
  var_part.reserve(parts.size() * 2);
  for (size_t i = 0; i < parts.size(); ++i)
    for (VarId v : parts[i].schema().vars()) {
      auto [it, inserted] = var_part.emplace(v, static_cast<int>(i));
      if (!inserted) comp[find(static_cast<int>(i))] = find(it->second);
    }

  // The first component seeds the cross combination and the first member
  // seeds a pairwise chain; the unit relation is the answer only when there
  // are no parts at all.
  std::optional<Relation<S>> acc;
  for (size_t root = 0; root < parts.size(); ++root) {
    if (find(static_cast<int>(root)) != static_cast<int>(root)) continue;
    std::vector<Relation<S>> members;
    for (size_t i = 0; i < parts.size(); ++i)
      if (find(static_cast<int>(i)) == static_cast<int>(root))
        members.push_back(std::move(parts[i]));
    Relation<S> part;
    if (members.size() >= 3) {
      part = MultiwayJoin(std::move(members), ctx);
    } else {
      part = std::move(members[0]);
      part.Canonicalize(ctx);  // the certification a join would apply
      for (size_t i = 1; i < members.size(); ++i)
        part = Join(part, members[i], ctx);
    }
    std::vector<VarId> bound = VarsOutside(part.schema(), keep);
    if (!bound.empty()) part = EliminateAll(part, std::move(bound), q, ctx);
    // Disjoint schemas: scalar/cross combination.
    acc = acc ? Join(*acc, part, ctx) : std::move(part);
  }
  return acc ? std::move(*acc) : UnitRelation<S>();
}

/// One node step of the GHD upward pass (Theorem G.3): ⊗ the operands
/// `parts` (in join order), then ⊕-eliminate every variable outside
/// keep(v) — χ(parent(v)) ∪ F below the root (Corollary G.2 push-down; RIP
/// guarantees that a bound variable outside χ(parent) occurs nowhere else),
/// F at the root, where every bound variable is gone and Relation::ReorderTo
/// puts the answer in F's column order.
/// Free variables are never aggregated, so carrying their columns up is
/// exact on any decomposition. When F ⊆ χ(root), RIP already keeps every
/// free column below the root, so keep(v) adds nothing to χ(parent(v)). The
/// operands are the node's own relation (absent at a synthetic bag, whose
/// input is the unit) and its children's messages; the ring propagation of
/// ivm/standing_query.h passes a delta in place of one of them.
///
/// The join plan comes from the decomposition and the operands, never from
/// an option:
///  * an edge bag (edge_id >= 0) whose operands all lie inside χ(v) = the
///    edge is the InsideOut step of Abo Khamis–Ngo–Rudra: one factor
///    Eliminate walks the operand over all of χ(v) — the node's relation,
///    or its delta in ring mode, wherever it sits in `parts` — probes every
///    other operand per row, and folds the products into keep(v)'s groups.
///    Nothing the size of the edge is materialized beyond the message, and
///    the bytes equal the pairwise Join chain's followed by Eliminate;
///  * the synthetic core bag of Construction 2.8 (edge_id < 0), or a bag an
///    operand reaches outside of (carried free columns), runs
///    JoinAndEliminate, so three or more operands go through MultiwayJoin
///    and no pairwise intermediate exceeds their worst-case output size.
///    The operands are copied in: MultiwayJoin consumes its inputs.
template <CommutativeSemiring S>
Relation<S> SolveNode(const FaqQuery<S>& q, const Ghd& ghd, int v,
                      const std::vector<const Relation<S>*>& parts,
                      ExecContext* ctx = nullptr) {
  const GhdNode& node = ghd.node(v);
  const bool root = v == ghd.root();
  std::vector<VarId> keep = q.free_vars;
  if (!root) {
    const std::vector<VarId>& up = ghd.node(node.parent).chi;
    keep.insert(keep.end(), up.begin(), up.end());
  }
  bool inside = node.edge_id >= 0;
  for (const Relation<S>* p : parts)
    for (VarId x : p->schema().vars())
      inside = inside &&
               std::binary_search(node.chi.begin(), node.chi.end(), x);
  // The outer relation: the first operand over all of χ(v).
  size_t lead = parts.size();
  if (inside)
    for (size_t i = 0; i < parts.size() && lead == parts.size(); ++i)
      if (parts[i]->arity() == node.chi.size()) lead = i;
  Relation<S> out;
  if (lead < parts.size()) {
    std::vector<const Relation<S>*> factors;
    factors.reserve(parts.size() - 1);
    for (size_t i = 0; i < parts.size(); ++i)
      if (i != lead) factors.push_back(parts[i]);
    // A lone operand with nothing to eliminate is the message as it is.
    const Relation<S>& outer = *parts[lead];
    std::vector<VarId> bound = VarsOutside(outer.schema(), keep);
    if (factors.empty() && bound.empty())
      out = outer;
    else
      out = EliminateAll(outer, std::move(bound), q, ctx, factors, lead);
  } else {
    std::vector<Relation<S>> owned;
    owned.reserve(parts.size());
    for (const Relation<S>* p : parts) owned.push_back(*p);
    out = JoinAndEliminate(std::move(owned), keep, q, ctx);
  }
  if (root) out.ReorderTo(Schema(q.free_vars), ctx);
  return out;
}

/// The operands of v's step in the full pass: v's own relation (none at a
/// synthetic bag), then the message of each child in child order.
template <CommutativeSemiring S>
std::vector<const Relation<S>*> PassOperands(
    const FaqQuery<S>& q, const Ghd& ghd, int v,
    const std::vector<Relation<S>>& msgs) {
  std::vector<const Relation<S>*> parts;
  const int e = ghd.node(v).edge_id;
  if (e >= 0) parts.push_back(&q.relations[static_cast<size_t>(e)]);
  for (int c : ghd.node(v).children)
    parts.push_back(&msgs[static_cast<size_t>(c)]);
  return parts;
}

}  // namespace internal

/// Theorem G.3 solver over a supplied decomposition. Any valid GHD of H
/// serves: free variables outside χ(root) ride up to the root (SolveNode).
template <CommutativeSemiring S>
Result<Relation<S>> YannakakisSolveOn(const FaqQuery<S>& q, const GyoGhd& gg,
                                      ExecContext* ctx = nullptr) {
  TOPOFAQ_RETURN_IF_ERROR(q.Validate());
  const Ghd& ghd = gg.ghd;

  // Upward pass: msgs[v] = v's step over its children's messages — a
  // relation over the variables its operands carry inside keep(v), or the
  // answer over F at the root.
  // Every operator below shares `ctx`'s scratch buffers.
  ExecContext& cx = ExecContext::Resolve(ctx);
  std::vector<Relation<S>> msgs(static_cast<size_t>(ghd.num_nodes()));
  for (int v : ghd.BottomUpOrder()) {
    // Node-boundary cancellation check: one GHD node's work is the pass's
    // natural morsel (parallel operators additionally check per morsel).
    if (cx.cancelled()) return Status::Cancelled("query cancelled mid-pass");
    msgs[static_cast<size_t>(v)] = internal::SolveNode(
        q, ghd, v, internal::PassOperands(q, ghd, v, msgs), ctx);
    for (int c : ghd.node(v).children)
      msgs[static_cast<size_t>(c)] = Relation<S>();  // consumed
  }
  if (cx.cancelled()) return Status::Cancelled("query cancelled mid-pass");
  return std::move(msgs[static_cast<size_t>(ghd.root())]);
}

/// Theorem G.3 solver using the canonical minimized decomposition; when F is
/// non-empty the decomposition is re-rooted so that F ⊆ χ(root) whenever an
/// acyclic query shape permits it (otherwise the free columns ride up to the
/// root). Decompositions come from the process-wide PlanCache
/// (ghd/plan_cache.h), so repeated query shapes skip the GYO/width search
/// entirely — both lookup paths are deterministic, hence a
/// cache hit produces bit-identical plans and answers; the cache's
/// hit/miss counters are the observability surface (PlanCache::stats).
template <CommutativeSemiring S>
Result<Relation<S>> YannakakisSolve(const FaqQuery<S>& q,
                                    ExecContext* ctx = nullptr) {
  return YannakakisSolveOn(
      q, PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars)->decomposition,
      ctx);
}

}  // namespace topofaq

#endif  // TOPOFAQ_FAQ_SOLVERS_H_
