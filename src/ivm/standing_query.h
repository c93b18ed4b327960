// StandingQuery — incremental view maintenance over the Theorem G.3 pass.
//
// A standing query materializes the GHD upward pass once (per-node base
// relations and the post-elimination message each non-root node sends its
// parent), then keeps the answer current under batched base-relation deltas
// (ivm/delta.h) at a cost proportional to the delta and the key runs it
// touches, not the database. Every pass runs the one GHD node step that
// YannakakisSolveOn runs (internal::SolveNode, faq/solvers.h), so a
// subscription joins and eliminates exactly as a fresh solve does. Two
// maintenance modes, chosen per query at creation:
//
//  * Ring propagation (exact rings — Natural, GF2 — with all-⊕ bound
//    variables): the delta's net change C (base_new = base_old ⊕ C) is
//    pushed along the touched node's root path. Every operator in the pass
//    is ⊕-linear in each argument — Join(A ⊕ C, B) = Join(A, B) ⊕
//    Join(C, B) by distributivity, Eliminate and the root's column reorder
//    commute with ⊕ — so at each node the incremental term is the node step
//    over Δchild and every *other* operand at its current value, folded
//    into the stored message, and forwarded. One root-to-leaf path of
//    delta-sized joins; untouched subtrees are never visited. Bit-identity
//    vs full recompute holds because ⊕/⊗ in these rings are exact and
//    order-free, and every materialized state stays in canonical form.
//
//  * Affected-subtree recompute (everything else — idempotent semirings
//    like Boolean/MinPlus/MaxProduct, inexact Counting, or min/max bound
//    aggregates): deletions have no additive inverse (or no exact one), so
//    the nodes on the touched root path rerun the node step, reusing the
//    cached messages of every clean subtree. The same step on
//    byte-identical operands gives byte-identical outputs — bit-identity is
//    unconditional here.
//
// Delta application is deliberately NOT cancellable: a cancel observed
// mid-propagation would leave messages half-updated. Deltas are small by
// admission (server/subscribe.h); cancellation stays a one-shot-query
// feature.
#ifndef TOPOFAQ_IVM_STANDING_QUERY_H_
#define TOPOFAQ_IVM_STANDING_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "faq/solvers.h"
#include "ivm/delta.h"

namespace topofaq {

/// Maintenance counters, cumulative over the standing query's lifetime.
struct StandingStats {
  int64_t deltas_applied = 0;    ///< non-empty deltas admitted and applied
  int64_t ring_deltas = 0;       ///< took the ring propagation path
  int64_t recompute_deltas = 0;  ///< took the affected-subtree recompute
  int64_t nodes_updated = 0;     ///< GHD nodes whose state was recomputed/folded
  int64_t nodes_reused = 0;      ///< clean nodes whose cached message was reused
};

template <CommutativeSemiring S>
class StandingQuery {
 public:
  using Semiring = S;

  /// Plans q through the shared PlanCache (identical keys to
  /// YannakakisSolve — a standing query warms the same plan one-shot
  /// queries hit), then runs CreateOn over that plan. Every validated query
  /// has a plan, so only validation can fail.
  static Result<StandingQuery> Create(FaqQuery<S> q,
                                      ExecContext* ctx = nullptr) {
    TOPOFAQ_RETURN_IF_ERROR(q.Validate());
    const auto plan = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
    return CreateOn(std::move(q), plan.value().decomposition, ctx);
  }

  /// Runs the full pass once over a supplied decomposition of q's
  /// hypergraph: Create without the plan lookup, as YannakakisSolveOn is
  /// YannakakisSolve without it (Engine::Subscribe passes the plan its
  /// admission already looked up).
  static Result<StandingQuery> CreateOn(FaqQuery<S> q, const GyoGhd& gg,
                                        ExecContext* ctx = nullptr) {
    TOPOFAQ_RETURN_IF_ERROR(q.Validate());
    StandingQuery sq;
    sq.gg_ = gg;
    sq.q_ = std::move(q);
    const Ghd& ghd = sq.gg_.ghd;
    sq.node_of_relation_.assign(sq.q_.relations.size(), -1);
    for (int v = 0; v < ghd.num_nodes(); ++v) {
      const int e = ghd.node(v).edge_id;
      if (e >= 0) sq.node_of_relation_[static_cast<size_t>(e)] = v;
    }
    for (int node : sq.node_of_relation_)
      if (node < 0)
        return Status::Internal("decomposition covers no node for an edge");
    // Ring propagation needs exact additive inverses AND ⊕-linear
    // eliminations: any bound min/max aggregate forces recompute mode.
    sq.ring_mode_ = RingTraits<S>::kIsRing && RingTraits<S>::kExact;
    if (sq.ring_mode_) {
      for (VarId v = 0;
           v < static_cast<VarId>(sq.q_.hypergraph.num_vertices()); ++v) {
        const bool is_free =
            std::find(sq.q_.free_vars.begin(), sq.q_.free_vars.end(), v) !=
            sq.q_.free_vars.end();
        if (!is_free && sq.q_.hypergraph.Degree(v) > 0 &&
            sq.q_.OpFor(v) != VarOp::kSemiringSum)
          sq.ring_mode_ = false;
      }
    }
    // The full pass is the recompute with every node dirty; creation is
    // not maintenance, so its node counts leave the stats at zero.
    sq.msgs_.resize(static_cast<size_t>(ghd.num_nodes()));
    sq.RecomputeDirty(std::vector<char>(sq.msgs_.size(), 1), ctx);
    sq.stats_ = StandingStats{};
    return sq;
  }

  /// The current answer over F, canonical. Repeatable; never recomputes.
  const Relation<S>& Current() const { return answer_; }

  const FaqQuery<S>& query() const { return q_; }
  bool ring_mode() const { return ring_mode_; }
  const StandingStats& stats() const { return stats_; }
  const GyoGhd& decomposition() const { return gg_; }

  /// Applies one batched delta to relation `relation_id` and brings the
  /// answer current. Both halves are canonicalized here; empty deltas are
  /// free. NOT thread-safe: callers serialize (server/subscribe.h holds a
  /// per-session mutex).
  Status ApplyDelta(int relation_id, Delta<S> d, ExecContext* ctx = nullptr) {
    if (relation_id < 0 ||
        relation_id >= static_cast<int>(q_.relations.size()))
      return Status::InvalidArgument("delta targets unknown relation " +
                                     std::to_string(relation_id));
    Relation<S>& base = q_.relations[static_cast<size_t>(relation_id)];
    if (Status s = CheckDelta(base, &d, ctx); !s.ok()) return s;
    if (d.empty()) return Status::Ok();
    ++stats_.deltas_applied;

    const int node = node_of_relation_[static_cast<size_t>(relation_id)];
    if constexpr (RingTraits<S>::kIsRing && RingTraits<S>::kExact) {
      if (ring_mode_) {
        // The shared base update emits the net change in the same walk;
        // push it up the root path.
        Relation<S> change;
        UpdateBase(&base, d.removes, d.adds, ctx, &change);
        ++stats_.ring_deltas;
        if (change.empty()) return Status::Ok();
        PropagateRing(std::move(change), node, ctx);
        return Status::Ok();
      }
    }
    UpdateBase(&base, d.removes, d.adds, ctx);
    ++stats_.recompute_deltas;
    std::vector<char> dirty(msgs_.size(), 0);
    for (int v = node; v >= 0; v = gg_.ghd.node(v).parent)
      dirty[static_cast<size_t>(v)] = 1;
    RecomputeDirty(dirty, ctx);
    return Status::Ok();
  }

 private:
  StandingQuery() = default;

  /// Ring mode: walk the touched node's root path once. At each node the
  /// incremental term is the node step (internal::SolveNode) with the delta
  /// in place of the changed operand and every *other* operand at its
  /// current value (⊕-linearity in the dirty argument); fold it into the
  /// stored message and forward it. Stops early when a term annihilates
  /// (⊕-cancellation or empty join).
  void PropagateRing(Relation<S> cur, int node, ExecContext* ctx) {
    const Ghd& ghd = gg_.ghd;
    for (int v = node, from = -1;; from = v, v = ghd.node(v).parent) {
      ++stats_.nodes_updated;
      std::vector<const Relation<S>*> parts{&cur};
      const int e = ghd.node(v).edge_id;
      if (from >= 0 && e >= 0)
        parts.push_back(&q_.relations[static_cast<size_t>(e)]);
      for (int c : ghd.node(v).children)
        if (c != from) parts.push_back(&msgs_[static_cast<size_t>(c)]);
      Relation<S> term = internal::SolveNode(q_, ghd, v, parts, ctx);
      if (v == ghd.root()) {
        AddInto(&answer_, term, ctx);
        return;
      }
      if (term.empty()) return;  // nothing survives to the parent
      term.ReorderTo(msgs_[static_cast<size_t>(v)].schema(), ctx);
      AddInto(&msgs_[static_cast<size_t>(v)], term, ctx);
      cur = std::move(term);
    }
  }

  /// Reruns the pass step at every dirty node bottom-up, reusing the cached
  /// message of every clean child — the same step on byte-identical
  /// operands as YannakakisSolveOn, so the same bytes.
  void RecomputeDirty(const std::vector<char>& dirty, ExecContext* ctx) {
    const Ghd& ghd = gg_.ghd;
    for (int v : ghd.BottomUpOrder()) {
      if (!dirty[static_cast<size_t>(v)]) {
        ++stats_.nodes_reused;
        continue;
      }
      ++stats_.nodes_updated;
      Relation<S> out = internal::SolveNode(
          q_, ghd, v, internal::PassOperands(q_, ghd, v, msgs_), ctx);
      if (v == ghd.root()) {
        answer_ = std::move(out);
        return;
      }
      msgs_[static_cast<size_t>(v)] = std::move(out);
    }
  }

  FaqQuery<S> q_;  // relations mutate under deltas; shape is fixed
  GyoGhd gg_;
  std::vector<int> node_of_relation_;  // hyperedge id -> GHD node
  /// Post-elimination message per non-root node (root slot empty).
  std::vector<Relation<S>> msgs_;
  Relation<S> answer_;
  bool ring_mode_ = false;
  StandingStats stats_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_IVM_STANDING_QUERY_H_
