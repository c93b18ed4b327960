// The paper's two distributed protocols, each written once as a schedule of
// steps and run on one of two clocks:
//
//  * Trivial    — Lemma 3.1: gather every relation at the sink and solve
//                 there (cost τ_MCF).
//  * CoreForest — Theorems 4.1 / 5.2, Algorithms 1–3: bottom-up star
//                 elimination over the width-minimized GYO-GHD. Each star
//                 ships its center relation to the leaf owners, each leaf
//                 computes its functional message (the Corollary G.2
//                 push-down of private bound variables), and the center
//                 folds the messages in kid order. An acyclic root finishes
//                 locally and sends the answer to the sink; the synthetic
//                 core bag (cyclic H or a forest) is gathered at the sink and
//                 solved there (Lemma 4.2 / F.2).
//
// A step is a star exchange, a gather to the sink, a point-to-point send or
// a local kernel step. A clock prices each step and then runs its
// continuation; a transfer hands the continuation the relation as
// delivered. The clocks implement this interface:
//
//   static Status Check(const DistInstance<S>&, const DistDerived&);
//   Clock(const DistInstance<S>&, const DistDerived&, extra args...);
//   void Compute(const char* stage, NodeId node, size_t rows,
//                std::function<void()> fn);       // always deferred
//   void Send(NodeId src, NodeId dst, Relation<S> rel, Delivery<S> done);
//   void Gather(std::vector<GatherPart<S>> parts, NodeId sink,
//               std::function<void(std::vector<Relation<S>>)> done);
//   void Exchange(StarStep<S> star);
//   void Run();                                   // drain deferred work
//   void Fill(ProtocolStats* stats) const;
//
//  * LedgerClock (distributed.h) prices steps on the Model 2.1 round ledger
//    (SyncNetwork): a star exchange is a Steiner packing (StarTrees), a
//    multi-tree broadcast and a convergecast; a gather is congestion-aware
//    GatherFlows.
//    It passes the sender's relation through.
//  * EventClock (async.h) prices steps on the event simulator (AsyncNetwork
//    + StreamNet) over the same plans: a star exchange pages the center down
//    the same Steiner packing and convergecasts the aggregated values up
//    it; a gather streams each part along its GatherRoutes route. Every
//    page goes under the per-node budget, and compute tasks go through the
//    event heap at zero delay, so stars in disjoint subtrees overlap in
//    simulated time. Sends and gathers deliver the reassembled relation.
//
// Since both clocks run the same steps on the same operands in the same
// kid order, star messages pass through both clocks, and the streaming
// transport's reassembly is bit-exact, answers are bit-identical — per
// column and per annotation bit pattern — across clocks, parallelism levels
// and page budgets.
#ifndef TOPOFAQ_PROTOCOLS_SCHEDULE_H_
#define TOPOFAQ_PROTOCOLS_SCHEDULE_H_

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "faq/solvers.h"
#include "ghd/width.h"
#include "network/primitives.h"
#include "protocols/instance.h"
#include "util/bits.h"

namespace topofaq {

/// Continuation of a transfer: receives the relation as delivered.
template <CommutativeSemiring S>
using Delivery = std::function<void(Relation<S>)>;

/// One relation headed for the sink in a gather, with the node holding it.
template <CommutativeSemiring S>
struct GatherPart {
  NodeId owner = -1;
  Relation<S> rel;
};

/// One star of the core-forest protocol (Algorithm 1/2/3): the center owner
/// ships its relation to every leaf owner, each leaf computes its message,
/// and the messages return to the center owner.
template <CommutativeSemiring S>
struct StarStep {
  int center = -1;  ///< GHD node id of the star center
  NodeId center_owner = -1;
  /// Borrowed; stays unchanged until `done` runs.
  const Relation<S>* center_rel = nullptr;
  std::vector<NodeId> leaf_owners;  ///< kid order
  std::vector<size_t> leaf_rows;    ///< kid relation sizes, kid order
  /// Computes kid k's message at its owner.
  std::function<Relation<S>(size_t k)> leaf_message;
  /// Receives the messages as delivered at the center owner, kid order.
  std::function<void(std::vector<Relation<S>>)> done;
};

namespace internal {

/// The packing a star exchange runs on, shared by both clocks (Theorem
/// 3.11): edge-disjoint Steiner trees spanning K_star = the center owner
/// and the leaf owners, planned for the center's bits plus its |R_center|
/// aggregated values, each oriented at the center owner. Empty when the
/// star moves nothing: every leaf is at the center owner, or the center
/// relation is empty.
template <CommutativeSemiring S>
std::vector<RootedTree> StarTrees(const Graph& g, int64_t capacity_bits,
                                  int bits_per_attr, const StarStep<S>& star) {
  constexpr uint64_t kPlanSeed = 0xfa0;
  const NodeId co = star.center_owner;
  std::vector<NodeId> k_star{co};
  for (NodeId o : star.leaf_owners)
    if (o != co) k_star.push_back(o);
  std::sort(k_star.begin(), k_star.end());
  k_star.erase(std::unique(k_star.begin(), k_star.end()), k_star.end());
  const int64_t n_items = static_cast<int64_t>(star.center_rel->size());
  std::vector<RootedTree> trees;
  if (k_star.size() <= 1 || n_items == 0) return trees;
  const int64_t star_bits =
      star.center_rel->EncodedBits(bits_per_attr) + n_items * S::kValueBits;
  const int64_t plan_items =
      std::max<int64_t>(1, CeilDiv(star_bits, capacity_bits));
  IntersectionPlan plan =
      PlanIntersection(g, k_star, plan_items, kPlanSeed + star.center);
  for (const SteinerTree& t : plan.trees)
    trees.push_back(OrientTree(g, t.edges, co));
  return trees;
}

/// F ⊆ χ(root), the Appendix G.5 restriction the core-forest protocol keeps
/// (the central GHD pass has no such restriction).
template <CommutativeSemiring S>
Status CheckFreeVarsInRoot(const FaqQuery<S>& q, const Ghd& ghd) {
  const std::vector<VarId>& root_chi = ghd.node(ghd.root()).chi;
  for (VarId v : q.free_vars)
    if (!std::binary_search(root_chi.begin(), root_chi.end(), v))
      return Status::FailedPrecondition(
          "free variable " + std::to_string(v) +
          " outside V(C(H)): unsupported choice of F (Appendix G.5)");
  return Status::Ok();
}

/// The decomposition the core-forest protocol runs on: width-minimized,
/// re-rooted so F ⊆ χ(root) when F is non-empty, with the Appendix G.5
/// precondition checked.
template <CommutativeSemiring S>
Result<WidthResult> CoreForestDecomposition(const FaqQuery<S>& q) {
  constexpr int kWidthRestarts = 8;
  constexpr uint64_t kWidthSeed = 0xfa0;
  std::vector<VarId> f = q.free_vars;
  std::sort(f.begin(), f.end());
  WidthResult w =
      MinimizeWidthWithRoot(q.hypergraph, f, kWidthRestarts, kWidthSeed);
  TOPOFAQ_RETURN_IF_ERROR(CheckFreeVarsInRoot(q, w.decomposition.ghd));
  return w;
}

/// One protocol run: the schedule's steps, issued on `Clock`.
template <CommutativeSemiring S, class Clock>
class Schedule {
 public:
  Schedule(const DistInstance<S>& inst, Clock* clock, ExecContext* ctx)
      : inst_(inst), q_(inst.query), clock_(clock), ctx_(ctx) {}

  /// Lemma 3.1: every relation goes to the sink, which solves centrally.
  Relation<S> Trivial() {
    std::vector<GatherPart<S>> parts;
    for (int e = 0; e < q_.hypergraph.num_edges(); ++e)
      parts.push_back({inst_.owners[e], q_.relations[e]});
    GatherAndSolve("solve", std::move(parts));
    return Drain();
  }

  /// The Theorem 4.1 / 5.2 protocol over `ghd`.
  Relation<S> CoreForest(const Ghd& ghd) {
    ghd_ = &ghd;
    // Each GHD node starts with its relation at that relation's owner; the
    // synthetic core bag starts as the unit relation at the sink.
    const int n = ghd.num_nodes();
    state_.resize(n);
    owner_.assign(n, inst_.sink);
    for (int v = 0; v < n; ++v) {
      const int e = ghd.node(v).edge_id;
      state_[v] = e >= 0 ? q_.relations[e] : internal::UnitRelation<S>();
      if (e >= 0) owner_[v] = inst_.owners[e];
    }
    // The star list: every internal node, bottom-up, except the synthetic
    // core bag (it is finished at the sink instead). A star waits for the
    // stars of its internal children, so disjoint subtrees are independent.
    root_is_relation_ = ghd.node(ghd.root()).edge_id >= 0;
    std::vector<int> star_of(n, -1);
    for (int center : ghd.BottomUpOrder()) {
      if (center == ghd.root() && !root_is_relation_) continue;
      if (ghd.node(center).children.empty()) continue;
      star_of[center] = static_cast<int>(stars_.size());
      stars_.push_back({center, 0, {}});
    }
    for (size_t i = 0; i < stars_.size(); ++i)
      for (int c : ghd.node(stars_[i].center).children)
        if (star_of[c] >= 0) {
          ++stars_[i].deps;
          stars_[star_of[c]].dependents.push_back(static_cast<int>(i));
        }
    if (stars_.empty()) {
      Finish();
    } else {
      for (size_t i = 0; i < stars_.size(); ++i)
        if (stars_[i].deps == 0) StartStar(static_cast<int>(i));
    }
    return Drain();
  }

 private:
  struct Star {
    int center;
    int deps;                     // unfinished child stars
    std::vector<int> dependents;  // star indices waiting on this one
  };

  void StartStar(int i) {
    const int center = stars_[i].center;
    const auto& kids = ghd_->node(center).children;
    StarStep<S> step;
    step.center = center;
    step.center_owner = owner_[center];
    step.center_rel = &state_[center];
    for (int c : kids) {
      step.leaf_owners.push_back(owner_[c]);
      step.leaf_rows.push_back(state_[c].size());
    }
    // The leaf's functional message is the elimination half of its own
    // node step: its private bound variables aggregated out (Corollary G.2)
    // — the kid's state already holds its folded children.
    step.leaf_message = [this, center](size_t k) {
      const int kid = ghd_->node(center).children[k];
      return internal::SolveNode(q_, *ghd_, kid, {&state_[kid]}, ctx_);
    };
    step.done = [this, i](std::vector<Relation<S>> msgs) {
      Fold(i, std::move(msgs));
    };
    clock_->Exchange(std::move(step));
  }

  /// R'_center = R_center ⊗ Π_k message_k in kid order — one factor
  /// Eliminate with nothing to eliminate (message schemas are subsets of the
  /// center schema, so the center schema is preserved) — then release the
  /// stars waiting on this one.
  void Fold(int i, std::vector<Relation<S>> msgs) {
    const int center = stars_[i].center;
    size_t rows = state_[center].size();
    for (const Relation<S>& m : msgs) rows += m.size();
    clock_->Compute(
        "star_join", owner_[center], rows,
        [this, i, center, msgs = std::move(msgs)] {
          std::vector<const Relation<S>*> factors;
          for (const Relation<S>& m : msgs) factors.push_back(&m);
          if (!factors.empty())
            state_[center] = Eliminate(state_[center], factors, {}, {}, ctx_);
          ++stars_done_;
          for (int dep : stars_[i].dependents)
            if (--stars_[dep].deps == 0) StartStar(dep);
          if (stars_done_ == stars_.size()) Finish();
        });
  }

  /// After the last star: an acyclic root eliminates its remaining bound
  /// variables and sends the answer to the sink; otherwise the survivors
  /// under the core bag are gathered and solved at the sink.
  void Finish() {
    const int root = ghd_->root();
    if (!root_is_relation_) {
      std::vector<GatherPart<S>> parts;
      for (int c : ghd_->node(root).children)
        parts.push_back({owner_[c], std::move(state_[c])});
      GatherAndSolve("solve_core", std::move(parts));
      return;
    }
    const NodeId ro = owner_[root];
    clock_->Compute("finish", ro, state_[root].size(), [this, root, ro] {
      clock_->Send(
          ro, inst_.sink,
          internal::SolveNode(q_, *ghd_, root, {&state_[root]}, ctx_),
          [this](Relation<S> a) { answer_ = std::move(a); });
    });
  }

  /// Gathers `parts` at the sink, then joins them and eliminates every
  /// bound variable there — the trivial protocol's solve and the core
  /// finish alike. JoinAndEliminate routes a cyclic core through the
  /// worst-case-optimal MultiwayJoin.
  void GatherAndSolve(const char* stage, std::vector<GatherPart<S>> parts) {
    clock_->Gather(
        std::move(parts), inst_.sink,
        [this, stage](std::vector<Relation<S>> at_sink) {
          size_t rows = 0;
          for (const Relation<S>& r : at_sink) rows += r.size();
          clock_->Compute(
              stage, inst_.sink, rows,
              [this, at_sink = std::move(at_sink)]() mutable {
                answer_ = internal::JoinAndEliminate(
                    std::move(at_sink), q_.free_vars, q_, ctx_);
                answer_->ReorderTo(Schema(q_.free_vars), ctx_);
              });
        });
  }

  Relation<S> Drain() {
    clock_->Run();
    TOPOFAQ_CHECK_MSG(answer_.has_value(), "protocol schedule did not finish");
    return std::move(*answer_);
  }

  const DistInstance<S>& inst_;
  const FaqQuery<S>& q_;
  Clock* clock_;
  ExecContext* ctx_;
  const Ghd* ghd_ = nullptr;
  std::vector<Relation<S>> state_;  // per GHD node: current relation
  std::vector<NodeId> owner_;       // per GHD node: player holding it
  std::vector<Star> stars_;
  size_t stars_done_ = 0;
  bool root_is_relation_ = false;
  std::optional<Relation<S>> answer_;
};

/// Runs one protocol on `Clock`: validates the instance, builds the
/// decomposition (core forest only) and the clock, and collects the stats.
/// Every local computation, and every relation the clock reassembles, runs
/// on one private context with `ctx`'s parallelism and modes (defaults for
/// nullptr; `parallelism` > 0 overrides), so stats.kernel counts this run.
template <class Clock, CommutativeSemiring S, class... ClockArgs>
Result<ProtocolResult<S>> RunSchedule(const DistInstance<S>& inst,
                                      bool core_forest, int parallelism,
                                      ExecContext* ctx,
                                      const ClockArgs&... clock_args) {
  auto d = inst.Derived();
  if (!d.ok()) return d.status();
  TOPOFAQ_RETURN_IF_ERROR(Clock::Check(inst, *d));
  std::optional<WidthResult> w;
  if (core_forest) {
    auto r = CoreForestDecomposition(inst.query);
    if (!r.ok()) return r.status();
    w = std::move(r.value());
  }
  ExecContext run;
  if (ctx != nullptr) {
    run.parallelism = ctx->parallelism;
    run.encoding = ctx->encoding;
    run.simd = ctx->simd;
  }
  if (parallelism > 0) run.parallelism = parallelism;
  Clock clock(inst, *d, &run, clock_args...);
  Schedule<S, Clock> schedule(inst, &clock, &run);
  ProtocolResult<S> out;
  out.answer = w ? schedule.CoreForest(w->decomposition.ghd)
                 : schedule.Trivial();
  clock.Fill(&out.stats);
  out.stats.kernel = run.Totals();
  return out;
}

}  // namespace internal
}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_SCHEDULE_H_
