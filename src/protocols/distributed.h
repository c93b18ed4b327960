// The paper's distributed protocols on the Model 2.1 round ledger
// (SyncNetwork). The protocols themselves are written once in schedule.h;
// this file supplies the clock that prices their steps in rounds:
//
//  * RunTrivialProtocol    — ship every relation to the sink and solve
//                            locally (Lemma 3.1, cost τ_MCF).
//  * RunCoreForestProtocol — the main upper bound (Theorems 4.1 / 5.2,
//                            Algorithms 1–3): each star is one broadcast of
//                            the center relation plus one aggregated
//                            set-intersection over a packed family of
//                            edge-disjoint Steiner trees (Theorem 3.11); the
//                            leftover core is finished with the trivial
//                            protocol.
//
// Transport is simulated round by round with exact capacity accounting;
// relation payloads are computed at the owning node, so answers are
// bit-identical — per column and per annotation bit pattern, the columnar
// kernel's determinism contract (docs/kernel.md) — to the centralized
// solvers while round counts reflect Model 2.1.
#ifndef TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_
#define TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_

#include <algorithm>
#include <deque>
#include <functional>
#include <utility>
#include <vector>

#include "network/primitives.h"
#include "network/simulator.h"
#include "protocols/schedule.h"

namespace topofaq {

/// Options for the trivial protocol.
struct TrivialOptions {
  /// Kernel parallelism for the sink's local solve — the same knob as
  /// CoreForestOptions::parallelism (0 inherits the process default;
  /// answers are bit-identical either way).
  int parallelism = 0;
};

/// Options for the structured protocol.
struct CoreForestOptions {
  /// Kernel parallelism for the simulated local computations (morsel-parallel
  /// operators, docs/kernel.md). 0 inherits the process default
  /// (TOPOFAQ_PARALLELISM, else 1); answers are bit-identical either way.
  int parallelism = 0;
};

/// Prices schedule steps on the round ledger. Every phase starts at the
/// previous phase's finish round and every primitive returns the round after
/// its last transmission, so each phase sees an idle ledger: the round count
/// is the sum of the phase lengths, whatever dependency order the stars run
/// in. Transfers pass the sender's relation through.
template <CommutativeSemiring S>
class LedgerClock {
 public:
  static Status Check(const DistInstance<S>&, const DistDerived& d) {
    return SyncNetwork::ValidateCapacity(d.capacity_bits);
  }

  LedgerClock(const DistInstance<S>& inst, const DistDerived& d,
              ExecContext* /*ctx*/)
      : net_(inst.topology, d.capacity_bits), bits_per_attr_(d.bits_per_attr) {}

  void Compute(const char*, NodeId, size_t, std::function<void()> fn) {
    ready_.push_back(std::move(fn));
  }

  void Send(NodeId src, NodeId dst, Relation<S> rel, Delivery<S> done) {
    if (src != dst)
      round_ = UnicastBits(
          &net_, src, dst,
          std::max<int64_t>(1, rel.EncodedBits(bits_per_attr_)), round_);
    done(std::move(rel));
  }

  void Gather(std::vector<GatherPart<S>> parts, NodeId sink,
              std::function<void(std::vector<Relation<S>>)> done) {
    std::vector<FlowDemand> demands;
    std::vector<Relation<S>> delivered;
    for (GatherPart<S>& p : parts) {
      if (p.owner != sink)
        demands.push_back({p.owner, p.rel.EncodedBits(bits_per_attr_)});
      delivered.push_back(std::move(p.rel));
    }
    if (!demands.empty()) round_ = GatherFlows(&net_, demands, sink, round_);
    done(std::move(delivered));
  }

  /// One Steiner-tree packing serves both phases (all trees span K_star and
  /// are rooted at the center owner): the broadcast of the center relation
  /// flows down the trees in chunks, and the Theorem 3.11 combine flows up
  /// as a pipelined convergecast of the |R_center| aggregated values.
  void Exchange(StarStep<S> star) {
    const std::vector<RootedTree> trees = internal::StarTrees(
        net_.graph(), net_.capacity_bits(), bits_per_attr_, star);
    if (!trees.empty()) {
      round_ = MultiTreeBroadcast(
          &net_, trees, star.center_rel->EncodedBits(bits_per_attr_), round_);
      const int64_t chunk =
          CeilDiv(static_cast<int64_t>(star.center_rel->size()),
                  static_cast<int64_t>(trees.size()));
      int64_t finish = round_;
      for (const RootedTree& tree : trees)
        finish = std::max(finish, ConvergecastItems(&net_, tree, chunk,
                                                    S::kValueBits, round_));
      round_ = finish;
    }
    std::vector<Relation<S>> messages;
    for (size_t k = 0; k < star.leaf_owners.size(); ++k)
      messages.push_back(star.leaf_message(k));
    star.done(std::move(messages));
  }

  void Run() {
    while (!ready_.empty()) {
      std::function<void()> fn = std::move(ready_.front());
      ready_.pop_front();
      fn();
    }
  }

  void Fill(ProtocolStats* st) const {
    st->rounds = round_;
    st->total_bits = net_.total_bits();
  }

 private:
  SyncNetwork net_;
  int bits_per_attr_;
  int64_t round_ = 0;
  std::deque<std::function<void()>> ready_;
};

/// Lemma 3.1: gather all relations at the sink, solve centrally.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunTrivialProtocol(const DistInstance<S>& inst,
                                             const TrivialOptions& opts = {},
                                             ExecContext* ctx = nullptr) {
  return internal::RunSchedule<LedgerClock<S>>(inst, /*core_forest=*/false,
                                               opts.parallelism, ctx);
}

/// The Theorem 4.1 / 5.2 protocol. Works for any assignment of relations to
/// players; requires F ⊆ V(C(H)) (Appendix G.5).
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunCoreForestProtocol(
    const DistInstance<S>& inst, const CoreForestOptions& opts = {},
    ExecContext* ctx = nullptr) {
  return internal::RunSchedule<LedgerClock<S>>(inst, /*core_forest=*/true,
                                               opts.parallelism, ctx);
}

/// BCQ wrapper: runs the structured protocol, answer is satisfiability.
inline Result<bool> RunBcqProtocol(const DistInstance<BooleanSemiring>& inst,
                                   ProtocolStats* stats = nullptr,
                                   const CoreForestOptions& opts = {}) {
  auto r = RunCoreForestProtocol(inst, opts);
  if (!r.ok()) return r.status();
  if (stats != nullptr) *stats = r->stats;
  return !r->answer.empty();
}

}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_DISTRIBUTED_H_
