// The paper's distributed protocols on the event-driven simulator
// (network/async.h) with the streaming relation transport
// (network/stream.h). The protocols themselves are written once in
// schedule.h; this file supplies the clock that prices their steps in
// simulated time:
//
//  * RunTrivialProtocolAsync    — every relation is *streamed* to the sink
//                                 as fixed-size column-chunk pages under the
//                                 per-node page budget; the sink solves over
//                                 the reassembled relations.
//  * RunCoreForestProtocolAsync — the Theorem 4.1/5.2 star elimination as a
//                                 dependency DAG of simulated events: each
//                                 star streams its center relation to the
//                                 remote leaf owners, leaves compute their
//                                 messages and stream them back, and the
//                                 center folds them in. Stars in disjoint
//                                 subtrees overlap in simulated time, and
//                                 every transfer overlaps with whatever local
//                                 kernel work is ready — the communication/
//                                 computation overlap the round ledger
//                                 cannot express.
//
// Answers are bit-identical — per column and per annotation bit pattern —
// to RunTrivialProtocol / RunCoreForestProtocol at every parallelism level
// and page budget: the schedule is the same, and the reassembly is bit-exact.
// What changes is the cost model: ProtocolStats reports a continuous
// makespan, actual transferred bits (pages + framing + credits), peak
// in-flight pages, and per-edge utilization instead of a round count.
#ifndef TOPOFAQ_PROTOCOLS_ASYNC_H_
#define TOPOFAQ_PROTOCOLS_ASYNC_H_

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "network/async.h"
#include "network/stream.h"
#include "protocols/schedule.h"

namespace topofaq {

/// Options shared by both async protocols.
struct AsyncProtocolOptions {
  /// Streaming transport knobs (page size, per-node page budget, framing).
  StreamOptions stream;
  /// Kernel parallelism for the simulated local computations (same knob as
  /// CoreForestOptions::parallelism / TrivialOptions::parallelism).
  int parallelism = 0;
  /// Span sink for the simulated timeline (obs/trace.h). When non-null, the
  /// run exports link transfers (via AsyncNetwork::set_trace) plus one
  /// zero-length span per scheduled compute task — stage name, on a
  /// per-player "node N" track, at its schedule time — all in the simulated
  /// clock domain (pid 2 of the Chrome export). Borrowed; must outlive the
  /// call.
  obs::TraceSession* trace = nullptr;
};

/// Prices schedule steps on the event simulator. Every channel gets one
/// synchronous round's budget per time unit and a latency of one unit per
/// hop, so makespans are directly comparable to round counts. Compute tasks
/// cost no simulated time but still go through the event heap, so they
/// interleave with transfers in event order. Transfers deliver the
/// reassembled relation.
template <CommutativeSemiring S>
class EventClock {
 public:
  /// The streaming transport cuts sorted pages from its sources, so the
  /// event clock requires canonical input relations — surfaced as a Status
  /// rather than a CHECK crash mid-simulation. (The ledger accepts unsorted
  /// listings; it never pages anything.)
  static Status Check(const DistInstance<S>& inst, const DistDerived&) {
    for (const Relation<S>& r : inst.query.relations)
      if (!r.canonical())
        return Status::InvalidArgument(
            "async protocols stream relations page by page and require "
            "canonical inputs — call Relation::Canonicalize() first (the "
            "synchronous protocols accept unsorted listings)");
    return Status::Ok();
  }

  EventClock(const DistInstance<S>& inst, const DistDerived& d,
             ExecContext* ctx, const AsyncProtocolOptions& opts)
      : net_(inst.topology,
             LinkParams{1.0, static_cast<double>(d.capacity_bits)}),
        streams_(&net_, opts.stream, ctx),
        bits_per_attr_(d.bits_per_attr),
        trace_(opts.trace) {
    if (trace_ != nullptr) {
      net_.set_trace(trace_);
      tracks_.assign(static_cast<size_t>(inst.topology.num_nodes()), 0);
    }
  }

  void Compute(const char* stage, NodeId node, size_t rows,
               std::function<void()> fn) {
    if (trace_ != nullptr) {
      uint32_t& slot = tracks_[static_cast<size_t>(node)];
      if (slot == 0)
        slot = trace_->RegisterTrack("node " + std::to_string(node),
                                     obs::ClockDomain::kSimulated) +
               1;
      char args[48];
      std::snprintf(args, sizeof(args), "{\"rows\":%zu}", rows);
      trace_->Emit(stage, slot - 1, obs::ClockDomain::kSimulated, net_.now(),
                   0.0, args);
    }
    net_.ScheduleAfter(0, std::move(fn));
  }

  /// src == dst delivers at once; otherwise the relation streams from a
  /// copy the clock holds until the last page is consumed.
  void Send(NodeId src, NodeId dst, Relation<S> rel, Delivery<S> done) {
    if (src == dst) {
      done(std::move(rel));
      return;
    }
    auto held = std::make_shared<const Relation<S>>(std::move(rel));
    streams_.SendRelation(src, dst, *held, bits_per_attr_,
                          [held, done = std::move(done)](Relation<S> r) {
                            done(std::move(r));
                          });
  }

  void Gather(std::vector<GatherPart<S>> parts, NodeId sink,
              std::function<void(std::vector<Relation<S>>)> done) {
    struct State {
      std::vector<Relation<S>> delivered;
      size_t pending;
      std::function<void(std::vector<Relation<S>>)> done;
    };
    auto st = std::make_shared<State>(
        State{std::vector<Relation<S>>(parts.size()), parts.size(),
              std::move(done)});
    for (size_t i = 0; i < parts.size(); ++i)
      Send(parts[i].owner, sink, std::move(parts[i].rel),
           [st, i](Relation<S> r) {
             st->delivered[i] = std::move(r);
             if (--st->pending == 0) st->done(std::move(st->delivered));
           });
  }

  /// One broadcast stream per remote leaf owner (Algorithm 1 step 3, as
  /// actual paged bytes), after which that owner's leaves compute their
  /// messages. Local leaves — and every leaf when the center is empty,
  /// where the ledger also skips the broadcast — start at once.
  void Exchange(StarStep<S> star) {
    struct State {
      StarStep<S> star;
      std::vector<Relation<S>> messages;
      size_t pending;
    };
    const size_t n = star.leaf_owners.size();
    auto st = std::make_shared<State>(
        State{std::move(star), std::vector<Relation<S>>(n), n});
    const StarStep<S>& s = st->star;
    // Leaf k computes its message at its owner and sends it to the center
    // owner; the last message to arrive completes the exchange.
    auto leaf = [this, st](size_t k) {
      const NodeId owner = st->star.leaf_owners[k];
      Compute("compute_message", owner, st->star.leaf_rows[k],
              [this, st, k, owner] {
                Send(owner, st->star.center_owner, st->star.leaf_message(k),
                     [st, k](Relation<S> m) {
                       st->messages[k] = std::move(m);
                       if (--st->pending == 0)
                         st->star.done(std::move(st->messages));
                     });
              });
    };
    std::map<NodeId, std::vector<size_t>> by_owner;
    for (size_t k = 0; k < n; ++k) by_owner[s.leaf_owners[k]].push_back(k);
    const bool broadcast = !s.center_rel->empty();
    for (const auto& [owner, kids] : by_owner) {
      if (owner == s.center_owner || !broadcast) {
        for (size_t k : kids) leaf(k);
        continue;
      }
      // The delivered copy only models the broadcast's bytes; leaves
      // compute their messages from their own state.
      streams_.SendRelation(s.center_owner, owner, *s.center_rel,
                            bits_per_attr_, [leaf, kids](Relation<S>) {
                              for (size_t k : kids) leaf(k);
                            });
    }
  }

  void Run() { net_.Run(); }

  void Fill(ProtocolStats* st) const {
    st->makespan = net_.makespan();
    st->total_bits = net_.total_bits();
    st->pages = streams_.pages_shipped();
    st->max_in_flight_pages = streams_.max_in_flight_pages();
    st->payload_bits_encoded = streams_.payload_bits_encoded();
    st->payload_bits_plain = streams_.payload_bits_plain();
    st->edge_utilization = net_.EdgeUtilization();
    st->max_edge_utilization = 0.0;
    for (double u : st->edge_utilization)
      st->max_edge_utilization = std::max(st->max_edge_utilization, u);
  }

 private:
  AsyncNetwork net_;
  StreamNet<S> streams_;
  int bits_per_attr_;
  obs::TraceSession* trace_;
  std::vector<uint32_t> tracks_;  // per node: track id + 1; 0 = unregistered
};

/// Lemma 3.1, streaming edition: pages every remote relation to the sink
/// under the page budget, then solves over the reassembled inputs.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunTrivialProtocolAsync(
    const DistInstance<S>& inst, const AsyncProtocolOptions& opts = {},
    ExecContext* ctx = nullptr) {
  return internal::RunSchedule<EventClock<S>>(inst, /*core_forest=*/false,
                                              opts.parallelism, ctx, opts);
}

/// The Theorem 4.1 / 5.2 protocol as an event-driven star DAG, with
/// streaming transfers, per-node page budgets, and makespan accounting.
template <CommutativeSemiring S>
Result<ProtocolResult<S>> RunCoreForestProtocolAsync(
    const DistInstance<S>& inst, const AsyncProtocolOptions& opts = {},
    ExecContext* ctx = nullptr) {
  return internal::RunSchedule<EventClock<S>>(inst, /*core_forest=*/true,
                                              opts.parallelism, ctx, opts);
}

}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_ASYNC_H_
