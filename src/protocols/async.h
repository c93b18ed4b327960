// The paper's distributed protocols on the event-driven simulator
// (network/async.h) with the streaming relation transport
// (network/stream.h). The protocols themselves are written once in
// schedule.h; this file supplies the clock that prices their steps in
// simulated time, on the same transport plans the round ledger uses:
//
//  * RunTrivialProtocolAsync    — every relation is *streamed* to the sink
//                                 as fixed-size column-chunk pages under the
//                                 per-node page budget, each along the
//                                 congestion-aware route the ledger's
//                                 GatherFlows picks (GatherRoutes); the sink
//                                 solves over the reassembled relations.
//  * RunCoreForestProtocolAsync — the Theorem 4.1/5.2 star elimination as a
//                                 dependency DAG of simulated events: each
//                                 star pages its center relation down the
//                                 ledger's packed Steiner trees (StarTrees)
//                                 and runs one convergecast of aggregated
//                                 values per tree back to the center, which
//                                 folds the messages in. Stars in disjoint
//                                 subtrees overlap in simulated time, a
//                                 convergecast trails its multicast page by
//                                 page, and every transfer overlaps with
//                                 whatever local kernel work is ready — the
//                                 communication/computation overlap the
//                                 round ledger cannot express.
//
// Answers are bit-identical — per column and per annotation bit pattern —
// to RunTrivialProtocol / RunCoreForestProtocol at every parallelism level
// and page budget: the schedule is the same, a star's messages pass through
// the clock as they do on the ledger, and every reassembly is bit-exact.
// What changes is the cost model: ProtocolStats reports a continuous
// makespan, actual transferred bits (pages + framing + credits), peak
// in-flight pages, and per-edge utilization instead of a round count.
#ifndef TOPOFAQ_PROTOCOLS_ASYNC_H_
#define TOPOFAQ_PROTOCOLS_ASYNC_H_

#include <algorithm>
#include <cstdio>
#include <functional>
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
/// interleave with transfers in event order. Sends and gathers deliver the
/// reassembled relation; a star exchange passes its messages through, as
/// the ledger does.
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
        capacity_bits_(d.capacity_bits),
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

  /// src == dst delivers at once; otherwise the relation streams along a
  /// shortest path from a copy the clock holds until the last page is
  /// consumed.
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

  /// Each remote part streams along the route the ledger's GatherFlows
  /// picks for it (GatherRoutes: congestion-aware, biggest part first);
  /// parts already at the sink deliver at once.
  void Gather(std::vector<GatherPart<S>> parts, NodeId sink,
              std::function<void(std::vector<Relation<S>>)> done) {
    struct State {
      std::vector<Relation<S>> delivered;
      size_t pending;
      std::function<void(std::vector<Relation<S>>)> done;
    };
    auto st = std::make_shared<State>(State{
        std::vector<Relation<S>>(parts.size()), parts.size(), std::move(done)});
    auto arrive = [st](size_t i, Relation<S> r) {
      st->delivered[i] = std::move(r);
      if (--st->pending == 0) st->done(std::move(st->delivered));
    };
    std::vector<FlowDemand> demands;
    std::vector<size_t> remote;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (parts[i].owner == sink) continue;
      demands.push_back(
          {parts[i].owner, parts[i].rel.EncodedBits(bits_per_attr_)});
      remote.push_back(i);
    }
    const std::vector<std::vector<NodeId>> routes =
        GatherRoutes(net_.graph(), demands, sink);
    for (size_t r = 0; r < remote.size(); ++r) {
      auto held =
          std::make_shared<const Relation<S>>(std::move(parts[remote[r]].rel));
      streams_.SendAlong(routes[r], *held, bits_per_attr_,
                         [held, arrive, i = remote[r]](Relation<S> rel) {
                           arrive(i, std::move(rel));
                         });
    }
    // Remote parts arrive in later events, so the last local part here can
    // complete the gather only when nothing was remote.
    for (size_t i = 0; i < parts.size(); ++i)
      if (parts[i].owner == sink) arrive(i, std::move(parts[i].rel));
  }

  /// The ledger's exchange, paged (Algorithm 1 steps 3–4). The center's
  /// rows are cut into one chunk per packed Steiner tree, as
  /// MultiTreeBroadcast splits bits, and each chunk streams down its tree.
  /// Up each tree runs a convergecast of `S::kValueBits` per center row of
  /// the tree's chunk: a node combines the values of center page s once it
  /// holds that page, so the convergecast trails the multicast page by
  /// page. The convergecast carries bits only — the center folds the exact
  /// messages, which the clock passes through, so answers match the
  /// ledger's. Every leaf computes its message at once, from its own state:
  /// a zero-delay task, so it precedes every page of the exchange.
  void Exchange(StarStep<S> star) {
    std::vector<RootedTree> trees = internal::StarTrees(
        net_.graph(), capacity_bits_, bits_per_attr_, star);
    const size_t rows = star.center_rel->size();
    size_t chunk = 0;
    if (!trees.empty()) {
      chunk = (rows + trees.size() - 1) / trees.size();
      trees.resize((rows + chunk - 1) / chunk);  // trees with a non-empty chunk
    }
    struct State {
      StarStep<S> star;
      std::vector<Relation<S>> messages;
      size_t pending;  // leaf messages + convergecasts still open
    };
    const size_t n = star.leaf_owners.size();
    auto st = std::make_shared<State>(
        State{std::move(star), std::vector<Relation<S>>(n), n + trees.size()});
    auto finish = [st] {
      if (--st->pending == 0) st->star.done(std::move(st->messages));
    };
    for (size_t t = 0; t < trees.size(); ++t) {
      const size_t begin = t * chunk, end = std::min(rows, begin + chunk);
      // Nobody rebuilds the chunk: the leaves read their rows off the pages
      // as they pass, which is what paces the convergecast.
      const uint64_t down =
          streams_.Multicast(trees[t], {}, *st->star.center_rel, begin, end,
                             bits_per_attr_, [](NodeId, Relation<S>) {});
      streams_.Convergecast(down, finish);
    }
    for (size_t k = 0; k < n; ++k)
      Compute("compute_message", st->star.leaf_owners[k],
              st->star.leaf_rows[k], [st, k, finish] {
                st->messages[k] = st->star.leaf_message(k);
                finish();
              });
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
  int64_t capacity_bits_;
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
