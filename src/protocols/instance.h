// A distributed FAQ instance (Model 2.1): the query, the topology G, the
// assignment of input functions to players, the designated sink, and the
// channel budget (the paper's O(r·log2 D) bits per edge per round).
#ifndef TOPOFAQ_PROTOCOLS_INSTANCE_H_
#define TOPOFAQ_PROTOCOLS_INSTANCE_H_

#include <vector>

#include "faq/query.h"
#include "graphalg/graph.h"
#include "relation/exec.h"
#include "util/bits.h"

namespace topofaq {

/// Wire parameters derived from a DistInstance without mutating it — what
/// protocols consume instead of deep-copying the instance just to fill the
/// derived fields in place (the seed's copy-then-finalize pattern).
struct DistDerived {
  /// Per-attribute wire width: log2(D).
  int bits_per_attr = 0;
  /// Per-edge per-round budget (the paper's O(r·log2 D) default unless the
  /// instance pins one).
  int64_t capacity_bits = 0;
};

template <CommutativeSemiring S>
struct DistInstance {
  FaqQuery<S> query;
  Graph topology;
  /// owners[e] = node holding relation e. More than one function may live on
  /// one player (|K| <= k, as exploited by the lower bounds).
  std::vector<NodeId> owners;
  /// The pre-determined player that must know the answer.
  NodeId sink = 0;
  /// Per-attribute wire width: log2(D). Derived by default.
  int bits_per_attr = 0;
  /// Per-edge per-round budget. Model 2.1 allots O(r·log2 D) bits so that
  /// "any tuple in any function can be communicated" each round; for
  /// annotated tuples this means r·log2(D) + kValueBits (the default).
  int64_t capacity_bits = 0;

  /// Validates shapes and computes the derived wire parameters without
  /// mutating the instance — every protocol calls this on a const
  /// reference, so running a protocol never deep-copies the relations. The
  /// instance's own bits_per_attr / capacity_bits, when positive, pin the
  /// derived values; negative ones are rejected.
  Result<DistDerived> Derived() const {
    TOPOFAQ_RETURN_IF_ERROR(query.Validate());
    if (static_cast<int>(owners.size()) != query.hypergraph.num_edges())
      return Status::InvalidArgument("one owner per relation required");
    for (NodeId o : owners)
      if (o < 0 || o >= topology.num_nodes())
        return Status::InvalidArgument("owner node out of range");
    if (sink < 0 || sink >= topology.num_nodes())
      return Status::InvalidArgument("sink out of range");
    if (!topology.IsConnected())
      return Status::InvalidArgument("topology must be connected");
    if (bits_per_attr < 0 || capacity_bits < 0)
      return Status::InvalidArgument(
          "pinned bits_per_attr and capacity_bits must be non-negative");
    DistDerived d;
    d.bits_per_attr =
        bits_per_attr != 0 ? bits_per_attr : BitsForDomain(query.DomainSize());
    d.capacity_bits =
        capacity_bits != 0
            ? capacity_bits
            : static_cast<int64_t>(std::max(1, query.hypergraph.MaxArity())) *
                      d.bits_per_attr +
                  S::kValueBits;
    return d;
  }

  /// Distinct players (the set K).
  std::vector<NodeId> Players() const {
    std::vector<NodeId> k = owners;
    std::sort(k.begin(), k.end());
    k.erase(std::unique(k.begin(), k.end()), k.end());
    return k;
  }
};

/// Round/byte accounting common to all protocols, plus the rolled-up
/// sorted-relation kernel counters for the local computation the protocol
/// simulated (rows in/out, key comparisons, sorts paid vs. skipped).
///
/// The synchronous round-ledger protocols fill `rounds`; the event-driven
/// async protocols (protocols/async.h) leave rounds at 0 and fill the
/// makespan/streaming block instead. `total_bits` is exact in both modes —
/// for async it is the *actual* transferred bits (pages + framing +
/// credits), the observable the paper's footnote-6 per-edge budgets bound.
struct ProtocolStats {
  int64_t rounds = 0;
  int64_t total_bits = 0;
  /// Simulated completion time of the async run (0 for sync protocols).
  double makespan = 0.0;
  /// Relation pages shipped end to end by the streaming transport.
  int64_t pages = 0;
  /// High-water mark of pages any single *source* node had in flight
  /// (materialized but not yet consumed at the sink) — bounded by
  /// StreamOptions::node_page_budget by construction. Pages being relayed
  /// on a multi-hop route stay charged to their source, so a relay node may
  /// transiently buffer its own budget plus forwarded pages.
  int64_t max_in_flight_pages = 0;
  /// Actual payload bits the streaming transport shipped, with per-column
  /// encodings applied (packed codes + dictionaries + annotations; framing
  /// and credits excluded), and the same payload priced by the plain
  /// r·log2(D) cost model. encoded/plain is the wire compression the
  /// column encodings bought; the two are equal when nothing shipped
  /// encoded. Zero for the synchronous protocols, which never page.
  int64_t payload_bits_encoded = 0;
  int64_t payload_bits_plain = 0;
  /// Per-edge channel utilization over the whole run (both directions,
  /// AsyncNetwork::EdgeUtilization), and its maximum.
  std::vector<double> edge_utilization;
  double max_edge_utilization = 0.0;
  OpStats kernel;
};

template <CommutativeSemiring S>
struct ProtocolResult {
  Relation<S> answer;
  ProtocolStats stats;
};

/// Spreads relations over nodes round-robin (the default assignment used by
/// upper-bound experiments; upper bounds hold for *every* assignment).
inline std::vector<NodeId> RoundRobinOwners(int num_relations, int num_nodes) {
  std::vector<NodeId> owners(num_relations);
  for (int e = 0; e < num_relations; ++e) owners[e] = e % num_nodes;
  return owners;
}

}  // namespace topofaq

#endif  // TOPOFAQ_PROTOCOLS_INSTANCE_H_
