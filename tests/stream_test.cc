// Event-driven network + streaming relation transport tests: channel
// timing/FIFO/accounting of AsyncNetwork, and the paging edge cases of
// StreamNet — empty relations, sub-page payloads, exact page multiples,
// key runs spanning a page boundary, the per-node page-budget
// backpressure rule (peak in-flight pages never exceeds the budget), and
// the tree streams: multicast down and convergecast up a rooted tree, each
// page crossing every tree edge once.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "bit_identity.h"
#include "graphalg/topologies.h"
#include "network/async.h"
#include "network/primitives.h"
#include "network/stream.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;

NRel RandomRel(const std::vector<VarId>& vars, size_t n, uint64_t dom,
               uint64_t seed) {
  Rng rng(seed);
  NRel r{Schema(vars)};
  std::vector<Value> row(vars.size());
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.NextU64(dom);
    r.Add(row, rng.NextU64(100) + 1);
  }
  r.Canonicalize();
  return r;
}

// ---------------------------------------------------------------- AsyncNetwork

TEST(AsyncNet, SingleHopSerializationPlusLatency) {
  AsyncNetwork net(LineTopology(2), LinkParams{1.0, 10.0});
  SimTime arrived = -1;
  net.SetHandler(1, [&](Packet p) {
    arrived = net.now();
    EXPECT_EQ(p.bits, 100);
  });
  Packet p;
  p.bits = 100;
  net.Send(0, 1, p);
  // 100 bits at 10 bits/unit = 10 units serialization + 1 latency.
  EXPECT_DOUBLE_EQ(net.Run(), 11.0);
  EXPECT_DOUBLE_EQ(arrived, 11.0);
  EXPECT_EQ(net.total_bits(), 100);
}

TEST(AsyncNet, ChannelIsFifoSecondPacketQueues) {
  AsyncNetwork net(LineTopology(2), LinkParams{1.0, 10.0});
  std::vector<SimTime> arrivals;
  net.SetHandler(1, [&](Packet) { arrivals.push_back(net.now()); });
  Packet p;
  p.bits = 100;
  net.Send(0, 1, p);
  net.Send(0, 1, p);  // starts serializing when the first finishes
  net.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 11.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 21.0);
}

TEST(AsyncNet, DirectionsAreFullDuplex) {
  AsyncNetwork net(LineTopology(2), LinkParams{1.0, 10.0});
  std::vector<SimTime> arrivals;
  net.SetHandler(0, [&](Packet) { arrivals.push_back(net.now()); });
  net.SetHandler(1, [&](Packet) { arrivals.push_back(net.now()); });
  Packet p;
  p.bits = 100;
  net.Send(0, 1, p);
  net.Send(1, 0, p);  // opposite direction: no contention
  net.Run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_DOUBLE_EQ(arrivals[0], 11.0);
  EXPECT_DOUBLE_EQ(arrivals[1], 11.0);
}

TEST(AsyncNet, SameInstantEventsFireInScheduleOrder) {
  AsyncNetwork net(LineTopology(2), LinkParams{1.0, 1.0});
  std::vector<int> order;
  net.ScheduleAfter(5.0, [&] { order.push_back(1); });
  net.ScheduleAfter(5.0, [&] { order.push_back(2); });
  net.ScheduleAfter(2.0, [&] { order.push_back(0); });
  net.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(net.makespan(), 5.0);
}

TEST(AsyncNet, UtilizationReflectsBusyTime) {
  AsyncNetwork net(LineTopology(2), LinkParams{0.0, 10.0});
  net.SetHandler(1, [](Packet) {});
  Packet p;
  p.bits = 100;
  net.Send(0, 1, p);
  net.Run();  // busy 10 units fwd, makespan 10
  EXPECT_DOUBLE_EQ(net.BusyTime(0, true), 10.0);
  EXPECT_DOUBLE_EQ(net.BusyTime(0, false), 0.0);
  auto util = net.EdgeUtilization();
  ASSERT_EQ(util.size(), 1u);
  EXPECT_DOUBLE_EQ(util[0], 0.5);  // one of two directions saturated
}

TEST(AsyncNet, EmptyRunHasZeroMakespan) {
  AsyncNetwork net(LineTopology(3), LinkParams{1.0, 8.0});
  EXPECT_DOUBLE_EQ(net.Run(), 0.0);
  EXPECT_TRUE(net.EdgeUtilization().empty() ||
              net.EdgeUtilization()[0] == 0.0);
}

// ---------------------------------------------------------------- StreamNet

struct StreamRun {
  NRel rebuilt;
  int64_t pages = 0;
  int64_t peak = 0;
  int64_t bits = 0;
  int64_t payload_encoded = 0;
  int64_t payload_plain = 0;
  SimTime makespan = 0;
  bool completed = false;
};

StreamRun ShipOnce(const NRel& rel, Graph g, NodeId src, NodeId dst,
                   StreamOptions opts) {
  AsyncNetwork net(std::move(g), LinkParams{1.0, 64.0});
  StreamNet<NaturalSemiring> streams(&net, opts);
  StreamRun out;
  streams.SendRelation(src, dst, rel, /*bits_per_attr=*/8,
                       [&](NRel r) {
                         out.rebuilt = std::move(r);
                         out.completed = true;
                       });
  out.makespan = net.Run();
  out.pages = streams.pages_shipped();
  out.peak = streams.max_in_flight_pages();
  out.bits = net.total_bits();
  out.payload_encoded = streams.payload_bits_encoded();
  out.payload_plain = streams.payload_bits_plain();
  return out;
}

TEST(Stream, RoundTripIsBitIdentical) {
  NRel r = RandomRel({0, 1, 2}, 500, 64, 11);
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 64, .node_page_budget = 4});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_EQ(run.pages, static_cast<int64_t>((r.size() + 63) / 64));
  // The plain-model price of the shipped payload matches the relation's
  // own cost model; the wire carries framing + credits on top of whatever
  // actually shipped. The encoded accounting is honest, not bounded: a
  // forced encoding on this high-cardinality input may ship a dictionary
  // table that outweighs the 8-bit plain model, so the two payloads are
  // only required to be consistent, not ordered.
  EXPECT_EQ(run.payload_plain, r.EncodedBits(8));
  EXPECT_GT(run.bits, run.payload_encoded);
  EXPECT_GT(run.payload_encoded, 0);
  EXPECT_GT(run.makespan, 0.0);
}

TEST(Stream, EmptyRelationStillCompletes) {
  NRel r{Schema({0, 1})};
  r.Canonicalize();
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 16, .node_page_budget = 2});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_TRUE(run.rebuilt.canonical());
  EXPECT_EQ(run.pages, 1);  // one empty `last` page carries the completion
}

TEST(Stream, PayloadSmallerThanOnePage) {
  NRel r = RandomRel({0, 1}, 5, 16, 13);
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 4096, .node_page_budget = 8});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_EQ(run.pages, 1);
  EXPECT_EQ(run.peak, 1);
}

TEST(Stream, ExactPageMultipleEmitsNoEmptyTailPage) {
  NRel r = RandomRel({0, 1}, 64, 1 << 20, 17);  // wide domain: no dup merge
  ASSERT_EQ(r.size(), 64u);
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 16, .node_page_budget = 8});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_EQ(run.pages, 4);  // 64 rows / 16 per page, last flag on page 4
}

TEST(Stream, SingleKeyRunSpanningPageBoundary) {
  // One key run (col 0 constant) across every page boundary: the sink's
  // builder must keep the rows distinct (no adjacent-merge) and certified
  // canonical with no sort.
  NRel r{Schema({0, 1})};
  for (int i = 0; i < 10; ++i) r.Add({7, static_cast<Value>(i)}, i + 1);
  r.Canonicalize();
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 4, .node_page_budget = 8});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_EQ(run.pages, 3);  // 4 + 4 + 2
}

TEST(Stream, BudgetBoundsPeakInFlightPages) {
  // 80 pages of payload through a budget of 2: backpressure must stall the
  // source rather than materialize the relation in flight.
  NRel r = RandomRel({0, 1, 2}, 700, 1 << 20, 19);
  ASSERT_GE(r.size(), 640u);
  auto run = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 8, .node_page_budget = 2});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_GT(run.pages, 2);
  EXPECT_LE(run.peak, 2);
  EXPECT_GE(run.peak, 1);
}

TEST(Stream, MultiHopRelayDeliversInOrder) {
  NRel r = RandomRel({0, 1}, 200, 1 << 16, 23);
  auto direct = ShipOnce(r, LineTopology(2), 0, 1,
      StreamOptions{.page_rows = 32, .node_page_budget = 4});
  auto relayed = ShipOnce(r, LineTopology(4), 0, 3,
      StreamOptions{.page_rows = 32, .node_page_budget = 4});
  ASSERT_TRUE(direct.completed && relayed.completed);
  EXPECT_TRUE(BytesEqual(direct.rebuilt, relayed.rebuilt));
  EXPECT_TRUE(BytesEqual(r, relayed.rebuilt));
  // Every page crosses three edges instead of one.
  EXPECT_GT(relayed.bits, 2 * direct.bits);
  EXPECT_GT(relayed.makespan, direct.makespan);
}

TEST(Stream, LocalDeliveryCostsNothingOnTheWire) {
  NRel r = RandomRel({0, 1}, 100, 256, 29);
  auto run = ShipOnce(r, LineTopology(2), 0, 0,
      StreamOptions{.page_rows = 16, .node_page_budget = 2});
  ASSERT_TRUE(run.completed);
  EXPECT_TRUE(BytesEqual(r, run.rebuilt));
  EXPECT_EQ(run.pages, 0);
  EXPECT_EQ(run.bits, 0);
}

TEST(Stream, ConcurrentStreamsShareTheSourceBudget) {
  NRel a = RandomRel({0, 1}, 400, 1 << 18, 31);
  NRel b = RandomRel({2, 3}, 400, 1 << 18, 37);
  AsyncNetwork net(StarTopology(3), LinkParams{1.0, 64.0});
  StreamNet<NaturalSemiring> streams(&net,
      StreamOptions{.page_rows = 16, .node_page_budget = 3});
  NRel got_a, got_b;
  streams.SendRelation(0, 1, a, 8, [&](NRel r) { got_a = std::move(r); });
  streams.SendRelation(0, 2, b, 8, [&](NRel r) { got_b = std::move(r); });
  net.Run();
  EXPECT_TRUE(BytesEqual(a, got_a));
  EXPECT_TRUE(BytesEqual(b, got_b));
  // Node 0 sourced both streams: its combined in-flight pages stayed within
  // the per-node budget.
  EXPECT_LE(streams.max_in_flight_pages(), 3);
  EXPECT_EQ(streams.pages_shipped(),
            static_cast<int64_t>((a.size() + 15) / 16 + (b.size() + 15) / 16));
}

// ------------------------------------------------------------ tree streams

/// Every edge of `g`, as a tree rooted at `root` (g must be a tree).
RootedTree WholeTree(const Graph& g, NodeId root) {
  std::vector<int> edges;
  for (int e = 0; e < g.num_edges(); ++e) edges.push_back(e);
  return OrientTree(g, edges, root);
}

struct TreeRun {
  std::vector<NRel> rebuilt;  // per node; filled at terminals
  int terminals_done = 0;
  bool cast_done = false;
  int64_t pages = 0;
  int64_t peak = 0;
  int64_t bits = 0;
  std::vector<SimTime> busy_down, busy_up;  // per edge, bits / bandwidth
};

constexpr double kTreeBandwidth = 64.0;
constexpr int kTreeBitsPerAttr = 8;

/// Multicasts `rel` from `root` to every other node of the tree `g` and,
/// when `cast` is set, runs a convergecast of |rel| values paced by it.
TreeRun RunTree(const NRel& rel, Graph g, NodeId root, bool cast,
                StreamOptions opts) {
  AsyncNetwork net(g, LinkParams{1.0, kTreeBandwidth});
  StreamNet<NaturalSemiring> streams(&net, opts);
  const RootedTree tree = WholeTree(g, root);
  std::vector<NodeId> terminals;
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    if (v != root) terminals.push_back(v);
  TreeRun out;
  out.rebuilt.resize(g.num_nodes());
  const uint64_t id = streams.Multicast(
      tree, terminals, rel, 0, rel.size(), kTreeBitsPerAttr,
      [&](NodeId at, NRel r) {
        out.rebuilt[at] = std::move(r);
        ++out.terminals_done;
      });
  if (cast) streams.Convergecast(id, [&] { out.cast_done = true; });
  net.Run();
  out.pages = streams.pages_shipped();
  out.peak = streams.max_in_flight_pages();
  out.bits = net.total_bits();
  for (int e = 0; e < g.num_edges(); ++e) {
    const bool root_side_first =
        tree.parent[g.edge(e).second] == g.edge(e).first;
    out.busy_down.push_back(net.BusyTime(e, root_side_first));
    out.busy_up.push_back(net.BusyTime(e, !root_side_first));
  }
  return out;
}

/// Wire bits of one relation page stream crossing one edge: every page's
/// header plus the plain payload (rows x (arity x bits/attr + value bits)).
int64_t PagesBits(const NRel& rel, int64_t pages) {
  return pages * kPageHeaderBits + rel.EncodedBits(kTreeBitsPerAttr);
}

void ExpectMulticast(const NRel& rel, const Graph& g, NodeId root,
                     int64_t budget) {
  const StreamOptions opts{.page_rows = 16, .node_page_budget = budget};
  const TreeRun run = RunTree(rel, g, root, /*cast=*/false, opts);
  const int64_t pages = (static_cast<int64_t>(rel.size()) + 15) / 16;
  EXPECT_EQ(run.terminals_done, g.num_nodes() - 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (v == root) continue;
    EXPECT_TRUE(BytesEqual(rel, run.rebuilt[v])) << v;
  }
  // Each page is cut once and crosses every tree edge exactly once; one
  // merged credit per page climbs each edge.
  EXPECT_EQ(run.pages, pages);
  const int64_t edges = g.num_edges();
  for (int e = 0; e < edges; ++e) {
    EXPECT_DOUBLE_EQ(run.busy_down[e], PagesBits(rel, pages) / kTreeBandwidth);
    EXPECT_DOUBLE_EQ(run.busy_up[e], pages * kCreditBits / kTreeBandwidth);
  }
  EXPECT_EQ(run.bits, edges * (PagesBits(rel, pages) + pages * kCreditBits));
  EXPECT_LE(run.peak, budget);
  EXPECT_GE(run.peak, 1);
}

void ExpectConvergecast(const NRel& rel, const Graph& g, NodeId root,
                        int64_t budget) {
  const StreamOptions opts{.page_rows = 16, .node_page_budget = budget};
  const TreeRun run = RunTree(rel, g, root, /*cast=*/true, opts);
  const int64_t pages = (static_cast<int64_t>(rel.size()) + 15) / 16;
  EXPECT_TRUE(run.cast_done);
  EXPECT_EQ(run.terminals_done, g.num_nodes() - 1);
  // Up each edge: every value page once (header + 64 bits per value) and
  // the multicast's credits; down each edge: every relation page once and
  // one credit per value page.
  const int64_t up_bits =
      pages * kPageHeaderBits +
      static_cast<int64_t>(rel.size()) * NaturalSemiring::kValueBits;
  const int64_t edges = g.num_edges();
  for (int e = 0; e < edges; ++e) {
    EXPECT_DOUBLE_EQ(run.busy_down[e],
                     (PagesBits(rel, pages) + pages * kCreditBits) /
                         kTreeBandwidth);
    EXPECT_DOUBLE_EQ(run.busy_up[e],
                     (up_bits + pages * kCreditBits) / kTreeBandwidth);
  }
  EXPECT_EQ(run.bits, edges * (PagesBits(rel, pages) + up_bits +
                               2 * pages * kCreditBits));
  // Relation pages are charged once at the root, value pages once per hop.
  EXPECT_EQ(run.pages, pages + edges * pages);
  EXPECT_LE(run.peak, budget);
  EXPECT_GE(run.peak, 1);
}

NRel PlainRel(size_t n, uint64_t seed) {
  NRel r = RandomRel({0, 1}, n, 1 << 20, seed);
  r.DecodeAll();  // the formulas price the plain page layout
  return r;
}

TEST(TreeStream, MulticastOnALineCrossesEachEdgeOncePerPage) {
  for (int64_t budget : {1, 2, 8})
    ExpectMulticast(PlainRel(200, 41), LineTopology(4), 0, budget);
}

TEST(TreeStream, MulticastOnASmallTreeCrossesEachEdgeOncePerPage) {
  for (int64_t budget : {1, 2, 8})
    ExpectMulticast(PlainRel(200, 43), BalancedTreeTopology(2, 2), 0, budget);
}

TEST(TreeStream, ConvergecastOnALineCrossesEachEdgeOncePerPage) {
  for (int64_t budget : {1, 2, 8})
    ExpectConvergecast(PlainRel(200, 47), LineTopology(4), 0, budget);
}

TEST(TreeStream, ConvergecastOnASmallTreeCrossesEachEdgeOncePerPage) {
  for (int64_t budget : {1, 2, 8}) {
    ExpectConvergecast(PlainRel(200, 53), BalancedTreeTopology(2, 2), 0,
                       budget);
    // Rooted at a leaf: the root's one child relays everything.
    ExpectConvergecast(PlainRel(200, 53), BalancedTreeTopology(2, 2), 5,
                       budget);
  }
}

TEST(TreeStream, SendAlongFollowsTheGivenRoute) {
  // Ring 0-1-2-3-4-5-0: the long way round from 0 to 2 crosses four edges
  // where the shortest path crosses two.
  NRel r = PlainRel(100, 59);
  AsyncNetwork net(RingTopology(6), LinkParams{1.0, 64.0});
  StreamNet<NaturalSemiring> streams(
      &net, StreamOptions{.page_rows = 16, .node_page_budget = 2});
  NRel got;
  streams.SendAlong({0, 5, 4, 3, 2}, r, 8, [&](NRel x) { got = std::move(x); });
  net.Run();
  EXPECT_TRUE(BytesEqual(r, got));
  const int64_t pages = (static_cast<int64_t>(r.size()) + 15) / 16;
  EXPECT_EQ(net.total_bits(),
            4 * (pages * kPageHeaderBits + r.EncodedBits(8) +
                 pages * kCreditBits));
  EXPECT_EQ(net.BusyTime(net.graph().EdgeBetween(0, 1), true), 0.0);
  EXPECT_EQ(net.BusyTime(net.graph().EdgeBetween(0, 1), false), 0.0);
}

}  // namespace
}  // namespace topofaq
