// Distributed-protocol integration tests: answers must equal the
// centralized solvers on every topology/assignment, and round counts must
// track the paper's formulas on the canonical instances (Examples 2.1–2.3).
#include <gtest/gtest.h>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "oracle.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "relation/encoding.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using BRel = Relation<BooleanSemiring>;

template <CommutativeSemiring S>
Relation<S> RandomRelation(const std::vector<VarId>& vars, int tuples,
                           uint64_t domain, Rng* rng) {
  Relation<S> r{Schema(vars)};
  for (int i = 0; i < tuples; ++i) {
    std::vector<Value> row;
    for (size_t j = 0; j < vars.size(); ++j) row.push_back(rng->NextU64(domain));
    r.Add(row, S::One());
  }
  r.Canonicalize();
  return r;
}

/// The Example 2.1/2.2 workload: a star query with a planted full
/// intersection on the shared attribute so the protocol must scan all N
/// values.
FaqQuery<BooleanSemiring> StarBcqWorkload(int leaves, int n) {
  Hypergraph h = StarGraph(leaves);
  std::vector<BRel> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    BRel r{Schema(h.edge(e))};
    for (int i = 0; i < n; ++i)
      r.Add({static_cast<Value>(i), static_cast<Value>(1)});
    rels.push_back(std::move(r));
  }
  return MakeBcq(h, std::move(rels));
}

TEST(Trivial, AnswerMatchesCentral) {
  Rng rng(50);
  for (int iter = 0; iter < 10; ++iter) {
    Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
    std::vector<BRel> rels;
    for (int e = 0; e < h.num_edges(); ++e)
      rels.push_back(RandomRelation<BooleanSemiring>(h.edge(e), 8, 3, &rng));
    DistInstance<BooleanSemiring> inst;
    inst.query = MakeBcq(h, rels);
    inst.topology = LineTopology(4);
    inst.owners = RoundRobinOwners(h.num_edges(), 4);
    inst.sink = 3;
    auto dist = RunTrivialProtocol(inst);
    auto central = BruteForceSolve(inst.query);
    ASSERT_TRUE(dist.ok() && central.ok());
    EXPECT_TRUE(dist->answer.EqualsAsFunction(*central));
    EXPECT_GT(dist->stats.rounds, 0);
  }
}

TEST(Trivial, NoCommunicationWhenSinkOwnsEverything) {
  Hypergraph h = PathGraph(2);
  Rng rng(51);
  std::vector<BRel> rels{RandomRelation<BooleanSemiring>(h.edge(0), 5, 3, &rng),
                         RandomRelation<BooleanSemiring>(h.edge(1), 5, 3, &rng)};
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, rels);
  inst.topology = LineTopology(3);
  inst.owners = {0, 0};
  inst.sink = 0;
  auto dist = RunTrivialProtocol(inst);
  ASSERT_TRUE(dist.ok());
  EXPECT_EQ(dist->stats.rounds, 0);
}

TEST(CoreForest, Example21SelfLoopsOnLine) {
  // H0 on G1: four set intersections on a line; the paper's protocol takes
  // N + 2 rounds at 1 value per round. Our channel carries r·log2(D) bits
  // per round = exactly one value, so rounds ≈ N + O(1).
  const int n = 256;
  Hypergraph h = PaperH0();
  std::vector<BRel> rels;
  for (int e = 0; e < 4; ++e) {
    BRel r{Schema(h.edge(e))};
    for (int i = 0; i < n; ++i) r.Add({static_cast<Value>(i)});
    rels.push_back(std::move(r));
  }
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, rels);
  inst.topology = LineTopology(4);
  inst.owners = {0, 1, 2, 3};
  inst.sink = 3;
  ProtocolStats stats;
  auto ans = RunBcqProtocol(inst, &stats);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(*ans);  // full intersection is non-empty
  // Broadcast of the center relation + N-item convergecast: Θ(N) with a
  // small constant (≈ 2N with the broadcast), certainly not the trivial
  // 3N.
  EXPECT_GE(stats.rounds, n);
  EXPECT_LE(stats.rounds, 2 * n + 24);
}

TEST(CoreForest, Example23CliqueBeatsLine) {
  // BCQ of the star H1: on the clique G2 the Steiner packing halves the
  // convergecast (Example 2.3's N/2 + 2 vs Example 2.2's N + 2).
  auto query = StarBcqWorkload(4, 512);
  DistInstance<BooleanSemiring> line, clique;
  line.query = clique.query = query;
  line.topology = LineTopology(4);
  clique.topology = CliqueTopology(4);
  line.owners = clique.owners = {0, 1, 2, 3};
  line.sink = clique.sink = 1;
  ProtocolStats s_line, s_clique;
  auto a1 = RunBcqProtocol(line, &s_line);
  auto a2 = RunBcqProtocol(clique, &s_clique);
  ASSERT_TRUE(a1.ok() && a2.ok());
  EXPECT_EQ(*a1, *a2);
  // The convergecast part drops by ~2x; the broadcast part also improves on
  // the clique (distance 1). Demand a solid 1.4x.
  EXPECT_LT(static_cast<double>(s_clique.rounds),
            static_cast<double>(s_line.rounds) / 1.4);
}

TEST(CoreForest, BeatsTrivialOnStarQueries) {
  auto query = StarBcqWorkload(4, 256);
  DistInstance<BooleanSemiring> inst;
  inst.query = query;
  inst.topology = LineTopology(5);
  inst.owners = {0, 1, 2, 3};
  inst.sink = 4;
  auto smart = RunCoreForestProtocol(inst);
  auto trivial = RunTrivialProtocol(inst);
  ASSERT_TRUE(smart.ok() && trivial.ok());
  EXPECT_TRUE(smart->answer.EqualsAsFunction(trivial->answer));
  EXPECT_LT(smart->stats.rounds, trivial->stats.rounds);
}

TEST(CoreForest, EmptyIntersectionIsDetected) {
  Hypergraph h = PaperH0();
  std::vector<BRel> rels;
  for (int e = 0; e < 4; ++e) {
    BRel r{Schema(h.edge(e))};
    // Disjoint supports.
    for (int i = 0; i < 10; ++i) r.Add({static_cast<Value>(100 * e + i)});
    rels.push_back(std::move(r));
  }
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, rels);
  inst.topology = LineTopology(4);
  inst.owners = {0, 1, 2, 3};
  inst.sink = 0;
  auto ans = RunBcqProtocol(inst);
  ASSERT_TRUE(ans.ok());
  EXPECT_FALSE(*ans);
}

TEST(CoreForest, FactorMarginalOnTreeTopology) {
  Rng rng(52);
  Hypergraph h = PaperH2();
  std::vector<Relation<CountingSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    Relation<CountingSemiring> r{Schema(h.edge(e))};
    for (int i = 0; i < 10; ++i) {
      std::vector<Value> row;
      for (size_t j = 0; j < h.edge(e).size(); ++j)
        row.push_back(rng.NextU64(3));
      r.Add(row, static_cast<double>(rng.NextU64(5) + 1));
    }
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  DistInstance<CountingSemiring> inst;
  inst.query = MakeFactorMarginal(h, rels, /*marginal_edge=*/0);
  inst.topology = BalancedTreeTopology(2, 2);
  inst.owners = RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = 0;
  auto dist = RunCoreForestProtocol(inst);
  auto central = BruteForceSolve(inst.query);
  ASSERT_TRUE(dist.ok() && central.ok());
  EXPECT_TRUE(dist->answer.EqualsAsFunction(*central));
}

struct SweepCase {
  int seed;
  int topo;  // 0 line, 1 clique, 2 grid, 3 ring, 4 random
};

class ProtocolSweep : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  Graph MakeTopology(int kind, Rng* rng) {
    switch (kind) {
      case 0:
        return LineTopology(6);
      case 1:
        return CliqueTopology(5);
      case 2:
        return GridTopology(2, 3);
      case 3:
        return RingTopology(6);
      default:
        return RandomConnectedTopology(7, 4, rng);
    }
  }
};

TEST_P(ProtocolSweep, BcqMatchesCentralEverywhere) {
  auto [seed, topo] = GetParam();
  Rng rng(700 + seed);
  Graph g = MakeTopology(topo, &rng);
  Hypergraph h = RandomAcyclicHypergraph(4 + seed % 3, 3, &rng);
  std::vector<BRel> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<BooleanSemiring>(h.edge(e), 8, 3, &rng));
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, rels);
  inst.topology = g;
  inst.owners = RoundRobinOwners(h.num_edges(), g.num_nodes());
  inst.sink = g.num_nodes() - 1;
  auto dist = RunCoreForestProtocol(inst);
  auto central = BruteForceSolve(inst.query);
  ASSERT_TRUE(dist.ok() && central.ok());
  EXPECT_TRUE(dist->answer.EqualsAsFunction(*central)) << h.DebugString();
}

TEST_P(ProtocolSweep, CountingFaqMatchesCentralEverywhere) {
  auto [seed, topo] = GetParam();
  Rng rng(900 + seed);
  Graph g = MakeTopology(topo, &rng);
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    Relation<NaturalSemiring> r{Schema(h.edge(e))};
    for (int i = 0; i < 8; ++i) {
      std::vector<Value> row;
      for (size_t j = 0; j < h.edge(e).size(); ++j)
        row.push_back(rng.NextU64(3));
      r.Add(row, rng.NextU64(4) + 1);
    }
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  DistInstance<NaturalSemiring> inst;
  inst.query = MakeFaqSS<NaturalSemiring>(h, rels, {});
  inst.topology = g;
  inst.owners = RoundRobinOwners(h.num_edges(), g.num_nodes());
  inst.sink = 0;
  auto dist = RunCoreForestProtocol(inst);
  auto central = BruteForceSolve(inst.query);
  ASSERT_TRUE(dist.ok() && central.ok());
  EXPECT_TRUE(dist->answer.EqualsAsFunction(*central)) << h.DebugString();
}

TEST_P(ProtocolSweep, CyclicQueriesMatchCentral) {
  auto [seed, topo] = GetParam();
  Rng rng(1100 + seed);
  Graph g = MakeTopology(topo, &rng);
  Hypergraph h = (seed % 2 == 0) ? CycleGraph(4) : PaperH3();
  std::vector<BRel> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<BooleanSemiring>(h.edge(e), 6, 3, &rng));
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, rels);
  inst.topology = g;
  inst.owners = RoundRobinOwners(h.num_edges(), g.num_nodes());
  inst.sink = 0;
  auto dist = RunCoreForestProtocol(inst);
  auto central = BruteForceSolve(inst.query);
  ASSERT_TRUE(dist.ok() && central.ok());
  EXPECT_TRUE(dist->answer.EqualsAsFunction(*central)) << h.DebugString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolSweep,
                         ::testing::Combine(::testing::Range(0, 6),
                                            ::testing::Range(0, 5)));

TEST(CoreForest, FreeVariablesOutsideTheCoreAreRefused) {
  // F = {B, C} on H1: no bag covers F. The central pass carries free columns
  // up to its root, but the protocols keep the paper's F ⊆ V(C(H))
  // restriction (Appendix G.5) on both clocks.
  Rng rng(53);
  const Hypergraph h = PaperH1();
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<NaturalSemiring>(h.edge(e), 8, 3, &rng));
  DistInstance<NaturalSemiring> inst;
  inst.query = MakeFaqSS<NaturalSemiring>(h, std::move(rels), {1, 2});
  inst.topology = LineTopology(4);
  inst.owners = RoundRobinOwners(h.num_edges(), 4);
  inst.sink = 0;
  auto sync = RunCoreForestProtocol(inst);
  ASSERT_FALSE(sync.ok());
  EXPECT_EQ(sync.status().code(), StatusCode::kFailedPrecondition);
  auto async = RunCoreForestProtocolAsync(inst);
  ASSERT_FALSE(async.ok());
  EXPECT_EQ(async.status().code(), StatusCode::kFailedPrecondition);
  // The trivial protocol gathers everything at the sink: any F is fine.
  auto trivial = RunTrivialProtocol(inst);
  ASSERT_TRUE(trivial.ok()) << trivial.status().ToString();
  auto central = BruteForceSolve(inst.query);
  ASSERT_TRUE(central.ok());
  EXPECT_TRUE(trivial->answer.EqualsAsFunction(*central));
}

TEST(CoreForest, AllRelationsOnOnePlayerStillWorks) {
  // |K| < k: several functions on one node (exploited by the lower bounds).
  auto query = StarBcqWorkload(4, 64);
  DistInstance<BooleanSemiring> inst;
  inst.query = query;
  inst.topology = LineTopology(4);
  inst.owners = {1, 1, 2, 2};
  inst.sink = 3;
  ProtocolStats stats;
  auto ans = RunBcqProtocol(inst, &stats);
  ASSERT_TRUE(ans.ok());
  EXPECT_TRUE(*ans);
}

TEST(CoreForest, StatsAccumulateBits) {
  auto query = StarBcqWorkload(3, 128);
  DistInstance<BooleanSemiring> inst;
  inst.query = query;
  inst.topology = LineTopology(4);
  inst.owners = {0, 1, 2};
  inst.sink = 3;
  auto res = RunCoreForestProtocol(inst);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(res->stats.total_bits, 128);
  EXPECT_GT(res->stats.rounds, 0);
}

// ------------------------------------------------------ pinned exact costs

/// Exact costs of both protocols on both clocks over fixed small instances.
/// Rounds, bits, makespans and page counts are deterministic functions of
/// the instance, so any drift is a cost-model change, not noise. The stream
/// options are set explicitly so the TOPOFAQ_PAGE_BUDGET environment cannot
/// move the event-clock counts, and the encoding mode is pinned to plain
/// because the event clock's wire bits price columns as encoded, so a
/// forced TOPOFAQ_ENCODING would move them.
struct LedgerCost {
  int64_t rounds;
  int64_t total_bits;
};
struct EventCost {
  double makespan;
  int64_t total_bits;
  int64_t pages;
  int64_t max_in_flight_pages;
};
struct PinnedCosts {
  LedgerCost trivial, forest;
  EventCost trivial_async, forest_async;
};

void ExpectLedger(const Result<ProtocolResult<NaturalSemiring>>& r,
                  const LedgerCost& want) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->stats.rounds, want.rounds);
  EXPECT_EQ(r->stats.total_bits, want.total_bits);
}

void ExpectEvent(const Result<ProtocolResult<NaturalSemiring>>& r,
                 const EventCost& want) {
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_DOUBLE_EQ(r->stats.makespan, want.makespan);
  EXPECT_EQ(r->stats.total_bits, want.total_bits);
  EXPECT_EQ(r->stats.pages, want.pages);
  EXPECT_EQ(r->stats.max_in_flight_pages, want.max_in_flight_pages);
}

TEST(ProtocolCosts, PinnedOnFixedInstances) {
  struct Case {
    const char* name;
    Hypergraph h;
    Graph g;
    NodeId sink;
    std::vector<VarId> free_vars;
    PinnedCosts want;
  };
  const Case cases[] = {
      {"star-4 on line-5", StarGraph(4), LineTopology(5), 4, {},
       {{55, 9800},
        {31, 5290},
        {80.457142857142827, 13640, 16, 2},
        {63.59999999999998, 7690, 17, 2}}},
      {"path-4 on grid-3x3", PathGraph(4), GridTopology(3, 3), 8, {0},
       {{29, 11620},
        {65, 14926},
        {65.799999999999983, 16228, 16, 2},
        {169.74285714285702, 20616, 42, 2}}},
      {"triangle on ring-6", CycleGraph(3), RingTopology(6), 0, {},
       {{16, 4690},
        {16, 4690},
        {60.885714285714258, 6610, 8, 2},
        {60.885714285714258, 6610, 8, 2}}},
  };
  AsyncProtocolOptions async;
  async.stream.page_rows = 4;
  async.stream.node_page_budget = 2;
  // The counts price columns as shipped, so every relation of the runs —
  // inputs, intermediates, reassembled pages — is pinned plain.
  ExecContext plain;
  plain.encoding = EncodingMode::kPlain;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Rng rng(90);
    std::vector<Relation<NaturalSemiring>> rels;
    for (int e = 0; e < c.h.num_edges(); ++e) {
      rels.push_back(RandomRelation<NaturalSemiring>(c.h.edge(e), 16, 6, &rng));
      rels.back().DecodeAll();
    }
    DistInstance<NaturalSemiring> inst;
    inst.query = MakeFaqSS<NaturalSemiring>(c.h, std::move(rels), c.free_vars);
    inst.topology = c.g;
    inst.owners = RoundRobinOwners(c.h.num_edges(), c.g.num_nodes());
    inst.sink = c.sink;
    ExpectLedger(RunTrivialProtocol(inst, {}, &plain), c.want.trivial);
    ExpectLedger(RunCoreForestProtocol(inst, {}, &plain), c.want.forest);
    ExpectEvent(RunTrivialProtocolAsync(inst, async, &plain),
                c.want.trivial_async);
    ExpectEvent(RunCoreForestProtocolAsync(inst, async, &plain),
                c.want.forest_async);
  }
}

}  // namespace
}  // namespace topofaq
