// Async-protocol differential tests: the event-driven protocols
// (protocols/async.h) must produce answers bit-identical — per column and
// per annotation bit pattern — to the synchronous round-ledger protocols on
// every instance, across semirings and parallelism levels, while obeying
// the streaming transport's page budget and reporting makespan/utilization.
//
// CI also runs this suite with TOPOFAQ_PAGE_BUDGET=2 and =1 (hard per-node
// page budgets far below the payload sizes below), which force the
// larger-than-budget backpressure path through every differential case.
// The AsyncAcceptance cost-shape cases pin their own budget: they assert
// that the event clock, running on the ledger's transport plans, stays
// within 1.25x of the ledger's rounds and bits.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "server/options.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// Per-node page budget for the differential sweeps: the CI streaming job
/// pins it to a tiny value via TOPOFAQ_PAGE_BUDGET so the
/// larger-than-budget path is provably exercised. Read through the one env
/// parser (EngineOptions::FromEnv, server/options.cc).
int64_t BudgetFromEnv() { return EngineOptions::FromEnv().page_budget; }

template <CommutativeSemiring S>
typename S::Value RandomAnnot(Rng* rng) {
  const uint64_t u = rng->NextU64(100) + 1;
  if constexpr (std::is_same_v<typename S::Value, double>) {
    return static_cast<double>(u) * 0.5;
  } else if constexpr (sizeof(typename S::Value) == 1) {
    return S::One();  // Boolean/GF2: stay on the canonical {0,1} values
  } else {
    return static_cast<typename S::Value>(u % 3 + 1);
  }
}

template <CommutativeSemiring S>
Relation<S> RandomRelation(const std::vector<VarId>& vars, int tuples,
                           uint64_t domain, Rng* rng) {
  Relation<S> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  for (int i = 0; i < tuples; ++i) {
    for (auto& v : row) v = rng->NextU64(domain);
    r.Add(row, RandomAnnot<S>(rng));
  }
  r.Canonicalize();
  return r;
}

template <CommutativeSemiring S>
DistInstance<S> RandomInstance(int seed, Graph g, int tuples = 12,
                               uint64_t domain = 4) {
  Rng rng(seed);
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), tuples, domain, &rng));
  DistInstance<S> inst;
  inst.query = MakeFaqSS<S>(h, std::move(rels), {});
  inst.topology = std::move(g);
  inst.owners =
      RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = inst.topology.num_nodes() - 1;
  return inst;
}

/// Small pages so even the 12-tuple relations above span several pages.
AsyncProtocolOptions SmallPageOptions(int parallelism = 0) {
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 4;
  opts.stream.node_page_budget = BudgetFromEnv();
  opts.parallelism = parallelism;
  return opts;
}

// ------------------------------------------------------------- trivial async

TEST(TrivialAsync, MatchesSyncOnRandomInstances) {
  for (int seed = 0; seed < 8; ++seed) {
    auto inst = RandomInstance<BooleanSemiring>(400 + seed, LineTopology(4));
    auto sync = RunTrivialProtocol(inst);
    auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
    ASSERT_TRUE(sync.ok() && async.ok()) << seed;
    EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
    EXPECT_GT(async->stats.makespan, 0.0);
    EXPECT_GT(async->stats.total_bits, 0);
    EXPECT_GT(async->stats.pages, 0);
    EXPECT_LE(async->stats.max_in_flight_pages,
              SmallPageOptions().stream.node_page_budget);
  }
}

TEST(TrivialAsync, NoCommunicationWhenSinkOwnsEverything) {
  auto inst = RandomInstance<BooleanSemiring>(410, LineTopology(3));
  for (auto& o : inst.owners) o = 2;
  inst.sink = 2;
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(async.ok());
  EXPECT_EQ(async->stats.total_bits, 0);
  EXPECT_EQ(async->stats.pages, 0);
  EXPECT_DOUBLE_EQ(async->stats.makespan, 0.0);
  auto sync = RunTrivialProtocol(inst);
  ASSERT_TRUE(sync.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(TrivialAsync, EmptyRelationStreamsAndSolves) {
  auto inst = RandomInstance<NaturalSemiring>(420, LineTopology(4));
  inst.query.relations[1] = Relation<NaturalSemiring>{
      Schema(inst.query.hypergraph.edge(1))};
  inst.query.relations[1].Canonicalize();
  auto sync = RunTrivialProtocol(inst);
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(TrivialAsync, ParallelismKnobKeepsAnswersBitIdentical) {
  auto inst = RandomInstance<CountingSemiring>(430, CliqueTopology(4), 40, 6);
  TrivialOptions p1{.parallelism = 1}, p2{.parallelism = 2};
  auto s1 = RunTrivialProtocol(inst, p1);
  auto s2 = RunTrivialProtocol(inst, p2);
  auto a2 = RunTrivialProtocolAsync(inst, SmallPageOptions(2));
  ASSERT_TRUE(s1.ok() && s2.ok() && a2.ok());
  EXPECT_TRUE(BytesEqual(s1->answer, s2->answer));
  EXPECT_TRUE(BytesEqual(s1->answer, a2->answer));
}

TEST(TrivialAsync, NonCanonicalInputIsRejectedWithStatus) {
  // The sync protocols accept unsorted listings; the streaming transport
  // cuts sorted pages, so the async protocols surface the requirement as a
  // Status instead of CHECK-crashing mid-simulation.
  auto inst = RandomInstance<NaturalSemiring>(440, LineTopology(3));
  Relation<NaturalSemiring> raw{Schema(inst.query.hypergraph.edge(0))};
  std::vector<Value> row(raw.arity(), 1);
  raw.Add(row, 2);
  row[0] = 0;
  raw.Add(row, 3);  // out of order: not canonical
  ASSERT_FALSE(raw.canonical());
  inst.query.relations[0] = std::move(raw);
  ASSERT_TRUE(RunTrivialProtocol(inst).ok());
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_FALSE(async.ok());
  EXPECT_NE(async.status().message().find("Canonicalize"), std::string::npos);
  EXPECT_FALSE(RunCoreForestProtocolAsync(inst, SmallPageOptions()).ok());
}

TEST(TrivialAsync, NegativeWireParametersAreRejectedWithStatus) {
  // A negative pinned capacity used to reach AsyncNetwork's bandwidth CHECK
  // and abort; every protocol must answer with a Status instead.
  for (int which = 0; which < 2; ++which) {
    auto inst = RandomInstance<NaturalSemiring>(450, LineTopology(3));
    if (which == 0)
      inst.capacity_bits = -8;
    else
      inst.bits_per_attr = -1;
    SCOPED_TRACE(which == 0 ? "capacity_bits" : "bits_per_attr");
    for (const auto& r : {RunTrivialProtocolAsync(inst, SmallPageOptions()),
                          RunCoreForestProtocolAsync(inst, SmallPageOptions()),
                          RunTrivialProtocol(inst),
                          RunCoreForestProtocol(inst)}) {
      ASSERT_FALSE(r.ok());
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

// ---------------------------------------------------------- core-forest async

template <CommutativeSemiring S>
void CoreForestDifferential(int seed, Graph g, int parallelism) {
  auto inst = RandomInstance<S>(seed, std::move(g));
  CoreForestOptions sopts;
  sopts.parallelism = parallelism;
  AsyncProtocolOptions aopts = SmallPageOptions(parallelism);
  auto sync = RunCoreForestProtocol(inst, sopts);
  auto async = RunCoreForestProtocolAsync(inst, aopts);
  ASSERT_TRUE(sync.ok() && async.ok())
      << S::kName << " seed=" << seed << " p=" << parallelism;
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
  EXPECT_LE(async->stats.max_in_flight_pages, aopts.stream.node_page_budget);
}

TEST(CoreForestAsync, BitIdenticalAcrossSemiringsAndParallelism) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (int p : {1, 2, hw}) {
    for (int seed = 0; seed < 3; ++seed) {
      Graph topo = (seed % 2 == 0) ? Graph(LineTopology(5))
                                   : Graph(CliqueTopology(5));
      CoreForestDifferential<BooleanSemiring>(500 + seed, topo, p);
      CoreForestDifferential<NaturalSemiring>(520 + seed, topo, p);
      CoreForestDifferential<CountingSemiring>(540 + seed, topo, p);
      CoreForestDifferential<MinPlusSemiring>(560 + seed, topo, p);
    }
  }
}

TEST(CoreForestAsync, CyclicQueryMatchesSync) {
  Rng rng(600);
  Hypergraph h = CycleGraph(4);
  std::vector<Relation<BooleanSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<BooleanSemiring>(h.edge(e), 10, 3, &rng));
  DistInstance<BooleanSemiring> inst;
  inst.query = MakeBcq(h, std::move(rels));
  inst.topology = RingTopology(5);
  inst.owners = RoundRobinOwners(h.num_edges(), 5);
  inst.sink = 0;
  auto sync = RunCoreForestProtocol(inst);
  auto async = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

TEST(CoreForestAsync, FreeVariableMarginalMatchesSync) {
  Rng rng(610);
  Hypergraph h = PaperH2();
  std::vector<Relation<CountingSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<CountingSemiring>(h.edge(e), 10, 3, &rng));
  DistInstance<CountingSemiring> inst;
  inst.query = MakeFactorMarginal(h, std::move(rels), /*marginal_edge=*/0);
  inst.topology = BalancedTreeTopology(2, 2);
  inst.owners = RoundRobinOwners(h.num_edges(), inst.topology.num_nodes());
  inst.sink = 0;
  auto sync = RunCoreForestProtocol(inst);
  auto async = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
}

// ------------------------------------------------- acceptance: page budget

TEST(AsyncAcceptance, OversizedPayloadCompletesWithinPageBudget) {
  // Total payload far exceeds the budget: 4 relations x 200 rows at 4 rows
  // per page is ~200 pages against a per-source-node budget of 2. The run
  // must finish with bit-identical answers while no source ever has more
  // than 2 of its pages in flight (asserted via the ledger's high-water
  // mark; relays forward pages charged to their source on top of their own
  // budget).
  auto inst =
      RandomInstance<NaturalSemiring>(700, LineTopology(4), 200, 1 << 16);
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 4;
  opts.stream.node_page_budget = 2;
  auto sync = RunTrivialProtocol(inst);
  auto async = RunTrivialProtocolAsync(inst, opts);
  ASSERT_TRUE(sync.ok() && async.ok());
  EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
  EXPECT_GT(async->stats.pages, opts.stream.node_page_budget);
  EXPECT_LE(async->stats.max_in_flight_pages, opts.stream.node_page_budget);
  EXPECT_GE(async->stats.max_in_flight_pages, 1);
  EXPECT_GT(async->stats.makespan, 0.0);
  EXPECT_GT(async->stats.total_bits, 0);
}

TEST(AsyncAcceptance, UtilizationIsReportedPerEdge) {
  auto inst = RandomInstance<BooleanSemiring>(710, LineTopology(4), 64, 8);
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(async.ok());
  ASSERT_EQ(async->stats.edge_utilization.size(),
            static_cast<size_t>(inst.topology.num_edges()));
  EXPECT_GT(async->stats.max_edge_utilization, 0.0);
  for (double u : async->stats.edge_utilization) {
    EXPECT_GE(u, 0.0);
    EXPECT_LE(u, 1.0);
  }
}

// ------------------------------- acceptance: the event clock's cost shape

/// The event clock prices each step on the ledger's transport plans (the
/// same Steiner packing per star, the same gather routes), so its makespan
/// and wire bits stay within 1.25x of the ledger's rounds and bits. The
/// stream options are pinned (a budget of 8, perfbench's) so
/// TOPOFAQ_PAGE_BUDGET cannot move the costs: a budget of 1 or 2 trades
/// throughput for memory by design. So is the encoding: the ledger prices
/// columns plain, and a forced dictionary on a wide column can outweigh the
/// column itself.
template <CommutativeSemiring S>
void ExpectWithinLedger(DistInstance<S> inst, const char* name,
                        size_t page_rows = 1024) {
  SCOPED_TRACE(name);
  for (Relation<S>& r : inst.query.relations) r.DecodeAll();
  ExecContext plain;
  plain.encoding = EncodingMode::kPlain;
  AsyncProtocolOptions opts;
  opts.stream.page_rows = page_rows;
  opts.stream.node_page_budget = 8;
  constexpr double kSlack = 1.25;
  for (bool forest : {false, true}) {
    SCOPED_TRACE(forest ? "core forest" : "trivial");
    auto sync = forest ? RunCoreForestProtocol(inst, {}, &plain)
                       : RunTrivialProtocol(inst, {}, &plain);
    auto async = forest ? RunCoreForestProtocolAsync(inst, opts, &plain)
                        : RunTrivialProtocolAsync(inst, opts, &plain);
    ASSERT_TRUE(sync.ok() && async.ok());
    EXPECT_TRUE(BytesEqual(sync->answer, async->answer));
    EXPECT_LE(async->stats.makespan,
              kSlack * static_cast<double>(sync->stats.rounds));
    EXPECT_LE(static_cast<double>(async->stats.total_bits),
              kSlack * static_cast<double>(sync->stats.total_bits));
  }
}

/// One (H, G) instance of perfbench's protocol suite: 12-bit attributes,
/// `n` rows per relation.
DistInstance<NaturalSemiring> SuiteInstance(Hypergraph h, Graph g,
                                            std::vector<NodeId> owners,
                                            NodeId sink, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<NaturalSemiring>(h.edge(e), n, 4096, &rng));
  DistInstance<NaturalSemiring> inst;
  inst.query = MakeFaqSS<NaturalSemiring>(std::move(h), std::move(rels), {});
  inst.topology = std::move(g);
  inst.owners = std::move(owners);
  inst.sink = sink;
  inst.bits_per_attr = 12;
  return inst;
}

TEST(AsyncAcceptance, MakespanAndBitsWithinLedgerOnSuiteShapes) {
  ExpectWithinLedger(SuiteInstance(StarGraph(4), LineTopology(5),
                                   {0, 1, 2, 3}, 4, 10000, 31),
                     "star-4 on line-5");
  ExpectWithinLedger(SuiteInstance(PathGraph(4), GridTopology(3, 3),
                                   {0, 2, 6, 8}, 4, 10000, 32),
                     "path-4 on grid-3x3");
  ExpectWithinLedger(SuiteInstance(CycleGraph(3), RingTopology(6), {0, 2, 4},
                                   3, 10000, 33),
                     "triangle on ring-6");
}

/// The differential sweeps' random instances, grown to 2,000 tuples over
/// 12-bit values and paged 64 rows at a time, so every relation spans
/// dozens of pages. A relation of one page pays its store-and-forward
/// delay on every hop of its route, which the ledger's bit-level
/// pipelining never does, so the ratio on the 12-tuple sweeps measures
/// latency rather than the transport plan.
TEST(AsyncAcceptance, MakespanAndBitsWithinLedgerOnRandomInstances) {
  for (int seed = 0; seed < 3; ++seed) {
    const Graph topo = (seed % 2 == 0) ? Graph(LineTopology(5))
                                       : Graph(CliqueTopology(5));
    ExpectWithinLedger(
        RandomInstance<NaturalSemiring>(520 + seed, topo, 2000, 1 << 12),
        "core-forest sweep", 64);
    ExpectWithinLedger(RandomInstance<NaturalSemiring>(400 + seed,
                                                       LineTopology(4), 2000,
                                                       1 << 12),
                       "trivial sweep", 64);
  }
}

// ------------------------------------------- high-capacity regime hand-off

TEST(HighCapacity, SyncProtocolsRejectAboveLedgerLimit) {
  auto inst = RandomInstance<BooleanSemiring>(720, LineTopology(4));
  inst.capacity_bits = int64_t{1} << 20;  // > SyncNetwork::kMaxCapacityBits
  auto trivial = RunTrivialProtocol(inst);
  ASSERT_FALSE(trivial.ok());
  EXPECT_NE(trivial.status().message().find("AsyncNetwork"),
            std::string::npos);
  auto forest = RunCoreForestProtocol(inst);
  ASSERT_FALSE(forest.ok());
}

TEST(HighCapacity, AsyncProtocolsTakeOver) {
  auto inst = RandomInstance<BooleanSemiring>(720, LineTopology(4));
  auto baseline = RunTrivialProtocol(inst);  // derived (small) capacity
  inst.capacity_bits = int64_t{1} << 20;
  auto async = RunTrivialProtocolAsync(inst, SmallPageOptions());
  auto forest = RunCoreForestProtocolAsync(inst, SmallPageOptions());
  ASSERT_TRUE(baseline.ok() && async.ok() && forest.ok());
  EXPECT_TRUE(BytesEqual(baseline->answer, async->answer));
  EXPECT_TRUE(BytesEqual(baseline->answer, forest->answer));
  // The fat pipe moves the same bits in (much) less simulated time.
  EXPECT_GT(async->stats.total_bits, 0);
  EXPECT_LT(async->stats.makespan,
            static_cast<double>(baseline->stats.rounds) + 1.0);
}

}  // namespace
}  // namespace topofaq
