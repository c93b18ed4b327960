// Lower-bound machinery tests: the TRIBES → BCQ reductions must be
// *functionally equivalent* (BCQ answer == TRIBES value) for every
// embedding, and the worst-case cut assignments must separate the S and T
// relations.
#include <gtest/gtest.h>

#include "faq/solvers.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "lowerbounds/bounds.h"
#include "lowerbounds/embeddings.h"
#include "lowerbounds/tribes.h"
#include "oracle.h"
#include "protocols/distributed.h"

namespace topofaq {
namespace {

bool BcqValue(const FaqQuery<BooleanSemiring>& q) {
  auto res = BruteForceSolve(q);
  TOPOFAQ_CHECK(res.ok());
  return !res->empty();
}

TEST(Tribes, EvaluateMatchesDefinition) {
  TribesInstance t;
  t.n = 10;
  t.pairs = {{{1, 2}, {2, 3}}, {{4}, {4, 5}}};
  EXPECT_TRUE(t.Evaluate());  // both intersect
  t.pairs.push_back({{6}, {7}});
  EXPECT_FALSE(t.Evaluate());  // last pair disjoint
  auto per = t.PairIntersects();
  EXPECT_TRUE(per[0]);
  EXPECT_FALSE(per[2]);
}

TEST(Tribes, RandomPlantingControlsIntersection) {
  Rng rng(1);
  TribesInstance yes = RandomTribes(20, 64, 1.0, &rng);
  EXPECT_TRUE(yes.Evaluate());
  TribesInstance no = RandomTribes(20, 64, 0.0, &rng);
  EXPECT_FALSE(no.Evaluate());
}

TEST(ForestEmbedding, StarMatchesExample24) {
  // Example 2.4: TRIBES_{1,N} embeds into BCQ of the star H1 with
  // R = X1×{1}, S = T = [N]×{1}, U = Y1×{1}.
  Hypergraph h = PaperH1();
  for (double p : {0.0, 1.0}) {
    Rng rng(p == 0.0 ? 2 : 3);
    TribesInstance t = RandomTribes(1, 32, p, &rng);
    auto emb = EmbedTribesInForest(h, t);
    ASSERT_TRUE(emb.ok());
    EXPECT_EQ(BcqValue(emb->query), t.Evaluate());
    EXPECT_EQ(emb->s_edges.size(), 1u);
    EXPECT_EQ(emb->t_edges.size(), 1u);
  }
}

TEST(ForestEmbedding, CapacityAtLeastHalfWidth) {
  // |O| >= y(H)/2 (Lemma 4.3).
  Rng rng(4);
  for (int iter = 0; iter < 20; ++iter) {
    Hypergraph h = RandomForest(2, 6, &rng);
    WidthResult w = MinimizeWidth(h, 4, iter);
    EXPECT_GE(2 * ForestEmbeddingCapacity(h), w.internal_nodes)
        << h.DebugString();
  }
}

class ForestEmbeddingSweep : public ::testing::TestWithParam<int> {};

TEST_P(ForestEmbeddingSweep, FunctionalEquivalenceOnRandomForests) {
  Rng rng(100 + GetParam());
  Hypergraph h = RandomForest(1 + GetParam() % 3, 5, &rng);
  const int cap = ForestEmbeddingCapacity(h);
  if (cap == 0) GTEST_SKIP() << "degenerate forest";
  const int m = 1 + GetParam() % cap;
  for (double p : {0.0, 0.6, 1.0}) {
    TribesInstance t = RandomTribes(m, 16, p, &rng);
    auto emb = EmbedTribesInForest(h, t);
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    EXPECT_EQ(BcqValue(emb->query), t.Evaluate()) << h.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ForestEmbeddingSweep, ::testing::Range(0, 12));

TEST(IndependentSetEmbedding, WorksOnCyclicGraphs) {
  Rng rng(5);
  for (const Hypergraph& h :
       {CycleGraph(6), CycleGraph(9), RandomDDegenerate(12, 2, &rng)}) {
    const int cap = IndependentSetCapacity(h);
    ASSERT_GE(cap, 1);
    for (double p : {0.0, 1.0}) {
      TribesInstance t = RandomTribes(std::min(cap, 3), 16, p, &rng);
      auto emb = EmbedTribesByIndependentSet(h, t);
      ASSERT_TRUE(emb.ok()) << emb.status().ToString();
      EXPECT_EQ(BcqValue(emb->query), t.Evaluate()) << h.DebugString();
    }
  }
}

TEST(CycleEmbedding, FindsDisjointCycles) {
  auto cycles = FindDisjointCycles(CycleGraph(5));
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 5u);
  // Two disjoint triangles.
  Hypergraph two(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  EXPECT_EQ(FindDisjointCycles(two).size(), 2u);
  EXPECT_TRUE(FindDisjointCycles(PathGraph(5)).empty());
}

TEST(CycleEmbedding, FunctionalEquivalenceOnCycles) {
  Rng rng(6);
  Hypergraph two(6, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  for (double p : {0.0, 1.0}) {
    TribesInstance t = RandomTribes(2, 16, p, &rng);  // universe [16] -> 4x4
    auto emb = EmbedTribesOnCycles(two, t);
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    EXPECT_EQ(BcqValue(emb->query), t.Evaluate());
  }
}

TEST(CycleEmbedding, CliqueHostsMultiplePairs) {
  Rng rng(7);
  Hypergraph h = CliqueGraph(9);  // 3 vertex-disjoint triangles exist
  auto cycles = FindDisjointCycles(h);
  ASSERT_GE(cycles.size(), 2u);
  TribesInstance t = RandomTribes(2, 9, 1.0, &rng);
  auto emb = EmbedTribesOnCycles(h, t);
  ASSERT_TRUE(emb.ok());
  EXPECT_EQ(BcqValue(emb->query), t.Evaluate());
}

TEST(StrongIS, NoHyperedgeContainsTwoChosen) {
  Rng rng(8);
  for (int iter = 0; iter < 10; ++iter) {
    Hypergraph h = RandomHypergraph(12, 3, 3, &rng);
    std::vector<VarId> all;
    for (int v = 0; v < h.num_vertices(); ++v) all.push_back(v);
    auto is = GreedyStrongIndependentSet(h, all);
    for (int e = 0; e < h.num_edges(); ++e) {
      int hits = 0;
      for (VarId v : h.edge(e))
        if (std::find(is.begin(), is.end(), v) != is.end()) ++hits;
      EXPECT_LE(hits, 1);
    }
  }
}

class HypergraphEmbeddingSweep : public ::testing::TestWithParam<int> {};

TEST_P(HypergraphEmbeddingSweep, FunctionalEquivalenceOnHypergraphs) {
  Rng rng(200 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(6, 3, &rng);
  const int cap = HypergraphEmbeddingCapacity(h);
  if (cap == 0) GTEST_SKIP() << "no witnesses";
  for (double p : {0.0, 1.0}) {
    TribesInstance t = RandomTribes(std::min(cap, 2), 12, p, &rng);
    auto emb = EmbedTribesInHypergraph(h, t);
    ASSERT_TRUE(emb.ok()) << emb.status().ToString();
    EXPECT_EQ(BcqValue(emb->query), t.Evaluate()) << h.DebugString();
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, HypergraphEmbeddingSweep,
                         ::testing::Range(0, 10));

TEST(CutAssignment, SeparatesSAndTSides) {
  Rng rng(9);
  Hypergraph h = PaperH1();
  TribesInstance t = RandomTribes(1, 16, 1.0, &rng);
  auto emb = EmbedTribesInForest(h, t);
  ASSERT_TRUE(emb.ok());
  for (const Graph& g : {LineTopology(4), DumbbellTopology(3, 3)}) {
    auto assign = AssignAcrossMinCut(g, *emb);
    ASSERT_TRUE(assign.ok());
    EXPECT_EQ(assign->min_cut, 1);
    EXPECT_NE(assign->alice, assign->bob);
    for (int e : emb->s_edges) EXPECT_EQ(assign->owners[e], assign->alice);
    for (int e : emb->t_edges) EXPECT_EQ(assign->owners[e], assign->bob);
  }
}

TEST(CutAssignment, ProtocolOnHardInstanceStillCorrect) {
  // End-to-end: embed, assign across the cut, run the real protocol; the
  // answer must equal TRIBES.
  Rng rng(10);
  Hypergraph h = PaperH1();
  for (double p : {0.0, 1.0}) {
    TribesInstance t = RandomTribes(1, 64, p, &rng);
    auto emb = EmbedTribesInForest(h, t);
    ASSERT_TRUE(emb.ok());
    Graph g = LineTopology(4);
    auto assign = AssignAcrossMinCut(g, *emb);
    ASSERT_TRUE(assign.ok());
    DistInstance<BooleanSemiring> inst;
    inst.query = emb->query;
    inst.topology = g;
    inst.owners = assign->owners;
    inst.sink = assign->bob;
    auto ans = RunBcqProtocol(inst);
    ASSERT_TRUE(ans.ok());
    EXPECT_EQ(*ans, t.Evaluate());
  }
}

TEST(Bounds, BreakdownIsInternallyConsistent) {
  Graph g = CliqueTopology(5);
  std::vector<NodeId> k{0, 1, 2, 3, 4};
  BoundBreakdown b = ComputeBounds(StarGraph(4), g, k, 1000);
  EXPECT_EQ(b.y, 1);
  EXPECT_EQ(b.upper_total, b.star_term + b.core_term);
  EXPECT_GT(b.lower_bound, 0);
  EXPECT_GE(b.Gap(), 0.0);
  EXPECT_FALSE(b.ToString().empty());
}

TEST(Bounds, LineMinCutMakesLowerBoundLarge) {
  std::vector<NodeId> k{0, 1, 2, 3};
  BoundBreakdown line = ComputeBounds(StarGraph(3), LineTopology(4), k, 1000);
  BoundBreakdown clique =
      ComputeBounds(StarGraph(3), CliqueTopology(4), k, 1000);
  EXPECT_EQ(line.min_cut, 1);
  EXPECT_EQ(clique.min_cut, 3);
  EXPECT_GT(line.lower_bound, clique.lower_bound);
}

TEST(Bounds, GapStaysSmallForConstantDegeneracy) {
  // Table 1 rows 1-3: for constant-d H the UB/LB gap is O~(1)-ish.
  Rng rng(11);
  for (int iter = 0; iter < 5; ++iter) {
    Hypergraph h = RandomForest(1, 6, &rng);
    Graph g = CliqueTopology(6);
    std::vector<NodeId> k{0, 1, 2, 3, 4, 5};
    BoundBreakdown b = ComputeBounds(h, g, k, 4096);
    EXPECT_GT(b.Gap(), 0.0);
    EXPECT_LT(b.Gap(), 40.0) << b.ToString();
  }
}

}  // namespace
}  // namespace topofaq
