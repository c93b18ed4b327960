// Centralized FAQ solver tests: Yannakakis/GHD message passing vs brute
// force across semirings, query shapes and aggregate mixes; BCQ, natural
// join, semijoin and PGM-marginal specializations (Appendix G.1).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "bit_identity.h"
#include "faq/parse.h"
#include "faq/query.h"
#include "faq/solvers.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "ivm/standing_query.h"
#include "mcm/protocols.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "oracle.h"
#include "random_instances.h"
#include "reference_ops.h"
#include "relation/encoding.h"
#include "server/engine.h"
#include "util/rng.h"

namespace topofaq {
namespace {

template <CommutativeSemiring S>
Relation<S> RandomRelation(const std::vector<VarId>& vars, int tuples,
                           uint64_t domain, Rng* rng,
                           typename S::Value (*val)(Rng*)) {
  Relation<S> r{Schema(vars)};
  for (int i = 0; i < tuples; ++i) {
    std::vector<Value> row;
    for (size_t j = 0; j < vars.size(); ++j) row.push_back(rng->NextU64(domain));
    r.Add(row, val(rng));
  }
  r.Canonicalize();
  return r;
}

uint64_t NatVal(Rng* rng) { return rng->NextU64(4) + 1; }
uint8_t BoolVal(Rng*) { return 1; }
double CountVal(Rng* rng) { return static_cast<double>(rng->NextU64(4) + 1); }

template <CommutativeSemiring S>
FaqQuery<S> RandomFaqSS(const Hypergraph& h, int tuples, uint64_t domain,
                        Rng* rng, typename S::Value (*val)(Rng*),
                        std::vector<VarId> free_vars) {
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), tuples, domain, rng, val));
  return MakeFaqSS<S>(h, std::move(rels), std::move(free_vars));
}

TEST(BruteForce, TriangleCountingByHand) {
  // Count of triangles via (ℕ, +, ×): H = 3-cycle, F = ∅.
  Hypergraph h = CycleGraph(3);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < 3; ++e) {
    Relation<NaturalSemiring> r{Schema(h.edge(e))};
    // Complete bipartite-ish data on domain {0,1}: every pair present.
    r.Add({0, 0}, 1);
    r.Add({0, 1}, 1);
    r.Add({1, 0}, 1);
    r.Add({1, 1}, 1);
    rels.push_back(std::move(r));
  }
  auto q = MakeFaqSS<NaturalSemiring>(h, std::move(rels), {});
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), 1u);
  EXPECT_EQ(res->annot(0), 8u);  // 2^3 assignments all satisfy
}

TEST(BruteForce, BcqDetectsEmptyJoin) {
  Hypergraph h = PathGraph(2);  // R(0,1), S(1,2)
  Relation<BooleanSemiring> r{Schema({0, 1})}, s{Schema({1, 2})};
  r.Add({1, 5});
  s.Add({6, 2});  // no shared B value
  auto q = MakeBcq(h, {r, s});
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
}

TEST(Yannakakis, MatchesBruteForceOnPaperH2) {
  Rng rng(31);
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<NaturalSemiring>(PaperH2(), 12, 3, &rng, NatVal, {});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, MatchesBruteForceOnStar) {
  Rng rng(32);
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<NaturalSemiring>(StarGraph(4), 10, 3, &rng, NatVal, {});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, HandlesCyclicCores) {
  Rng rng(33);
  for (int iter = 0; iter < 15; ++iter) {
    for (const Hypergraph& h : {CycleGraph(4), PaperH3(), CliqueGraph(4)}) {
      auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, {});
      auto bf = BruteForceSolve(q);
      auto yk = YannakakisSolve(q);
      ASSERT_TRUE(bf.ok() && yk.ok());
      EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
    }
  }
}

// Every shape runs through the one GHD node step that YannakakisSolve, the
// engine and the standing queries share. Two kinds of shape:
//  * cyclic cores: the synthetic core bag of Construction 2.8 is the root
//    and runs JoinAndEliminate (and so MultiwayJoin);
//  * free variables no root bag covers (H1 with F = {B, C}, the path with
//    both ends free, triangle+pendant with F at the far edge), plus
//    McmAsFaq's chain: the free columns ride up to the root.
// Per shape, semiring and parallelism: the answer is function-equal to the
// brute-force oracle, Engine::Solve and a subscription's Current() are
// byte-equal to a fresh YannakakisSolve, and stay so after a delta on the
// first and on the last relation — in ring mode (Natural, GF(2)) and in
// recompute mode (the rest).
struct PassShape {
  const char* name;
  Hypergraph h;
  std::vector<VarId> free_vars;
  bool core_root;
};

std::vector<PassShape> PassShapes() {
  const Hypergraph pendant(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  Rng rng(97);
  McmInstance mcm;
  mcm.x = BitVector::Random(4, &rng);
  for (int i = 0; i < 3; ++i)
    mcm.matrices.push_back(BitMatrix::Random(4, &rng));
  const FaqQuery<Gf2Semiring> chain = McmAsFaq(mcm);
  return {{"triangle", CycleGraph(3), {}, true},
          {"4-cycle", CycleGraph(4), {0}, true},
          {"5-cycle", CycleGraph(5), {0, 2}, true},
          {"triangle+path", pendant, {1}, true},
          {"H1 F={B,C}", PaperH1(), {1, 2}, false},
          {"path F={A,D}", PathGraph(3), {0, 3}, false},
          {"triangle+path F={3,4}", pendant, {3, 4}, false},
          {"mcm chain", chain.hypergraph, chain.free_vars, false}};
}

template <CommutativeSemiring S>
void CheckPassShapes(uint64_t seed0) {
  uint64_t seed = seed0;
  for (int p : {1, 2}) {
    EngineOptions opts;
    opts.parallelism = p;
    Engine engine(opts);
    ExecContext ctx;
    ctx.parallelism = p;
    for (const PassShape& sh : PassShapes()) {
      ++seed;
      SCOPED_TRACE(InstanceLabel(std::string(sh.name) + " p=" +
                                     std::to_string(p), seed));
      FaqQuery<S> q = RandomQuery<S>(sh.h, 60, 12, seed, sh.free_vars);
      auto plan = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const Ghd& ghd = plan->decomposition.ghd;
      if (sh.core_root)
        ASSERT_LT(ghd.node(ghd.root()).edge_id, 0)
            << "no synthetic core bag at the root";
      QueryRequest req;
      req.query = q;
      auto ss = engine.Subscribe(std::move(req));
      ASSERT_TRUE(ss.ok()) << ss.status().ToString();
      EXPECT_EQ((*ss)->ring_mode(),
                RingTraits<S>::kIsRing && RingTraits<S>::kExact);
      for (int round = 0; round < 3; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        auto yk = YannakakisSolve(q, &ctx);
        auto bf = BruteForceSolve(q, &ctx);
        auto solved = engine.Solve<S>(q);
        ASSERT_TRUE(yk.ok() && bf.ok() && solved.ok())
            << solved.status().ToString();
        EXPECT_TRUE(bf->EqualsAsFunction(*yk));
        EXPECT_TRUE(BytesEqual(*solved, *yk));
        EXPECT_TRUE(BytesEqual((*ss)->Current<S>(), *yk));
        if (round == 2) break;
        const int rel =
            round == 0 ? 0 : static_cast<int>(q.relations.size()) - 1;
        const Relation<S>& base = q.relations[static_cast<size_t>(rel)];
        Delta<S> d = RandomDelta<S>(base, 12, seed + 100 + round,
                                    base.size() / 4, 15);
        Delta<S> d2 = d;
        auto applied = (*ss)->ApplyDelta(rel, std::move(d));
        ASSERT_TRUE(applied.ok()) << applied.status().ToString();
        ASSERT_TRUE(ApplyDeltaToQuery(&q, rel, std::move(d2), &ctx).ok());
      }
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(Yannakakis, EveryShapeRunsThroughTheNodeStep) {
  CheckPassShapes<BooleanSemiring>(7100);
  CheckPassShapes<NaturalSemiring>(7200);
  CheckPassShapes<MinPlusSemiring>(7300);
  CheckPassShapes<MaxProductSemiring>(7400);
  CheckPassShapes<CountingSemiring>(7700);
  CheckPassShapes<Gf2Semiring>(7800);
}

TEST(Yannakakis, RootFinishFoldsDuplicatesInFOrder) {
  // The root step's operand here is the query's own relation: not
  // canonical, with duplicate rows (half-integer Counting annotations, so
  // every fold order sums exactly). The answer must fold them and follow
  // F's column order, whether F lists the schema in order or not — through
  // the solver, the engine, a subscription and both protocol clocks (the
  // event clock streams canonical inputs only, so it gets a canonical
  // copy).
  using CS = CountingSemiring;
  Relation<CS> r{Schema({0, 1})};
  r.Add({2, 1}, 0.5);
  r.Add({0, 3}, 1.5);
  r.Add({2, 1}, 2.5);
  r.Add({1, 1}, 0.5);
  r.Add({0, 3}, 0.5);
  r.Add({2, 0}, 3.5);
  ASSERT_FALSE(r.canonical());
  Relation<CS> canon = r;
  canon.Canonicalize();
  const Hypergraph h(2, {{0, 1}});
  Engine engine;
  for (const std::vector<VarId>& f :
       {std::vector<VarId>{1, 0}, std::vector<VarId>{0, 1}}) {
    SCOPED_TRACE("F[0]=" + std::to_string(f[0]));
    const FaqQuery<CS> q = MakeFaqSS<CS>(h, {r}, f);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(yk.ok()) << yk.status().ToString();
    EXPECT_TRUE(yk->canonical());
    EXPECT_EQ(yk->size(), 4u);
    EXPECT_TRUE(yk->EqualsAsFunction(reference::Project(r, f)));
    auto solved = engine.Solve<CS>(q);
    ASSERT_TRUE(solved.ok()) << solved.status().ToString();
    EXPECT_TRUE(BytesEqual(*solved, *yk));
    QueryRequest req;
    req.query = q;
    auto ss = engine.Subscribe(std::move(req));
    ASSERT_TRUE(ss.ok()) << ss.status().ToString();
    EXPECT_TRUE(BytesEqual((*ss)->Current<CS>(), *yk));
    DistInstance<CS> inst;
    inst.query = q;
    inst.topology = LineTopology(3);
    inst.owners = {0};
    inst.sink = 2;
    DistInstance<CS> streamed = inst;
    streamed.query.relations = {canon};
    for (bool core_forest : {false, true}) {
      SCOPED_TRACE(core_forest ? "core forest" : "trivial");
      auto ledger = core_forest ? RunCoreForestProtocol(inst)
                                : RunTrivialProtocol(inst);
      auto events = core_forest ? RunCoreForestProtocolAsync(streamed)
                                : RunTrivialProtocolAsync(streamed);
      ASSERT_TRUE(ledger.ok()) << ledger.status().ToString();
      ASSERT_TRUE(events.ok()) << events.status().ToString();
      EXPECT_TRUE(BytesEqual(ledger->answer, *yk));
      EXPECT_TRUE(BytesEqual(events->answer, *yk));
    }
  }
}

TEST(JoinAndEliminate, DisconnectedComponentsJoinOnceAtOneWorker) {
  // Two variable-disjoint components: each reduces on its own, and one Join
  // crosses the reduced parts. Nothing else is joined — seeding the cross
  // combination or a component's chain with the unit relation would add a
  // Join call per seed and 1 + |operand| rows per seed to rows_in.
  using S = NaturalSemiring;
  const Hypergraph h(4, {{0, 1}, {2, 3}});
  const FaqQuery<S> q = RandomQuery<S>(h, 60, 8, 41, {0, 2});
  ExecContext ctx;
  ctx.parallelism = 1;
  const Relation<S> out =
      internal::JoinAndEliminate(q.relations, q.free_vars, q, &ctx);
  ExecContext side;
  const Relation<S> a = internal::EliminateAll(q.relations[0], {1}, q, &side);
  const Relation<S> b = internal::EliminateAll(q.relations[1], {3}, q, &side);
  EXPECT_EQ(ctx.join.calls, 1);
  EXPECT_EQ(ctx.join.rows_in, static_cast<int64_t>(a.size() + b.size()));
  EXPECT_TRUE(out.canonical());
  EXPECT_TRUE(out.EqualsAsFunction(reference::Join(a, b)));
}

TEST(Yannakakis, NonRootCoreBagKeepsItsParentBag) {
  // Triangle {0,1,2} with the path 2-3-4 hanging off it, F = {3,4}: the
  // decomposition is rooted at the forest edge {3,4}, so the synthetic core
  // bag sits below {2,3} and must keep χ(parent) ∩ χ(core) = {2}, not F.
  // (PlanCache never re-roots a cyclic H, so the GHD is built here.)
  const Hypergraph h(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}});
  GyoGhd gg;
  const int core = gg.ghd.AddNode({{0, 1, 2}, {}, -1, {}, -1});
  std::vector<int> edge_node;
  for (int e = 0; e < h.num_edges(); ++e)
    edge_node.push_back(gg.ghd.AddNode({h.edge(e), {e}, -1, {}, e}));
  gg.ghd.set_root(edge_node[4]);
  gg.ghd.SetParent(edge_node[3], edge_node[4]);
  gg.ghd.SetParent(core, edge_node[3]);
  for (int e = 0; e < 3; ++e) gg.ghd.SetParent(edge_node[e], core);
  uint64_t seed = 7600;
  for (int p : {1, 2}) {
    ++seed;
    SCOPED_TRACE(InstanceLabel("p=" + std::to_string(p), seed));
    ExecContext ctx;
    ctx.parallelism = p;
    auto q = RandomQuery<MinPlusSemiring>(h, 60, 12, seed, {3, 4});
    auto yk = YannakakisSolveOn(q, gg, &ctx);
    auto bf = BruteForceSolve(q);
    ASSERT_TRUE(yk.ok() && bf.ok()) << yk.status().ToString();
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
    EXPECT_GE(ctx.multiway.calls, 1);
  }
}

TEST(Yannakakis, TriangleCoreRunsMultiwayWithoutPairwiseBlowUp) {
  // 200 rows over a domain of 20 per relation: the pairwise R ⋈ S alone
  // would hold about 200·200/20 = 2000 rows, above the 600 input rows.
  FaqQuery<NaturalSemiring> q =
      RandomQuery<NaturalSemiring>(CycleGraph(3), 200, 20, 7500, {});
  int64_t input_rows = 0;
  for (const auto& r : q.relations)
    input_rows += static_cast<int64_t>(r.size());
  for (int p : {1, 2}) {
    ExecContext ctx;
    ctx.parallelism = p;
    auto yk = YannakakisSolve(q, &ctx);
    ASSERT_TRUE(yk.ok()) << yk.status().ToString();
    EXPECT_GE(ctx.multiway.calls, 1);
    EXPECT_LE(ctx.join.rows_out, input_rows);
  }
}

TEST(Yannakakis, FreeVariablesInsideCoreBag) {
  // F = the root-edge variables of a star (factor-marginal style).
  Rng rng(34);
  Hypergraph h = PaperH1();
  for (int iter = 0; iter < 10; ++iter) {
    auto q = RandomFaqSS<CountingSemiring>(h, 10, 3, &rng, CountVal, {0});
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, LeafPrivateFreeVariableWorksViaRerooting) {
  // F = {B} sits in the bag (A,B): the solver re-roots the join tree there
  // (MinimizeWidthWithRoot), extending the paper's F ⊆ V(C(H)) restriction
  // to any F covered by a single bag of an acyclic H.
  Rng rng(35);
  auto q = RandomFaqSS<NaturalSemiring>(PaperH1(), 8, 3, &rng, NatVal,
                                        /*free=*/{1});
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(yk.ok()) << yk.status().ToString();
  auto bf = BruteForceSolve(q);
  ASSERT_TRUE(bf.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk));
}

TEST(Yannakakis, SolvesFreeVariablesNoBagCovers) {
  // F = {B, C}: no hyperedge of H1 contains both, so no root bag covers F.
  // The pass carries both free columns up to the root instead.
  Rng rng(41);
  auto q = RandomFaqSS<NaturalSemiring>(PaperH1(), 8, 3, &rng, NatVal,
                                        /*free=*/{1, 2});
  auto plan = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
  ASSERT_TRUE(plan.ok());
  const Ghd& ghd = plan->decomposition.ghd;
  const std::vector<VarId>& root_chi = ghd.node(ghd.root()).chi;
  EXPECT_FALSE(std::includes(root_chi.begin(), root_chi.end(),
                             q.free_vars.begin(), q.free_vars.end()));
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(yk.ok()) << yk.status().ToString();
  auto bf = BruteForceSolve(q);
  ASSERT_TRUE(bf.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk));

  // Path A-B-C-D with F = {A, D}: every leaf bag holds only kept columns
  // (F ∪ χ(parent)), so its step hands its relation up unchanged — no
  // eliminate call, no rows_out, not even a copy through the operator.
  auto path = RandomFaqSS<NaturalSemiring>(PathGraph(3), 20, 4, &rng, NatVal,
                                           /*free=*/{0, 3});
  auto path_plan = PlanCache::Shared().PlanFor(path.hypergraph, path.free_vars);
  ASSERT_TRUE(path_plan.ok());
  const Ghd& pg = path_plan->decomposition.ghd;
  const std::vector<Relation<NaturalSemiring>> no_msgs;
  int leaves = 0;
  for (int v = 0; v < pg.num_nodes(); ++v) {
    if (v == pg.root() || !pg.node(v).children.empty()) continue;
    ++leaves;
    ExecContext ctx;
    const auto msg = internal::SolveNode(
        path, pg, v, internal::PassOperands(path, pg, v, no_msgs), &ctx);
    EXPECT_EQ(ctx.eliminate.calls, 0) << "leaf " << v;
    EXPECT_EQ(ctx.eliminate.rows_out, 0) << "leaf " << v;
    EXPECT_TRUE(BytesEqual(
        msg, path.relations[static_cast<size_t>(pg.node(v).edge_id)]));
  }
  EXPECT_GT(leaves, 0);
  auto path_yk = YannakakisSolve(path);
  auto path_bf = BruteForceSolve(path);
  ASSERT_TRUE(path_yk.ok() && path_bf.ok());
  EXPECT_TRUE(path_bf->EqualsAsFunction(*path_yk));
}

TEST(Yannakakis, GeneralFaqWithMixedAggregates) {
  // Bound variables carry kMax / kMin semiring aggregates (Eq. (4)): the
  // Theorem G.1 swap conditions hold over (ℝ≥0, ·), so GHD evaluation must
  // match the canonical innermost-first order.
  Rng rng(36);
  Hypergraph h = PaperH1();  // leaves B,C,D,E are degree-1
  for (int iter = 0; iter < 15; ++iter) {
    auto q = RandomFaqSS<CountingSemiring>(h, 10, 3, &rng, CountVal, {0});
    q.var_ops[1] = VarOp::kMax;
    q.var_ops[2] = VarOp::kMin;
    q.var_ops[3] = VarOp::kMax;
    auto bf = BruteForceSolve(q);
    auto yk = YannakakisSolve(q);
    ASSERT_TRUE(bf.ok() && yk.ok());
    EXPECT_TRUE(bf->EqualsAsFunction(*yk));
  }
}

TEST(Yannakakis, ProductAggregateOnBoundVariableIsRejected) {
  Rng rng(40);
  auto q = RandomFaqSS<CountingSemiring>(PaperH1(), 8, 3, &rng, CountVal, {0});
  q.var_ops[1] = VarOp::kProduct;
  auto res = YannakakisSolve(q);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kUnimplemented);
}

TEST(Faq, PgmMarginalSumsToPartitionFunction) {
  // A chain PGM: marginalizing a factor and then summing it out equals the
  // partition function computed directly.
  Rng rng(37);
  Hypergraph h = PathGraph(3);
  std::vector<Relation<CountingSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(
        RandomRelation<CountingSemiring>(h.edge(e), 6, 2, &rng, CountVal));
  auto marginal_q = MakeFactorMarginal(h, rels, /*marginal_edge=*/0);
  auto z_q = MakeFaqSS<CountingSemiring>(h, rels, {});
  auto marginal = BruteForceSolve(marginal_q);
  auto z = BruteForceSolve(z_q);
  ASSERT_TRUE(marginal.ok() && z.ok());
  double sum = 0;
  for (size_t i = 0; i < marginal->size(); ++i) sum += marginal->annot(i);
  double zval = z->empty() ? 0.0 : z->annot(0);
  EXPECT_NEAR(sum, zval, 1e-9 * std::max(1.0, zval));
}

TEST(Faq, NaturalJoinMatchesRelationalJoin) {
  Rng rng(38);
  Hypergraph h = PathGraph(2);
  for (int iter = 0; iter < 10; ++iter) {
    auto r0 = RandomRelation<BooleanSemiring>(h.edge(0), 10, 3, &rng, BoolVal);
    auto r1 = RandomRelation<BooleanSemiring>(h.edge(1), 10, 3, &rng, BoolVal);
    auto q = MakeNaturalJoin(h, {r0, r1});
    auto res = BruteForceSolve(q);
    ASSERT_TRUE(res.ok());
    auto expected = reference::Project(Join(r0, r1), q.free_vars);
    EXPECT_TRUE(res->EqualsAsFunction(expected));
  }
}

TEST(Faq, SemijoinAsFaq) {
  // Appendix G.1: semijoin = FAQ with F = ar(R1) over the Boolean semiring.
  Rng rng(39);
  Hypergraph h(3, {{0, 1}, {1, 2}});
  auto r0 = RandomRelation<BooleanSemiring>(h.edge(0), 12, 3, &rng, BoolVal);
  auto r1 = RandomRelation<BooleanSemiring>(h.edge(1), 12, 3, &rng, BoolVal);
  auto q = MakeFaqSS<BooleanSemiring>(h, {r0, r1}, {0, 1});
  const auto expected = reference::Semijoin(r0, r1);
  auto res = BruteForceSolve(q);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->EqualsAsFunction(expected));
  // The GHD upward pass answers it with join + eliminate alone.
  auto plan = YannakakisSolve(q);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->EqualsAsFunction(expected));
}

TEST(Faq, ValidateCatchesShapeErrors) {
  Hypergraph h = PathGraph(2);
  Relation<BooleanSemiring> wrong{Schema({0, 2})};  // wrong schema
  Relation<BooleanSemiring> right{Schema({1, 2})};
  auto q = MakeBcq(h, {wrong, right});
  EXPECT_FALSE(q.Validate().ok());
  // F must name distinct variables that some edge supplies: the answer has
  // one column per free variable.
  Relation<BooleanSemiring> left{Schema({0, 1})};
  auto isolated = MakeFaqSS<BooleanSemiring>(Hypergraph(4, {{0, 1}, {1, 2}}),
                                             {left, right}, {3});
  EXPECT_EQ(isolated.Validate().code(), StatusCode::kInvalidArgument);
  auto repeated = MakeFaqSS<BooleanSemiring>(h, {left, right}, {0, 0});
  EXPECT_EQ(repeated.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(MakeFaqSS<BooleanSemiring>(h, {left, right}, {0, 2})
                  .Validate()
                  .ok());
}

TEST(Faq, DomainSizeTracksData) {
  Hypergraph h = PathGraph(2);
  Relation<BooleanSemiring> a{Schema({0, 1})}, b{Schema({1, 2})};
  a.Add({0, 250});
  b.Add({250, 3});
  auto q = MakeBcq(h, {a, b});
  EXPECT_EQ(q.DomainSize(), 251u);
}

// Differential sweep: many random acyclic hypergraph queries across
// semirings; Yannakakis must equal brute force with F = ∅ and with the
// root-edge variables free.
class FaqDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FaqDifferential, NaturalSemiringScalar) {
  Rng rng(4000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(3 + GetParam() % 5, 3, &rng);
  auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, {});
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

TEST_P(FaqDifferential, BooleanScalar) {
  Rng rng(5000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(3 + GetParam() % 5, 3, &rng);
  auto q = RandomFaqSS<BooleanSemiring>(h, 6, 2, &rng, BoolVal, {});
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolve(q);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

TEST_P(FaqDifferential, RootEdgeFreeVariables) {
  Rng rng(6000 + GetParam());
  Hypergraph h = RandomAcyclicHypergraph(4, 3, &rng);
  WidthResult w = ComputeWidth(h);
  // Free vars: the root bag of the canonical decomposition.
  std::vector<VarId> f = w.decomposition.ghd.node(w.decomposition.ghd.root()).chi;
  auto q = RandomFaqSS<NaturalSemiring>(h, 8, 3, &rng, NatVal, f);
  auto bf = BruteForceSolve(q);
  auto yk = YannakakisSolveOn(q, w.decomposition);
  ASSERT_TRUE(bf.ok() && yk.ok());
  EXPECT_TRUE(bf->EqualsAsFunction(*yk)) << h.DebugString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, FaqDifferential, ::testing::Range(0, 20));

TEST(Faq, InstantiateKeepsCanonicalEncodedInputsInAscendingAtoms) {
  // Atoms whose written order is already ascending need no column reorder:
  // the inputs must come through still canonical and still encoded, in the
  // very packed buffers they arrived in. A re-sort would decode them and
  // re-encode fresh buffers, under whatever mode — so buffer identity is
  // the check, not the encoding alone.
  auto parsed = ParseQuery("q(A) :- R(A, B), S(B, C)");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EncodingContext dict(EncodingMode::kForceDict);
  std::vector<Relation<NaturalSemiring>> rels;
  for (uint64_t seed : {81, 82})
    rels.push_back(topofaq::RandomRelation<NaturalSemiring>({0, 1}, 50, 10,
                                                            seed, 0, &dict));
  ASSERT_TRUE(rels[0].canonical());
  ASSERT_EQ(rels[0].col_encoding(0), ColumnEncoding::kDict);
  std::vector<Relation<NaturalSemiring>> moved = rels;
  std::vector<const uint64_t*> words;
  for (const auto& r : moved) words.push_back(r.encoded_col(0)->words.data());
  auto q = InstantiateQuery(*parsed, std::move(moved));
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (size_t i = 0; i < q->relations.size(); ++i) {
    const auto& r = q->relations[i];
    EXPECT_TRUE(r.canonical());
    EXPECT_EQ(r.col_encoding(0), ColumnEncoding::kDict);
    ASSERT_NE(r.encoded_col(0), nullptr);
    EXPECT_EQ(r.encoded_col(0)->words.data(), words[i]);
  }
  EXPECT_EQ(q->relations[1].schema(), Schema({1, 2}));
  EXPECT_TRUE(q->relations[1].columns() == rels[1].columns());
}

}  // namespace
}  // namespace topofaq
