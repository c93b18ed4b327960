// Worst-case-optimal multiway join tests (docs/kernel.md, "Worst-case-
// optimal join"): differential checks of MultiwayJoin against the retained
// pairwise-Join oracle across four semirings on triangle / 4-cycle / skewed
// / empty / single-key-run / permuted-schema inputs, byte-identical output
// across parallelism ∈ {1, 2, 7, hardware_concurrency}, the AGM peak-
// intermediate property on the triangle query, and the JoinAndEliminate
// routing policy (cyclic / >= 3-relation components go multiway, smaller
// components stay pairwise).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "faq/query.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "oracle.h"
#include "random_instances.h"
#include "relation/multiway.h"
#include "relation/ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// The pairwise oracle: left-fold of the sort-merge Join, permuted to the
/// ascending-variable schema MultiwayJoin emits.
template <CommutativeSemiring S>
Relation<S> PairwiseOracle(const std::vector<Relation<S>>& rels) {
  ExecContext ctx;
  ctx.parallelism = 1;
  Relation<S> acc = rels[0];
  for (size_t i = 1; i < rels.size(); ++i) acc = Join(acc, rels[i], &ctx);
  return internal::PermuteToVarOrder(std::move(acc), ctx, &ctx.multiway);
}

/// Differential + determinism check for one input family: MultiwayJoin must
/// compute the same function as the pairwise chain, and every parallelism
/// level must reproduce the serial bytes.
template <CommutativeSemiring S>
void CheckMultiway(const std::vector<Relation<S>>& rels,
                   const std::string& what, bool simd) {
  SCOPED_TRACE(what);
  ExecContext serial;
  serial.parallelism = 1;
  serial.simd = simd;
  const Relation<S> mw = MultiwayJoin(rels, &serial);
  EXPECT_TRUE(mw.canonical());
  EXPECT_TRUE(mw.EqualsAsFunction(PairwiseOracle(rels)));
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  for (int p : {2, 7, hw}) {
    ExecContext ctx;
    ctx.parallelism = p;
    ctx.simd = simd;
    SCOPED_TRACE("parallelism " + std::to_string(p));
    EXPECT_TRUE(BytesEqual(MultiwayJoin(rels, &ctx), mw));
    EXPECT_EQ(ctx.multiway.rows_out, serial.multiway.rows_out);
    if (!simd) {
      EXPECT_EQ(ctx.multiway.simd_blocks, 0);
    }
  }
  if (!simd) {
    EXPECT_EQ(serial.multiway.simd_blocks, 0);
  }
}

template <CommutativeSemiring S>
void RunSemiringSuite(uint64_t seed, bool simd = DefaultSimdEnabled()) {
  const size_t n = 2000;  // above kParallelMinRows: the morsel path engages
  // Triangle R(0,1) ⋈ S(1,2) ⋈ T(0,2): the canonical cyclic core.
  CheckMultiway<S>({RandomRelation<S>({0, 1}, n, 250, seed),
                    RandomRelation<S>({1, 2}, n, 250, seed + 1),
                    RandomRelation<S>({0, 2}, n, 250, seed + 2)},
                   InstanceLabel("triangle", seed), simd);
  // 4-cycle R(0,1) ⋈ S(1,2) ⋈ T(2,3) ⋈ U(0,3).
  CheckMultiway<S>({RandomRelation<S>({0, 1}, n, 400, seed + 3),
                    RandomRelation<S>({1, 2}, n, 400, seed + 4),
                    RandomRelation<S>({2, 3}, n, 400, seed + 5),
                    RandomRelation<S>({0, 3}, n, 400, seed + 6)},
                   InstanceLabel("4-cycle", seed), simd);
  // Heavy skew on the outermost variable: long unequal top-level key runs
  // stress the morsel-cut alignment.
  CheckMultiway<S>({RandomRelation<S>({0, 1}, n, 64, seed + 7, 2),
                    RandomRelation<S>({1, 2}, n, 64, seed + 8),
                    RandomRelation<S>({0, 2}, n, 64, seed + 9, 2)},
                   InstanceLabel("skewed triangle", seed), simd);
  // One empty input: the join is empty at every parallelism level.
  CheckMultiway<S>({RandomRelation<S>({0, 1}, n, 250, seed + 10),
                    Relation<S>{Schema({1, 2})},
                    RandomRelation<S>({0, 2}, n, 250, seed + 11)},
                   InstanceLabel("empty side", seed), simd);
  // Single key run at the outermost variable: one morsel, serial semantics.
  {
    RelationBuilder<S> br{Schema({0, 1})}, bt{Schema({0, 2})};
    for (size_t i = 0; i < 2048; ++i) {
      br.Append({7, static_cast<Value>(i)}, TestAnnot<S>(i));
      bt.Append({7, static_cast<Value>(i * 3 % 512)}, TestAnnot<S>(i + 5));
    }
    CheckMultiway<S>({br.Build(), RandomRelation<S>({1, 2}, n, 512, seed + 12),
                      bt.Build()},
                     InstanceLabel("single top key run", seed), simd);
  }
  // Out-of-order schema: the permutation pass must rebuild the trie view.
  CheckMultiway<S>({RandomRelation<S>({0, 1}, n, 250, seed + 13),
                    RandomRelation<S>({1, 2}, n, 250, seed + 14),
                    RandomRelation<S>({2, 0}, n, 250, seed + 15)},
                   InstanceLabel("permuted schema", seed), simd);
}

TEST(MultiwayJoin, NaturalSemiring) { RunSemiringSuite<NaturalSemiring>(11); }
TEST(MultiwayJoin, CountingSemiring) {
  RunSemiringSuite<CountingSemiring>(22);
}
TEST(MultiwayJoin, MinPlusSemiring) { RunSemiringSuite<MinPlusSemiring>(33); }
TEST(MultiwayJoin, Gf2Semiring) { RunSemiringSuite<Gf2Semiring>(44); }

// The SIMD frontier/seek kernels are pure mechanism: forcing the scalar
// bodies must reproduce the vector path's bytes on the full semiring suite
// (the vector leg runs in the tests above under the default switch).
TEST(MultiwayJoin, ScalarModeBitIdentical) {
  RunSemiringSuite<CountingSemiring>(22, /*simd=*/false);
}

TEST(MultiwayJoin, SingleRelationIsItsTrieView) {
  auto r = RandomRelation<NaturalSemiring>({3, 1}, 500, 40, 9);
  ExecContext ctx;
  const auto out = MultiwayJoin<NaturalSemiring>({r}, &ctx);
  EXPECT_EQ(out.schema().vars(), (std::vector<VarId>{1, 3}));
  EXPECT_TRUE(out.EqualsAsFunction(
      internal::PermuteToVarOrder(r, ctx, &ctx.multiway)));
}

TEST(MultiwayJoin, ZeroAryInputsFoldIntoAScalarFactor) {
  Relation<NaturalSemiring> scalar{Schema(std::vector<VarId>{})};
  scalar.Add(std::initializer_list<Value>{}, 5);
  auto r = RandomRelation<NaturalSemiring>({0, 1}, 300, 20, 3);
  auto s = RandomRelation<NaturalSemiring>({1, 2}, 300, 20, 4);
  auto t = RandomRelation<NaturalSemiring>({0, 2}, 300, 20, 5);
  ExecContext ctx;
  const auto with = MultiwayJoin<NaturalSemiring>({scalar, r, s, t}, &ctx);
  const auto without = MultiwayJoin<NaturalSemiring>({r, s, t}, &ctx);
  ASSERT_EQ(with.size(), without.size());
  for (size_t i = 0; i < with.size(); ++i)
    EXPECT_EQ(with.annot(i), 5 * without.annot(i));
}

TEST(MultiwayJoin, ParallelPathActuallyEngages) {
  const size_t n = 8000;
  std::vector<Relation<NaturalSemiring>> rels{
      RandomRelation<NaturalSemiring>({0, 1}, n, 1000, 1),
      RandomRelation<NaturalSemiring>({1, 2}, n, 1000, 2),
      RandomRelation<NaturalSemiring>({0, 2}, n, 1000, 3)};
  ExecContext ctx;
  ctx.parallelism = 4;
  MultiwayJoin(rels, &ctx);
  EXPECT_GT(ctx.multiway.morsels, 1);
  EXPECT_GT(ctx.multiway.seeks, 0);
}

// The worst-case-optimality property the AGM / fractional-edge-cover bound
// promises: on the triangle query the multiway join never materializes more
// than the output, which is within the N^{3/2} AGM bound, while the
// pairwise plan's first intermediate blows up to N² rows.
TEST(MultiwayJoin, TrianglePeakIntermediateStaysWithinAgmBound) {
  const size_t n = 512;
  Relation<NaturalSemiring> r{Schema({0, 1})}, s{Schema({1, 2})},
      t{Schema({0, 2})};
  for (size_t i = 0; i < n; ++i) {
    r.Add({static_cast<Value>(i), 0}, 1);  // R = [N] × {0}
    s.Add({0, static_cast<Value>(i)}, 1);  // S = {0} × [N]
    t.Add({static_cast<Value>(i), static_cast<Value>(i)}, 1);  // T = diagonal
  }
  r.Canonicalize();
  s.Canonicalize();
  t.Canonicalize();

  ExecContext ctx;
  ctx.parallelism = 1;
  const auto out = MultiwayJoin<NaturalSemiring>({r, s, t}, &ctx);
  const double agm = std::pow(static_cast<double>(n), 1.5);
  // Output = {(i, 0, i)}: N rows, within the AGM bound — and peak_rows is
  // the measured high-water materialization of the multiway operator
  // (rebuilt trie views + output), which must also stay within the bound.
  EXPECT_EQ(out.size(), n);
  EXPECT_LE(static_cast<double>(ctx.multiway.rows_out), agm);
  EXPECT_GT(ctx.multiway.peak_rows, 0);
  EXPECT_LE(static_cast<double>(ctx.multiway.peak_rows), agm);
  // The pairwise plan's first step R ⋈ S materializes all of [N] × {0} × [N].
  const auto rs = Join(r, s, &ctx);
  EXPECT_EQ(rs.size(), n * n);
  EXPECT_GT(static_cast<double>(rs.size()), agm);
}

// Routing policy in internal::JoinAndEliminate: a cyclic (>= 3 relation)
// component runs MultiwayJoin; 1-2 relation components stay pairwise.
TEST(Routing, BruteForceRoutesCyclicCoreThroughMultiway) {
  Hypergraph h = CycleGraph(3);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < 3; ++e)
    rels.push_back(RandomRelation<NaturalSemiring>(h.edge(e), 200, 16, 50 + e));
  auto q = MakeFaqSS<NaturalSemiring>(h, rels, {});
  ExecContext ctx;
  auto res = BruteForceSolve(q, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(ctx.multiway.calls, 0);
  // Cross-check the scalar against the explicit pairwise plan.
  ExecContext pairwise_ctx;
  auto joined = Join(Join(rels[0], rels[1], &pairwise_ctx), rels[2],
                     &pairwise_ctx);
  auto folded = Eliminate(std::move(joined), {0, 1, 2},
                          {VarOp::kSemiringSum, VarOp::kSemiringSum,
                           VarOp::kSemiringSum},
                          &pairwise_ctx);
  EXPECT_TRUE(res->EqualsAsFunction(folded));
  EXPECT_EQ(pairwise_ctx.multiway.calls, 0);
}

TEST(Routing, TwoRelationComponentsStayPairwise) {
  Hypergraph h = PathGraph(2);  // R(0,1), S(1,2): acyclic, 2 relations
  std::vector<Relation<NaturalSemiring>> rels{
      RandomRelation<NaturalSemiring>({0, 1}, 200, 16, 60),
      RandomRelation<NaturalSemiring>({1, 2}, 200, 16, 61)};
  auto q = MakeFaqSS<NaturalSemiring>(h, rels, {});
  ExecContext ctx;
  auto res = BruteForceSolve(q, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(ctx.multiway.calls, 0);
  EXPECT_GT(ctx.join.calls, 0);
}

TEST(MultiwayJoin, HugeLeadingKeysSkipTheRootDirectory) {
  // Leading keys at the top of the Value domain (including UINT64_MAX) must
  // not wrap the root-directory density check in BuildSeekIndexes; the join
  // falls back to galloping seeks and stays correct.
  using NRel = Relation<NaturalSemiring>;
  const size_t n = 5000;  // above kSeekSampleMinRows so indexes are built
  NRel r{Schema({0, 1})}, s{Schema({1, 2})}, t{Schema({0, 2})};
  for (size_t i = 0; i < n; ++i) {
    const Value hi = ~Value{0} - static_cast<Value>(i % 97);
    r.Add({hi, static_cast<Value>(i % 53)}, 1);
    s.Add({static_cast<Value>(i % 53), static_cast<Value>(i % 31)}, 1);
    t.Add({hi, static_cast<Value>(i % 31)}, 1);
  }
  r.Canonicalize();
  s.Canonicalize();
  t.Canonicalize();
  ExecContext cx;
  cx.parallelism = 1;
  NRel mw = MultiwayJoin(std::vector<NRel>{r, s, t}, &cx);
  ExecContext px;
  px.parallelism = 1;
  NRel pw = Join(Join(r, s, &px), t, &px);
  EXPECT_TRUE(mw.EqualsAsFunction(pw));
}

}  // namespace
}  // namespace topofaq
