// ExecContext contract tests: operator statistics (calls, rows, sorts paid
// vs. skipped by the canonical-order invariant), batched-elimination
// grouping counts, scratch-buffer reuse across many calls, and the
// protocol-level stats rollup.
#include <gtest/gtest.h>

#include "faq/solvers.h"
#include "oracle.h"
#include "relation/exec.h"
#include "relation/ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;

NRel MakeRel(std::vector<VarId> vars, std::vector<std::vector<Value>> rows) {
  NRel r{Schema(std::move(vars))};
  for (auto& row : rows) r.Add(row, 1);
  r.Canonicalize();
  return r;
}

TEST(ExecContext, JoinCountsRowsAndCalls) {
  ExecContext ctx;
  NRel a = MakeRel({0, 1}, {{1, 10}, {2, 20}});
  NRel b = MakeRel({1, 2}, {{10, 5}, {10, 6}});
  NRel j = Join(a, b, &ctx);
  EXPECT_EQ(ctx.join.calls, 1);
  EXPECT_EQ(ctx.join.rows_in, 4);
  EXPECT_EQ(ctx.join.rows_out, static_cast<int64_t>(j.size()));
  EXPECT_GT(ctx.join.comparisons, 0);
}

TEST(ExecContext, PrefixAlignedJoinSkipsAllSorts) {
  // R(0,1) ⋈ S(0,2): the shared key {0} is a canonical schema prefix on
  // both sides, so the kernel must not sort anything.
  ExecContext ctx;
  NRel a = MakeRel({0, 1}, {{1, 10}, {2, 20}, {3, 30}});
  NRel b = MakeRel({0, 2}, {{1, 7}, {3, 9}});
  Join(a, b, &ctx);
  EXPECT_EQ(ctx.join.sorts, 0);
  EXPECT_EQ(ctx.join.sort_skips, 2);
}

TEST(ExecContext, MismatchedKeyOrderPaysAtMostOneSort) {
  // R(0,1) ⋈ S(1,2): key {1} is a prefix of S but not of R. The left side
  // is traversed canonically (skip) and the output is emitted in order, so
  // no sort runs at all; only the probe directory is built.
  ExecContext ctx;
  NRel a = MakeRel({0, 1}, {{1, 10}, {2, 20}});
  NRel b = MakeRel({1, 2}, {{10, 5}, {20, 6}});
  NRel j = Join(a, b, &ctx);
  EXPECT_EQ(j.size(), 2u);
  EXPECT_TRUE(j.canonical());
  EXPECT_EQ(ctx.join.sorts, 0);
}

TEST(ExecContext, EliminateBatchesPerAggregateRun) {
  // Two same-op variables: one grouping pass (one sort/skip event). Mixed
  // ops: one pass per run.
  ExecContext ctx;
  NRel r = MakeRel({0, 1, 2}, {{1, 2, 3}, {1, 2, 4}, {2, 2, 3}});
  Eliminate(r, {1, 2}, {VarOp::kSemiringSum, VarOp::kSemiringSum}, &ctx);
  EXPECT_EQ(ctx.eliminate.sorts + ctx.eliminate.sort_skips, 1);

  ctx.ResetStats();
  Eliminate(r, {1, 2}, {VarOp::kMax, VarOp::kSemiringSum}, &ctx);
  EXPECT_EQ(ctx.eliminate.sorts + ctx.eliminate.sort_skips, 2);
}

TEST(ExecContext, EliminatingSchemaSuffixStreamsWithoutSort) {
  // Kept columns form the schema prefix when the eliminated variables are
  // the highest-positioned ones — the canonical order streams the groups.
  ExecContext ctx;
  NRel r = MakeRel({0, 1, 2}, {{1, 2, 3}, {1, 2, 4}, {2, 2, 3}});
  NRel out = Eliminate(r, {2}, {VarOp::kSemiringSum}, &ctx);
  EXPECT_EQ(ctx.eliminate.sorts, 0);
  EXPECT_EQ(ctx.eliminate.sort_skips, 1);
  EXPECT_EQ(out.schema().vars(), (std::vector<VarId>{0, 1}));
}

TEST(ExecContext, ResetAndTotals) {
  ExecContext ctx;
  NRel a = MakeRel({0}, {{1}, {2}});
  Join(a, a, &ctx);
  Project(a, {}, &ctx);
  OpStats t = ctx.Totals();
  EXPECT_EQ(t.calls, 2);
  EXPECT_FALSE(ctx.DebugString().empty());
  ctx.ResetStats();
  EXPECT_EQ(ctx.Totals().calls, 0);
}

TEST(ExecContext, ScratchReuseIsCorrectAcrossManyCalls) {
  // Hammer one context with interleaved operators; results must stay equal
  // to fresh-context runs.
  Rng rng(99);
  ExecContext ctx;
  for (int iter = 0; iter < 50; ++iter) {
    NRel a{Schema({0, 1})}, b{Schema({1, 2})};
    for (int i = 0; i < 12; ++i) {
      a.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
      b.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
    }
    a.Canonicalize();
    b.Canonicalize();
    EXPECT_TRUE(Join(a, b, &ctx).EqualsAsFunction(Join(a, b)));
    EXPECT_TRUE(
        Eliminate(a, {1}, {VarOp::kSemiringSum}, &ctx)
            .EqualsAsFunction(Eliminate(a, {1}, {VarOp::kSemiringSum})));
  }
}

TEST(ExecContext, SolverThreadsOneContext) {
  // YannakakisSolve over a path query populates the caller's context.
  Hypergraph h(3, {{0, 1}, {1, 2}});
  Rng rng(5);
  std::vector<NRel> rels;
  for (int e = 0; e < 2; ++e) {
    NRel r{Schema(h.edge(e))};
    for (int i = 0; i < 10; ++i)
      r.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(3) + 1);
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  auto q = MakeFaqSS<NaturalSemiring>(h, rels, {0});
  ExecContext ctx;
  auto res = YannakakisSolve(q, &ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_GT(ctx.Totals().calls, 0);
  auto oracle = BruteForceSolve(q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(res->EqualsAsFunction(*oracle));
}

}  // namespace
}  // namespace topofaq
