// ExecContext contract tests: operator statistics (calls, rows, sorts paid
// vs. skipped by the canonical-order invariant), batched-elimination
// grouping counts, scratch-buffer reuse across many calls, and the
// protocol-level stats rollup.
#include <gtest/gtest.h>

#include "faq/solvers.h"
#include "oracle.h"
#include "relation/encoding.h"
#include "relation/exec.h"
#include "relation/multiway.h"
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
  OpStats t = ctx.Totals();
  EXPECT_EQ(t.calls, 1);
  EXPECT_FALSE(ctx.DebugString().empty());
  ctx.ResetStats();
  EXPECT_EQ(ctx.Totals().calls, 0);
}

/// One operator's pinned counters.
struct OpPin {
  int64_t calls, rows_in, rows_out, comparisons, seeks, sort_skips;
};

void ExpectPinned(const OpStats& st, const OpPin& p) {
  EXPECT_EQ(st.calls, p.calls);
  EXPECT_EQ(st.rows_in, p.rows_in);
  EXPECT_EQ(st.rows_out, p.rows_out);
  EXPECT_EQ(st.comparisons, p.comparisons);
  EXPECT_EQ(st.seeks, p.seeks);
  EXPECT_EQ(st.sort_skips, p.sort_skips);
  EXPECT_EQ(st.morsels, 0);
}

TEST(ExecContext, SerialOpStatsArePinned) {
  // One worker runs each operator's emission once, on the caller's
  // context: its counters on fixed inputs are pinned exactly (scalar
  // kernels and plain columns, so the pins hold on every host and CI leg).
  ExecContext ctx;
  ctx.parallelism = 1;
  ctx.simd = false;
  ctx.encoding = EncodingMode::kPlain;
  Rng rng(2026);
  auto random_rel = [&](std::vector<VarId> vars, int rows, uint64_t dom) {
    NRel r{Schema(std::move(vars))};
    for (int i = 0; i < rows; ++i) {
      std::vector<Value> row;
      for (size_t j = 0; j < r.arity(); ++j) row.push_back(rng.NextU64(dom));
      r.Add(row, rng.NextU64(5) + 1);
    }
    r.Canonicalize(&ctx);
    return r;
  };
  const NRel r01 = random_rel({0, 1}, 400, 40);
  const NRel s02 = random_rel({0, 2}, 300, 40);
  const NRel s12 = random_rel({1, 2}, 300, 40);
  const NRel t02 = random_rel({0, 2}, 300, 30);
  const NRel u012 = random_rel({0, 1, 2}, 900, 30);

  const NRel merged = Join(r01, s02, &ctx);  // key {0}: prefix on both sides
  ExpectPinned(ctx.join, {1, 624, 2358, 305, 0, 2});
  ctx.ResetStats();
  const NRel probed = Join(r01, s12, &ctx);  // key {1}: directory probe
  ExpectPinned(ctx.join, {1, 628, 2408, 2767, 0, 2});
  ctx.ResetStats();
  Eliminate(probed, {0}, {VarOp::kSemiringSum}, &ctx);  // kept {1, 2}: sort
  Eliminate(merged, {2}, {VarOp::kSemiringSum}, &ctx);  // kept prefix
  ExpectPinned(ctx.eliminate, {2, 4766, 628, 33662, 0, 1});
  ctx.ResetStats();
  MultiwayJoin<NaturalSemiring>({r01, s12, t02, u012}, &ctx);
  ExpectPinned(ctx.multiway, {1, 1758, 10, 7297, 1116, 4});
  ctx.ResetStats();
  // The factor case: u012 ⊗ r01 ⊗ s12 ⊕-eliminating 2 — a merge cursor on
  // r01 (its columns lead u012's), the hashed run directory on s12, and a
  // streaming fold into the kept prefix {0, 1}; no join is made.
  Eliminate(u012, {&r01, &s12}, {2}, {VarOp::kSemiringSum}, &ctx);
  ExpectPinned(ctx.eliminate, {1, 1513, 28, 957, 0, 1});
  EXPECT_EQ(ctx.join.calls, 0);
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
