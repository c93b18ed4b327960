// Morsel-parallel kernel tests (docs/kernel.md, "Morsel-parallel
// execution"): the WorkerPool fork/join contract, key-aligned morsel cuts,
// and — the core guarantee — byte-identical canonical output across
// parallelism ∈ {1, 2, 7, hardware_concurrency} for Join / Eliminate over
// four semirings, including empty, skewed, and single-key-run inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "faq/solvers.h"
#include "oracle.h"
#include "relation/exec.h"
#include "relation/ops.h"
#include "relation/parallel.h"
#include "util/rng.h"

namespace topofaq {
namespace {

// ---------------------------------------------------------------------------
// WorkerPool / cuts machinery
// ---------------------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  WorkerPool& pool = WorkerPool::Shared();
  EXPECT_GE(pool.max_workers(), 4);  // floor of 3 extra threads + caller
  const size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(pool.max_workers(), n,
                   [&](int, size_t t) { hits[t].fetch_add(1); });
  for (size_t t = 0; t < n; ++t) EXPECT_EQ(hits[t].load(), 1) << t;
}

TEST(WorkerPool, WorkerIdsStayInRange) {
  WorkerPool& pool = WorkerPool::Shared();
  const int workers = 3;
  std::atomic<bool> ok{true};
  pool.ParallelFor(workers, 256, [&](int w, size_t) {
    if (w < 0 || w >= workers) ok.store(false);
  });
  EXPECT_TRUE(ok.load());
}

TEST(WorkerPool, ZeroTasksAndSingleWorkerAreNoops) {
  WorkerPool& pool = WorkerPool::Shared();
  int calls = 0;
  pool.ParallelFor(4, 0, [&](int, size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.ParallelFor(1, 5, [&](int w, size_t) {
    EXPECT_EQ(w, 0);  // single worker = caller runs everything inline
    ++calls;
  });
  EXPECT_EQ(calls, 5);
}

TEST(WorkerPool, ConcurrentCallersDegradeInsteadOfDeadlocking) {
  // Two user threads hammer the shared pool at once; the loser of the busy
  // check must run serially on its own thread, and every task must still
  // run exactly once.
  std::atomic<int> total{0};
  auto burst = [&] {
    for (int i = 0; i < 50; ++i)
      WorkerPool::Shared().ParallelFor(4, 64,
                                       [&](int, size_t) { total.fetch_add(1); });
  };
  std::thread a(burst), b(burst);
  a.join();
  b.join();
  EXPECT_EQ(total.load(), 2 * 50 * 64);
}

TEST(KeyAlignedCuts, NeverSplitsARun) {
  // Keys with heavy runs: position t belongs to run t/7.
  const size_t n = 5000;
  auto starts = [](size_t t) { return t % 7 == 0; };
  std::vector<size_t> cuts = KeyAlignedCuts(n, 16, starts);
  ASSERT_GE(cuts.size(), 2u);
  EXPECT_EQ(cuts.front(), 0u);
  EXPECT_EQ(cuts.back(), n);
  for (size_t i = 1; i + 1 < cuts.size(); ++i) {
    EXPECT_LT(cuts[i - 1], cuts[i]);
    EXPECT_TRUE(starts(cuts[i])) << "cut " << cuts[i] << " inside a run";
  }
}

TEST(KeyAlignedCuts, SingleRunYieldsSingleMorsel) {
  std::vector<size_t> cuts =
      KeyAlignedCuts(4096, 8, [](size_t) { return false; });
  EXPECT_EQ(cuts, (std::vector<size_t>{0, 4096}));
}

// ---------------------------------------------------------------------------
// Operator determinism across parallelism levels
// ---------------------------------------------------------------------------

/// Nonzero annotation generator per semiring (bitwise-reproducible values).
template <CommutativeSemiring S>
typename S::Value MakeAnnot(uint64_t k);
template <>
NaturalSemiring::Value MakeAnnot<NaturalSemiring>(uint64_t k) {
  return k % 97 + 1;
}
template <>
CountingSemiring::Value MakeAnnot<CountingSemiring>(uint64_t k) {
  return 0.5 * static_cast<double>(k % 13 + 1);
}
template <>
MinPlusSemiring::Value MakeAnnot<MinPlusSemiring>(uint64_t k) {
  return static_cast<double>(k % 29);
}
template <>
Gf2Semiring::Value MakeAnnot<Gf2Semiring>(uint64_t) {
  return 1;
}

/// Random canonical relation. skew > 0 squashes the first column's domain so
/// key runs become long and unequal (the morsel balancing worst case).
template <CommutativeSemiring S>
Relation<S> RandomRel(std::vector<VarId> vars, size_t n, uint64_t dom,
                      int skew, uint64_t seed) {
  Rng rng(seed);
  Relation<S> r{Schema(std::move(vars))};
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      uint64_t v = rng.NextU64(dom);
      if (j == 0 && skew > 0) v = (v * v) / (dom << skew);  // front-loaded
      row[j] = v;
    }
    r.Add(row, MakeAnnot<S>(rng.NextU64(1 << 20)));
  }
  r.Canonicalize();
  return r;
}

/// All-operators determinism check for one (left, right) input pair:
/// every parallelism level must reproduce the serial bytes, and the stats
/// rollup must keep rows_in/rows_out identical.
template <CommutativeSemiring S>
void CheckOpsDeterministic(const Relation<S>& left, const Relation<S>& right,
                           const char* what) {
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  ExecContext serial;
  serial.parallelism = 1;
  const Relation<S> join1 = Join(left, right, &serial);
  const Relation<S> elim1 =
      left.arity() > 1
          ? Eliminate(left, {left.schema().var(left.arity() - 1)},
                      {VarOp::kSemiringSum}, &serial)
          : left;
  for (int p : {2, 7, hw}) {
    ExecContext ctx;
    ctx.parallelism = p;
    SCOPED_TRACE(std::string(what) + " @ parallelism " + std::to_string(p));
    EXPECT_TRUE(BytesEqual(Join(left, right, &ctx), join1));
    if (left.arity() > 1)
      EXPECT_TRUE(BytesEqual(
          Eliminate(left, {left.schema().var(left.arity() - 1)},
                    {VarOp::kSemiringSum}, &ctx),
          elim1));
    EXPECT_EQ(ctx.join.rows_out, serial.join.rows_out);
  }
  // Every core again, on a context whose modes differ from the defaults:
  // workers take the owner's encoding and SIMD switch at every fork. The
  // bytes still match the serial run, the outputs are stored under the
  // forced encoding, and with the switch off no worker retires a vector
  // block.
  ExecContext forced;
  forced.parallelism = hw;
  const bool use_for = DefaultEncodingMode() != EncodingMode::kForceFor;
  forced.encoding =
      use_for ? EncodingMode::kForceFor : EncodingMode::kForceDict;
  forced.simd = false;
  const ColumnEncoding want =
      use_for ? ColumnEncoding::kFor : ColumnEncoding::kDict;
  SCOPED_TRACE(std::string(what) + " @ every core, forced modes");
  const Relation<S> joinf = Join(left, right, &forced);
  EXPECT_TRUE(BytesEqual(joinf, join1));
  if (!joinf.empty()) {
    EXPECT_EQ(joinf.col_encoding(0), want);
  }
  if (left.arity() > 1) {
    const Relation<S> elimf =
        Eliminate(left, {left.schema().var(left.arity() - 1)},
                  {VarOp::kSemiringSum}, &forced);
    EXPECT_TRUE(BytesEqual(elimf, elim1));
    if (!elimf.empty()) {
      EXPECT_EQ(elimf.col_encoding(0), want);
    }
  }
  EXPECT_EQ(forced.join.simd_blocks, 0);
}

template <CommutativeSemiring S>
void RunSemiringSuite(uint64_t seed) {
  const size_t n = 6000;  // comfortably above kParallelMinRows
  // Random sparse join: R(0,1) ⋈ S(1,2), probe path on the left (key is not
  // a left prefix).
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n, 0, seed),
                           RandomRel<S>({1, 2}, n, n, 0, seed + 1),
                           "sparse probe join");
  // Prefix-aligned monotone merge: R(0,1) ⋈ S(0,2).
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n / 2, 0, seed + 2),
                           RandomRel<S>({0, 2}, n, n / 2, 0, seed + 3),
                           "prefix merge join");
  // Heavy skew: long unequal key runs stress morsel balancing + alignment.
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, 64, 2, seed + 4),
                           RandomRel<S>({0, 2}, n, 64, 2, seed + 5),
                           "skewed runs");
  // Empty sides.
  CheckOpsDeterministic<S>(Relation<S>{Schema({0, 1})},
                           RandomRel<S>({1, 2}, n, n, 0, seed + 6),
                           "empty left");
  CheckOpsDeterministic<S>(RandomRel<S>({0, 1}, n, n, 0, seed + 7),
                           Relation<S>{Schema({1, 2})}, "empty right");
  // Single key run: every shared key equal — one morsel, serial semantics.
  {
    RelationBuilder<S> bl{Schema({0, 1})}, br{Schema({0, 2})};
    for (size_t i = 0; i < 2048; ++i) {
      bl.Append({7, static_cast<Value>(i)}, MakeAnnot<S>(i));
      br.Append({7, static_cast<Value>(i * 3 % 64)}, MakeAnnot<S>(i + 5));
    }
    CheckOpsDeterministic<S>(bl.Build(), br.Build(), "single key run");
  }
}

TEST(ParallelDeterminism, NaturalSemiring) {
  RunSemiringSuite<NaturalSemiring>(101);
}
TEST(ParallelDeterminism, CountingSemiring) {
  RunSemiringSuite<CountingSemiring>(202);
}
TEST(ParallelDeterminism, MinPlusSemiring) {
  RunSemiringSuite<MinPlusSemiring>(303);
}
TEST(ParallelDeterminism, Gf2Semiring) { RunSemiringSuite<Gf2Semiring>(404); }

TEST(ParallelDeterminism, ParallelPathActuallyEngages) {
  // Guard against the whole suite silently running serial: a large probe
  // join at parallelism 4 must report morsel executions.
  auto l = RandomRel<NaturalSemiring>({0, 1}, 8000, 8000, 0, 9);
  auto r = RandomRel<NaturalSemiring>({1, 2}, 8000, 8000, 0, 10);
  ExecContext ctx;
  ctx.parallelism = 4;
  Join(l, r, &ctx);
  EXPECT_GT(ctx.join.morsels, 1);
  Eliminate(l, {1}, {VarOp::kSemiringSum}, &ctx);
  EXPECT_GT(ctx.eliminate.morsels, 1);
}

TEST(ParallelDeterminism, SmallInputsStaySerial) {
  auto l = RandomRel<NaturalSemiring>({0, 1}, 100, 100, 0, 11);
  auto r = RandomRel<NaturalSemiring>({1, 2}, 100, 100, 0, 12);
  ExecContext ctx;
  ctx.parallelism = 8;
  Join(l, r, &ctx);
  EXPECT_EQ(ctx.join.morsels, 0);
}

TEST(ParallelDeterminism, NonCanonicalDuplicatesStayBitIdentical) {
  // Duplicate tuples in an un-canonicalized float input: piece-local
  // canonicalization would fold their ⊕ in a different association than the
  // serial whole-output pass, so the parallel path must refuse (Join gates
  // on a canonical left) and every parallelism level must still return the
  // serial bits.
  Rng rng(77);
  Relation<CountingSemiring> l{Schema({0, 1})}, r{Schema({1, 2})};
  for (int i = 0; i < 6000; ++i) {
    const Value x = rng.NextU64(50), y = rng.NextU64(50);
    l.Add({x, y}, MakeAnnot<CountingSemiring>(rng.NextU64(100)));
    if (i % 3 == 0)  // heavy duplication, never canonicalized
      l.Add({x, y}, MakeAnnot<CountingSemiring>(rng.NextU64(100)));
    r.Add({rng.NextU64(50), rng.NextU64(50)},
          MakeAnnot<CountingSemiring>(rng.NextU64(100)));
  }
  ExecContext serial;
  serial.parallelism = 1;
  const auto want = Join(l, r, &serial);
  for (int p : {2, 7}) {
    ExecContext ctx;
    ctx.parallelism = p;
    EXPECT_TRUE(BytesEqual(Join(l, r, &ctx), want));
    EXPECT_EQ(ctx.join.morsels, 0);  // non-canonical left: serial fallback
  }
  // Canonical left + non-canonical right must still parallelize and agree.
  Relation<CountingSemiring> lc = l;
  lc.Canonicalize();
  ExecContext s2;
  s2.parallelism = 1;
  const auto want2 = Join(lc, r, &s2);
  ExecContext p2;
  p2.parallelism = 4;
  EXPECT_TRUE(BytesEqual(Join(lc, r, &p2), want2));
  EXPECT_GT(p2.join.morsels, 1);
}

TEST(ParallelDeterminism, MultiBatchEliminateAcrossOps) {
  // Mixed aggregates force multiple batches; each batch's group-by must be
  // deterministic under parallelism.
  auto r = RandomRel<CountingSemiring>({0, 1, 2, 3}, 6000, 32, 0, 21);
  ExecContext serial;
  serial.parallelism = 1;
  auto want = Eliminate(r, {1, 2, 3},
                        {VarOp::kMax, VarOp::kSemiringSum, VarOp::kMin},
                        &serial);
  for (int p : {2, 7}) {
    ExecContext ctx;
    ctx.parallelism = p;
    EXPECT_TRUE(BytesEqual(
        Eliminate(r, {1, 2, 3},
                  {VarOp::kMax, VarOp::kSemiringSum, VarOp::kMin}, &ctx),
        want));
  }
}

TEST(ParallelDeterminism, SolversMatchUnderParallelism) {
  // End-to-end: YannakakisSolve over a path query with a parallel context
  // equals the serial solve and the brute-force oracle.
  Hypergraph h(3, {{0, 1}, {1, 2}});
  Rng rng(5);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < 2; ++e) {
    Relation<NaturalSemiring> r{Schema(h.edge(e))};
    for (int i = 0; i < 4000; ++i)
      r.Add({rng.NextU64(800), rng.NextU64(800)}, rng.NextU64(5) + 1);
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  auto q = MakeFaqSS<NaturalSemiring>(h, rels, {0});
  ExecContext serial;
  serial.parallelism = 1;
  auto want = YannakakisSolve(q, &serial);
  ASSERT_TRUE(want.ok());
  ExecContext par;
  par.parallelism = 4;
  auto got = YannakakisSolve(q, &par);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(BytesEqual(*got, *want));
  auto oracle = BruteForceSolve(q);
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(got->EqualsAsFunction(*oracle));
}

}  // namespace
}  // namespace topofaq
