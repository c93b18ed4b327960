// Morsel-parallel kernel tests (docs/kernel.md, "Morsel-parallel
// execution"): the WorkerPool fork/join contract, key-aligned morsel cuts,
// and — the core guarantee — byte-identical canonical output across
// parallelism ∈ {1, 2, 7, hardware_concurrency} for Join / Eliminate over
// four semirings, including empty, skewed, and single-key-run inputs — and
// the packed-key permutation sort (relation/sort_perm.h) against the
// comparator sort it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "faq/solvers.h"
#include "oracle.h"
#include "relation/exec.h"
#include "relation/ops.h"
#include "relation/parallel.h"
#include "relation/sort_perm.h"
#include "random_instances.h"
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

// ---------------------------------------------------------------------------
// Packed-key permutation sort vs the comparator sort
// ---------------------------------------------------------------------------

constexpr Value kMaxValue = std::numeric_limits<Value>::max();

/// The comparator sort the packed sort must reproduce: lexicographic over
/// `cols` (row values), ties broken by row id, one std::sort.
std::vector<size_t> ComparatorPerm(const std::vector<std::vector<Value>>& cols,
                                   size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::sort(perm.begin(), perm.end(), [&](size_t x, size_t y) {
    for (const std::vector<Value>& c : cols)
      if (c[x] != c[y]) return c[x] < c[y];
    return x < y;
  });
  return perm;
}

/// The parallelism levels every packed-sort case runs at: 1 and max.
std::vector<int> SortLevels() { return {1, WorkerPool::Shared().max_workers()}; }

/// `k` columns of `n` rows, value gen(j, i) at column j, row i.
template <typename Gen>
std::vector<std::vector<Value>> MakeCols(size_t k, size_t n, Gen&& gen) {
  std::vector<std::vector<Value>> cols(k, std::vector<Value>(n));
  for (size_t j = 0; j < k; ++j)
    for (size_t i = 0; i < n; ++i) cols[j][i] = gen(j, i);
  return cols;
}

/// SortRowPerm at p=1 and p=max, and SortPermByColumns directly, against
/// the comparator; `packed` is whether the key fits the packed path.
void ExpectRowPermMatches(const std::vector<std::vector<Value>>& cols,
                          size_t n, bool packed, const std::string& label) {
  const std::vector<size_t> want = ComparatorPerm(cols, n);
  for (int p : SortLevels()) {
    ExecContext cx;
    cx.parallelism = p;
    std::vector<size_t> perm{42};  // stale contents must not leak through
    detail::SortRowPerm(cols, n, &perm, &cx);
    EXPECT_EQ(perm, want) << label << " p=" << p;
  }
  std::vector<const Value*> cp;
  for (const std::vector<Value>& c : cols) cp.push_back(c.data());
  std::vector<size_t> perm;
  EXPECT_EQ(SortPermByColumns<PlainAccess>(cp.data(), cp.size(), n,
                                           WorkerPool::Shared().max_workers(),
                                           &perm),
            packed)
      << label;
  EXPECT_EQ(perm, want) << label;
}

TEST(PackedSortPerm, RowPermMatchesComparatorAtEverySize) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, kRadixSortMinRows - 1,
                   kRadixSortMinRows, size_t{100000}}) {
    Rng rng(500 + n);
    // Narrow domains: many equal keys, so the row-id tiebreak decides.
    const uint64_t dom[3] = {37, 1000, 5};
    const auto cols = MakeCols(3, n, [&](size_t j, size_t) {
      return rng.NextU64(dom[j]);
    });
    ExpectRowPermMatches(cols, n, true, "n=" + std::to_string(n));
  }
}

TEST(PackedSortPerm, KeyPlusRowIdBitsAtTheWordBoundary) {
  // Column 0 is exactly 30 bits wide, column 1 exactly `w1`; each takes few
  // distinct values, so equal keys are common. 63 and 64 total bits pack;
  // 65 takes the comparator fallback. Both the radix (n = 4096) and the
  // small-input std::sort (n = 100) orders are covered.
  for (size_t n : {size_t{100}, size_t{4096}}) {
    const int id_bits = std::bit_width(n - 1);
    for (int total : {63, 64, 65}) {
      const int w1 = total - 30 - id_bits;
      Rng rng(600 + n + static_cast<uint64_t>(total));
      const Value c0[4] = {0, 1, 2, (Value{1} << 30) - 1};
      const Value c1[3] = {0, 3, (Value{1} << w1) - 1};
      auto cols = MakeCols(2, n, [&](size_t j, size_t) {
        return j == 0 ? c0[rng.NextU64(4)] : c1[rng.NextU64(3)];
      });
      // Pin both extremes so the widths are exact.
      cols[0][0] = 0;
      cols[0][1] = c0[3];
      cols[1][0] = 0;
      cols[1][1] = c1[2];
      ExpectRowPermMatches(cols, n, total <= 64,
                           "n=" + std::to_string(n) + " bits=" +
                               std::to_string(total));
    }
  }
}

TEST(PackedSortPerm, ColumnHoldingZeroAndMaxValue) {
  // Column 1 spans 0..UINT64_MAX, 64 bits: from two rows on the comparator
  // fallback sorts. One row spans nothing and packs.
  for (size_t n : {size_t{1}, size_t{2}, size_t{5000}}) {
    Rng rng(700 + n);
    const Value pool[4] = {0, 1, kMaxValue - 1, kMaxValue};
    auto cols = MakeCols(2, n, [&](size_t j, size_t) {
      return j == 0 ? rng.NextU64(3) : pool[rng.NextU64(4)];
    });
    cols[1][0] = kMaxValue;
    if (n > 1) cols[1][1] = 0;
    ExpectRowPermMatches(cols, n, n == 1, "n=" + std::to_string(n));
  }
}

TEST(PackedSortPerm, AllEqualColumnsTakeNoBits) {
  const size_t n = 5000;
  Rng rng(800);
  // Column 1 is constant: 0 bits between two varying columns.
  ExpectRowPermMatches(MakeCols(3, n, [&](size_t j, size_t) {
                         return j == 1 ? Value{7} : rng.NextU64(50);
                       }),
                       n, true, "one constant column");
  // Every column constant: the identity permutation.
  const auto flat = MakeCols(3, n, [](size_t, size_t) { return Value{9}; });
  ExpectRowPermMatches(flat, n, true, "all constant");
  std::vector<size_t> perm;
  detail::SortRowPerm(flat, n, &perm, nullptr);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(perm[i], i);
}

TEST(PackedSortPerm, ArityZero) {
  ExpectRowPermMatches({}, 7, true, "arity 0");
  // An arity-0 relation holds at most the empty tuple: its rows fold into
  // one, in row-id order.
  Relation<CountingSemiring> r{Schema(std::vector<VarId>{})};
  r.Add(std::span<const Value>(), 0.5);
  r.Add(std::span<const Value>(), 0.25);
  r.Add(std::span<const Value>(), 2.0);
  r.Canonicalize();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.annot(0), (0.5 + 0.25) + 2.0);
}

/// Canonical relation of exactly `n` rows over (A, B, C, D): D = row draw
/// index keeps rows distinct, B holds 0 and UINT64_MAX (64 bits wide in
/// value and FOR space, 2 bits in dictionary codes).
Relation<NaturalSemiring> SortTestRel(size_t n, uint64_t seed) {
  Rng rng(seed);
  Relation<NaturalSemiring> r{Schema({0, 1, 2, 3})};
  const Value wide[3] = {0, 12345, kMaxValue};
  for (size_t i = 0; i < n; ++i)
    r.Add({rng.NextU64(40), wide[rng.NextU64(3)], rng.NextU64(300),
           static_cast<Value>(i)},
          rng.NextU64(100) + 1);
  EncodingContext plain(EncodingMode::kPlain);
  r.Canonicalize(&plain);
  return r;
}

TEST(PackedSortPerm, KeyOrderPermMatchesComparatorOverEveryEncoding) {
  const std::vector<std::vector<int>> keys = {{2, 0}, {1}, {2, 1}, {1, 3}};
  for (size_t n : {size_t{0}, size_t{1}, size_t{2}, kRadixSortMinRows - 1,
                   kRadixSortMinRows, size_t{100000}}) {
    const Relation<NaturalSemiring> base = SortTestRel(n, 900 + n);
    ASSERT_EQ(base.size(), n);
    for (EncodingMode m : {EncodingMode::kPlain, EncodingMode::kForceDict,
                           EncodingMode::kForceFor}) {
      const Relation<NaturalSemiring> r = Recode(base, m);
      for (const std::vector<int>& pos : keys) {
        std::vector<std::vector<Value>> kv;
        for (int p : pos)
          kv.push_back(base.columns()[static_cast<size_t>(p)]);
        const std::vector<size_t> want = ComparatorPerm(kv, n);
        for (int p : SortLevels()) {
          ExecContext cx;
          cx.parallelism = p;
          OpStats st;
          std::vector<size_t> perm;
          if (r.any_encoded())
            internal::KeyOrderPerm<EncodedAccess>(r, pos, cx, &perm, &st);
          else
            internal::KeyOrderPerm<PlainAccess>(r, pos, cx, &perm, &st);
          EXPECT_EQ(perm, want) << "n=" << n << " mode=" << static_cast<int>(m)
                                << " key0=" << pos[0] << " p=" << p;
          EXPECT_EQ(st.sorts, 1);
          EXPECT_EQ(st.comparisons, internal::SortComparisonBound(n));
        }
      }
    }
  }
}

/// The join the kernel must produce for `left` ⋈ `right` on B, with right
/// key B at schema position 1 (not a prefix): left rows in canonical order,
/// each against the right rows ordered by the comparator (B, A, row id),
/// equal output rows folded with ⊕ in that emission order.
template <CommutativeSemiring S>
Relation<S> ExpectedJoinOnB(const Relation<S>& left, const Relation<S>& right) {
  const std::vector<std::vector<Value>>& rc = right.columns();
  const std::vector<size_t> rperm = ComparatorPerm({rc[1], rc[0]}, right.size());
  RelationBuilder<S> b{Schema({1, 4, 0})};
  for (size_t x = 0; x < left.size(); ++x)
    for (size_t y : rperm)
      if (rc[1][y] == left.at(x, 0))
        b.Append({left.at(x, 0), left.at(x, 1), rc[0][y]},
                 S::Multiply(left.annot(x), right.annot(y)));
  return b.Build();
}

TEST(PackedSortPerm, JoinRightRegroupMatchesComparator) {
  using S = CountingSemiring;  // float ⊕: the fold order shows in the bits
  const Relation<S> left = RandomRelation<S>({1, 4}, 3000, 200, 1000);
  // Right (A, B): duplicate rows, so the row-id tiebreak orders the ⊕ folds;
  // A holds 0 and UINT64_MAX in the wide variant.
  for (bool wide : {false, true}) {
    Rng rng(1100 + wide);
    Relation<S> raw{Schema({0, 1})};
    for (size_t i = 0; i < 5000; ++i) {
      Value a = rng.NextU64(60);
      if (wide && a == 0) a = kMaxValue;
      raw.Add({a, rng.NextU64(200)}, TestAnnot<S>(rng.NextU64(1 << 20)));
    }
    Relation<S> canon = raw;
    EncodingContext plain(EncodingMode::kPlain);
    canon.Canonicalize(&plain);
    std::vector<std::pair<std::string, Relation<S>>> rights = {
        {"non-canonical", raw},
        {"plain", canon},
        {"dict", Recode(canon, EncodingMode::kForceDict)},
        {"for", Recode(canon, EncodingMode::kForceFor)}};
    for (const auto& [label, right] : rights) {
      const Relation<S> want = ExpectedJoinOnB(left, right);
      for (int p : SortLevels()) {
        ExecContext cx;
        cx.parallelism = p;
        EXPECT_TRUE(BytesEqual(Join(left, right, &cx), want))
            << label << " wide=" << wide << " p=" << p;
        EXPECT_EQ(cx.join.sorts, 1) << label;
      }
    }
  }
}

}  // namespace
}  // namespace topofaq
