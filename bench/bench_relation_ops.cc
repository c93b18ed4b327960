// Sorted-relation kernel microbenchmark: join and eliminate throughput at
// 1e3–1e6 rows, for the sort-merge kernel (relation/ops.h) — serial and
// morsel-parallel — vs. the retained hash-based reference
// (tests/reference_ops.h). Results are printed as a table and appended as
// JSON to BENCH_relation_ops.json so the perf trajectory of the kernel is
// recorded across PRs; bench/check_bench_regression.py gates CI on it.
//
// Workloads:
//  * join: R(0,1) ⋈ S(1,2), N rows each, domain ~N (output ~N rows).
//  * join_overlap: the Example 2.1-style full-overlap join (heavy runs).
//  * eliminate: ⊕-eliminate 2 of 3 columns of an N-row relation (FAQ-SS
//    push-down shape — one batched group-by vs. per-variable regrouping).
//  * scan: annotation-weighted fold over one key column of a 3-column
//    relation — the columnar layout (contiguous column) against the same
//    fold over a row-major materialization (stride = arity). The direct
//    columnar-vs-rowmajor measurement the CI floor gates.
//  * probe: random full-row gathers — the access pattern where row-major
//    wins (one contiguous row vs. one cache line per column); recorded so
//    the layout tradeoff stays visible, not gated.
//  * scan_skew / footprint_skew / eliminate_skew / triangle_skew: the
//    compressed-column rows (docs/kernel.md, "Compressed columns") on a
//    skewed low-cardinality input where the auto policy encodes every
//    column. scan_skew folds the bit-packed key column against the same
//    fold over plain values (CI floors the speedup); footprint_skew's
//    "speedup" is plain/encoded ResidentKeyBytes — deterministic, floored
//    at 2x; eliminate_skew and triangle_skew run the same kernel on
//    encoded vs plain inputs and must stay ~1x (encodings never slow the
//    hot paths). Rows carry bytes_resident so the memory effect is in the
//    committed baseline, not just the timings.
//  * canonicalize / regroup: the kernel's permutation sort (relation/
//    sort_perm.h) against the multi-column comparator std::sort it
//    replaced, kept below as the reference; both permutations are CHECKed
//    equal. canonicalize is Canonicalize's row sort (detail::SortRowPerm)
//    on a 3-column relation with serving-sized domains (2·sqrt(n), as in
//    perfbench's inputs); regroup is KeyOrderPerm on the path query's
//    Eliminate shape — 4 columns of 11-bit values grouped by (A, D). Both
//    run at their fixed sizes under --quick too, so the CI floors always
//    have rows to gate.
//  * node_step: one GHD node step of perfbench's path query (60k rows,
//    a 12k-row child message) as one factor Eliminate, against the Join +
//    Eliminate composition it replaced; fixed size, floored in CI.
//
// Flags: --quick (CI sizes), --parallelism N / -j N (default: every core),
// --out PATH (JSON destination). Each bench runs the kernel at parallelism 1
// and at the requested parallelism and CHECKs the outputs byte-identical.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/scan_checksum.h"
#include "relation/encoding.h"
#include "relation/exec.h"
#include "relation/multiway.h"
#include "relation/ops.h"
#include "relation/sort_perm.h"
#include "tests/random_instances.h"
#include "tests/reference_ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;
using bench::TimeMs;

int g_parallelism = 1;

NRel RandomRel(const std::vector<VarId>& vars, size_t n, uint64_t dom,
               uint64_t seed) {
  Rng rng(seed);
  Relation<NaturalSemiring> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) v = rng.NextU64(dom);
    r.Add(row, rng.NextU64(100) + 1);
  }
  r.Canonicalize();
  return r;
}

struct Row {
  std::string bench;
  size_t n;
  size_t out_rows;
  double kernel_ms;    // serial kernel (parallelism 1)
  double parallel_ms;  // kernel at g_parallelism workers
  double reference_ms;
  size_t bytes_resident = 0;  // key-column footprint of the scanned input
};

void Report(std::vector<Row>* rows, std::string bench, size_t n,
            size_t out_rows, double kernel_ms, double parallel_ms,
            double reference_ms, size_t bytes_resident = 0) {
  std::printf("%-14s %9zu %9zu %10.3f %10.3f %12.3f %7.2fx %7.2fx %10zu\n",
              bench.c_str(), n, out_rows, kernel_ms, parallel_ms,
              reference_ms, reference_ms / kernel_ms,
              kernel_ms / parallel_ms, bytes_resident);
  rows->push_back(Row{std::move(bench), n, out_rows, kernel_ms, parallel_ms,
                      reference_ms, bytes_resident});
}

/// Times `fn(&ctx)` at parallelism 1 and at g_parallelism; checks outputs
/// byte-identical; returns {serial_ms, parallel_ms, serial_out}. Outputs
/// are stored under `out_mode`.
template <typename Fn>
std::tuple<double, double, NRel> TimeKernel(
    int reps, const char* what, Fn&& fn,
    EncodingMode out_mode = DefaultEncodingMode()) {
  EncodingContext serial(out_mode);
  serial.parallelism = 1;
  NRel out1;
  const double k1 = TimeMs(reps, [&] { out1 = fn(&serial); });
  double kp = k1;
  if (g_parallelism > 1) {
    EncodingContext par(out_mode);
    par.parallelism = g_parallelism;
    NRel outp;
    kp = TimeMs(reps, [&] { outp = fn(&par); });
    bench::CheckIdentical(out1, outp, what);
  }
  return {k1, kp, std::move(out1)};
}

void BenchJoin(std::vector<Row>* rows, size_t n, int reps) {
  // Domain ~n keeps the output near n rows (sparse, realistic shape).
  const uint64_t dom = std::max<uint64_t>(4, n);
  NRel r = RandomRel({0, 1}, n, dom, 17 + n);
  NRel s = RandomRel({1, 2}, n, dom, 71 + n);
  auto [k1, kp, out] =
      TimeKernel(reps, "join", [&](ExecContext* cx) { return Join(r, s, cx); });
  NRel ref;
  const double h = TimeMs(reps, [&] { ref = reference::Join(r, s); });
  TOPOFAQ_CHECK_MSG(out.EqualsAsFunction(ref), "kernel join != reference join");
  Report(rows, "join", n, out.size(), k1, kp, h);
}

void BenchJoinOverlap(std::vector<Row>* rows, size_t n, int reps) {
  // Full-overlap first attribute: R(0,1) ⋈ S(0,2) on a shared prefix key —
  // both sides canonical-prefix aligned, zero sorts in the kernel.
  RelationBuilder<NaturalSemiring> br{Schema({0, 1})}, bs{Schema({0, 2})};
  for (size_t i = 0; i < n; ++i) {
    br.Append({static_cast<Value>(i), 1}, 2);
    bs.Append({static_cast<Value>(i), 3}, 5);
  }
  NRel r = br.Build(), s = bs.Build();
  auto [k1, kp, out] = TimeKernel(
      reps, "join_overlap", [&](ExecContext* cx) { return Join(r, s, cx); });
  NRel ref;
  const double h = TimeMs(reps, [&] { ref = reference::Join(r, s); });
  TOPOFAQ_CHECK_MSG(out.EqualsAsFunction(ref), "kernel join != reference join");
  Report(rows, "join_overlap", n, out.size(), k1, kp, h);
}

void BenchEliminate(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 8);
  NRel r = RandomRel({0, 1, 2}, n, dom, 29 + n);
  const std::vector<VarId> vars{1, 2};
  const std::vector<VarOp> ops{VarOp::kSemiringSum, VarOp::kSemiringSum};
  auto [k1, kp, out] =
      TimeKernel(reps, "eliminate",
                 [&](ExecContext* cx) { return Eliminate(r, vars, ops, cx); });
  NRel ref;
  const double h = TimeMs(reps, [&] {
    ref = reference::EliminateVar(
        reference::EliminateVar(r, 2, VarOp::kSemiringSum), 1,
        VarOp::kSemiringSum);
  });
  TOPOFAQ_CHECK_MSG(out.EqualsAsFunction(ref),
                    "kernel eliminate != reference eliminate");
  Report(rows, "eliminate", n, out.size(), k1, kp, h);
}

// Keeps the per-element fold from being optimized out while staying
// deterministic across layouts.
uint64_t FoldStep(uint64_t acc, Value key, uint64_t annot) {
  return acc + key * 3 + annot;
}

/// The scan fold over raw pointers: keys[i * stride] with annots[i] for
/// i < n. Every plain scan row times this one out-of-line loop, so a row's
/// timings differ only in the memory they read. Inlined into the timing
/// lambdas instead, GCC kept the accumulator on the stack in some of them
/// and not in others, and the rows compared code generation, not layout.
__attribute__((noinline)) uint64_t FoldColumn(uint64_t acc, const Value* keys,
                                              size_t stride,
                                              const uint64_t* annots,
                                              size_t n) {
  for (size_t i = 0; i < n; ++i)
    acc = FoldStep(acc, keys[i * stride], annots[i]);
  return acc;
}

/// scan: fold key column 0 + annotations of an N-row 3-column relation.
/// kernel_ms folds the contiguous column (stride 1); reference_ms folds the
/// same values through a row-major materialization (stride = arity), the
/// layout before columnar storage. Both run FoldColumn; results are checked
/// equal, and the reported speedup is the pure layout effect the CI floor
/// gates.
/// Scan kernels run well under a millisecond; a single call is below the
/// steady_clock jitter floor. Each timed window repeats the fold until the
/// window is ~a millisecond, and the reported time is per-fold.
constexpr int kScanInner = 16;

void BenchScan(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 8);
  NRel r = RandomRel({0, 1, 2}, n, dom, 43 + n);
  const std::vector<Value> flat = r.MaterializeRows();
  const size_t arity = r.arity();
  const Value* c0 = r.col(0).data();
  const uint64_t* an = r.annots().data();
  uint64_t col_acc = 0;
  const double k1 = TimeMs(reps, [&] {
    uint64_t acc = 0;
    for (int it = 0; it < kScanInner; ++it) {
      acc = FoldColumn(acc, c0, 1, an, r.size());
      asm volatile("" ::: "memory");
    }
    col_acc = acc;
  }) / kScanInner;
  uint64_t row_acc = 0;
  const double h = TimeMs(reps, [&] {
    uint64_t acc = 0;
    for (int it = 0; it < kScanInner; ++it) {
      acc = FoldColumn(acc, flat.data(), arity, an, r.size());
      asm volatile("" ::: "memory");
    }
    row_acc = acc;
  }) / kScanInner;
  TOPOFAQ_CHECK_MSG(col_acc == row_acc, "scan folds disagree across layouts");
  Report(rows, "scan", n, r.size(), k1, k1, h, r.ResidentKeyBytes());
}

/// Skewed low-cardinality relation: the narrow front-loaded value
/// distribution the auto encoding policy targets (FOR deltas a few bits
/// wide on every column), stored plain.
NRel SkewedRel(const std::vector<VarId>& vars, size_t n, uint64_t seed) {
  Rng rng(seed);
  const uint64_t dom = std::max<uint64_t>(32, n / 8);
  Relation<NaturalSemiring> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  for (size_t i = 0; i < n; ++i) {
    for (auto& v : row) {
      const uint64_t u = rng.NextU64(dom);
      v = (u * u) / (dom << 2);  // front-loaded, range ~dom/4
    }
    r.Add(row, rng.NextU64(100) + 1);
  }
  EncodingContext plain(EncodingMode::kPlain);
  r.Canonicalize(&plain);
  return r;
}

/// scan_skew: the scan fold running directly over the bit-packed key
/// column (ScanChecksum, bench/scan_checksum.h — vectorized quad unpack, no
/// materialization) vs the same fold over the plain column (FoldColumn).
/// footprint_skew: the resident-bytes ratio of the same input,
/// deterministic and floored in CI.
void BenchScanSkew(std::vector<Row>* rows, size_t n, int reps) {
  const NRel plain = SkewedRel({0, 1, 2}, n, 53 + n);
  const NRel enc = Recode(plain, EncodingMode::kAuto);
  const EncodedColumn* e0 = enc.encoded_col(0);
  TOPOFAQ_CHECK_MSG(e0 != nullptr, "auto policy left the skewed column plain");
  uint64_t enc_acc = 0;
  const double k1 = TimeMs(reps, [&] {
    uint64_t total = 0;
    for (int it = 0; it < kScanInner; ++it) {
      total = ScanChecksum(*e0, 0, enc.size(), enc.annots().data());
      asm volatile("" ::: "memory");
    }
    enc_acc = total;
  }) / kScanInner;
  uint64_t plain_acc = 0;
  const Value* c0 = plain.col(0).data();
  const uint64_t* an = plain.annots().data();
  const double h = TimeMs(reps, [&] {
    uint64_t total = 0;
    for (int it = 0; it < kScanInner; ++it) {
      total = FoldColumn(0, c0, 1, an, plain.size());
      // Uses each fold's result: the calls are otherwise dead but the last.
      asm volatile("" : : "r"(total) : "memory");
    }
    plain_acc = total;
  }) / kScanInner;
  TOPOFAQ_CHECK_MSG(enc_acc == plain_acc,
                    "scan folds disagree across encodings");
  Report(rows, "scan_skew", n, enc.size(), k1, k1, h, enc.ResidentKeyBytes());
  // Deterministic footprint row: "timings" are the key-column footprints
  // in MB, so the gated speedup field is plain_bytes / encoded_bytes.
  const double enc_mb = static_cast<double>(enc.ResidentKeyBytes()) / 1e6;
  const double plain_mb = static_cast<double>(plain.ResidentKeyBytes()) / 1e6;
  Report(rows, "footprint_skew", n, enc.size(), enc_mb, enc_mb, plain_mb,
         enc.ResidentKeyBytes());
}

/// eliminate_skew / triangle_skew: the hot-path operators on encoded vs
/// plain inputs — the "encodings never slow the kernel" rows.
void BenchEliminateSkew(std::vector<Row>* rows, size_t n, int reps) {
  const NRel plain = SkewedRel({0, 1, 2}, n, 59 + n);
  const NRel enc = Recode(plain, EncodingMode::kAuto);
  TOPOFAQ_CHECK_MSG(enc.any_encoded(), "auto policy left the input plain");
  const std::vector<VarId> vars{1, 2};
  const std::vector<VarOp> ops{VarOp::kSemiringSum, VarOp::kSemiringSum};
  // Outputs are built plain on every leg: time inputs, not outputs.
  auto [k1, kp, out] = TimeKernel(
      reps, "eliminate_skew",
      [&](ExecContext* cx) { return Eliminate(enc, vars, ops, cx); },
      EncodingMode::kPlain);
  EncodingContext pcx(EncodingMode::kPlain);
  pcx.parallelism = 1;
  NRel ref;
  const double h =
      TimeMs(reps, [&] { ref = Eliminate(plain, vars, ops, &pcx); });
  bench::CheckIdentical(out, ref, "eliminate_skew");
  Report(rows, "eliminate_skew", n, out.size(), k1, kp, h,
         enc.ResidentKeyBytes());
}

void BenchTriangleSkew(std::vector<Row>* rows, size_t n, int reps) {
  const std::vector<NRel> plain = {SkewedRel({0, 1}, n, 61 + n),
                                   SkewedRel({1, 2}, n, 67 + n),
                                   SkewedRel({0, 2}, n, 73 + n)};
  std::vector<NRel> enc;
  for (const NRel& r : plain) enc.push_back(Recode(r, EncodingMode::kAuto));
  size_t resident = 0;
  for (const auto& r : enc) {
    TOPOFAQ_CHECK_MSG(r.any_encoded(), "auto policy left an input plain");
    resident += r.ResidentKeyBytes();
  }
  // Outputs are built plain on every leg: time inputs, not outputs.
  auto [k1, kp, out] = TimeKernel(
      reps, "triangle_skew",
      [&](ExecContext* cx) { return MultiwayJoin(enc, cx); },
      EncodingMode::kPlain);
  EncodingContext pcx(EncodingMode::kPlain);
  pcx.parallelism = 1;
  NRel ref;
  const double h = TimeMs(reps, [&] { ref = MultiwayJoin(plain, &pcx); });
  bench::CheckIdentical(out, ref, "triangle_skew");
  Report(rows, "triangle_skew", n, out.size(), k1, kp, h, resident);
}

/// Times `fn(&ctx, &perm)` at parallelism 1 and at g_parallelism, checks
/// both permutations equal `want`, and returns {serial_ms, parallel_ms}.
template <typename Fn>
std::pair<double, double> TimePermSort(int reps, const char* what,
                                       const std::vector<size_t>& want,
                                       Fn&& fn) {
  double ms[2] = {0, 0};
  for (int leg = 0; leg < 2; ++leg) {
    ExecContext cx;
    cx.parallelism = leg == 0 ? 1 : g_parallelism;
    std::vector<size_t> perm;
    ms[leg] = TimeMs(reps, [&] { fn(&cx, &perm); });
    TOPOFAQ_CHECK_MSG(perm == want, what);
  }
  return {ms[0], ms[1]};
}

/// The comparator permutation sort the packed sort replaced: lexicographic
/// over `cols[0, k)` (same-column compares, codes on encoded columns), ties
/// broken by row id, one std::sort.
template <typename A>
std::vector<size_t> ComparatorSortPerm(const typename A::Col* cols, size_t k,
                                       size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  std::sort(perm.begin(), perm.end(), [cols, k](size_t x, size_t y) {
    for (size_t t = 0; t < k; ++t) {
      const int c = A::CompareAt(cols[t], x, y);
      if (c != 0) return c < 0;
    }
    return x < y;
  });
  return perm;
}

/// canonicalize: Canonicalize's row sort on an unsorted 3-column relation.
void BenchCanonicalize(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom =
      std::max<uint64_t>(16, 2 * static_cast<uint64_t>(std::sqrt(double(n))));
  Rng rng(83 + n);
  NRel r{Schema({0, 1, 2})};
  std::vector<Value> row(3);
  for (size_t i = 0; i < n; ++i) {
    for (Value& v : row) v = rng.NextU64(dom);
    r.Add(row, rng.NextU64(7) + 1);
  }
  const std::vector<std::vector<Value>>& cols = r.columns();
  std::vector<const Value*> cp;
  for (const auto& c : cols) cp.push_back(c.data());
  std::vector<size_t> want;
  const double h = TimeMs(reps, [&] {
    want = ComparatorSortPerm<PlainAccess>(cp.data(), cp.size(), r.size());
  });
  auto [k1, kp] = TimePermSort(
      reps, "canonicalize: packed sort != comparator sort", want,
      [&](ExecContext* cx, std::vector<size_t>* perm) {
        detail::SortRowPerm(cols, r.size(), perm, cx);
      });
  Report(rows, "canonicalize", n, r.size(), k1, kp, h);
}

/// regroup: KeyOrderPerm by (A, D) over a canonical (A, B, C, D) relation
/// of 11-bit values, stored under the default encoding policy.
template <typename A>
void BenchRegroupOn(std::vector<Row>* rows, size_t n, const NRel& r,
                    int reps) {
  const std::vector<int> pos{0, 3};
  std::vector<typename A::Col> kc;
  internal::GatherCols<A>(r, pos, &kc);
  std::vector<size_t> want;
  const double h = TimeMs(reps, [&] {
    want = ComparatorSortPerm<A>(kc.data(), kc.size(), r.size());
  });
  auto [k1, kp] = TimePermSort(
      reps, "regroup: packed sort != comparator sort", want,
      [&](ExecContext* cx, std::vector<size_t>* perm) {
        OpStats st;
        internal::KeyOrderPerm<A>(r, pos, *cx, perm, &st);
      });
  Report(rows, "regroup", n, r.size(), k1, kp, h,
         r.ResidentKeyBytes());
}

void BenchRegroup(std::vector<Row>* rows, size_t n, int reps) {
  const NRel r = RandomRel({0, 1, 2, 3}, n, 2048, 89 + n);
  if (r.any_encoded())
    BenchRegroupOn<EncodedAccess>(rows, n, r, reps);
  else
    BenchRegroupOn<PlainAccess>(rows, n, r, reps);
}

/// node_step: one GHD node step of the path query — R(2, 3) ⊗ M(3) with 3
/// ⊕-eliminated, M a child's message — as one factor Eliminate, against
/// the Join + Eliminate composition it replaced (the reference, CHECKed
/// byte-identical).
void BenchNodeStep(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = n / 5;
  const NRel r = RandomRel({2, 3}, n, dom, 107 + n);
  const NRel m = Eliminate(RandomRel({3, 4}, n, dom, 109 + n), {4},
                           {VarOp::kSemiringSum});
  const std::vector<const NRel*> factors{&m};
  auto [k1, kp, out] =
      TimeKernel(reps, "node_step", [&](ExecContext* cx) {
        return Eliminate(r, factors, {3}, {VarOp::kSemiringSum}, cx);
      });
  EncodingContext cx(DefaultEncodingMode());
  cx.parallelism = 1;
  NRel ref;
  const double h = TimeMs(reps, [&] {
    ref = Eliminate(Join(r, m, &cx), {3}, {VarOp::kSemiringSum}, &cx);
  });
  bench::CheckIdentical(out, ref, "node_step vs Join + Eliminate");
  Report(rows, "node_step", n, out.size(), k1, kp, h, r.ResidentKeyBytes());
}

/// probe: gather full rows at random row ids — the row-major-friendly
/// pattern, reported honestly (columnar pays one line per column here).
void BenchProbe(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 8);
  NRel r = RandomRel({0, 1, 2}, n, dom, 47 + n);
  const std::vector<Value> flat = r.MaterializeRows();
  const size_t arity = r.arity();
  Rng rng(101 + n);
  std::vector<size_t> ids(std::min<size_t>(r.size(), 1 << 16));
  for (auto& id : ids) id = rng.NextU64(r.size());
  uint64_t col_acc = 0;
  const double k1 = TimeMs(reps, [&] {
    uint64_t acc = 0;
    const RowCursor cur(r);
    Value row[3];
    for (size_t id : ids) {
      cur.Gather(id, row);
      acc = FoldStep(acc, row[0] ^ row[1] ^ row[2], 1);
    }
    col_acc = acc;
  });
  uint64_t row_acc = 0;
  const double h = TimeMs(reps, [&] {
    uint64_t acc = 0;
    const Value* d = flat.data();
    for (size_t id : ids) {
      const Value* row = d + id * arity;
      acc = FoldStep(acc, row[0] ^ row[1] ^ row[2], 1);
    }
    row_acc = acc;
  });
  TOPOFAQ_CHECK_MSG(col_acc == row_acc, "probe folds disagree across layouts");
  Report(rows, "probe", n, ids.size(), k1, k1, h, r.ResidentKeyBytes());
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::vector<std::string> lines;
  char buf[320];
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %zu, \"out_rows\": %zu, "
                  "\"kernel_ms\": %.4f, \"parallel_ms\": %.4f, "
                  "\"parallelism\": %d, \"reference_ms\": %.4f, "
                  "\"speedup\": %.3f, \"par_speedup\": %.3f, "
                  "\"bytes_resident\": %zu}",
                  r.bench.c_str(), r.n, r.out_rows, r.kernel_ms, r.parallel_ms,
                  g_parallelism, r.reference_ms, r.reference_ms / r.kernel_ms,
                  r.kernel_ms / r.parallel_ms, r.bytes_resident);
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  const auto args =
      topofaq::bench::ParseBenchArgs(&argc, argv, "BENCH_relation_ops.json");
  const bool quick = args.quick;
  const char* out_path = args.out_path;
  topofaq::g_parallelism = args.parallelism;

  std::printf("parallelism: %d\n", topofaq::g_parallelism);
  std::printf("%-14s %9s %9s %10s %10s %12s %7s %7s %10s\n", "bench", "n",
              "out", "kernel_ms", "par_ms", "reference_ms", "speedup",
              "par_spd", "res_bytes");
  std::vector<topofaq::Row> rows;
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{1000, 10000, 100000}
            : std::vector<size_t>{1000, 10000, 100000, 1000000};
  for (size_t n : sizes) {
    const int reps = n <= 10000 ? 5 : 3;
    topofaq::BenchJoin(&rows, n, reps);
    topofaq::BenchJoinOverlap(&rows, n, reps);
    topofaq::BenchEliminate(&rows, n, reps);
    // The layout micro-rows run in microseconds below 1e5 rows — inside
    // shared-CI clock noise for the 1.5x relative gate — so they are only
    // recorded at sizes where the timing is signal.
    if (n >= 100000) {
      topofaq::BenchScan(&rows, n, reps);
      topofaq::BenchProbe(&rows, n, reps);
      // Compressed-column rows: auto encoding engages from kEncodeMinRows,
      // and the CI floors (scan_skew speedup, footprint_skew >= 2x) need
      // row sizes where timing is signal.
      topofaq::BenchScanSkew(&rows, n, reps);
      topofaq::BenchEliminateSkew(&rows, n, reps);
      if (n == 100000) topofaq::BenchTriangleSkew(&rows, n, reps);
    }
  }
  // Fixed sizes, --quick included: the CI speedup floors gate these rows.
  topofaq::BenchCanonicalize(&rows, 100000, 3);
  topofaq::BenchCanonicalize(&rows, 1000000, 3);
  topofaq::BenchRegroup(&rows, 1000000, 3);
  topofaq::BenchNodeStep(&rows, 60000, 5);
  topofaq::WriteJson(rows, out_path);
  return 0;
}
