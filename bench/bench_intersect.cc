// Microbench for the SIMD sorted-key kernels the kernel runs
// (relation/simd.h): the leapfrog frontier step MultiwayJoin drives and the
// gallop-closing lower bound, each timed scalar-vs-SIMD on the same inputs
// in the same run. The "speedup" field of every row is scalar_ms / simd_ms
// — a machine-neutral ratio CI gates with an absolute floor (the SIMD
// frontier must beat its scalar twin by >= 1.5x on the low-selectivity
// sets; see ci.yml). reference_ms holds the scalar timing so the relative
// regression gate of check_bench_regression.py normalizes the same way as
// the other microbenches.
//
// Selectivity s = fraction of a-positions whose value occurs in b. Low s
// is the regime the frontier block-skip is built for (whole blocks retire
// on two compares).
//
// Every timed pair is also a differential check: scalar and SIMD results
// are compared and a mismatch aborts the bench.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "relation/simd.h"

namespace topofaq {
namespace {

struct Row {
  std::string bench;
  size_t n = 0;
  size_t out_rows = 0;
  double simd_ms = 0;
  double scalar_ms = 0;
};

constexpr size_t kN = 1 << 17;  // elements per side; >= 1e5 so timing is signal

/// Sorted test sets with controlled overlap: b gets even values, a takes
/// floor(s * kN) values from b and fills the rest with odd values — so the
/// non-shared parts are disjoint by parity and the selectivity is exact.
struct Sets {
  std::vector<Value> a64, b64;
};

Sets MakeSets(double sel, std::mt19937_64* rng) {
  Sets s;
  std::uniform_int_distribution<uint64_t> dist(0, (1ull << 30) - 1);
  s.b64.resize(kN);
  for (auto& v : s.b64) v = dist(*rng) * 2;
  std::sort(s.b64.begin(), s.b64.end());
  const size_t shared = static_cast<size_t>(sel * kN);
  s.a64.resize(kN);
  for (size_t i = 0; i < shared; ++i)
    s.a64[i] = s.b64[(*rng)() % kN];
  for (size_t i = shared; i < kN; ++i) s.a64[i] = dist(*rng) * 2 + 1;
  std::sort(s.a64.begin(), s.a64.end());
  return s;
}

void Fatal(const char* what) {
  std::fprintf(stderr, "FATAL: SIMD output differs from scalar in %s\n", what);
  std::abort();
}

/// Drives the frontier step to exhaustion — the multiway k == 2 loop shape.
template <typename T, typename Step>
size_t DriveFrontier(const std::vector<T>& a, const std::vector<T>& b,
                     Step step) {
  size_t i = 0, j = 0, matches = 0;
  for (;;) {
    const simd::Frontier f = step(a.data(), i, a.size(), b.data(), j,
                                  b.size(), static_cast<size_t>(1) << 30);
    i = f.i;
    j = f.j;
    if (f.kind != simd::Frontier::kMatch) return matches;
    ++matches;
    ++i;
  }
}

void BenchFrontier64(std::vector<Row>* rows, const Sets& s, const char* name,
                     int reps, bool vec) {
  size_t ms_ = 0, mv = 0;
  const double scalar_ms = bench::TimeMs(reps, [&] {
    ms_ = DriveFrontier(s.a64, s.b64,
                        [](const Value* a, size_t i, size_t an, const Value* b,
                           size_t j, size_t bn, size_t mb) {
                          return simd::ScalarNextMatchU64(a, i, an, b, j, bn,
                                                          mb);
                        });
  });
  const double simd_ms = bench::TimeMs(reps, [&] {
    mv = DriveFrontier(s.a64, s.b64,
                       [vec](const Value* a, size_t i, size_t an,
                             const Value* b, size_t j, size_t bn, size_t mb) {
                         return simd::NextMatchU64(vec, a, i, an, b, j, bn,
                                                   mb, nullptr);
                       });
  });
  if (ms_ != mv) Fatal(name);
  rows->push_back({name, kN, ms_, simd_ms, scalar_ms});
}

/// The gallop-closing shape: lower bounds over 128-wide windows, the span
/// at which TrieSeek hands its binary search to simd::LowerBoundU64.
void BenchGallop64(std::vector<Row>* rows, const Sets& s, const char* name,
                   int reps, bool vec, std::mt19937_64* rng) {
  constexpr size_t kWindow = 128;
  constexpr size_t kProbes = 1 << 16;
  std::vector<size_t> starts(kProbes);
  std::vector<Value> keys(kProbes);
  for (size_t p = 0; p < kProbes; ++p) {
    starts[p] = (*rng)() % (kN - kWindow);
    // Key inside the window so the probe does real work.
    keys[p] = s.a64[starts[p] + (*rng)() % kWindow];
  }
  size_t hs = 0, hv = 0;
  const double scalar_ms = bench::TimeMs(reps, [&] {
    hs = 0;
    for (size_t p = 0; p < kProbes; ++p)
      hs += simd::ScalarLowerBoundU64(s.a64.data(), starts[p],
                                      starts[p] + kWindow, keys[p], false);
  });
  const double simd_ms = bench::TimeMs(reps, [&] {
    hv = 0;
    for (size_t p = 0; p < kProbes; ++p)
      hv += simd::LowerBoundU64(vec, s.a64.data(), starts[p],
                                starts[p] + kWindow, keys[p], false, nullptr);
  });
  if (hs != hv) Fatal(name);
  rows->push_back({name, kN, kProbes, simd_ms, scalar_ms});
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::vector<std::string> lines;
  char buf[320];
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %zu, \"out_rows\": %zu, "
                  "\"kernel_ms\": %.4f, \"parallel_ms\": %.4f, "
                  "\"parallelism\": 1, \"reference_ms\": %.4f, "
                  "\"speedup\": %.3f, \"par_speedup\": 1.000, "
                  "\"bytes_resident\": 0}",
                  r.bench.c_str(), r.n, r.out_rows, r.simd_ms, r.simd_ms,
                  r.scalar_ms, r.scalar_ms / r.simd_ms);
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  using namespace topofaq;
  const auto args =
      bench::ParseBenchArgs(&argc, argv, "BENCH_intersect.json");
  const int reps = args.quick ? 5 : 9;

  // The SIMD legs run the vector bodies whenever the host has them.
  const bool vec = simd::Available(true);
  if (!vec)
    std::fprintf(stderr,
                 "warning: AVX2 unavailable; SIMD legs run the scalar body "
                 "(speedups will be ~1.0)\n");

  std::printf("%-18s %9s %9s %9s %10s %8s\n", "bench", "n", "out", "simd_ms",
              "scalar_ms", "speedup");
  std::mt19937_64 rng(0x70F0FA9u);
  std::vector<Row> rows;
  const Sets s = MakeSets(1e-2, &rng);
  BenchFrontier64(&rows, s, "frontier64_s1e2", reps, vec);
  BenchGallop64(&rows, s, "gallop64_w128", reps, vec, &rng);
  for (const Row& r : rows)
    std::printf("%-18s %9zu %9zu %9.3f %10.3f %7.2fx\n", r.bench.c_str(), r.n,
                r.out_rows, r.simd_ms, r.scalar_ms, r.scalar_ms / r.simd_ms);
  WriteJson(rows, args.out_path);
  return 0;
}
