// Worst-case-optimal multiway join microbenchmark: MultiwayJoin vs the
// pairwise sort-merge Join chain on the cyclic-core family the WCOJ
// literature is built around — the triangle, the 4-cycle, and the
// Loomis–Whitney join on 4 variables. Each input carries a skewed "hub"
// spike (a heavy shared key) on top of a random sparse base, the shape that
// drives pairwise intermediates toward the N² worst case while the output —
// and hence the multiway join's peak materialization — stays small.
//
// Results are printed as a table and written as JSON (default
// BENCH_multiway_join.json; CI passes --out). The committed baseline lives
// merged inside BENCH_relation_ops.json, and bench/check_bench_regression.py
// gates CI on the multiway/pairwise ratio at parallelism 1 and max, so the
// ≥5× triangle speedup recorded there is enforced across PRs.
//
// Flags: --quick (CI sizes), --parallelism N / -j N (default: every core),
// --out PATH. Every run checks the multiway output byte-identical between
// parallelism 1 and the requested level, and function-equal to the pairwise
// plan.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "relation/exec.h"
#include "relation/multiway.h"
#include "relation/ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;
using bench::TimeMs;

int g_parallelism = 1;

/// n-row binary relation: a sparse random base over [dom)² plus a `spike`
/// heavy rows pinned to hub_col == 0 (the skew that makes pairwise plans
/// quadratic). hub_col < 0 disables the spike.
NRel SkewedRel(const std::vector<VarId>& vars, size_t n, uint64_t dom,
               size_t spike, int hub_col, uint64_t seed) {
  Rng rng(seed);
  Relation<NaturalSemiring> r{Schema(vars)};
  std::vector<Value> row(vars.size());
  const size_t base = n - std::min(n, spike);
  for (size_t i = 0; i < base; ++i) {
    for (auto& v : row) v = rng.NextU64(dom);
    r.Add(row, rng.NextU64(100) + 1);
  }
  for (size_t i = 0; base + i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j)
      row[j] = (static_cast<int>(j) == hub_col) ? 0 : i + 1;
    r.Add(row, rng.NextU64(100) + 1);
  }
  r.Canonicalize();
  return r;
}

struct Row {
  std::string bench;
  size_t n;
  size_t out_rows;
  double kernel_ms;    // serial MultiwayJoin (parallelism 1)
  double parallel_ms;  // MultiwayJoin at g_parallelism workers
  double reference_ms;  // pairwise Join chain (parallelism 1)
  size_t mw_peak_rows;        // peak rows materialized by MultiwayJoin
  size_t pairwise_peak_rows;  // largest intermediate of the pairwise chain
};

void Report(std::vector<Row>* rows, Row r) {
  std::printf("%-16s %9zu %9zu %10.3f %10.3f %12.3f %7.2fx %10zu %10zu\n",
              r.bench.c_str(), r.n, r.out_rows, r.kernel_ms, r.parallel_ms,
              r.reference_ms, r.reference_ms / r.kernel_ms, r.mw_peak_rows,
              r.pairwise_peak_rows);
  rows->push_back(std::move(r));
}

/// Best-of-`reps` MultiwayJoin timing. The operator consumes its input
/// vector, so each rep hands it a fresh copy — made *outside* the clocked
/// region so the memcpy never inflates the recorded kernel time.
double TimeMultiway(int reps, const std::vector<NRel>& rels, ExecContext* cx,
                    NRel* out) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    std::vector<NRel> in = rels;
    auto t0 = Clock::now();
    *out = MultiwayJoin(std::move(in), cx);
    auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Runs one cyclic-core instance: times MultiwayJoin at parallelism 1 and at
/// g_parallelism (byte-identical check), times the pairwise left-fold chain,
/// checks function equality, and reports peak materializations.
void BenchFamily(std::vector<Row>* rows, const char* name,
                 const std::vector<NRel>& rels, size_t n, int reps) {
  ExecContext serial;
  serial.parallelism = 1;
  NRel mw1;
  const double k1 = TimeMultiway(reps, rels, &serial, &mw1);
  double kp = k1;
  if (g_parallelism > 1) {
    ExecContext par;
    par.parallelism = g_parallelism;
    NRel mwp;
    kp = TimeMultiway(reps, rels, &par, &mwp);
    bench::CheckIdentical(mw1, mwp, name);
  }

  size_t pairwise_peak = 0;
  NRel pw;
  const double h = TimeMs(reps, [&] {
    ExecContext pctx;
    pctx.parallelism = 1;
    pairwise_peak = 0;
    pw = rels[0];
    for (size_t i = 1; i < rels.size(); ++i) {
      pw = Join(pw, rels[i], &pctx);
      pairwise_peak = std::max(pairwise_peak, pw.size());
    }
  });
  TOPOFAQ_CHECK_MSG(mw1.EqualsAsFunction(pw),
                    "multiway join != pairwise join");
  // Measured high-water materialization (OpStats::peak_rows), not assumed.
  Report(rows, Row{name, n, mw1.size(), k1, kp, h,
                   static_cast<size_t>(serial.multiway.peak_rows),
                   pairwise_peak});
}

void BenchTriangle(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 8);
  const size_t spike = std::min<size_t>(n / 32, 4000);
  // Hub on the shared variable 1: R's and S's spikes meet at b == 0, so the
  // pairwise plan materializes the spike² cross block before T prunes it.
  std::vector<NRel> rels{SkewedRel({0, 1}, n, dom, spike, 1, 17 + n),
                         SkewedRel({1, 2}, n, dom, spike, 0, 71 + n),
                         SkewedRel({0, 2}, n, dom, 0, -1, 131 + n)};
  BenchFamily(rows, "triangle", rels, n, reps);
}

void BenchCycle4(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 4);
  const size_t spike = std::min<size_t>(n / 32, 4000);
  std::vector<NRel> rels{SkewedRel({0, 1}, n, dom, spike, 1, 19 + n),
                         SkewedRel({1, 2}, n, dom, spike, 0, 73 + n),
                         SkewedRel({2, 3}, n, dom, 0, -1, 137 + n),
                         SkewedRel({0, 3}, n, dom, 0, -1, 173 + n)};
  BenchFamily(rows, "cycle4", rels, n, reps);
}

void BenchLoomisWhitney(std::vector<Row>* rows, size_t n, int reps) {
  // LW(4): every 3-subset of {0,1,2,3}; dom ~ (4n)^{1/3} keeps the output
  // near n while pairwise pays the n²/dom² intermediate.
  const uint64_t dom = std::max<uint64_t>(
      4, static_cast<uint64_t>(std::cbrt(4.0 * static_cast<double>(n))));
  std::vector<NRel> rels{SkewedRel({0, 1, 2}, n, dom, 0, -1, 23 + n),
                         SkewedRel({1, 2, 3}, n, dom, 0, -1, 79 + n),
                         SkewedRel({0, 2, 3}, n, dom, 0, -1, 139 + n),
                         SkewedRel({0, 1, 3}, n, dom, 0, -1, 179 + n)};
  BenchFamily(rows, "loomis_whitney", rels, n, reps);
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::vector<std::string> lines;
  char buf[320];
  for (const Row& r : rows) {
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\": \"%s\", \"n\": %zu, \"out_rows\": %zu, "
                  "\"kernel_ms\": %.4f, \"parallel_ms\": %.4f, "
                  "\"parallelism\": %d, \"reference_ms\": %.4f, "
                  "\"speedup\": %.3f, \"mw_peak_rows\": %zu, "
                  "\"pairwise_peak_rows\": %zu}",
                  r.bench.c_str(), r.n, r.out_rows, r.kernel_ms, r.parallel_ms,
                  g_parallelism, r.reference_ms, r.reference_ms / r.kernel_ms,
                  r.mw_peak_rows, r.pairwise_peak_rows);
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  const auto args = topofaq::bench::ParseBenchArgs(
      &argc, argv, "BENCH_multiway_join.json");
  const bool quick = args.quick;
  const char* out_path = args.out_path;
  topofaq::g_parallelism = args.parallelism;

  std::printf("parallelism: %d\n", topofaq::g_parallelism);
  std::printf("%-16s %9s %9s %10s %10s %12s %7s %10s %10s\n", "bench", "n",
              "out", "multi_ms", "par_ms", "pairwise_ms", "speedup",
              "mw_peak", "pw_peak");
  std::vector<topofaq::Row> rows;
  const std::vector<size_t> sizes =
      quick ? std::vector<size_t>{1000, 10000, 100000}
            : std::vector<size_t>{1000, 10000, 100000, 300000};
  for (size_t n : sizes) {
    const int reps = n <= 10000 ? 5 : 3;
    topofaq::BenchTriangle(&rows, n, reps);
    topofaq::BenchCycle4(&rows, n, reps);
    topofaq::BenchLoomisWhitney(&rows, n, reps);
  }
  topofaq::WriteJson(rows, out_path);
  return 0;
}
