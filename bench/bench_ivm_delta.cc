// Delta maintenance vs full recompute (docs/ivm.md).
//
// One standing Natural-semiring path query R(0,1) ⋈ S(1,2) ⋈ T(2,3) ⋈
// U(3,4) with free variable 0, N rows per relation. The shape is chosen so
// the two costs separate: a delta against R updates the root join only
// (cached child messages are reused), while the full pass re-sorts and
// re-joins every edge. The measured kernel is a 0.1%
// batched delta against R — half deletions of live rows, half insertions —
// applied through StandingQuery::ApplyDelta (ring propagation: Z/2^64 is an
// exact ring). The reference is YannakakisSolve over the same base, i.e.
// what a non-incremental server would redo per batch. CI floors the
// speedup at 10x for the 1e6-row instance (ivm_delta@1000000=10).
//
// Timing trick: deltas are applied in forward/inverse pairs. The inverse
// removes exactly the inserted rows (their leading key is drawn outside the
// base's domain, so they can never collide with live tuples) and re-adds
// the deleted rows with their original annotations, so every pair restores
// the standing state to the same bytes — best-of-N timing runs against a
// steady state, and the final state is byte-checked against a fresh
// recompute.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "ivm/delta.h"
#include "ivm/standing_query.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using bench::CheckIdentical;
using bench::TimeMs;
using NRel = Relation<NaturalSemiring>;

int g_parallelism = 1;

FaqQuery<NaturalSemiring> BuildInstance(size_t n, uint64_t dom,
                                        uint64_t seed) {
  const Hypergraph h = PathGraph(4);
  std::vector<NRel> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    Rng rng(seed + static_cast<uint64_t>(e));
    NRel r{Schema(h.edge(e))};
    std::vector<Value> row(h.edge(e).size());
    for (size_t i = 0; i < n; ++i) {
      for (auto& v : row) v = rng.NextU64(dom);
      r.Add(row, rng.NextU64(1u << 20) + 1);
    }
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  return MakeFaqSS<NaturalSemiring>(h, std::move(rels), {0});
}

struct DeltaPair {
  Delta<NaturalSemiring> fwd;
  Delta<NaturalSemiring> inv;
};

/// `n_remove` live rows out, `n_add` fresh rows in, plus the exact inverse.
DeltaPair MakeDeltaPair(const NRel& base, size_t n_remove, size_t n_add,
                        uint64_t dom, uint64_t seed) {
  Rng rng(seed);
  DeltaPair p;
  p.fwd.removes = NRel(base.schema());
  p.fwd.adds = NRel(base.schema());
  p.inv.removes = NRel(base.schema());
  p.inv.adds = NRel(base.schema());
  std::vector<Value> row(base.arity());
  for (uint64_t i : rng.Sample(base.size(), n_remove)) {
    for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
    p.fwd.removes.Add(std::span<const Value>(row), 1);
    p.inv.adds.Add(std::span<const Value>(row), base.annot(i));
  }
  for (size_t i = 0; i < n_add; ++i) {
    // Leading key outside the live domain: the insert can never collide
    // with a base tuple, so removing it by key restores the exact bytes.
    row[0] = dom + rng.NextU64(dom);
    for (size_t j = 1; j < row.size(); ++j) row[j] = rng.NextU64(dom);
    p.fwd.adds.Add(std::span<const Value>(row), rng.NextU64(1u << 20) + 1);
    p.inv.removes.Add(std::span<const Value>(row), 1);
  }
  return p;
}

/// Best-of-`reps` per-delta cost: each rep applies forward then inverse and
/// lands back on the same standing state.
double TimeDeltaPairMs(StandingQuery<NaturalSemiring>* sq, const DeltaPair& p,
                       int reps, ExecContext* ctx) {
  return TimeMs(reps, [&] {
           Delta<NaturalSemiring> f = p.fwd;
           Delta<NaturalSemiring> i = p.inv;
           Status s = sq->ApplyDelta(0, std::move(f), ctx);
           if (s.ok()) s = sq->ApplyDelta(0, std::move(i), ctx);
           if (!s.ok()) {
             std::fprintf(stderr, "FATAL: delta failed: %s\n",
                          s.ToString().c_str());
             std::abort();
           }
         }) /
         2.0;
}

struct Row {
  std::string bench;
  size_t n;
  size_t out_rows;
  double kernel_ms;
  double parallel_ms;
  double reference_ms;
};

void Report(std::vector<Row>* rows, std::string bench, size_t n,
            size_t out_rows, double kernel_ms, double parallel_ms,
            double reference_ms) {
  std::printf("%-14s %9zu %9zu %10.3f %10.3f %12.3f %7.2fx %7.2fx\n",
              bench.c_str(), n, out_rows, kernel_ms, parallel_ms,
              reference_ms, reference_ms / kernel_ms,
              kernel_ms / parallel_ms);
  rows->push_back(Row{std::move(bench), n, out_rows, kernel_ms, parallel_ms,
                      reference_ms});
}

void BenchIvmDelta(std::vector<Row>* rows, size_t n, int reps) {
  const uint64_t dom = std::max<uint64_t>(4, n / 4);
  FaqQuery<NaturalSemiring> q = BuildInstance(n, dom, 42);
  ExecContext serial;
  serial.parallelism = 1;
  auto sq = StandingQuery<NaturalSemiring>::Create(q, &serial);
  if (!sq.ok()) {
    std::fprintf(stderr, "FATAL: Create failed: %s\n",
                 sq.status().ToString().c_str());
    std::abort();
  }
  // 0.1% of the touched relation, split evenly between deletes and inserts.
  const size_t half = std::max<size_t>(1, n / 2000);
  const DeltaPair p = MakeDeltaPair(q.relations[0], half, half, dom, 43);

  const double kernel = TimeDeltaPairMs(&*sq, p, reps, &serial);

  ExecContext pctx;
  pctx.parallelism = g_parallelism;
  auto sqp = StandingQuery<NaturalSemiring>::Create(q, &pctx);
  if (!sqp.ok()) std::abort();
  const double parallel = TimeDeltaPairMs(&*sqp, p, reps, &pctx);
  CheckIdentical(sq->Current(), sqp->Current(), "ivm_delta parallel");

  // Reference: the full pass a non-incremental engine would rerun per
  // batch, on the same (restored) base.
  NRel full;
  const double reference = TimeMs(std::max(2, reps - 1), [&] {
    auto r = YannakakisSolve(q, &serial);
    if (!r.ok()) {
      std::fprintf(stderr, "FATAL: recompute failed: %s\n",
                   r.status().ToString().c_str());
      std::abort();
    }
    full = *std::move(r);
  });
  // The forward/inverse pairs must have restored the answer exactly.
  CheckIdentical(sq->Current(), full, "ivm_delta vs full recompute");

  Report(rows, "ivm_delta", n, full.size(), kernel, parallel, reference);
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
                  "\"bytes_resident\": 0}",
                  r.bench.c_str(), r.n, r.out_rows, r.kernel_ms,
                  r.parallel_ms, g_parallelism, r.reference_ms,
                  r.reference_ms / r.kernel_ms,
                  r.kernel_ms / r.parallel_ms);
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  const auto args =
      topofaq::bench::ParseBenchArgs(&argc, argv, "BENCH_ivm_delta.json");
  topofaq::g_parallelism = args.parallelism;

  std::printf("parallelism: %d\n", topofaq::g_parallelism);
  std::printf("%-14s %9s %9s %10s %10s %12s %7s %7s\n", "bench", "n", "out",
              "kernel_ms", "par_ms", "reference_ms", "speedup", "par_spd");
  std::vector<topofaq::Row> rows;
  // The 1e6 row is the CI-gated one (ivm_delta@1000000=10); it is emitted
  // in --quick mode too, so the smoke leg and the gate see the same key.
  topofaq::BenchIvmDelta(&rows, 100000, args.quick ? 3 : 5);
  topofaq::BenchIvmDelta(&rows, 1000000, args.quick ? 2 : 4);
  topofaq::WriteJson(rows, args.out_path);
  return 0;
}
