// Engine concurrency bench: point-lookup tail latency under heavy load.
//
// The serving claim of src/server/ is isolation: a point lookup entering the
// strict-priority admission queues must not wait behind heavy cyclic
// analytics, even though both multiplex the one process-wide WorkerPool at
// morsel granularity. This bench measures that claim directly:
//
//  * solo phase: K Boolean BCQ path lookups (class kPoint) through an idle
//    Engine — per-query Submit->Wait latency, p50/p99 recorded.
//  * loaded phase: the same K lookups while two background threads keep a
//    heavy triangle query (class kHeavy, capped at heavy_slots in flight)
//    running continuously.
//
// The JSON row (bench="engine_point_p99") maps the shared gate fields onto
// latencies: reference_ms = solo p99, kernel_ms = parallel_ms = loaded p99,
// so the gated "speedup" field is solo_p99 / loaded_p99 — how much of the
// idle-engine tail survives under load. CI floors it (generously — shared
// runners are noisy) via check_bench_regression.py; see ci.yml.
//
// Flags: --quick (CI sizes), --parallelism N / -j N, --out PATH.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "hypergraph/generators.h"
#include "server/engine.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using Clock = std::chrono::steady_clock;

FaqQuery<BooleanSemiring> RandomBcq(const Hypergraph& h, size_t n,
                                    uint64_t dom, uint64_t seed) {
  Rng rng(seed);
  std::vector<Relation<BooleanSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    Relation<BooleanSemiring> r{Schema(h.edge(e))};
    std::vector<Value> row(h.edge(e).size());
    for (size_t i = 0; i < n; ++i) {
      for (Value& v : row) v = rng.NextU64(dom);
      r.Add(row, 1);
    }
    r.Canonicalize();
    rels.push_back(std::move(r));
  }
  return MakeFaqSS<BooleanSemiring>(h, std::move(rels), {});
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Runs `count` sequential point lookups and returns the sorted per-query
/// latencies (Submit -> Wait, the full admission + queue + solve path).
std::vector<double> TimeLookups(Engine& engine,
                                const FaqQuery<BooleanSemiring>& q,
                                int count) {
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    QueryRequest req;
    req.query = q;
    req.tag = "point";
    const auto t0 = Clock::now();
    auto r = engine.Solve(std::move(req));
    ms.push_back(MsSince(t0));
    TOPOFAQ_CHECK_MSG(r.ok(), "point lookup failed");
    TOPOFAQ_CHECK_MSG(r->klass == QueueClass::kPoint,
                      "lookup not classified kPoint");
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

double Quantile(const std::vector<double>& sorted_ms, double q) {
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(q * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  using namespace topofaq;
  const auto args =
      bench::ParseBenchArgs(&argc, argv, "BENCH_engine_concurrent.json");

  EngineOptions opts = EngineOptions::FromEnv();
  opts.parallelism = args.parallelism;
  opts.dispatchers = 2;   // one dispatcher always free for point traffic
  opts.heavy_slots = 1;
  Engine engine(opts);

  // Workload sizes: the point lookup stays under point_input_rows_max (so it
  // classifies kPoint); the triangle load is sized so one heavy query runs
  // for many point-lookup lifetimes. The JSON row is keyed n=100000 — the
  // heavy relation size the gate names — in quick mode too, where only the
  // lookup count shrinks.
  const size_t point_rows = 50000;
  const size_t heavy_rows = 100000;
  const uint64_t heavy_dom = 10000;
  const int lookups = args.quick ? 100 : 300;

  const auto point = RandomBcq(PathGraph(2), point_rows, 1 << 20, 7);
  const auto heavy = RandomBcq(CycleGraph(3), heavy_rows, heavy_dom, 11);

  // Warm the plan cache and fault in both query shapes.
  { auto r = engine.Solve(point); TOPOFAQ_CHECK_MSG(r.ok(), "warmup failed"); }

  const std::vector<double> solo = TimeLookups(engine, point, lookups);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> heavy_done{0};
  std::vector<std::thread> load;
  for (int t = 0; t < 2; ++t)
    load.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest req;
        req.query = heavy;
        req.tag = "heavy-load";
        auto r = engine.Solve(std::move(req));
        TOPOFAQ_CHECK_MSG(r.ok(), "heavy load query failed");
        heavy_done.fetch_add(1, std::memory_order_relaxed);
      }
    });
  // Make sure at least one heavy query is actually in flight before timing.
  while (engine.stats().completed < static_cast<int64_t>(solo.size()) + 2)
    std::this_thread::yield();

  const std::vector<double> loaded = TimeLookups(engine, point, lookups);
  stop.store(true);
  for (auto& t : load) t.join();

  const double solo_p50 = Quantile(solo, 0.50), solo_p99 = Quantile(solo, 0.99);
  const double load_p50 = Quantile(loaded, 0.50);
  const double load_p99 = Quantile(loaded, 0.99);
  std::printf("parallelism %d, %d lookups, %lld heavy queries completed "
              "during loaded phase\n",
              args.parallelism, lookups,
              static_cast<long long>(heavy_done.load()));
  std::printf("%-18s %9s %9s\n", "phase", "p50_ms", "p99_ms");
  std::printf("%-18s %9.3f %9.3f\n", "solo", solo_p50, solo_p99);
  std::printf("%-18s %9.3f %9.3f\n", "under-heavy-load", load_p50, load_p99);
  std::printf("isolation (solo_p99 / loaded_p99): %.3fx\n",
              solo_p99 / load_p99);

  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\": \"engine_point_p99\", \"n\": %zu, "
                "\"out_rows\": %d, \"kernel_ms\": %.4f, "
                "\"parallel_ms\": %.4f, \"parallelism\": %d, "
                "\"reference_ms\": %.4f, \"speedup\": %.3f, "
                "\"par_speedup\": 1.0, \"bytes_resident\": 0}",
                heavy_rows, lookups, load_p99, load_p99, args.parallelism,
                solo_p99, solo_p99 / load_p99);
  bench::WriteJsonRows({std::string(buf)}, args.out_path);
  return 0;
}
