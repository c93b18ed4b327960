// The one harness header of every bench binary. Two kinds of bench use it:
//
//  * reproduction benches print the paper-shaped table first, then run
//    google-benchmark kernels for the underlying primitives (so `./bench_x`
//    gives both the reproduction rows and machine timings);
//  * kernel microbenches (bench_relation_ops, bench_multiway_join, ...) time
//    rows with TimeMs, check serial-vs-parallel byte identity, and write
//    the JSON array the CI perf gate (check_bench_regression.py) parses.
//
// Every bench accepts the shared flags parsed by ParseBenchArgs below; in
// particular `--quick` trims every bench to a CI-smoke-sized workload.
#ifndef TOPOFAQ_BENCH_BENCH_COMMON_H_
#define TOPOFAQ_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "lowerbounds/bounds.h"
#include "obs/format.h"
#include "protocols/distributed.h"
#include "relation/parallel.h"
#include "server/engine.h"
#include "util/rng.h"

namespace topofaq {
namespace bench {

/// The process-wide engine every bench verifies against: Engine::Solve's
/// centralized answer is the oracle for the protocol outputs, and repeated
/// rows over one query shape exercise the plan cache the way a serving
/// workload would.
inline Engine& BenchEngine() {
  static Engine engine{EngineOptions::FromEnv()};
  return engine;
}

/// Flags shared by every bench binary.
struct BenchArgs {
  /// CI smoke mode: smallest workload sizes, skip the google-benchmark
  /// kernels, just prove the bench runs and the numbers are sane.
  bool quick = false;
  /// Kernel parallelism. Reproduction benches: 0 leaves the
  /// TOPOFAQ_PARALLELISM / default-of-1 resolution alone. Microbenches: the
  /// parallelism of their explicit contexts, every core unless given.
  int parallelism = 0;
  /// Print the full per-row protocol stats block (obs::FormatProtocolStats)
  /// under each reproduction row.
  bool verbose = false;
  /// Microbenches only: where the JSON rows go (--out PATH).
  const char* out_path = nullptr;
};

/// Set by ParseBenchArgs from --verbose; read by ReportRow.
inline bool g_verbose_stats = false;

/// Strips the shared flags (--quick, --verbose, --parallelism N / -j N, and
/// for microbenches --out PATH) out of argc/argv; the rest flow on to
/// benchmark::Initialize or to a bench's own flags (--trace). A
/// microbench passes its JSON file as `default_out`; it then gets every
/// core unless --parallelism says otherwise (at least 1), for the contexts
/// it builds itself. A reproduction bench passes nothing, and a
/// --parallelism request is exported through the TOPOFAQ_PARALLELISM
/// environment variable so every ExecContext the bench (or the protocol
/// layer beneath it) creates picks it up.
inline BenchArgs ParseBenchArgs(int* argc, char** argv,
                                const char* default_out = nullptr) {
  const bool micro = default_out != nullptr;
  BenchArgs args;
  args.out_path = default_out;
  bool parallelism_given = false;
  int w = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      args.verbose = true;
      g_verbose_stats = true;
    } else if ((std::strcmp(argv[i], "--parallelism") == 0 ||
                std::strcmp(argv[i], "-j") == 0) &&
               i + 1 < *argc) {
      args.parallelism = std::atoi(argv[++i]);
      parallelism_given = true;
    } else if (micro && std::strcmp(argv[i], "--out") == 0 && i + 1 < *argc) {
      args.out_path = argv[++i];
    } else {
      argv[w++] = argv[i];
    }
  }
  *argc = w;
  if (micro) {
    args.parallelism = std::max(
        1, parallelism_given
               ? args.parallelism
               : static_cast<int>(std::thread::hardware_concurrency()));
  } else if (args.parallelism > 0) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%d", args.parallelism);
    setenv("TOPOFAQ_PARALLELISM", buf, 1);
  }
  return args;
}

/// Best-of-`reps` wall time of `fn` in milliseconds.
template <typename Fn>
double TimeMs(int reps, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

/// Byte-identity between the serial and parallel kernel outputs — the
/// morsel-parallel determinism contract, enforced on every bench run.
template <CommutativeSemiring S>
void CheckIdentical(const Relation<S>& serial, const Relation<S>& parallel,
                    const char* what) {
  if (serial.columns() != parallel.columns() ||
      serial.annots() != parallel.annots() ||
      serial.canonical() != parallel.canonical()) {
    std::fprintf(stderr,
                 "FATAL: parallel kernel output differs from serial in %s\n",
                 what);
    std::abort();
  }
}

/// Writes pre-formatted JSON objects as one array to `path` — the shape
/// check_bench_regression.py loads.
inline void WriteJsonRows(const std::vector<std::string>& rows,
                          const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < rows.size(); ++i)
    std::fprintf(f, "  %s%s\n", rows[i].c_str(),
                 i + 1 < rows.size() ? "," : "");
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

/// Relations with N tuples each and a fully overlapping first attribute
/// (the Example 2.1/2.2 worst-case-style workload). Rows are appended in
/// sorted order, so the builder certifies them canonical without a sort.
template <CommutativeSemiring S>
std::vector<Relation<S>> FullOverlapRelations(const Hypergraph& h, int n) {
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    RelationBuilder<S> b{Schema(h.edge(e))};
    b.Reserve(static_cast<size_t>(n));
    std::vector<Value> row(h.edge(e).size(), 1);
    for (int i = 0; i < n; ++i) {
      row[0] = static_cast<Value>(i);
      b.Append(row, S::One());
    }
    rels.push_back(b.Build());
  }
  return rels;
}

/// Random Boolean relations (N tuples drawn from a domain of size `dom`).
inline std::vector<Relation<BooleanSemiring>> RandomBoolRelations(
    const Hypergraph& h, int n, uint64_t dom, Rng* rng) {
  std::vector<Relation<BooleanSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    RelationBuilder<BooleanSemiring> b{Schema(h.edge(e))};
    b.Reserve(static_cast<size_t>(n));
    std::vector<Value> row(h.edge(e).size());
    for (int i = 0; i < n; ++i) {
      for (size_t j = 0; j < row.size(); ++j) row[j] = rng->NextU64(dom);
      b.Append(row, 1);
    }
    rels.push_back(b.Build());
  }
  return rels;
}

/// Runs the structured protocol + trivial protocol + bound formulas for one
/// (query, topology) pair and prints a row.
template <CommutativeSemiring S>
void ReportRow(const char* label, const FaqQuery<S>& query, Graph topology,
               int n) {
  DistInstance<S> inst;
  inst.query = query;
  inst.topology = std::move(topology);
  inst.owners = RoundRobinOwners(query.hypergraph.num_edges(),
                                 inst.topology.num_nodes());
  inst.sink = 0;
  auto smart = RunCoreForestProtocol(inst);
  auto trivial = RunTrivialProtocol(inst);
  if (!smart.ok() || !trivial.ok()) {
    std::printf("%-22s ERROR: %s\n", label,
                (!smart.ok() ? smart.status() : trivial.status())
                    .ToString()
                    .c_str());
    return;
  }
  BoundBreakdown b =
      ComputeBounds(query.hypergraph, inst.topology, inst.Players(), n);
  // Both protocol outputs must match the engine's centralized answer (the
  // solver suites pin that answer to the brute-force oracle in
  // tests/oracle.h).
  auto central = BenchEngine().Solve(query);
  const bool correct = central.ok() &&
                       smart->answer.EqualsAsFunction(*central) &&
                       trivial->answer.EqualsAsFunction(*central);
  const OpStats& k = smart->stats.kernel;
  std::printf(
      "%-22s %8lld %9lld %9lld %9lld %7.2f %8lld %7lld  %s\n", label,
      static_cast<long long>(smart->stats.rounds),
      static_cast<long long>(trivial->stats.rounds),
      static_cast<long long>(b.upper_total),
      static_cast<long long>(b.lower_bound),
      static_cast<double>(smart->stats.rounds) /
          static_cast<double>(std::max<int64_t>(1, b.lower_bound)),
      static_cast<long long>(k.rows_out),
      static_cast<long long>(k.sort_skips),
      correct ? "ok" : "MISMATCH");
  if (g_verbose_stats) {
    std::printf("  [core-forest] %s",
                obs::FormatProtocolStats(smart->stats).c_str());
    std::printf("  [trivial]     %s",
                obs::FormatProtocolStats(trivial->stats).c_str());
  }
}

inline void PrintRowHeader() {
  std::printf("%-22s %8s %9s %9s %9s %7s %8s %7s\n", "instance", "measured",
              "trivial", "UB-form", "LB-form", "gap", "k-rows", "k-skip");
}

}  // namespace bench
}  // namespace topofaq

#endif  // TOPOFAQ_BENCH_BENCH_COMMON_H_
