// Sync-vs-async protocol benchmark: the same DistInstance executed on the
// synchronous round ledger (RunTrivialProtocol / RunCoreForestProtocol) and
// on the event-driven streaming simulator (RunTrivialProtocolAsync /
// RunCoreForestProtocolAsync), with answers checked bit-identical on every
// run. Reported per row:
//
//  * wall-clock of each execution mode (the JSON's kernel_ms = async,
//    reference_ms = sync — the reference-normalized ratio CI gates);
//  * the *simulated* cost models side by side: sync rounds vs async
//    makespan, plus total bits, pages shipped, and the peak in-flight pages
//    of the streaming transport under its per-node page budget;
//  * the encoded/plain payload ratio (enc/pln column, ProtocolStats::
//    payload_bits_encoded over payload_bits_plain) — the wire compression
//    the per-column encodings bought, reported per topology: the trivial
//    protocol is rerun on star and clique topologies at the top size.
//
// Workload: the Example 2.1/2.2 star intersection (full-overlap first
// attribute) over the Natural semiring on a line topology — the shape whose
// round count the paper pins at Θ(N), so the async makespan has a meaningful
// ledger to compare against. Both clocks run each star on the same Steiner
// packing (a multicast of the center down it and a convergecast of the
// aggregated values up it) and each gather on the same routes, so the
// makespan/rounds ratio isolates what the event clock adds: actual bytes,
// page store-and-forward, and the overlap of phases and stars. Rows are
// appended to BENCH_relation_ops.json via --out and gated by
// bench/check_bench_regression.py.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "obs/trace.h"
#include "protocols/async.h"
#include "protocols/distributed.h"

namespace topofaq {
namespace {

using NRel = Relation<NaturalSemiring>;
using bench::TimeMs;

int g_parallelism = 1;

/// Star FAQ-SS with a planted full intersection on the shared attribute.
DistInstance<NaturalSemiring> StarInstance(int leaves, size_t n) {
  Hypergraph h = StarGraph(leaves);
  std::vector<NRel> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    RelationBuilder<NaturalSemiring> b{Schema(h.edge(e))};
    b.Reserve(n);
    std::vector<Value> row(h.edge(e).size(), 1);
    for (size_t i = 0; i < n; ++i) {
      row[0] = static_cast<Value>(i);
      b.Append(row, 1);
    }
    rels.push_back(b.Build());
  }
  DistInstance<NaturalSemiring> inst;
  inst.query = MakeFaqSS<NaturalSemiring>(h, std::move(rels), {});
  inst.topology = LineTopology(leaves + 1);
  inst.owners = RoundRobinOwners(h.num_edges(), leaves);
  inst.sink = leaves;
  return inst;
}

AsyncProtocolOptions AsyncOptions(int parallelism) {
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 1024;  // ~n/1024 pages per relation: the budget
  opts.stream.node_page_budget = 8;  // backpressure path is really exercised
  opts.parallelism = parallelism;
  return opts;
}

struct Row {
  std::string bench;
  size_t n;
  size_t out_rows;
  double async_ms;      // wall, parallelism 1
  double async_par_ms;  // wall, g_parallelism
  double sync_ms;       // wall, parallelism 1
  double makespan;      // async simulated time
  int64_t rounds;       // sync simulated rounds
  int64_t async_bits;
  int64_t sync_bits;
  int64_t pages;
  int64_t peak_pages;
  int64_t payload_bits_encoded = 0;
  int64_t payload_bits_plain = 0;
};

/// Wire compression the per-column encodings bought on this run's streamed
/// payload (1.0 when everything shipped plain).
double PayloadRatio(const Row& r) {
  return r.payload_bits_plain > 0 ? static_cast<double>(r.payload_bits_encoded) /
                                        static_cast<double>(r.payload_bits_plain)
                                  : 1.0;
}

void Report(std::vector<Row>* rows, Row r) {
  std::printf(
      "%-13s %8zu %9.3f %9.3f %9.3f %10.1f %8lld %7lld %5lld %9.2fx %7.3f\n",
      r.bench.c_str(), r.n, r.async_ms, r.async_par_ms, r.sync_ms, r.makespan,
      static_cast<long long>(r.rounds), static_cast<long long>(r.pages),
      static_cast<long long>(r.peak_pages), r.sync_ms / r.async_ms,
      PayloadRatio(r));
  rows->push_back(std::move(r));
}

/// Runs one (sync fn, async fn) pair, checks the answers bit-identical at
/// both parallelism levels, and reports the row.
template <typename SyncFn, typename AsyncFn>
void BenchPair(std::vector<Row>* rows, const char* name, size_t n, int reps,
               SyncFn&& run_sync, AsyncFn&& run_async) {
  ProtocolResult<NaturalSemiring> sync_out, async_out, async_par_out;
  const double sync_ms = TimeMs(reps, [&] {
    auto r = run_sync(1);
    TOPOFAQ_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    sync_out = std::move(r.value());
  });
  const double async_ms = TimeMs(reps, [&] {
    auto r = run_async(1);
    TOPOFAQ_CHECK_MSG(r.ok(), r.status().ToString().c_str());
    async_out = std::move(r.value());
  });
  double async_par_ms = async_ms;
  if (g_parallelism > 1) {
    async_par_ms = TimeMs(reps, [&] {
      auto r = run_async(g_parallelism);
      TOPOFAQ_CHECK_MSG(r.ok(), r.status().ToString().c_str());
      async_par_out = std::move(r.value());
    });
    bench::CheckIdentical(async_out.answer, async_par_out.answer, name);
  }
  bench::CheckIdentical(sync_out.answer, async_out.answer, name);
  Row r;
  r.bench = name;
  r.n = n;
  r.out_rows = async_out.answer.size();
  r.async_ms = async_ms;
  r.async_par_ms = async_par_ms;
  r.sync_ms = sync_ms;
  r.makespan = async_out.stats.makespan;
  r.rounds = sync_out.stats.rounds;
  r.async_bits = async_out.stats.total_bits;
  r.sync_bits = sync_out.stats.total_bits;
  r.pages = async_out.stats.pages;
  r.peak_pages = async_out.stats.max_in_flight_pages;
  r.payload_bits_encoded = async_out.stats.payload_bits_encoded;
  r.payload_bits_plain = async_out.stats.payload_bits_plain;
  Report(rows, std::move(r));
}

void BenchSize(std::vector<Row>* rows, size_t n, int reps) {
  const auto inst = StarInstance(/*leaves=*/4, n);
  BenchPair(
      rows, "async_trivial", n, reps,
      [&](int p) {
        return RunTrivialProtocol(inst, TrivialOptions{.parallelism = p});
      },
      [&](int p) { return RunTrivialProtocolAsync(inst, AsyncOptions(p)); });
  BenchPair(
      rows, "async_forest", n, reps,
      [&](int p) {
        CoreForestOptions o;
        o.parallelism = p;
        return RunCoreForestProtocol(inst, o);
      },
      [&](int p) { return RunCoreForestProtocolAsync(inst, AsyncOptions(p)); });
}

/// The trivial protocol on alternative topologies over the same instance —
/// the per-topology rows of the encoded/plain payload ratio (the streamed
/// payload is identical; routing and contention differ).
void BenchTopologies(std::vector<Row>* rows, size_t n, int reps) {
  auto inst = StarInstance(/*leaves=*/4, n);
  struct Variant {
    const char* name;
    Graph g;
  };
  Variant variants[] = {{"async_trivial_star", StarTopology(5)},
                        {"async_trivial_clique", CliqueTopology(5)}};
  for (auto& v : variants) {
    inst.topology = std::move(v.g);
    BenchPair(
        rows, v.name, n, reps,
        [&](int p) {
          return RunTrivialProtocol(inst, TrivialOptions{.parallelism = p});
        },
        [&](int p) { return RunTrivialProtocolAsync(inst, AsyncOptions(p)); });
  }
}

/// One untimed traced run of both async protocols, exporting the simulated
/// timeline (link xmit spans + per-node compute spans, pid 2 in the Chrome
/// JSON) — what `--trace PATH` produces and tools/check_trace_json.py
/// validates in CI. Untimed on purpose: tracing every packet would pollute
/// the wall-clock rows above.
void WriteTrace(const char* path, bool quick) {
  obs::TraceSession ts;
  const auto inst = StarInstance(/*leaves=*/4, quick ? 10000 : 100000);
  AsyncProtocolOptions opts = AsyncOptions(1);
  opts.trace = &ts;
  auto forest = RunCoreForestProtocolAsync(inst, opts);
  TOPOFAQ_CHECK_MSG(forest.ok(), forest.status().ToString().c_str());
  auto trivial = RunTrivialProtocolAsync(inst, opts);
  TOPOFAQ_CHECK_MSG(trivial.ok(), trivial.status().ToString().c_str());
  ts.WriteChromeJson(path);
  std::printf("trace: %zu spans -> %s\n", ts.event_count(), path);
}

void WriteJson(const std::vector<Row>& rows, const char* path) {
  std::vector<std::string> lines;
  char buf[512];
  for (const Row& r : rows) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"bench\": \"%s\", \"n\": %zu, \"out_rows\": %zu, "
        "\"kernel_ms\": %.4f, \"parallel_ms\": %.4f, \"parallelism\": %d, "
        "\"reference_ms\": %.4f, \"speedup\": %.3f, \"par_speedup\": %.3f, "
        "\"makespan\": %.1f, \"rounds\": %lld, \"async_bits\": %lld, "
        "\"sync_bits\": %lld, \"pages\": %lld, \"peak_pages\": %lld, "
        "\"payload_bits_encoded\": %lld, \"payload_bits_plain\": %lld, "
        "\"payload_ratio\": %.4f}",
        r.bench.c_str(), r.n, r.out_rows, r.async_ms, r.async_par_ms,
        g_parallelism, r.sync_ms, r.sync_ms / r.async_ms,
        r.async_ms / r.async_par_ms, r.makespan,
        static_cast<long long>(r.rounds), static_cast<long long>(r.async_bits),
        static_cast<long long>(r.sync_bits), static_cast<long long>(r.pages),
        static_cast<long long>(r.peak_pages),
        static_cast<long long>(r.payload_bits_encoded),
        static_cast<long long>(r.payload_bits_plain), PayloadRatio(r));
    lines.emplace_back(buf);
  }
  bench::WriteJsonRows(lines, path);
}

}  // namespace
}  // namespace topofaq

int main(int argc, char** argv) {
  const auto args = topofaq::bench::ParseBenchArgs(
      &argc, argv, "BENCH_async_protocols.json");
  topofaq::g_parallelism = args.parallelism;
  const char* trace_path = nullptr;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--trace") == 0) trace_path = argv[i + 1];

  std::printf("parallelism: %d\n", topofaq::g_parallelism);
  std::printf("%-13s %8s %9s %9s %9s %10s %8s %7s %5s %9s %7s\n", "bench",
              "n", "async_ms", "apar_ms", "sync_ms", "makespan", "rounds",
              "pages", "peak", "spd", "enc/pln");
  std::vector<topofaq::Row> rows;
  // --quick keeps the 1e5 size: protocol wall times below it are
  // few-millisecond timings — shared-CI clock noise for the 1.5x relative
  // gate (the same rule that keeps scan/probe rows out below 1e5) — so the
  // JSON only records rows at sizes where the timing is signal, and the
  // gate needs at least one such row from the quick run.
  for (size_t n : {size_t{1000}, size_t{10000}, size_t{100000}}) {
    const int reps = args.quick ? (n <= 10000 ? 3 : 2) : (n <= 10000 ? 5 : 3);
    topofaq::BenchSize(&rows, n, reps);
    if (n == 100000) topofaq::BenchTopologies(&rows, n, reps);
  }
  std::erase_if(rows, [](const topofaq::Row& r) { return r.n < 100000; });
  topofaq::WriteJson(rows, args.out_path);
  if (trace_path != nullptr) topofaq::WriteTrace(trace_path, args.quick);
  return 0;
}
