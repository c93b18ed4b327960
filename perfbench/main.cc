// Layered benchmark binary: runs one named workload through the public API
// for a fixed wall-clock window, checks every answer, and prints one JSON
// line — the end-to-end metrics (untraced run) or the per-layer metrics
// (--trace 1). See perfbench/README.md for the workloads and every metric.
//
//   topofaq_perfbench --workload serve_rw|analytics|protocols --seed N
//                     --seconds S --trace 0|1
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics.h"
#include "harness.h"
#include "probe.h"
#include "protocols.h"
#include "serve.h"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetups = 3;      ///< setup_s is the median of these
constexpr int kSubWindows = 20;  ///< timings are medians over these
constexpr int64_t kWarmServeOps = 300;
constexpr int64_t kProbeServeOps = 500;  ///< serve probe per sub-window
constexpr size_t kProbeSolvePasses = 10;  ///< suite Engine::Solve probe
constexpr int kReferenceReps = 9;         ///< host reference runs per point
/// The host reference's median time on the four-vCPU virtual machine the
/// benchmark was tuned on; end-to-end timings are reported at this speed.
constexpr double kNominalReferenceMs = 3.0;

/// Removes every TOPOFAQ_* variable before any library default reads the
/// environment, so no knob can change what is measured.
void ScrubEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "TOPOFAQ_", 8) == 0) {
      const char* eq = std::strchr(*e, '=');
      names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
    }
  for (const std::string& n : names) unsetenv(n.c_str());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v);
    } else if (k == "--trace") {
      a->trace = std::atoi(v) != 0;
    } else {
      return false;
    }
  }
  return (a->workload == "serve_rw" || a->workload == "analytics" ||
          a->workload == "protocols") &&
         a->seconds > 0;
}

/// Everything one workload runs against. Members are destroyed in reverse
/// order, so every subscription goes before the engine that owns it.
struct World {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ServeWorld> serve;
  std::unique_ptr<AnalyticWorld> analytic;
  std::unique_ptr<ProtocolSuite> suite;
  OpLedger warm_ledger;

  double canonicalize_ms() const {
    return serve->canonicalize_ms + suite->canonicalize_ms +
           (analytic ? analytic->canonicalize_ms : 0.0);
  }
  size_t resident_key_bytes() const {
    return serve->resident_key_bytes + suite->resident_key_bytes +
           (analytic ? analytic->resident_key_bytes : 0);
  }
};

/// Builds inputs, oracles, engine and subscriptions anew (the shared
/// plan cache included), then warms every path the window uses.
std::unique_ptr<World> Setup(const Args& a) {
  PlanCache::Shared().Clear();
  auto w = std::make_unique<World>();
  w->engine = std::make_unique<Engine>(BenchEngineOptions());
  w->serve = BuildServe(*w->engine, a.seed);
  w->suite = BuildSuite(a.seed);
  if (a.workload == "analytics") w->analytic = BuildAnalytics(a.seed);

  WarmPairs(*w->serve, &w->warm_ledger);
  ServeClient serve(*w->engine, *w->serve, a.seed * 7 + 1, nullptr);
  w->warm_ledger.Merge(
      serve.Run([](int64_t ops) { return ops < kWarmServeOps; }).ledger);
  ProtocolClient proto(*w->engine, *w->suite, nullptr);
  const size_t n = w->suite->instances.size();
  w->warm_ledger.Merge(
      proto.Run([&](size_t i) { return i < n; }, a.workload == "protocols")
          .ledger);
  if (w->analytic) {
    AnalyticClient analytic(*w->engine, *w->analytic, a.seed * 7 + 2, nullptr);
    const int64_t m = static_cast<int64_t>(w->analytic->queries.size());
    w->warm_ledger.Merge(
        analytic.Run([&](int64_t ops) { return ops < m; }).ledger);
  }
  return w;
}

struct WindowResults {
  ServeResults serve;
  AnalyticResults analytic;
  ProtocolResults proto;
  OpLedger Ledger() const {
    OpLedger l = serve.ledger;
    l.Merge(analytic.ledger);
    l.Merge(proto.ledger);
    return l;
  }
  /// The workload's throughput: all ops for serve_rw, analytic queries for
  /// analytics, protocol runs for protocols.
  double OpsPerSecond(const std::string& wl) const {
    if (wl == "serve_rw") return serve.ops / (serve.busy_ms / 1e3);
    if (wl == "analytics") return analytic.ops / (analytic.busy_ms / 1e3);
    return proto.runs / (proto.busy_ms / 1e3);
  }
};

/// One measured window of `seconds` on the workload's clients.
WindowResults RunWindow(World& w, const Args& a, double seconds,
                        uint64_t client_seed, LayerProbe* probe) {
  WindowResults out;
  const auto deadline =
      Clock::now() + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  auto before_deadline = [deadline](auto) { return Clock::now() < deadline; };
  if (a.workload == "protocols") {
    ProtocolClient proto(*w.engine, *w.suite, probe);
    out.proto = proto.Run(before_deadline);
    return out;
  }
  ServeClient serve(*w.engine, *w.serve, client_seed, probe);
  if (a.workload == "serve_rw") {
    out.serve = serve.Run(before_deadline);
    return out;
  }
  AnalyticClient analytic(*w.engine, *w.analytic, client_seed + 1, probe);
  std::thread t([&] { out.analytic = analytic.Run(before_deadline); });
  out.serve = serve.Run(before_deadline);
  t.join();
  return out;
}

double Median(std::vector<double> v) {
  Samples s;
  for (double x : v) s.Add(x);
  return s.Quantile(0.5);
}

void SetProtocolCost(const PassCost& c, MetricSet* m) {
  m->Set("rounds", static_cast<double>(c.rounds), "rounds");
  m->Set("makespan", c.makespan, "simtime");
  m->Set("total_bits", static_cast<double>(c.total_bits), "bits");
}

/// What one untraced sub-window and the probes after it measured, pooled
/// over sub-windows for the diagnostics.
struct Measured {
  ServeResults serve;
  Strata acyclic, cyclic;
  int64_t ops = 0;
  void Append(const Measured& o) {
    serve.lookup_ms.Append(o.serve.lookup_ms);
    serve.ring_ms.Append(o.serve.ring_ms);
    serve.recompute_ms.Append(o.serve.recompute_ms);
    serve.current_us.Append(o.serve.current_us);
    for (int k = 0; k < 3; ++k)
      serve.lookups_by_class[k] += o.serve.lookups_by_class[k];
    acyclic.Append(o.acyclic);
    cyclic.Append(o.cyclic);
    ops += o.ops;
  }
};

/// End-to-end metrics (all but setup_s and the protocol cost) of one
/// untraced sub-window of `seconds`. Metrics the workload's own clients do
/// not produce come from fixed probes run right after the sub-window.
MetricSet SubWindow(World& w, const Args& a, int k, double seconds,
                    const PassCost& cost, OpLedger* ledger, Measured* pooled) {
  const WindowResults r = RunWindow(w, a, seconds, a.seed * 7 + 11 + 2 * k, nullptr);
  ledger->Merge(r.Ledger());
  if (r.proto.passes > 0) ledger->Count(r.proto.first == cost);
  Measured m;
  m.ops = r.serve.ops + r.analytic.ops + r.proto.runs;
  m.serve = r.serve;
  if (a.workload == "protocols") {
    ServeClient probe(*w.engine, *w.serve, a.seed * 7 + 3 + 2 * k, nullptr);
    m.serve = probe.Run([](int64_t ops) { return ops < kProbeServeOps; });
    ledger->Merge(m.serve.ledger);
  }
  if (a.workload == "analytics") {
    m.acyclic = r.analytic.acyclic_ms;
    m.cyclic = r.analytic.cyclic_ms;
  } else if (a.workload == "protocols") {
    m.acyclic = r.proto.acyclic_ms;
    m.cyclic = r.proto.cyclic_ms;
  } else {
    ProtocolClient probe(*w.engine, *w.suite, nullptr);
    const size_t n = w.suite->instances.size();
    ProtocolResults p = probe.Run(
        [&](size_t i) { return i < kProbeSolvePasses * n; }, false);
    ledger->Merge(p.ledger);
    m.acyclic = p.acyclic_ms;
    m.cyclic = p.cyclic_ms;
  }

  MetricSet out;
  out.Set("ops_per_s", r.OpsPerSecond(a.workload), "1/s");
  out.Set("lookup_p50_ms", m.serve.lookup_ms.Quantile(0.5), "ms");
  out.Set("lookup_p90_ms", m.serve.lookup_ms.Quantile(0.9), "ms");
  out.Set("ring_delta_p50_ms", m.serve.ring_ms.MeanOfMedians(), "ms");
  out.Set("recompute_delta_p50_ms", m.serve.recompute_ms.MeanOfMedians(), "ms");
  out.Set("acyclic_p50_ms", m.acyclic.MeanOfMedians(), "ms");
  out.Set("cyclic_p50_ms", m.cyclic.MeanOfMedians(), "ms");
  pooled->Append(m);
  return out;
}

/// Median wall time (ms) of kReferenceReps runs of the host reference.
double ReferenceMs(HostReference* ref) {
  Samples s;
  for (int i = 0; i < kReferenceReps; ++i) s.Add(ref->RunMs());
  return s.Quantile(0.5);
}

/// `raw` at the reference host speed: times (ms) scaled by `factor`, rates
/// (1/s) divided by it.
MetricSet AtReferenceSpeed(const MetricSet& raw, double factor) {
  MetricSet out;
  for (const MetricSet::Item& it : raw.items())
    out.Set(it.name,
            std::strcmp(it.unit, "1/s") == 0 ? it.value / factor : it.value * factor,
            it.unit);
  return out;
}

/// End-to-end metrics of an untraced run. The run is split into
/// sub-windows, each followed by its probes, with the host reference run
/// before the first and after every sub-window. Each sub-window's figures
/// are scaled to the reference host speed by the mean of the reference
/// times around it (kNominalReferenceMs over that mean), and each metric is
/// the median of its scaled per-sub-window values.
MetricSet EndToEnd(World& w, const Args& a, double setup_s, HostReference* ref,
                   OpLedger* ledger, std::string* diag) {
  std::vector<MetricSet> raw, scaled;
  std::vector<double> ref_ms;
  Measured pooled;
  // The protocol cost of one suite pass; every pass a sub-window of the
  // protocols workload completes must repeat it exactly.
  PassCost cost;
  {
    ProtocolClient probe(*w.engine, *w.suite, nullptr);
    const size_t n = w.suite->instances.size();
    ProtocolResults p = probe.Run([&](size_t i) { return i < n; });
    ledger->Merge(p.ledger);
    cost = p.first;
  }
  ref_ms.push_back(ReferenceMs(ref));
  for (int k = 0; k < kSubWindows; ++k) {
    raw.push_back(
        SubWindow(w, a, k, a.seconds / kSubWindows, cost, ledger, &pooled));
    ref_ms.push_back(ReferenceMs(ref));
    const double around = (ref_ms[k] + ref_ms[k + 1]) / 2;
    scaled.push_back(AtReferenceSpeed(raw.back(), kNominalReferenceMs / around));
  }
  MetricSet m;
  m.Set("setup_s", setup_s, "s");
  const MetricSet timed = MetricSet::Median(scaled);
  for (const MetricSet::Item& it : timed.items()) m.Set(it.name, it.value, it.unit);
  SetProtocolCost(cost, &m);

  // Diagnostics only: tails with their sample counts, outside the bounds.
  const ServeResults& serve = pooled.serve;
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"lookup_p99_ms\": %.4f, \"lookup_samples\": %zu, "
      "\"lookup_classes\": [%lld, %lld, %lld], \"ring_delta_p99_ms\": %.4f, "
      "\"ring_delta_samples\": %zu, \"recompute_delta_p99_ms\": %.4f, "
      "\"recompute_delta_samples\": %zu, \"acyclic_p99_ms\": %.4f, "
      "\"acyclic_samples\": %zu, \"cyclic_p99_ms\": %.4f, "
      "\"cyclic_samples\": %zu, \"current_p50_us\": %.3f, \"ops\": %lld}",
      serve.lookup_ms.Quantile(0.99), serve.lookup_ms.size(),
      static_cast<long long>(serve.lookups_by_class[0]),
      static_cast<long long>(serve.lookups_by_class[1]),
      static_cast<long long>(serve.lookups_by_class[2]),
      serve.ring_ms.Pooled().Quantile(0.99), serve.ring_ms.size(),
      serve.recompute_ms.Pooled().Quantile(0.99), serve.recompute_ms.size(),
      pooled.acyclic.Pooled().Quantile(0.99), pooled.acyclic.size(),
      pooled.cyclic.Pooled().Quantile(0.99), pooled.cyclic.size(),
      serve.current_us.Quantile(0.5), static_cast<long long>(pooled.ops));
  *diag = buf;
  *diag += "\nstrata: " + pooled.acyclic.Describe() + ", " +
           pooled.cyclic.Describe() + " | " + serve.ring_ms.Describe() + " | " +
           serve.recompute_ms.Describe();
  *diag += "\nunscaled medians: " + MetricSet::Median(raw).Describe() +
           "\nreference ms:";
  for (double r : ref_ms) *diag += " " + std::to_string(r).substr(0, 6);
  for (int k = 0; k < kSubWindows; ++k)
    *diag += "\nsub-window " + std::to_string(k) + " unscaled: " + raw[k].Describe();
  return m;
}

/// Per-layer metrics of a traced window (see README.md for each one).
MetricSet PerLayer(World& w, const WindowResults& r, double untraced_ops_s,
                   double traced_ops_s, const EngineStats& before,
                   const EngineStats& after, const StandingStats ivm_before[2],
                   const StandingStats ivm_after[2], const SpanRollup& engine,
                   const SpanRollup& bench) {
  MetricSet m;
  std::vector<EngineCall> calls = r.serve.calls;
  calls.insert(calls.end(), r.analytic.calls.begin(), r.analytic.calls.end());
  calls.insert(calls.end(), r.proto.calls.begin(), r.proto.calls.end());
  const double n_calls = std::max<size_t>(1, calls.size());

  // server
  const Samples& overhead =
      r.serve.overhead_us.empty() ? r.proto.overhead_us : r.serve.overhead_us;
  m.Set("server.solve_overhead_us", overhead.Quantile(0.5), "us");
  m.Set("server.profile_us", bench.MeanUs("server.profile"), "us");
  m.Set("server.assess_us", bench.MeanUs("server.assess"), "us");
  Samples queue, exec;
  double latency_us = 0, parallel_exec_us = 0;
  OpStats kernel;
  for (const EngineCall& c : calls) {
    queue.Add(c.queue_ms);
    exec.Add(c.exec_ms);
    latency_us += c.latency_ms * 1e3;
    if (c.klass != QueueClass::kPoint) parallel_exec_us += c.exec_ms * 1e3;
    kernel += c.kernel;
  }
  m.Set("server.queue_ms.p50", queue.Quantile(0.5), "ms");
  m.Set("server.queue_ms.p90", queue.Quantile(0.9), "ms");
  m.Set("server.exec_ms.p50", exec.Quantile(0.5), "ms");
  static const char* kStages[] = {"validate", "profile",    "plan",
                                  "admit",    "queue_wait", "execute"};
  static const char* kOps[] = {"join", "semijoin", "eliminate", "project",
                               "multiway"};
  double attributed_us = 0;
  for (const char* s : kStages) {
    m.Set(std::string("stage.") + s + "_us", engine.Self(s) / n_calls, "us");
    attributed_us += engine.Self(s);
  }
  for (const char* o : kOps) attributed_us += engine.Self(o);
  m.Set("stage.unattributed_us", (latency_us - attributed_us) / n_calls, "us");
  m.Set("server.failed", static_cast<double>(after.failed - before.failed),
        "count");
  m.Set("server.rejected",
        static_cast<double>(after.rejected - before.rejected +
                            after.deltas_rejected - before.deltas_rejected),
        "count");

  // ghd
  m.Set("ghd.plan_us", bench.MeanUs("ghd.plan"), "us");
  const double hits = after.plan_cache.hits - before.plan_cache.hits;
  const double misses = after.plan_cache.misses - before.plan_cache.misses;
  m.Set("ghd.plan_cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio");

  // faq
  m.Set("faq.parse_us", bench.MeanUs("faq.parse"), "us");
  Samples solve_acyclic = r.analytic.solve_acyclic_ms, solve_cyclic = r.analytic.solve_cyclic_ms;
  solve_acyclic.Append(r.proto.solve_acyclic_ms);
  solve_cyclic.Append(r.proto.solve_cyclic_ms);
  m.Set("faq.solve_ms.acyclic", solve_acyclic.Quantile(0.5), "ms");
  m.Set("faq.solve_ms.cyclic", solve_cyclic.Quantile(0.5), "ms");

  // relation
  for (const char* o : kOps)
    m.Set(std::string("relation.") + o + "_ms", engine.Self(o) / 1e3 / n_calls, "ms");
  m.Set("relation.morsels", kernel.morsels / n_calls, "count");
  m.Set("relation.parallel_util",
        parallel_exec_us > 0
            ? engine.Total("morsel") / (parallel_exec_us * BenchEngineOptions().parallelism)
            : 0,
        "ratio");
  const double simd = kernel.simd_blocks, scalar = kernel.scalar_fallbacks;
  m.Set("relation.simd_share", simd + scalar > 0 ? simd / (simd + scalar) : 0, "ratio");
  const double skips = kernel.sort_skips, sorts = kernel.sorts;
  m.Set("relation.sort_skip_share", skips + sorts > 0 ? skips / (skips + sorts) : 0,
        "ratio");
  static const char* kKinds[] = {"lookup", "acyclic", "cyclic"};
  for (int k = 0; k < 3; ++k) {
    OpStats s;
    double count = 0;
    for (const EngineCall& c : calls)
      if (static_cast<int>(c.kind) == k) {
        s += c.kernel;
        ++count;
      }
    const double d = std::max(1.0, count);
    const std::string kind = kKinds[k];
    m.Set("relation.rows_in." + kind, s.rows_in / d, "count");
    m.Set("relation.rows_out." + kind, s.rows_out / d, "count");
    m.Set("relation.seeks." + kind, s.seeks / d, "count");
    m.Set("relation.comparisons." + kind, s.comparisons / d, "count");
    m.Set("relation.peak_rows." + kind, static_cast<double>(s.peak_rows), "count");
  }
  m.Set("relation.canonicalize_ms", w.canonicalize_ms(), "ms");
  m.Set("relation.resident_key_bytes", static_cast<double>(w.resident_key_bytes()),
        "bytes");

  // ivm
  const double ring = ivm_after[0].ring_deltas - ivm_before[0].ring_deltas;
  const double recompute =
      ivm_after[1].recompute_deltas - ivm_before[1].recompute_deltas;
  double reused = 0, updated = 0;
  for (int i = 0; i < 2; ++i) {
    reused += ivm_after[i].nodes_reused - ivm_before[i].nodes_reused;
    updated += ivm_after[i].nodes_updated - ivm_before[i].nodes_updated;
  }
  m.Set("ivm.ring_deltas", ring, "count");
  m.Set("ivm.recompute_deltas", recompute, "count");
  m.Set("ivm.nodes_reused_share", reused + updated > 0 ? reused / (reused + updated) : 0,
        "ratio");
  m.Set("ivm.current_us", bench.MeanUs("ivm.current"), "us");

  // protocols, network, lowerbounds
  const ProtocolResults& p = r.proto;
  m.Set("protocols.sync_forest_ms", p.sync_forest_ms.Mean(), "ms");
  m.Set("protocols.async_forest_ms", p.async_forest_ms.Mean(), "ms");
  m.Set("protocols.sync_trivial_ms", p.sync_trivial_ms.Mean(), "ms");
  m.Set("protocols.async_trivial_ms", p.async_trivial_ms.Mean(), "ms");
  m.Set("protocols.makespan_over_rounds",
        p.forest_rounds > 0 ? p.forest_makespan / p.forest_rounds : 0, "ratio");
  m.Set("protocols.rounds_over_lower",
        p.lower_bound > 0 ? static_cast<double>(p.forest_rounds) / p.lower_bound : 0,
        "ratio");
  m.Set("network.pages", static_cast<double>(p.pages), "count");
  m.Set("network.max_in_flight_pages", static_cast<double>(p.max_in_flight_pages),
        "count");
  m.Set("network.payload_ratio",
        p.payload_plain > 0 ? static_cast<double>(p.payload_encoded) / p.payload_plain : 0,
        "ratio");
  m.Set("network.max_edge_utilization", p.max_edge_utilization, "ratio");
  m.Set("lowerbounds.bounds_ms",
        w.suite->bounds_ms / static_cast<double>(w.suite->instances.size()), "ms");

  // obs
  m.Set("obs.trace_overhead", traced_ops_s > 0 ? untraced_ops_s / traced_ops_s : 0,
        "ratio");
  return m;
}

int Main(int argc, char** argv) {
  ScrubEnvironment();
  Args a;
  if (!ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_rw|analytics|protocols --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }

  // Each set-up time is scaled to the reference host speed by the mean of
  // the host reference times taken right before and after it.
  std::unique_ptr<World> w;
  std::vector<double> setup_s, setup_raw_s;
  HostReference ref;
  double ref_before = ReferenceMs(&ref);
  for (int i = 0; i < kSetups; ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w = Setup(a);
    setup_raw_s.push_back(MsSince(t0) / 1e3);
    const double ref_after = ReferenceMs(&ref);
    setup_s.push_back(setup_raw_s.back() * kNominalReferenceMs /
                      ((ref_before + ref_after) / 2));
    ref_before = ref_after;
  }
  OpLedger ledger = w->warm_ledger;
  MetricSet metrics;
  std::string diag;
  if (!a.trace) {
    metrics = EndToEnd(*w, a, Median(setup_s), &ref, &ledger, &diag);
  } else {
    // Both halves' throughputs are scaled to the reference host speed, so
    // host drift between them does not read as tracing overhead.
    const double ref0 = ReferenceMs(&ref);
    const WindowResults untraced =
        RunWindow(*w, a, a.seconds / 2, a.seed * 7 + 11, nullptr);
    const double ref1 = ReferenceMs(&ref);
    ledger.Merge(untraced.Ledger());
    const EngineStats before = w->engine->stats();
    const StandingStats ivm_before[2] = {w->serve->ring.session->stats(),
                                         w->serve->recompute.session->stats()};
    obs::TraceSession bench_session;
    LayerProbe probe(&bench_session);
    w->engine->EnableTracing();
    const WindowResults traced =
        RunWindow(*w, a, a.seconds / 2, a.seed * 7 + 13, &probe);
    std::shared_ptr<obs::TraceSession> engine_session = w->engine->DisableTracing();
    const double ref2 = ReferenceMs(&ref);
    ledger.Merge(traced.Ledger());
    const EngineStats after = w->engine->stats();
    const StandingStats ivm_after[2] = {w->serve->ring.session->stats(),
                                        w->serve->recompute.session->stats()};
    metrics = PerLayer(*w, traced, untraced.OpsPerSecond(a.workload) * (ref0 + ref1),
                       traced.OpsPerSecond(a.workload) * (ref1 + ref2), before, after,
                       ivm_before, ivm_after, RollUp(engine_session->events()),
                       RollUp(bench_session.events()));
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "{\"engine_spans\": %zu, \"bench_spans\": %zu, \"calls\": %zu}",
                  engine_session->event_count(), bench_session.event_count(),
                  traced.serve.calls.size() + traced.analytic.calls.size() +
                      traced.proto.calls.size());
    diag = buf;
  }
  CheckSubscriptions(*w->serve, &ledger);

  std::printf("setup_s runs: %.3f %.3f %.3f (unscaled %.3f %.3f %.3f)\n",
              setup_s[0], setup_s[1], setup_s[2], setup_raw_s[0],
              setup_raw_s[1], setup_raw_s[2]);
  std::printf("diagnostics: %s\n", diag.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              ledger.failed == 0 ? "true" : "false",
              static_cast<long long>(ledger.attempted),
              static_cast<long long>(ledger.failed), metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
