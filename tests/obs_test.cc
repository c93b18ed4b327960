// Observability-layer tests (src/obs/ + its wiring):
//
//  * Histogram bucket math and quantile semantics are pinned *exactly* — the
//    reported quantile is the upper edge of the rank's bucket, so the test
//    computes the same edge and demands equality, not tolerance.
//  * Concurrent recording: every increment lands (relaxed atomics lose
//    nothing), hammered from multiple threads; CI's TSan leg checks the
//    data-race side.
//  * Chrome trace JSON: well-formed (balanced, no dangling comma), spans
//    nest, and the two clock domains export as distinct pids (wall = 1,
//    simulated = 2) so the time bases can never be conflated in a viewer.
//  * Engine end-to-end: a traced Solve records every pipeline stage
//    (submit / validate / profile / plan / admit / queue_wait / execute)
//    plus at least one kernel operator span, all on the query's track, and
//    MetricsText() reports the serving counters and latency histograms.
//  * Async simulator: a traced protocol run exports a simulated-time-only
//    timeline (link transfers + node compute).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "random_instances.h"
#include "server/engine.h"

namespace topofaq {
namespace {

// ---------------------------------------------------------------------------
// Histogram: bucket math and quantile semantics, exactly.

TEST(Histogram, BucketIndexEdges) {
  obs::Histogram h(/*min_value=*/1.0);
  // Below min_value (and NaN) land in bucket 0.
  EXPECT_EQ(h.BucketIndex(0.0), 0);
  EXPECT_EQ(h.BucketIndex(0.999), 0);
  EXPECT_EQ(h.BucketIndex(std::nan("")), 0);
  // Bucket i >= 1 covers [min·2^((i-1)/4), min·2^(i/4)): four per octave.
  EXPECT_EQ(h.BucketIndex(1.0), 1);
  EXPECT_EQ(h.BucketIndex(1.18), 1);  // 2^(1/4) ≈ 1.189
  EXPECT_EQ(h.BucketIndex(1.19), 2);
  EXPECT_EQ(h.BucketIndex(2.0), 5);  // one octave = four buckets up
  // Everything at or beyond the top edge clamps into the last bucket.
  EXPECT_EQ(h.BucketIndex(1e30), obs::Histogram::kBuckets - 1);
  // BucketLowerEdge is the inverse map's left endpoint.
  EXPECT_DOUBLE_EQ(h.BucketLowerEdge(1), 1.0);
  EXPECT_DOUBLE_EQ(h.BucketLowerEdge(5), 2.0);
}

TEST(Histogram, QuantileIsUpperBucketEdge) {
  obs::Histogram h(/*min_value=*/1.0);
  for (int i = 0; i < 90; ++i) h.Record(1.0);    // bucket 1
  for (int i = 0; i < 10; ++i) h.Record(100.0);  // bucket BucketIndex(100)
  ASSERT_EQ(h.count(), 100u);
  // p50: rank 50 falls in bucket 1 → upper edge = lower edge of bucket 2.
  EXPECT_DOUBLE_EQ(h.Quantile(0.50), h.BucketLowerEdge(2));
  // p90: rank 90 is the last of the 1.0s — still bucket 1.
  EXPECT_DOUBLE_EQ(h.Quantile(0.90), h.BucketLowerEdge(2));
  // p95: rank 95 falls among the 100.0s.
  const int b100 = h.BucketIndex(100.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.95), h.BucketLowerEdge(b100 + 1));
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), h.BucketLowerEdge(b100 + 1));
  // The upper-edge bound: reported quantile is ≥ the true value and at most
  // one bucket (2^(1/4)) above it.
  EXPECT_GE(h.Quantile(0.95), 100.0);
  EXPECT_LE(h.Quantile(0.95), 100.0 * std::exp2(0.5));
  // Fixed-point sum: 90·1 + 10·100 = 1090, within the 1/1024 granularity.
  EXPECT_NEAR(h.sum(), 1090.0, 1090.0 / 1024.0 + 1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram(1.0).Quantile(0.5), 0.0);  // empty → 0
}

TEST(Histogram, ConcurrentRecordingLosesNothing) {
  obs::Histogram h(/*min_value=*/1e-3);
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, &c, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(0.001 * static_cast<double>(t + 1));
        c.Add();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, LabeledNameAndTextDump) {
  EXPECT_EQ(obs::LabeledName("engine.exec_ms", "class", "point"),
            "engine.exec_ms{class=\"point\"}");
  auto& reg = obs::MetricsRegistry::Shared();
  auto& c = reg.GetCounter("obs_test.counter");
  auto& h = reg.GetHistogram("obs_test.histogram", 1.0);
  c.Add(3);
  h.Record(2.0);
  const std::string dump = reg.TextDump();
  EXPECT_NE(dump.find("counter obs_test.counter"), std::string::npos);
  EXPECT_NE(dump.find("histogram obs_test.histogram count="), std::string::npos);
  // Same name → same object (registry is a process-wide singleton).
  EXPECT_EQ(&reg.GetCounter("obs_test.counter"), &c);
}

// ---------------------------------------------------------------------------
// TraceSession: JSON shape, span nesting, clock domains.

/// Minimal structural validation: balanced {} / [] outside strings and no
/// dangling comma before a closing bracket (the classic hand-rendered-JSON
/// bug). tools/check_trace_json.py does the full schema check in CI.
void CheckBalancedJson(const std::string& j) {
  int depth = 0;
  bool in_string = false;
  char prev = '\0';
  for (size_t i = 0; i < j.size(); ++i) {
    const char c = j[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      EXPECT_NE(prev, ',') << "dangling comma at offset " << i;
      --depth;
      EXPECT_GE(depth, 0);
    }
    if (!std::isspace(static_cast<unsigned char>(c))) prev = c;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

TEST(Trace, ChromeJsonWellFormed) {
  obs::TraceSession ts;
  const uint32_t t1 = ts.RegisterTrack("query \"quoted\"");  // escaping path
  {
    obs::Span outer(&ts, "outer", t1);
    obs::Span inner(&ts, "inner", t1);
    inner.SetArgsJson("{\"rows\":42}");
  }
  ASSERT_EQ(ts.event_count(), 2u);
  const std::string j = ts.ToChromeJson();
  EXPECT_EQ(j.rfind("{\"traceEvents\":[", 0), 0u);
  CheckBalancedJson(j);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"rows\":42}"), std::string::npos);
  // Metadata names both clock-domain processes.
  EXPECT_NE(j.find("\"name\":\"wall clock\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"simulated time\""), std::string::npos);
}

TEST(Trace, SpansNestOnOneTrack) {
  obs::TraceSession ts;
  {
    obs::Span outer(&ts, "outer", 0);
    { obs::Span inner(&ts, "inner", 0); }
  }
  const auto ev = ts.events();
  ASSERT_EQ(ev.size(), 2u);
  // Spans record on close, so the inner span lands first.
  const obs::TraceEvent& inner = ev[0];
  const obs::TraceEvent& outer = ev[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us);
  EXPECT_GE(inner.dur_us, 0.0);
}

TEST(Trace, ClockDomainsExportAsDistinctPids) {
  obs::TraceSession ts;
  const uint32_t wall = ts.RegisterTrack("wall", obs::ClockDomain::kWall);
  const uint32_t sim =
      ts.RegisterTrack("node 0", obs::ClockDomain::kSimulated);
  { obs::Span sp(&ts, "work", wall); }
  ts.Emit("compute", sim, obs::ClockDomain::kSimulated, /*ts_us=*/1000.0,
          /*dur_us=*/250.0);
  const auto ev = ts.events();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].domain, obs::ClockDomain::kWall);
  EXPECT_EQ(ev[1].domain, obs::ClockDomain::kSimulated);
  const std::string j = ts.ToChromeJson();
  // Simulated span: pid 2, simulated timestamps exported 1 unit = 1 µs.
  EXPECT_NE(j.find("\"name\":\"compute\",\"ph\":\"X\",\"pid\":2"),
            std::string::npos);
  EXPECT_NE(j.find("\"ts\":1000.000,\"dur\":250.000"), std::string::npos);
  // Wall span: pid 1.
  EXPECT_NE(j.find("\"name\":\"work\",\"ph\":\"X\",\"pid\":1"),
            std::string::npos);
}

TEST(Trace, DisabledSpanIsInert) {
  // The cost contract: a Span on a null session must be safe (and free) —
  // construction, args, early close, destruction all no-ops.
  obs::Span sp(nullptr, "never", 0);
  sp.SetArgsJson("{\"ignored\":1}");
  sp.Close();
}

// ---------------------------------------------------------------------------
// Engine end-to-end: the traced pipeline and the metrics surface.

TEST(EngineObs, TracedSolveRecordsEveryPipelineStage) {
  EngineOptions opts;
  opts.parallelism = 1;
  Engine engine(opts);
  engine.EnableTracing();
  ASSERT_NE(engine.trace(), nullptr);
  auto q = RandomQuery<CountingSemiring>(StarGraph(3), 200, 16, 11, {});
  auto r = engine.Solve(q);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  auto tr = engine.DisableTracing();
  ASSERT_NE(tr, nullptr);
  EXPECT_EQ(engine.trace(), nullptr);

  const auto ev = tr->events();
  auto find = [&](const char* name) -> const obs::TraceEvent* {
    for (const auto& e : ev)
      if (std::string(e.name) == name) return &e;
    return nullptr;
  };
  const obs::TraceEvent* submit = find("submit");
  const obs::TraceEvent* execute = find("execute");
  ASSERT_NE(submit, nullptr);
  ASSERT_NE(execute, nullptr);
  for (const char* stage : {"validate", "profile", "plan", "admit"}) {
    const obs::TraceEvent* e = find(stage);
    ASSERT_NE(e, nullptr) << stage;
    // Each stage nests inside "submit" on the query's track.
    EXPECT_EQ(e->track, submit->track) << stage;
    EXPECT_GE(e->ts_us, submit->ts_us) << stage;
    EXPECT_LE(e->ts_us + e->dur_us, submit->ts_us + submit->dur_us) << stage;
  }
  // queue_wait bridges submit → execute on the same track.
  const obs::TraceEvent* qw = find("queue_wait");
  ASSERT_NE(qw, nullptr);
  EXPECT_EQ(qw->track, submit->track);
  EXPECT_GE(qw->dur_us, 0.0);
  EXPECT_EQ(execute->track, submit->track);
  EXPECT_GE(execute->ts_us + 1e-3, qw->ts_us + qw->dur_us);
  // The kernel recorded at least one operator span inside execute.
  size_t ops = 0;
  for (const auto& e : ev) {
    const std::string n = e.name;
    if (n == "join" || n == "eliminate" || n == "multiway") {
      ++ops;
      EXPECT_GE(e.ts_us, execute->ts_us);
      EXPECT_LE(e.ts_us + e.dur_us, execute->ts_us + execute->dur_us + 1e-3);
      // Operator spans carry their OpStats delta as args.
      EXPECT_NE(e.args_json.find("\"rows_in\""), std::string::npos);
    }
  }
  EXPECT_GT(ops, 0u);
  // Every engine-side event is wall-clock; the whole trace exports cleanly.
  for (const auto& e : ev) EXPECT_EQ(e.domain, obs::ClockDomain::kWall);
  CheckBalancedJson(tr->ToChromeJson());
}

TEST(EngineObs, MetricsTextReportsServingPath) {
  EngineOptions opts;
  opts.parallelism = 1;
  Engine engine(opts);
  auto q = RandomQuery<NaturalSemiring>(PathGraph(2), 150, 32, 7, {0});
  ASSERT_TRUE(engine.Solve(q).ok());
  const std::string text = engine.MetricsText();
  for (const char* needle :
       {"counter engine.submitted", "counter engine.completed",
        "counter engine.plan_cache.hit", "counter engine.plan_cache.miss",
        "histogram engine.queue_ms{class=\"point\"}",
        "histogram engine.exec_ms{class=\"point\"}",
        "histogram engine.bound.residual_ratio"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  // The coherent snapshot (satellite of the same surface): totals add up.
  const EngineStats st = engine.stats();
  EXPECT_GE(st.submitted, 1);
  EXPECT_LE(st.completed + st.cancelled + st.failed, st.submitted);
}

TEST(EngineObs, TraceEnvKnobSetsPath) {
  setenv("TOPOFAQ_TRACE", "/tmp/obs_test_trace.json", 1);
  EXPECT_EQ(EngineOptions::FromEnv().trace_path, "/tmp/obs_test_trace.json");
  unsetenv("TOPOFAQ_TRACE");
  EXPECT_TRUE(EngineOptions::FromEnv().trace_path.empty());
}

// ---------------------------------------------------------------------------
// Async simulator: the simulated-time timeline.

TEST(AsyncObs, ProtocolRunExportsSimulatedTimeline) {
  const int leaves = 3;
  Hypergraph h = StarGraph(leaves);
  std::vector<Relation<NaturalSemiring>> rels;
  for (int e = 0; e < h.num_edges(); ++e) {
    RelationBuilder<NaturalSemiring> b{Schema(h.edge(e))};
    std::vector<Value> row(h.edge(e).size(), 1);
    for (size_t i = 0; i < 400; ++i) {
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

  obs::TraceSession ts;
  AsyncProtocolOptions opts;
  opts.stream.page_rows = 64;  // several pages per relation
  opts.trace = &ts;
  auto r = RunTrivialProtocolAsync(inst, opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  const auto ev = ts.events();
  ASSERT_FALSE(ev.empty());
  size_t pages = 0, computes = 0;
  for (const auto& e : ev) {
    // Everything the simulator records is simulated time, non-negative.
    EXPECT_EQ(e.domain, obs::ClockDomain::kSimulated);
    EXPECT_GE(e.ts_us, 0.0);
    EXPECT_GE(e.dur_us, 0.0);
    const std::string n = e.name;
    if (n == "page" || n == "ctl") ++pages;
    if (n == "solve") ++computes;
  }
  EXPECT_GT(pages, 0u);    // link-transfer spans
  EXPECT_GT(computes, 0u); // node-compute spans
  CheckBalancedJson(ts.ToChromeJson());
}

}  // namespace
}  // namespace topofaq
