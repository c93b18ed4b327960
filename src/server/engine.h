// topofaq::Engine — the FAQ-as-a-service entry point.
//
// One Engine owns the whole serving path:
//
//   Submit(QueryRequest)
//     → validate + profile inputs (one O(rows) scan per relation)
//     → plan: decomposition from the process-wide PlanCache
//     → admit: predicted bounds vs budgets (server/admission.h); rejected
//       queries complete immediately with ResourceExhausted, before any
//       execution resource is spent
//     → classify: point / general / heavy priority queues
//     → dispatch: dispatcher threads drain the queues in strict priority
//       order, with at most `heavy_slots` heavy queries in flight — so a
//       dispatcher is always free for point lookups while cyclic analytics
//       churn, and point-lookup latency stays flat under heavy load
//       (bench/bench_engine_concurrent.cc gates this in CI).
//
// Concurrency model: queries multiplex the process-wide WorkerPool at morsel
// granularity. A parallel operator whose ParallelFor finds the pool busy
// runs its morsels on the dispatcher thread instead of queueing
// (relation/parallel.h), so concurrent queries interleave at morsel
// boundaries without any additional scheduler — and results stay
// bit-identical to direct solver calls because morsel decomposition never
// changes output bytes (the determinism contract).
//
// Cancellation: Session::Cancel() flips an atomic the query's ExecContext
// carries; MorselRun checks it at every morsel boundary and the solvers
// between operator calls, so a heavy query unwinds within one morsel and
// surfaces Status::Cancelled. Queued queries cancel without running.
//
// This is the one public solve surface: examples, benches, and the shell go
// through Engine::Solve, which runs every validated query on the GHD plan
// admission looked up (YannakakisSolveOn, faq/solvers.h) — there is no
// second solver to pick.
#ifndef TOPOFAQ_SERVER_ENGINE_H_
#define TOPOFAQ_SERVER_ENGINE_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ghd/plan_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/admission.h"
#include "server/options.h"
#include "server/session.h"
#include "server/subscribe.h"

namespace topofaq {

/// Cumulative engine counters plus a plan-cache snapshot. Obtained via
/// Engine::stats(), which reads every counter under the one engine mutex the
/// writers hold — the snapshot is *coherent*: completed + cancelled + failed
/// never exceeds submitted, even while dispatchers are mid-delivery.
struct EngineStats {
  /// Queries accepted by Submit (before validation/admission).
  int64_t submitted = 0;
  /// Queries refused by admission control.
  int64_t rejected = 0;
  /// Queries that delivered an answer.
  int64_t completed = 0;
  /// Queries that delivered Status::Cancelled.
  int64_t cancelled = 0;
  /// Queries that delivered any other error.
  int64_t failed = 0;
  /// Standing sessions created via Subscribe.
  int64_t subscriptions = 0;
  /// Subscription deltas applied.
  int64_t deltas_applied = 0;
  /// Subscription deltas refused by admission.
  int64_t deltas_rejected = 0;
  PlanCache::Stats plan_cache;
};

class Engine {
 public:
  /// Starts the dispatcher threads. Every query, subscription and delta
  /// runs on a context carrying opts.encoding and opts.simd, so engines
  /// with different modes can share one process.
  explicit Engine(EngineOptions opts = EngineOptions::FromEnv());
  /// Drains every submitted query (cancelled ones unwind fast), then joins.
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Admits and enqueues. Never blocks on execution: the returned session
  /// resolves immediately for validation/admission failures, later for
  /// executed queries. Wait()/Cancel() on the session from any thread.
  std::shared_ptr<Session> Submit(QueryRequest req);

  /// Submit + Wait: the synchronous entry point every call site uses.
  Result<QueryResult> Solve(QueryRequest req) { return Submit(std::move(req))->Wait(); }

  /// Statically-typed convenience: callers that know their semiring get the
  /// answer relation back directly.
  template <CommutativeSemiring S>
  Result<Relation<S>> Solve(FaqQuery<S> q) {
    QueryRequest req;
    req.query = std::move(q);
    Result<QueryResult> r = Solve(std::move(req));
    if (!r.ok()) return r.status();
    return r->answer_as<S>();
  }

  /// Subscription mode (docs/ivm.md): plans + admits like Submit, runs the
  /// full pass once on the calling thread, and returns a live session whose
  /// answer stays current under StandingSession::ApplyDelta. Every query
  /// Solve accepts can subscribe: both run the same GHD pass. The engine
  /// must outlive the returned session.
  Result<std::shared_ptr<StandingSession>> Subscribe(QueryRequest req);

  EngineStats stats() const;
  const EngineOptions& options() const { return opts_; }

  /// Starts a fresh TraceSession covering every query submitted from now on
  /// (docs/observability.md): each Submit registers a per-query track and
  /// records the pipeline as nested wall-clock spans — submit (validate /
  /// profile / plan / admit as children), queue_wait, execute, with the
  /// kernel's operator and morsel spans inside execute. `path` is where
  /// DisableTracing (or the destructor) writes the Chrome trace JSON; empty
  /// means keep the session in memory only. Replaces any active session
  /// without writing it. EngineOptions::trace_path (the TOPOFAQ_TRACE knob)
  /// calls this at construction.
  void EnableTracing(std::string path = {});

  /// Stops tracing: writes the Chrome JSON to the EnableTracing path (when
  /// one was given) and returns the finished session, or null if tracing was
  /// off. Queries already in flight keep recording into the returned session
  /// (each job snapshots a shared_ptr), so inspect it after their sessions
  /// resolve.
  std::shared_ptr<obs::TraceSession> DisableTracing();

  /// The active trace session (null when tracing is off).
  std::shared_ptr<obs::TraceSession> trace() const;

  /// The process-wide metrics registry rendered as text — per-class
  /// queue/exec latency quantiles, admission and plan-cache counters, IVM
  /// path counts, bound-residual quantiles (obs/metrics.h TextDump format).
  /// Process-wide by design: two engines in one process share the registry.
  std::string MetricsText() const;

 private:
  friend class StandingSession;

  struct Job {
    QueryRequest req;
    std::shared_ptr<Session> session;
    QueryBounds bounds;
    QueueClass klass = QueueClass::kGeneral;
    bool plan_cache_hit = false;
    /// Admission's plan: RunJob executes this decomposition, so a query is
    /// looked up in the PlanCache once.
    WidthResult width;
    std::chrono::steady_clock::time_point enqueued;
    /// Snapshot of the engine's trace session at submit time (null = tracing
    /// was off): keeps the session alive until the job delivers even if
    /// DisableTracing raced in, and pins which session the execute-side
    /// spans land in.
    std::shared_ptr<obs::TraceSession> trace;
    /// This query's track in `trace`.
    uint32_t trace_track = 0;
    /// Non-query work riding the priority queues (subscription deltas):
    /// when set, RunJob executes this instead of the solver path, with
    /// cancellation disabled (a delta must never half-apply).
    std::function<Result<QueryResult>(ExecContext&)> work;
  };

  /// Everything admission decides a request on.
  struct Admission {
    Status validate;
    std::vector<RelationProfile> profiles;
    uint64_t domain = 2;
    WidthResult width;
    bool plan_hit = false;
    QueryBounds bounds;
    Status admit;
  };

  /// The one admission path Submit and Subscribe share: validate, profile
  /// the relations, plan through the shared PlanCache (with the exact keys
  /// YannakakisSolve uses; Submit's job then runs this plan), then assess
  /// and admit. Each stage is a span on `track` of `tr` (null =
  /// tracing off). Counts the plan-cache lookup, and a refusal as rejected.
  /// Stops after a failed validation.
  Admission AdmitRequest(const QueryRequest& req, obs::TraceSession* tr,
                         uint32_t track);

  /// Admits a subscription delta (FD-aware bounds with the touched
  /// relation's profile replaced by the delta's), queues it, and waits.
  Result<QueryResult> SubmitDelta(StandingSession* ss, int relation_id,
                                  AnyDelta delta);

  void DispatcherLoop();
  /// Pops the runnable job of highest priority (point > general > heavy,
  /// heavy only below the in-flight cap). Caller holds mu_.
  bool PopLocked(Job* out);
  bool RunnableLocked() const;
  void RunJob(Job& job, ExecContext& ctx);

  EngineOptions opts_;
  AdmissionController admission_;

  /// Registry handles resolved once at construction (metric objects are
  /// process-lifetime), so serving-path recording never takes the registry
  /// map lock. Histogram arrays are indexed by QueueClass.
  struct Metrics {
    obs::Counter* submitted = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* cancelled = nullptr;
    obs::Counter* failed = nullptr;
    obs::Counter* admission_rejected = nullptr;
    obs::Counter* plan_hit = nullptr;
    obs::Counter* plan_miss = nullptr;
    obs::Counter* ivm_ring = nullptr;
    obs::Counter* ivm_recompute = nullptr;
    std::array<obs::Histogram*, 3> queue_ms{};
    std::array<obs::Histogram*, 3> exec_ms{};
    obs::Histogram* bound_residual = nullptr;
  };
  Metrics m_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::array<std::deque<Job>, 3> queues_;  // indexed by QueueClass
  int running_heavy_ = 0;
  bool stopping_ = false;
  EngineStats stats_;
  std::shared_ptr<obs::TraceSession> trace_;  // null = tracing off
  std::string trace_path_;                    // written by DisableTracing

  std::vector<std::thread> dispatchers_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_SERVER_ENGINE_H_
