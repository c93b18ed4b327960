#include "server/engine.h"

#include <algorithm>

#include "faq/solvers.h"

namespace topofaq {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

Engine::Engine(EngineOptions opts)
    : opts_(std::move(opts)), admission_(opts_.admission) {
  // Resolve every metric handle now (registry objects are process-lifetime);
  // the serving path then records with relaxed atomics only.
  auto& reg = obs::MetricsRegistry::Shared();
  m_.submitted = &reg.GetCounter("engine.submitted");
  m_.completed = &reg.GetCounter("engine.completed");
  m_.cancelled = &reg.GetCounter("engine.cancelled");
  m_.failed = &reg.GetCounter("engine.failed");
  m_.admission_rejected = &reg.GetCounter("engine.admission.rejected");
  m_.plan_hit = &reg.GetCounter("engine.plan_cache.hit");
  m_.plan_miss = &reg.GetCounter("engine.plan_cache.miss");
  m_.ivm_ring = &reg.GetCounter("engine.ivm.ring_deltas");
  m_.ivm_recompute = &reg.GetCounter("engine.ivm.recompute_deltas");
  for (QueueClass c :
       {QueueClass::kPoint, QueueClass::kGeneral, QueueClass::kHeavy}) {
    const size_t i = static_cast<size_t>(c);
    m_.queue_ms[i] = &reg.GetHistogram(
        obs::LabeledName("engine.queue_ms", "class", QueueClassName(c)));
    m_.exec_ms[i] = &reg.GetHistogram(
        obs::LabeledName("engine.exec_ms", "class", QueueClassName(c)));
  }
  // Residual = (predicted + 1) / (observed + 1): values straddle 1.0 in both
  // directions (the bound is an over-estimate when > 1), so the histogram
  // floor sits at 1/16 rather than the default 1e-3 to keep resolution
  // around 1.
  m_.bound_residual = &reg.GetHistogram("engine.bound.residual_ratio", 0.0625);
  if (!opts_.trace_path.empty()) EnableTracing(opts_.trace_path);
  const int n = std::max(1, opts_.dispatchers);
  dispatchers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    dispatchers_.emplace_back([this] { DispatcherLoop(); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  // Every job has delivered, so the active session (if any) is complete:
  // flush it to the configured path.
  DisableTracing();
}

void Engine::EnableTracing(std::string path) {
  auto s = std::make_shared<obs::TraceSession>();
  std::lock_guard<std::mutex> lock(mu_);
  trace_ = std::move(s);
  trace_path_ = std::move(path);
}

std::shared_ptr<obs::TraceSession> Engine::DisableTracing() {
  std::shared_ptr<obs::TraceSession> s;
  std::string path;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = std::move(trace_);
    path = std::move(trace_path_);
    trace_.reset();
    trace_path_.clear();
  }
  if (s != nullptr && !path.empty()) s->WriteChromeJson(path);
  return s;
}

std::shared_ptr<obs::TraceSession> Engine::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_;
}

std::string Engine::MetricsText() const {
  return obs::MetricsRegistry::Shared().TextDump();
}

Engine::Admission Engine::AdmitRequest(const QueryRequest& req,
                                       obs::TraceSession* tr,
                                       uint32_t track) {
  Admission a;
  {
    obs::Span sp(tr, "validate", track);
    a.validate =
        std::visit([](const auto& q) { return q.Validate(); }, req.query);
  }
  if (!a.validate.ok()) return a;
  const std::vector<VarId>& free_vars = std::visit(
      [](const auto& q) -> const std::vector<VarId>& { return q.free_vars; },
      req.query);
  {
    obs::Span sp(tr, "profile", track);
    std::visit(
        [&a](const auto& q) {
          a.profiles.reserve(q.relations.size());
          for (const auto& r : q.relations)
            a.profiles.push_back(ProfileRelation(r));
          a.domain = q.DomainSize();
        },
        req.query);
  }
  const Hypergraph& h = std::visit(
      [](const auto& q) -> const Hypergraph& { return q.hypergraph; },
      req.query);
  {
    obs::Span sp(tr, "plan", track);
    a.width = PlanCache::Shared().PlanFor(h, free_vars, &a.plan_hit).value();
  }
  (a.plan_hit ? m_.plan_hit : m_.plan_miss)->Add();
  {
    obs::Span sp(tr, "admit", track);
    a.bounds =
        admission_.Assess(h, a.profiles, free_vars.size(), a.domain, a.width);
    a.admit = admission_.Admit(a.bounds);
  }
  if (!a.admit.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejected;
    m_.admission_rejected->Add();
  }
  return a;
}

std::shared_ptr<Session> Engine::Submit(QueryRequest req) {
  auto session = std::make_shared<Session>();
  std::shared_ptr<obs::TraceSession> tr;
  int64_t seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++stats_.submitted;
    m_.submitted->Add();
    if (stopping_) {
      ++stats_.cancelled;
      m_.cancelled->Add();
      session->Deliver(Status::Cancelled("engine is shutting down"));
      return session;
    }
    tr = trace_;
  }

  // With tracing on, this query gets its own track; the whole submission
  // pipeline is one "submit" span with validate / profile / plan / admit
  // children, closed *before* the queue push so the queue_wait span RunJob
  // emits (starting at job.enqueued) never overlaps it.
  uint32_t track = 0;
  if (tr != nullptr)
    track = tr->RegisterTrack(req.tag.empty()
                                  ? "query #" + std::to_string(seq)
                                  : "query " + req.tag);
  obs::Span submit_sp(tr.get(), "submit", track);

  Admission a = AdmitRequest(req, tr.get(), track);
  if (!a.validate.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
    m_.failed->Add();
    session->Deliver(a.validate);
    return session;
  }
  if (!a.admit.ok()) {
    session->Deliver(a.admit);
    return session;
  }
  Job job;
  job.bounds = a.bounds;
  job.klass = admission_.Classify(job.bounds);
  job.req = std::move(req);
  job.session = session;
  job.plan_cache_hit = a.plan_hit;
  job.width = std::move(a.width);
  job.trace = std::move(tr);
  job.trace_track = track;
  // Close before stamping enqueued: the submit span and the queue_wait span
  // RunJob emits (starting at job.enqueued) stay disjoint by construction.
  submit_sp.Close();
  job.enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    queues_[static_cast<size_t>(job.klass)].push_back(std::move(job));
  }
  cv_.notify_one();
  return session;
}

bool Engine::RunnableLocked() const {
  if (!queues_[static_cast<size_t>(QueueClass::kPoint)].empty()) return true;
  if (!queues_[static_cast<size_t>(QueueClass::kGeneral)].empty()) return true;
  return !queues_[static_cast<size_t>(QueueClass::kHeavy)].empty() &&
         running_heavy_ < std::max(1, opts_.heavy_slots);
}

bool Engine::PopLocked(Job* out) {
  for (QueueClass c : {QueueClass::kPoint, QueueClass::kGeneral}) {
    std::deque<Job>& q = queues_[static_cast<size_t>(c)];
    if (!q.empty()) {
      *out = std::move(q.front());
      q.pop_front();
      return true;
    }
  }
  std::deque<Job>& heavy = queues_[static_cast<size_t>(QueueClass::kHeavy)];
  if (!heavy.empty() && running_heavy_ < std::max(1, opts_.heavy_slots)) {
    *out = std::move(heavy.front());
    heavy.pop_front();
    ++running_heavy_;
    return true;
  }
  return false;
}

void Engine::DispatcherLoop() {
  // One context per dispatcher: scratch buffers and the worker arena are
  // reused across every query this thread runs, all under this engine's
  // modes.
  ExecContext ctx;
  ctx.encoding = opts_.encoding;
  ctx.simd = opts_.simd;
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Wake for runnable work, or to exit once shutdown has drained every
      // queue. A heavy backlog behind an occupied slot keeps the thread
      // asleep (not spinning) until the slot-release notify_all.
      auto drained = [this] {
        for (const auto& q : queues_)
          if (!q.empty()) return false;
        return true;
      };
      cv_.wait(lock, [&] { return RunnableLocked() || (stopping_ && drained()); });
      if (!PopLocked(&job)) {
        if (stopping_ && drained()) return;
        continue;
      }
    }
    const bool was_heavy = job.klass == QueueClass::kHeavy;
    RunJob(job, ctx);
    if (was_heavy) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        --running_heavy_;
      }
      cv_.notify_all();  // a heavy slot freed; wake waiting dispatchers
    } else {
      cv_.notify_one();
    }
  }
}

void Engine::RunJob(Job& job, ExecContext& ctx) {
  const auto started = std::chrono::steady_clock::now();
  if (job.trace != nullptr) {
    // The wait interval started back at the enqueue timestamp, so the span
    // is emitted directly with an explicit start rather than through a Span.
    const double ts = job.trace->TimeUs(job.enqueued);
    job.trace->Emit("queue_wait", job.trace_track, obs::ClockDomain::kWall,
                    ts, job.trace->TimeUs(started) - ts);
  }
  ctx.ResetStats();
  ctx.cancel = job.session->cancel_token();
  // Point lookups always run serially: morsel fan-out costs more than the
  // lookup itself, and a serial point query can never be blocked behind the
  // pool by a heavy query's morsels.
  ctx.parallelism =
      job.klass == QueueClass::kPoint ? 1 : std::max(1, opts_.parallelism);
  // Operator and morsel spans of this query land on its track, in the
  // session it was submitted under (null clears the dispatcher context).
  ctx.SetTrace(job.trace.get(), job.trace_track);

  Result<QueryResult> result = [&]() -> Result<QueryResult> {
    obs::Span exec_sp(job.trace.get(), "execute", job.trace_track);
    if (job.work) {
      // Subscription delta: the closure applies it under the session mutex.
      // No cancel token — a delta observed a cancel mid-propagation would
      // leave the standing pass state half-updated.
      ctx.cancel = nullptr;
      return job.work(ctx);
    }
    if (job.session->cancel_requested())
      return Status::Cancelled("query cancelled while queued");
    return std::visit(
        [&](const auto& q) -> Result<QueryResult> {
          auto ans = YannakakisSolveOn(q, job.width.decomposition, &ctx);
          if (!ans.ok()) return ans.status();
          if (ctx.cancelled())
            return Status::Cancelled("query cancelled mid-solve");
          QueryResult out;
          out.observed_rows = ans->size();
          out.answer = *std::move(ans);
          return out;
        },
        job.req.query);
  }();
  ctx.cancel = nullptr;
  ctx.SetTrace(nullptr, 0);

  const auto finished = std::chrono::steady_clock::now();
  const size_t ci = static_cast<size_t>(job.klass);
  m_.queue_ms[ci]->Record(MsSince(job.enqueued, started));
  m_.exec_ms[ci]->Record(MsSince(started, finished));
  if (result.ok()) {
    result->kernel = ctx.Totals();
    result->bounds = job.bounds;
    result->klass = job.klass;
    result->plan_cache_hit = job.plan_cache_hit;
    result->queue_ms = MsSince(job.enqueued, started);
    result->exec_ms = MsSince(started, finished);
    // Predicted-vs-observed residual for real queries (delta jobs assess a
    // different quantity — the delta's own bound). > 1 means the admission
    // bound over-estimated, the safe direction; the +1s keep empty answers
    // finite.
    if (!job.work)
      m_.bound_residual->Record(
          (static_cast<double>(job.bounds.predicted_output_rows) + 1.0) /
          (static_cast<double>(result->observed_rows) + 1.0));
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      ++stats_.completed;
      m_.completed->Add();
    } else if (result.status().code() == StatusCode::kCancelled) {
      ++stats_.cancelled;
      m_.cancelled->Add();
    } else {
      ++stats_.failed;
      m_.failed->Add();
    }
  }
  job.session->Deliver(std::move(result));
}

Result<std::shared_ptr<StandingSession>> Engine::Subscribe(QueryRequest req) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Cancelled("engine is shutting down");
    ++stats_.subscriptions;
  }

  Admission a = AdmitRequest(req, nullptr, 0);
  if (!a.validate.ok()) return a.validate;
  if (!a.admit.ok()) return a.admit;

  // Build the standing state on the calling thread: one full pass, the same
  // work Solve would do, with full kernel parallelism.
  ExecContext ctx;
  ctx.parallelism = std::max(1, opts_.parallelism);
  ctx.encoding = opts_.encoding;
  ctx.simd = opts_.simd;
  return std::visit(
      [&](auto& q) -> Result<std::shared_ptr<StandingSession>> {
        using Sm = typename std::decay_t<decltype(q)>::Semiring;
        auto sq = StandingQuery<Sm>::CreateOn(std::move(q),
                                              a.width.decomposition, &ctx);
        if (!sq.ok()) return sq.status();
        return std::shared_ptr<StandingSession>(new StandingSession(
            this, AnyStandingQuery(*std::move(sq)), std::move(a.profiles),
            a.domain, std::move(a.width)));
      },
      req.query);
}

Result<QueryResult> Engine::SubmitDelta(StandingSession* ss, int relation_id,
                                        AnyDelta delta) {
  if (delta.index() != ss->standing_.index())
    return Status::InvalidArgument(
        "delta semiring does not match the subscription's semiring");
  if (relation_id < 0 ||
      relation_id >= static_cast<int>(ss->profiles_.size()))
    return Status::InvalidArgument("delta targets unknown relation " +
                                   std::to_string(relation_id));

  // FD-aware bounds on the *delta's* profile: assess the query shape with
  // the touched relation swapped for the delta, so admission prices the
  // incremental join work this batch can cause, not the standing database.
  const RelationProfile dp = std::visit(
      [](const auto& d) {
        const RelationProfile rm = ProfileRelation(d.removes);
        const RelationProfile ad = ProfileRelation(d.adds);
        RelationProfile out;
        out.rows = rm.rows + ad.rows;
        out.max_leading_run = std::max(rm.max_leading_run, ad.max_leading_run);
        return out;
      },
      delta);
  std::vector<RelationProfile> profiles;
  size_t num_free = 0;
  const Hypergraph* h = nullptr;
  {
    std::lock_guard<std::mutex> lock(ss->mu_);
    profiles = ss->profiles_;
    std::visit(
        [&](const auto& sq) {
          h = &sq.query().hypergraph;  // shape is immutable after Create
          num_free = sq.query().free_vars.size();
        },
        ss->standing_);
  }
  profiles[static_cast<size_t>(relation_id)] = dp;
  const QueryBounds bounds =
      admission_.Assess(*h, profiles, num_free, ss->domain_, ss->width_);
  const Status admit = admission_.Admit(bounds);
  if (!admit.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deltas_rejected;
    m_.admission_rejected->Add();
    return admit;
  }

  Job job;
  job.bounds = bounds;
  job.klass = admission_.Classify(bounds);
  job.session = std::make_shared<Session>();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job.trace = trace_;
  }
  if (job.trace != nullptr)
    job.trace_track =
        job.trace->RegisterTrack("delta r" + std::to_string(relation_id));
  job.enqueued = std::chrono::steady_clock::now();
  // The caller blocks on Wait() below, so `ss` outlives the closure.
  job.work = [this, ss, relation_id, dp,
              d = std::move(delta)](ExecContext& ctx) mutable
      -> Result<QueryResult> {
    std::lock_guard<std::mutex> lock(ss->mu_);
    QueryResult out;
    const Status applied = std::visit(
        [&](auto& sq) -> Status {
          using Sm = typename std::decay_t<decltype(sq)>::Semiring;
          Delta<Sm>& dd = std::get<Delta<Sm>>(d);
          const StandingStats path_before = sq.stats();
          TOPOFAQ_RETURN_IF_ERROR(
              sq.ApplyDelta(relation_id, std::move(dd), &ctx));
          // Which maintenance path this batch took, as the stats diff
          // (empty deltas take neither).
          const StandingStats path_after = sq.stats();
          m_.ivm_ring->Add(static_cast<uint64_t>(
              path_after.ring_deltas - path_before.ring_deltas));
          m_.ivm_recompute->Add(static_cast<uint64_t>(
              path_after.recompute_deltas - path_before.recompute_deltas));
          out.observed_rows = sq.Current().size();
          // Keep the admission profile current without rescanning: exact
          // row count, monotone upper bound on the leading run.
          RelationProfile& p =
              ss->profiles_[static_cast<size_t>(relation_id)];
          p.rows = sq.query().relations[static_cast<size_t>(relation_id)]
                       .size();
          p.max_leading_run = std::max(p.max_leading_run, dp.max_leading_run);
          return Status::Ok();
        },
        ss->standing_);
    if (!applied.ok()) return applied;
    return out;
  };
  std::shared_ptr<Session> session = job.session;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return Status::Cancelled("engine is shutting down");
    queues_[static_cast<size_t>(job.klass)].push_back(std::move(job));
  }
  cv_.notify_one();
  Result<QueryResult> r = session->Wait();
  if (r.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deltas_applied;
  }
  return r;
}

Result<QueryResult> StandingSession::ApplyDelta(int relation_id,
                                                AnyDelta delta) {
  return engine_->SubmitDelta(this, relation_id, std::move(delta));
}

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  EngineStats s = stats_;
  s.plan_cache = PlanCache::Shared().stats();
  return s;
}

}  // namespace topofaq
