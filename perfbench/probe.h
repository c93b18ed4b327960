// Outside-in layer probes for the traced run, and the roll-up of span self
// time per span name.
//
// The traced run turns on Engine::EnableTracing() (an in-memory session) and
// reads the spans the engine and kernel already emit. On top of that, the
// clients call into single layers from outside on sampled requests — a
// private PlanCache, a private AdmissionController, a fresh ExecContext — so
// the engine's own caches and contexts are never touched, and wrap each call
// in a span of the benchmark's own session. Probe time is kept per client
// and excluded from that client's throughput.
#ifndef TOPOFAQ_PERFBENCH_PROBE_H_
#define TOPOFAQ_PERFBENCH_PROBE_H_

#include <map>
#include <string>
#include <vector>

#include "faq/solvers.h"
#include "ghd/plan_cache.h"
#include "harness.h"
#include "obs/trace.h"
#include "server/admission.h"

namespace perfbench {

/// One Engine call as the client saw it.
struct EngineCall {
  enum Kind : uint8_t { kLookup, kAcyclic, kCyclic, kDelta };
  Kind kind = kLookup;
  double latency_ms = 0;  ///< Solve / ApplyDelta call, end to end
  double queue_ms = 0;
  double exec_ms = 0;
  QueueClass klass = QueueClass::kPoint;
  OpStats kernel;
};

/// The outside-in probe shared by the clients of one traced window. Null
/// session: the probe is off and every hook returns at once.
class LayerProbe {
 public:
  explicit LayerProbe(obs::TraceSession* session)
      : session_(session), admission_(BenchEngineOptions().admission) {}

  bool on() const { return session_ != nullptr; }
  obs::TraceSession* session() const { return session_; }
  uint32_t Track(const std::string& name) {
    return session_ == nullptr ? 0 : session_->RegisterTrack(name);
  }
  /// Every `kSampleEvery`-th request gets the expensive probes (direct
  /// solve); plan lookups are probed on every request so the private cache
  /// sees the engine's request order.
  static constexpr int kSampleEvery = 8;

  /// Outside-in pass over one request: private plan lookup, and on sampled
  /// requests the profile scan, admission assessment and a direct solve at
  /// `parallelism`. Returns the direct plan + solve time in ms (0 when not
  /// sampled) and adds the probe's wall time to `*probe_ms`.
  template <CommutativeSemiring S>
  double Probe(const FaqQuery<S>& q, bool sampled, int parallelism,
               uint32_t track, double* probe_ms) {
    if (session_ == nullptr) return 0.0;
    const auto t0 = Clock::now();
    double direct_ms = 0.0;
    const auto p0 = Clock::now();
    obs::Span plan_sp(session_, "ghd.plan", track);
    Result<WidthResult> w = plans_.PlanFor(q.hypergraph, q.free_vars);
    plan_sp.Close();
    direct_ms += MsSince(p0);
    if (sampled && w.ok()) {
      std::vector<RelationProfile> profiles;
      {
        obs::Span sp(session_, "server.profile", track);
        for (const auto& r : q.relations) profiles.push_back(ProfileRelation(r));
      }
      {
        obs::Span sp(session_, "server.assess", track);
        admission_.Assess(q.hypergraph, profiles, q.free_vars.size(),
                          q.DomainSize(), *w);
      }
      // One private context per client thread, reused like the engine's
      // per-dispatcher contexts.
      thread_local ExecContext ctx;
      ctx.parallelism = parallelism;
      const auto s0 = Clock::now();
      {
        obs::Span sp(session_, "faq.solve", track);
        auto ans = YannakakisSolveOn(q, w->decomposition, &ctx);
        TOPOFAQ_CHECK_MSG(ans.ok(), ans.status().ToString().c_str());
      }
      direct_ms += MsSince(s0);
    }
    *probe_ms += MsSince(t0);
    return sampled ? direct_ms : 0.0;
  }

 private:
  obs::TraceSession* session_;
  PlanCache plans_{128};
  AdmissionController admission_;
};

/// Self time (duration minus the part covered by child spans on the same
/// track) summed per span name, and the plain duration sum and count per
/// name, over the wall-clock events of one session.
struct SpanRollup {
  std::map<std::string, double> self_us;
  std::map<std::string, double> total_us;
  std::map<std::string, int64_t> count;

  double Self(const std::string& n) const { return Get(self_us, n); }
  double Total(const std::string& n) const { return Get(total_us, n); }
  int64_t Count(const std::string& n) const {
    auto it = count.find(n);
    return it == count.end() ? 0 : it->second;
  }
  double MeanUs(const std::string& n) const {
    const int64_t c = Count(n);
    return c > 0 ? Total(n) / static_cast<double>(c) : 0.0;
  }

 private:
  static double Get(const std::map<std::string, double>& m,
                    const std::string& n) {
    auto it = m.find(n);
    return it == m.end() ? 0.0 : it->second;
  }
};

inline SpanRollup RollUp(const std::vector<obs::TraceEvent>& events) {
  std::map<uint32_t, std::vector<const obs::TraceEvent*>> by_track;
  for (const obs::TraceEvent& e : events)
    if (e.domain == obs::ClockDomain::kWall) by_track[e.track].push_back(&e);
  SpanRollup out;
  for (auto& [track, evs] : by_track) {
    std::sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    // Open-span stack; each span subtracts itself from its innermost
    // enclosing span's self time.
    std::vector<double> self(evs.size());
    std::vector<size_t> stack;
    for (size_t i = 0; i < evs.size(); ++i) {
      const obs::TraceEvent* e = evs[i];
      while (!stack.empty()) {
        const obs::TraceEvent* top = evs[stack.back()];
        if (e->ts_us + 1e-3 >= top->ts_us + top->dur_us) {
          stack.pop_back();
        } else {
          break;
        }
      }
      self[i] = e->dur_us;
      if (!stack.empty()) self[stack.back()] -= e->dur_us;
      stack.push_back(i);
    }
    for (size_t i = 0; i < evs.size(); ++i) {
      out.self_us[evs[i]->name] += self[i];
      out.total_us[evs[i]->name] += evs[i]->dur_us;
      ++out.count[evs[i]->name];
    }
  }
  return out;
}

}  // namespace perfbench

#endif  // TOPOFAQ_PERFBENCH_PROBE_H_
