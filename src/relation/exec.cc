#include "relation/exec.h"

#include "obs/op_format.h"

// The Default*() values a fresh context starts at are defined in
// server/options.cc, the one file that reads environment knobs.

namespace topofaq {

OpStats ExecContext::Totals() const {
  OpStats t;
  t += join;
  t += eliminate;
  t += multiway;
  return t;
}

void ExecContext::ResetStats() {
  join = OpStats{};
  eliminate = OpStats{};
  multiway = OpStats{};
}

ExecContext& ExecContext::WorkerContext(int i) {
  while (workers_.size() <= static_cast<size_t>(i)) {
    auto ctx = std::make_unique<ExecContext>();
    ctx->parallelism = 1;  // workers never fan out again
    workers_.push_back(std::move(ctx));
  }
  // Workers observe the owner's current cancel token, modes and trace
  // session (any may be installed after the arena was first materialized,
  // or swapped between queries when an engine reuses a context). Worker i's
  // spans get their own per-thread track, registered once per session; the
  // fork/join contract (worker i touched only by one thread per region)
  // makes this lazy registration race-free.
  ExecContext& w = *workers_[static_cast<size_t>(i)];
  w.cancel = cancel;
  w.encoding = encoding;
  w.simd = simd;
  if (w.trace != trace || w.trace_epoch != trace_epoch) {
    w.trace = trace;
    w.trace_epoch = trace_epoch;
    w.trace_track =
        trace != nullptr
            ? trace->RegisterTrack("worker " + std::to_string(i))
            : 0;
  }
  return w;
}

std::string ExecContext::DebugString() const {
  std::string out;
  out += obs::FormatOpStats("join", join);
  out += obs::FormatOpStats("eliminate", eliminate);
  out += obs::FormatOpStats("multiway", multiway);
  return out;
}

ExecContext& ExecContext::Resolve(ExecContext* ctx) {
  if (ctx != nullptr) return *ctx;
  thread_local ExecContext default_ctx;
  return default_ctx;
}

}  // namespace topofaq
