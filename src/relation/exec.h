// Execution context for the sorted-relation kernel (see docs/kernel.md).
//
// Every relational operator (Join / Eliminate / MultiwayJoin) threads an
// ExecContext through its hot loop. The context serves four purposes:
//
//  1. Scratch reuse: operators borrow the context's row/permutation buffers
//     instead of allocating per call, so a message-passing pass over a GHD
//     performs O(1) allocations per operator instead of O(rows).
//  2. Observability: per-operator counters (calls, rows in/out, key
//     comparisons, sorts performed vs. skipped, morsels executed) that the
//     protocol layer exports in ProtocolStats and the benches print.
//     `sort_skips` is the direct measure of how often the canonical-order
//     invariant saved a sort; `morsels` of how often the parallel path ran.
//  3. Parallelism: the `parallelism` knob selects how many workers a single
//     operator call may fan morsels out to (docs/kernel.md, "Morsel-parallel
//     execution"). The default is DefaultParallelism() — 1 unless the
//     TOPOFAQ_PARALLELISM environment variable says otherwise — and 1 always
//     means the one-worker morsel run: the whole traversal emitted on this
//     context. Parallel operators borrow per-worker child contexts from the
//     arena below and roll their OpStats back into this context's totals.
//  4. Modes: `encoding` and `simd` are request state, not process state —
//     two engines in one process run their queries under their own modes.
//     Neither changes an operator's answer, only storage or kernel body.
//
// Callers that don't care pass nullptr; operators then fall back to a
// thread-local default context (still reusing scratch across calls).
//
// Thread-safety: a context (with its worker arena) is owned by one logical
// caller at a time — do not share one ExecContext between concurrently
// executing operator calls; use one per calling thread. Operators themselves
// may fan out internally: worker threads only ever touch their own
// WorkerContext(i) plus read-only shared state, and the rollup happens after
// the fork/join barrier, so a parallel operator call is externally
// indistinguishable from a serial one.
#ifndef TOPOFAQ_RELATION_EXEC_H_
#define TOPOFAQ_RELATION_EXEC_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "relation/encoding.h"
#include "util/types.h"

namespace topofaq {

/// Process-wide default operator parallelism, resolved once: the value of the
/// TOPOFAQ_PARALLELISM environment variable ("max" or "0" meaning
/// hardware_concurrency), or 1 when unset/invalid. Freshly constructed
/// ExecContexts start at this value. Defined in server/options.cc — the one
/// file that reads environment knobs (EngineOptions::FromEnv).
int DefaultParallelism();

/// The TOPOFAQ_SIMD default ("on"/"auto"/unset = vector kernels allowed,
/// "off"/"0" = forced scalar), resolved once; fresh ExecContexts start at
/// it. Defined in server/options.cc, like DefaultParallelism().
bool DefaultSimdEnabled();

/// Counters for one operator family. All counts are cumulative since the
/// last ResetStats().
struct OpStats {
  int64_t calls = 0;
  int64_t rows_in = 0;
  int64_t rows_out = 0;
  /// Key comparisons performed: merge/probe steps counted exactly, plus the
  /// deterministic n·ceil(log2 n) work bound per permutation sort — not a
  /// count of comparator calls (the packed radix sort makes none, and the
  /// comparator fallback's workers would race on a per-call count).
  int64_t comparisons = 0;
  /// Permutation sorts that actually ran.
  int64_t sorts = 0;
  /// Sorts avoided because the input was canonical with a key-prefix order.
  int64_t sort_skips = 0;
  /// Morsel tasks executed by the parallel path (0 for purely serial calls).
  int64_t morsels = 0;
  /// Trie gallop searches issued by the worst-case-optimal multiway join
  /// (seek-to-key and run-end probes; 0 for the pairwise operators). For the
  /// multiway operator, `comparisons` counts leapfrog intersection steps:
  /// every key probe made while leapfrogging the active iterators to a
  /// common key.
  int64_t seeks = 0;
  /// High-water rows materialized by one call beyond its inputs (for the
  /// multiway join: rebuilt trie views + the output itself — the measured
  /// form of its peak-materialization-is-the-output guarantee). Combined
  /// with max, not sum, so rollups stay a high-water mark.
  int64_t peak_rows = 0;
  /// Vector blocks retired by the SIMD kernels (relation/simd.h): frontier
  /// intersection blocks, merge-advance probes, window decodes. 0 when the
  /// context's `simd` switch is off or the host lacks AVX2.
  int64_t simd_blocks = 0;
  /// Hot-loop iterations that were eligible for a vector kernel but ran the
  /// scalar body instead (switch off, no AVX2, or an ineligible column
  /// shape — e.g. a permuted or encoded merge side).
  int64_t scalar_fallbacks = 0;

  OpStats& operator+=(const OpStats& o) {
    calls += o.calls;
    rows_in += o.rows_in;
    rows_out += o.rows_out;
    comparisons += o.comparisons;
    sorts += o.sorts;
    sort_skips += o.sort_skips;
    morsels += o.morsels;
    seeks += o.seeks;
    peak_rows = peak_rows > o.peak_rows ? peak_rows : o.peak_rows;
    simd_blocks += o.simd_blocks;
    scalar_fallbacks += o.scalar_fallbacks;
    return *this;
  }
};

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Maximum workers one operator call may use. 1 (the default unless
  /// TOPOFAQ_PARALLELISM is set) emits every operator on this context, with
  /// no morsels; values > 1 let large inputs fan out into key-aligned
  /// morsels. Operator results are bit-identical for every setting.
  int parallelism = DefaultParallelism();

  /// Encoding policy of every relation canonicalized or built through this
  /// context (Relation::Canonicalize / EncodeColumns, RelationBuilder::Build).
  /// Starts at DefaultEncodingMode().
  EncodingMode encoding = DefaultEncodingMode();
  /// Whether operators on this context may run the vector kernel bodies
  /// (relation/simd.h); they also need an AVX2 host (simd::Available).
  bool simd = DefaultSimdEnabled();

  /// Cooperative cancellation seam (server/engine.h): when non-null and set,
  /// the query that owns this context has been cancelled. The parallel
  /// scaffold checks it at every morsel boundary (MorselRun skips the
  /// morsel's emission entirely), and the solvers check it between operator
  /// calls; once it fires, operator outputs are unspecified and the caller
  /// must discard them and surface Status::Cancelled. Never consulted when
  /// null, so existing callers are untouched. Borrowed, not owned: the flag
  /// must outlive every operator call made through this context.
  const std::atomic<bool>* cancel = nullptr;
  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// Span sink (obs/trace.h): when non-null, every public operator call and
  /// every morsel slice records a wall-clock span carrying its OpStats delta
  /// onto `trace_track`. Null (the default) is tracing off, and every span
  /// site then costs exactly one branch — the overhead contract
  /// bench/bench_obs_overhead.cc gates. Borrowed, not owned: the session
  /// must outlive every operator call made through this context (the engine
  /// snapshots a shared_ptr per job for exactly this reason).
  obs::TraceSession* trace = nullptr;
  /// The track operator spans from this context land on (a per-query track
  /// for engine jobs; per-worker tracks for morsel spans — WorkerContext
  /// registers those lazily).
  uint32_t trace_track = 0;
  /// Bumped by SetTrace so worker contexts re-register their tracks even
  /// when a new session lands at a freed session's address (a context that
  /// outlives many sessions — the engine's per-dispatcher contexts — would
  /// otherwise keep stale track ids on pointer equality alone).
  uint32_t trace_epoch = 0;

  /// Installs (or clears, with nullptr) the span sink. Always use this
  /// rather than assigning `trace` directly — the epoch bump is what keeps
  /// the worker arena's per-thread tracks in sync across sessions.
  void SetTrace(obs::TraceSession* t, uint32_t track) {
    trace = t;
    trace_track = track;
    ++trace_epoch;
  }

  // Per-operator statistics.
  OpStats join;
  OpStats eliminate;
  OpStats multiway;

  // Scratch buffers borrowed by operators; contents are undefined between
  // calls. perm_a/perm_b hold row-order permutations, pos_* hold column
  // positions, cols_* hold the per-column base-pointer views the columnar
  // kernel traverses (borrowed from the input relations for the duration of
  // one call), row is the output-row assembly buffer.
  std::vector<size_t> perm_a;
  std::vector<size_t> perm_b;
  std::vector<int> pos_a;
  std::vector<int> pos_b;
  std::vector<int> pos_c;
  std::vector<const Value*> cols_a;
  std::vector<const Value*> cols_b;
  std::vector<const Value*> cols_c;
  std::vector<const Value*> cols_d;
  std::vector<const Value*> cols_e;
  // ColView counterparts of cols_* for the encoded kernel instantiations
  // (relations with compressed columns traverse views, never raw pointers).
  std::vector<ColView> vcols_a;
  std::vector<ColView> vcols_b;
  std::vector<ColView> vcols_c;
  std::vector<ColView> vcols_d;
  std::vector<ColView> vcols_e;
  std::vector<Value> row;
  /// Decoded copies of the encoded columns a factor Eliminate reads (one
  /// buffer per column); their capacity is kept across calls.
  std::vector<std::vector<Value>> raw_cols;
  /// Per-shard open-addressing run directories (key hash → key-run start +
  /// 1): shard s covers one key-aligned range of the probed side and is
  /// built by one worker; a one-worker join uses shard 0 alone.
  std::vector<std::vector<uint64_t>> table_shards;

  /// The i-th worker's child context, created on first use and reused across
  /// operator calls. Worker contexts always have parallelism == 1 (no nested
  /// fan-out) and inherit this context's cancel token and modes; parallel
  /// operators hand context i exclusively to worker i for the duration of
  /// one fork/join region and roll its stats up afterwards.
  ExecContext& WorkerContext(int i);

  /// Sum of all operator counters (the protocol-level rollup).
  OpStats Totals() const;

  void ResetStats();

  std::string DebugString() const;

  /// `ctx` if non-null, otherwise a thread-local shared context.
  static ExecContext& Resolve(ExecContext* ctx);

 private:
  std::vector<std::unique_ptr<ExecContext>> workers_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_EXEC_H_
