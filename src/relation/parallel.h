// Morsel-parallel execution for the sorted-relation kernel (docs/kernel.md,
// "Morsel-parallel execution").
//
// The operators in ops.h stay sort-merge kernels over canonical traversals;
// this header supplies the fork/join machinery that lets one operator call
// fan its traversal out across cores:
//
//  * WorkerPool — a lazily-created process-wide pool of workers with a
//    work-stealing ParallelFor (atomic task counter). The calling thread is
//    always worker 0, so a pool of zero threads degrades to plain serial
//    execution and parallelism never deadlocks.
//  * KeyAlignedCuts — splits a traversal range [0, n) into morsels whose
//    boundaries never land inside a key run. This is the invariant that
//    makes per-morsel outputs concatenate into the serial result byte for
//    byte: group folds and builder-level adjacent merges can never straddle
//    a cut.
//  * MorselRun — the one emission path of every kernel operator. One
//    worker is the serial loop: the whole traversal into one builder on the
//    caller's context. More workers get one RelationBuilder per morsel, one
//    worker-owned ExecContext per worker (ExecContext's arena), and
//    concatenation through one more builder's AppendChunk, which certifies
//    the result canonical with no closing sort because morsels are disjoint
//    key ranges in traversal order.
//
// Determinism contract: for fixed inputs, operator output bytes (rows and
// annotations) are identical for every parallelism level, including 1 (the
// serial path). Only OpStats::comparisons/seeks/morsels may differ.
#ifndef TOPOFAQ_RELATION_PARALLEL_H_
#define TOPOFAQ_RELATION_PARALLEL_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "relation/exec.h"
#include "relation/relation.h"

namespace topofaq {

/// Persistent fork/join worker pool. One job runs at a time; a ParallelFor
/// issued while the pool is busy (e.g. from a second user thread) runs
/// entirely on the calling thread instead of queueing, so the pool can never
/// deadlock and callers never wait on unrelated work.
class WorkerPool {
 public:
  /// The process-wide pool, created on first use with
  /// max(3, hardware_concurrency - 1) threads (the floor keeps multi-worker
  /// execution — and its TSan coverage — real even on tiny machines).
  static WorkerPool& Shared();

  explicit WorkerPool(int threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Runs fn(worker, task) for every task in [0, n_tasks), on up to
  /// `workers` workers: the calling thread is worker 0 and up to workers-1
  /// pool threads join in. Tasks are claimed through an atomic counter
  /// (work-stealing), so skewed morsels balance automatically. Blocks until
  /// every task has finished; the return establishes a happens-before edge
  /// with all task executions.
  void ParallelFor(int workers, size_t n_tasks,
                   const std::function<void(int, size_t)>& fn);

  /// Largest worker count ParallelFor can put to use (pool threads + 1).
  int max_workers() const { return static_cast<int>(threads_.size()) + 1; }

 private:
  void WorkerLoop(int id);

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, size_t)>* fn_ = nullptr;  // guarded by mu_
  size_t n_tasks_ = 0;                                    // guarded by mu_
  int job_workers_ = 0;   // pool threads participating in the current job
  int active_ = 0;        // pool threads still inside the current job
  uint64_t epoch_ = 0;    // bumped per job so workers wake exactly once
  bool busy_ = false;
  bool stop_ = false;
  std::atomic<size_t> next_task_{0};
};

/// Inputs smaller than this stay on the serial path regardless of the
/// parallelism knob: below it, fork/join overhead dwarfs the morsel work.
inline constexpr size_t kParallelMinRows = 1024;

/// Morsels per worker. More than 1 lets the atomic task counter rebalance
/// skewed key distributions (a worker stuck on a heavy run stops claiming).
inline constexpr size_t kMorselsPerWorker = 4;

/// Workers a single operator call should fan out to: the context's knob,
/// capped by the pool, and 1 (serial) for inputs under kParallelMinRows.
inline int PlannedWorkers(const ExecContext& cx, size_t traversal_rows) {
  if (cx.parallelism <= 1 || traversal_rows < kParallelMinRows) return 1;
  return std::min(cx.parallelism, WorkerPool::Shared().max_workers());
}

/// Splits [0, n) into at most `want` contiguous morsels of roughly equal
/// size, each cut advanced to the next traversal position that starts a new
/// key run (`starts_run(t)` — t in [1, n) — must be true iff position t's key
/// differs from position t-1's). Returns cut points c0=0 < c1 < ... < ck=n.
/// Cuts depend only on the data and `want`, never on thread timing.
template <typename StartsRun>
std::vector<size_t> KeyAlignedCuts(size_t n, size_t want,
                                   StartsRun&& starts_run) {
  std::vector<size_t> cuts{0};
  if (n > 0 && want > 1) {
    const size_t step = std::max<size_t>(1, n / want);
    size_t c = step;
    while (c < n) {
      while (c < n && !starts_run(c)) ++c;
      if (c >= n) break;
      cuts.push_back(c);
      c += step;
    }
  }
  cuts.push_back(n);
  return cuts;
}

/// Deterministic parallel comparator sort of a permutation: chunk sorts on
/// the pool, then pairwise in-place merges. Its one caller is the wide-key
/// fallback of SortPermByColumns (sort_perm.h), for keys that do not pack
/// into 64 bits. `less` MUST be a *total* order (callers tie-break by
/// index), so the sorted sequence is unique and the result is bit-identical
/// to a serial std::sort at every worker count — including workers == 1,
/// which is exactly the serial sort.
template <typename Less>
void ParallelSortPerm(std::vector<size_t>* perm, int workers, Less&& less) {
  const size_t n = perm->size();
  size_t* base = perm->data();
  if (workers <= 1 || n < 2 * kParallelMinRows) {
    std::sort(base, base + n, less);
    return;
  }
  const size_t chunks = static_cast<size_t>(workers);
  std::vector<size_t> bounds(chunks + 1);
  for (size_t i = 0; i <= chunks; ++i) bounds[i] = i * n / chunks;
  WorkerPool::Shared().ParallelFor(workers, chunks, [&](int, size_t i) {
    std::sort(base + bounds[i], base + bounds[i + 1], less);
  });
  // Balanced pairwise merge: log2(chunks) levels, each level's merges
  // independent and run on the pool.
  for (size_t width = 1; width < chunks; width <<= 1) {
    std::vector<std::array<size_t, 3>> jobs;
    for (size_t i = 0; i + width < chunks; i += 2 * width)
      jobs.push_back({bounds[i], bounds[i + width],
                      bounds[std::min(chunks, i + 2 * width)]});
    WorkerPool::Shared().ParallelFor(
        workers, jobs.size(), [&](int, size_t j) {
          std::inplace_merge(base + jobs[j][0], base + jobs[j][1],
                             base + jobs[j][2], less);
        });
  }
}

/// The one emission scaffold of every kernel operator: runs
/// `emit(ctx, begin, end, builder)` over the traversal [0, n) and returns
/// the canonical result.
///
/// `workers <= 1` is the serial path: one emission of [0, n) on the
/// caller's context into one builder — no morsel count, no cancel check, no
/// worker pool. Otherwise the traversal is split at key-run boundaries, each
/// morsel is emitted on the pool into its own RelationBuilder (each worker
/// with its own child context for scratch and stats), and the per-morsel
/// outputs are AppendChunk-ed into one builder — already globally sorted
/// because morsels are disjoint key ranges in traversal order, so its
/// Build() is one zero-dropping pass (an equal boundary row merges with ⊕;
/// out-of-order pieces would fall back to one Canonicalize). The morsel
/// count lands in `cx.*stats`, and every worker's `*stats` rolls up into it.
///
/// Cancellation (server/engine.h): the owning context's cancel token is
/// checked once per morsel, inside the ParallelFor task body, before the
/// morsel's emission runs. Once the token fires, remaining morsels become
/// no-ops (their builders stay empty), so a cancelled parallel operator
/// call returns within one morsel's worth of work. The (empty-ish) result
/// is still structurally canonical but semantically unspecified; solvers
/// check ExecContext::cancelled between operator calls and discard it,
/// surfacing Status::Cancelled instead.
template <CommutativeSemiring S, typename StartsRun, typename Emit>
Relation<S> MorselRun(ExecContext& cx, int workers, Schema schema, size_t n,
                      StartsRun&& starts_run, OpStats ExecContext::*stats,
                      Emit&& emit) {
  if (workers <= 1) {
    RelationBuilder<S> b{std::move(schema)};
    emit(cx, size_t{0}, n, &b);
    return b.Build(&cx);
  }
  std::vector<size_t> cuts =
      KeyAlignedCuts(n, static_cast<size_t>(workers) * kMorselsPerWorker,
                     starts_run);
  const size_t m = cuts.size() - 1;
  std::vector<RelationBuilder<S>> builders;
  builders.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    builders.emplace_back(schema);
    // Pieces are spliced as plain column views — only the concatenated
    // result runs the encoding policy.
    builders.back().set_encode(false);
  }
  // Materialize the worker arena before forking: lazy creation inside the
  // region would race on the arena vector.
  for (int w = 0; w < workers; ++w) cx.WorkerContext(w);
  WorkerPool::Shared().ParallelFor(
      std::min<int>(workers, static_cast<int>(m)), m, [&](int w, size_t t) {
        if (cx.cancelled()) return;  // morsel-boundary cancellation check
        ExecContext& wc = cx.WorkerContext(w);
        // One branch per morsel when tracing is off. When on, each slice
        // becomes a span on worker w's own track (registered by the
        // pre-fork WorkerContext pass above), so the timeline shows how the
        // key-aligned cuts actually balanced.
        if (wc.trace == nullptr) {
          emit(wc, cuts[t], cuts[t + 1], &builders[t]);
          return;
        }
        obs::Span sp(wc.trace, "morsel", wc.trace_track);
        emit(wc, cuts[t], cuts[t + 1], &builders[t]);
        char args[96];
        std::snprintf(args, sizeof(args),
                      "{\"task\":%zu,\"begin\":%zu,\"end\":%zu}", t, cuts[t],
                      cuts[t + 1]);
        sp.SetArgsJson(args);
      });
  OpStats& st = cx.*stats;
  st.morsels += static_cast<int64_t>(m);
  for (int w = 0; w < workers; ++w) {
    OpStats& ws = cx.WorkerContext(w).*stats;
    st += ws;
    ws = OpStats{};
  }
  size_t rows = 0;
  for (const auto& b : builders) rows += b.rows();
  std::vector<ColumnView> cols(schema.arity());
  RelationBuilder<S> out{std::move(schema)};
  out.Reserve(rows);
  for (auto& b : builders) {
    const Relation<S> piece = b.Build(&cx);
    for (size_t j = 0; j < cols.size(); ++j) cols[j] = piece.col(j);
    out.AppendChunk(cols, piece.annots());
  }
  return out.Build(&cx);
}

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_PARALLEL_H_
