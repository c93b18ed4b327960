// Decomposition plan cache: repeated query *shapes* skip GYO/width work.
//
// ComputeWidth / MinimizeWidthWithRoot are pure functions of the hypergraph
// shape (plus the root constraint and search parameters), yet every
// YannakakisSolve call used to recompute them from scratch — for a serving
// workload where the same handful of query shapes arrives millions of times
// (server/engine.h), that is decomposition work on every request. PlanCache
// memoizes WidthResult values behind a canonical shape fingerprint:
//
//   key  = (num_vertices, edge list in insertion order, required root vars,
//           restarts, seed)
//   value = the WidthResult those inputs deterministically produce
//
// Insertion order of edges matters (H is a multi-hypergraph and the
// decomposition's edge ids index the query's relation list), so the
// fingerprint preserves it. Both lookup paths are deterministic, so a cache
// hit returns bit-identical plans — answers computed through the cache are
// byte-equal to answers computed without it.
//
// Thread-safe (one mutex; values are copied out), LRU-bounded, with
// hit/miss/eviction counters the engine exports (EngineStats) and the
// QueryResult records per query (`plan_cache_hit`).
#ifndef TOPOFAQ_GHD_PLAN_CACHE_H_
#define TOPOFAQ_GHD_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ghd/width.h"

namespace topofaq {

class PlanCache {
 public:
  explicit PlanCache(size_t capacity = 128) : capacity_(capacity) {}
  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  /// The process-wide cache YannakakisSolve routes through. Engines default
  /// to this instance so direct solver calls and engine calls share plans.
  static PlanCache& Shared();

  /// Cached ComputeWidth(h): the canonical flattened GYO-GHD. When
  /// `was_hit` is non-null it reports whether this lookup was served from
  /// cache (the engine stamps it into QueryResult::plan_cache_hit).
  WidthResult Canonical(const Hypergraph& h, bool* was_hit = nullptr);

  /// The one planning rule every execution surface shares (YannakakisSolve,
  /// Engine::Submit, StandingQuery::Create): F = ∅ takes the canonical
  /// decomposition, non-empty F takes the MinimizeWidthWithRoot search with
  /// fixed restarts/seed — identical keys on every path, so a query shape
  /// planned by any surface is a cache hit for all of them, and all of them
  /// execute the same (bit-identical) plan. Every H gets a plan, so the
  /// result is always ok.
  Result<WidthResult> PlanFor(const Hypergraph& h,
                              const std::vector<VarId>& free_vars,
                              bool* was_hit = nullptr);

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    double HitRate() const {
      const int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }
  };
  Stats stats() const;

  size_t size() const;
  void Clear();

  /// The canonical shape fingerprint (exposed for tests and the admission
  /// controller, which keys its own per-shape memo off the same string).
  static std::string Fingerprint(const Hypergraph& h,
                                 const std::vector<VarId>& root_vars,
                                 int restarts, uint64_t seed);

 private:
  /// Returns the cached value for `key`, else computes it via `compute`
  /// (outside the lock — decomposition search can be slow) and inserts it.
  template <typename Compute>
  WidthResult GetOrCompute(const std::string& key, Compute&& compute,
                           bool* was_hit);

  mutable std::mutex mu_;
  size_t capacity_;
  /// LRU list, most recent first; map values point into the list.
  std::list<std::pair<std::string, WidthResult>> lru_;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, WidthResult>>::iterator>
      by_key_;
  Stats stats_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_GHD_PLAN_CACHE_H_
