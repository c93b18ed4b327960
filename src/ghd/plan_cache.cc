#include "ghd/plan_cache.h"

#include <algorithm>

namespace topofaq {

PlanCache& PlanCache::Shared() {
  static PlanCache cache;
  return cache;
}

std::string PlanCache::Fingerprint(const Hypergraph& h,
                                   const std::vector<VarId>& root_vars,
                                   int restarts, uint64_t seed) {
  // Edge insertion order is preserved: the decomposition's edge ids index
  // the query's relation list, so two hypergraphs with the same edge *set*
  // but different order are different shapes.
  std::string fp;
  fp.reserve(16 + static_cast<size_t>(h.num_edges()) * 8);
  fp += "V" + std::to_string(h.num_vertices());
  for (int e = 0; e < h.num_edges(); ++e) {
    fp += ";e";
    for (VarId v : h.edge(e)) {
      fp += std::to_string(v);
      fp += ',';
    }
  }
  fp += ";F";
  for (VarId v : root_vars) {
    fp += std::to_string(v);
    fp += ',';
  }
  fp += ";r" + std::to_string(restarts) + ";s" + std::to_string(seed);
  return fp;
}

template <typename Compute>
WidthResult PlanCache::GetOrCompute(const std::string& key, Compute&& compute,
                                    bool* was_hit) {
  if (was_hit != nullptr) *was_hit = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_key_.find(key);
    if (it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
      ++stats_.hits;
      if (was_hit != nullptr) *was_hit = true;
      return it->second->second;
    }
    ++stats_.misses;
  }
  // Compute outside the lock: decomposition search over a large shape must
  // not serialize unrelated lookups. Two threads may race to compute the
  // same shape; both results are deterministic and identical, so whichever
  // insert lands last is indistinguishable from a single compute.
  WidthResult value = compute();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, value);
  by_key_[key] = lru_.begin();
  while (capacity_ > 0 && lru_.size() > capacity_) {
    by_key_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return value;
}

WidthResult PlanCache::Canonical(const Hypergraph& h, bool* was_hit) {
  const std::string key = Fingerprint(h, {}, /*restarts=*/-1, /*seed=*/0);
  return GetOrCompute(key, [&] { return ComputeWidth(h); }, was_hit);
}

Result<WidthResult> PlanCache::PlanFor(const Hypergraph& h,
                                       const std::vector<VarId>& free_vars,
                                       bool* was_hit) {
  if (free_vars.empty()) return Canonical(h, was_hit);
  constexpr int kRestarts = 4;
  constexpr uint64_t kSeed = 1;
  std::vector<VarId> f = free_vars;
  std::sort(f.begin(), f.end());
  return GetOrCompute(
      Fingerprint(h, f, kRestarts, kSeed),
      [&] { return MinimizeWidthWithRoot(h, f, kRestarts, kSeed); }, was_hit);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  by_key_.clear();
  stats_ = Stats{};
}

}  // namespace topofaq
