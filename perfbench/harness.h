// Shared pieces of the layered benchmark binary: clocks, sample sets and
// their quantiles, byte-level answer comparison, the op ledger every
// workload fills, and the metric line printer.
#ifndef TOPOFAQ_PERFBENCH_HARNESS_H_
#define TOPOFAQ_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "relation/relation.h"
#include "server/engine.h"
#include "util/rng.h"

namespace perfbench {

using namespace topofaq;  // NOLINT: the benchmark is one translation unit
using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// One set of latency samples (milliseconds).
class Samples {
 public:
  void Add(double ms) { v_.push_back(ms); }
  void Append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }
  double Mean() const {
    double s = 0;
    for (double x : v_) s += x;
    return v_.empty() ? 0.0 : s / static_cast<double>(v_.size());
  }
  /// Linear-interpolated quantile (q in [0, 1]); 0 for an empty set.
  double Quantile(double q) const {
    if (v_.empty()) return 0.0;
    std::vector<double> s = v_;
    std::sort(s.begin(), s.end());
    const double pos = q * static_cast<double>(s.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, s.size() - 1);
    return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
  }

 private:
  std::vector<double> v_;
};

/// Samples split into strata (query type, delta target and direction, ...).
/// MeanOfMedians averages the per-stratum medians: unlike the median of the
/// pooled samples it never lands in the gap between two strata whose costs
/// differ, and it moves when any single stratum moves.
class Strata {
 public:
  void Add(const std::string& stratum, double ms) { by_[stratum].Add(ms); }
  void Append(const Strata& o) {
    for (const auto& [name, samples] : o.by_) by_[name].Append(samples);
  }
  double MeanOfMedians() const {
    if (by_.empty()) return 0.0;
    double s = 0;
    for (const auto& [name, samples] : by_) s += samples.Quantile(0.5);
    return s / static_cast<double>(by_.size());
  }
  size_t size() const {
    size_t n = 0;
    for (const auto& [name, samples] : by_) n += samples.size();
    return n;
  }
  Samples Pooled() const {
    Samples all;
    for (const auto& [name, samples] : by_) all.Append(samples);
    return all;
  }
  /// "name: median x count" per stratum, for diagnostics.
  std::string Describe() const {
    std::string out;
    char buf[128];
    for (const auto& [name, samples] : by_) {
      std::snprintf(buf, sizeof(buf), "%s%s: %.4f x %zu", out.empty() ? "" : ", ",
                    name.c_str(), samples.Quantile(0.5), samples.size());
      out += buf;
    }
    return out;
  }

 private:
  std::map<std::string, Samples> by_;
};

/// Key columns and annotation bytes equal, schema for schema: the answer
/// check every op runs against its oracle.
template <CommutativeSemiring S>
bool SameBytes(const Relation<S>& a, const Relation<S>& b) {
  if (a.schema().vars() != b.schema().vars() || a.size() != b.size())
    return false;
  if (a.columns() != b.columns()) return false;
  return a.size() == 0 ||
         std::memcmp(a.annots().data(), b.annots().data(),
                     a.size() * sizeof(typename S::Value)) == 0;
}

inline bool SameBytes(const AnyRelation& a, const AnyRelation& b) {
  if (a.index() != b.index()) return false;
  return std::visit(
      [&b](const auto& ra) {
        using R = std::decay_t<decltype(ra)>;
        return SameBytes(ra, std::get<R>(b));
      },
      a);
}

/// Attempted and failed ops of one client. A refused, failed or mismatched
/// op counts as failed.
struct OpLedger {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const OpLedger& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// Zipf(s) sampler over ranks [0, n).
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double acc = 0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  size_t Draw(Rng* rng) const {
    const double u = rng->NextDouble();
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return std::min(r, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Named metrics in print order, each with its unit.
class MetricSet {
 public:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  const std::vector<Item>& items() const { return items_; }

  void Set(const std::string& name, double value, const char* unit) {
    for (auto& m : items_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    items_.push_back({name, value, unit});
  }
  /// Per metric, the median of its values over `sets` (all holding the
  /// same names in the same order).
  static MetricSet Median(const std::vector<MetricSet>& sets) {
    MetricSet out;
    if (sets.empty()) return out;
    for (size_t i = 0; i < sets[0].items_.size(); ++i) {
      Samples s;
      for (const MetricSet& m : sets) s.Add(m.items_[i].value);
      out.Set(sets[0].items_[i].name, s.Quantile(0.5), sets[0].items_[i].unit);
    }
    return out;
  }
  /// "name=value" per metric, for diagnostics.
  std::string Describe() const {
    std::string out;
    char buf[128];
    for (const Item& m : items_) {
      std::snprintf(buf, sizeof(buf), "%s%s=%.4g", out.empty() ? "" : " ",
                    m.name.c_str(), m.value);
      out += buf;
    }
    return out;
  }
  std::string Json() const {
    std::string out = "{";
    char buf[256];
    for (size_t i = 0; i < items_.size(); ++i) {
      const double v = std::isfinite(items_[i].value) ? items_[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", items_[i].name.c_str(), v,
                    items_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  std::vector<Item> items_;
};

/// Fixed work of the benchmark's own (no library code): a sort of 32k
/// keys and a dependent walk through 4 MB. Its wall time tracks how fast the
/// host runs this process at the moment.
class HostReference {
 public:
  HostReference() : keys_(1 << 15), next_(1 << 20) {
    Rng rng(0x4ef);
    for (uint64_t& k : keys_) k = rng.NextU64();
    for (uint32_t& n : next_) n = static_cast<uint32_t>(rng.NextU64(next_.size()));
  }
  double RunMs() {
    const auto t0 = Clock::now();
    std::vector<uint64_t> v = keys_;
    std::sort(v.begin(), v.end());
    uint32_t p = static_cast<uint32_t>(v[7] % next_.size());
    for (int i = 0; i < 100000; ++i) p = next_[p];
    sink_ += p;
    return MsSince(t0);
  }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint32_t> next_;
  uint64_t sink_ = 0;
};

/// The explicit engine configuration every workload runs under: at most
/// four runnable threads on a four-core host, no environment lookups.
inline EngineOptions BenchEngineOptions() {
  EngineOptions o;
  o.parallelism = 2;
  o.dispatchers = 2;
  o.heavy_slots = 1;
  o.encoding = EncodingMode::kAuto;
  o.simd = true;
  o.page_budget = 8;
  o.trace_path.clear();
  return o;
}

/// Kernel parallelism for direct (outside-the-engine) solver calls.
inline constexpr int kDirectParallelism = 2;

}  // namespace perfbench

#endif  // TOPOFAQ_PERFBENCH_HARNESS_H_
