// Admission control: predict a query's cost from the paper's structural
// quantities *before* running it, reject work that would blow a budget, and
// classify the rest into priority queues.
//
// The predictor combines two bounds, taking the smaller:
//
//  * Domain bound: |output| <= D^|F| — the free variables can take at most
//    D values each (the paper's log2 D per-attribute cost).
//  * FD-aware chain bound: per variable-connected component of H, order the
//    edges by ascending input size and walk the chain. The first edge
//    contributes its full row count; a later edge whose leading schema
//    variable is already bound by earlier edges contributes at most its
//    longest leading-key run (the relation's worst-case "matches per bound
//    key" — a degree constraint read off the canonical sorted column); an
//    edge whose variables are all already bound contributes a factor of 1
//    (it can only filter). Components multiply (they share no variables).
//    This is the GLV-style degree-aware refinement of the AGM-flavored
//    product bound, computed from O(1) per-relation statistics.
//
// Both are upper bounds on distinct output tuples, so their min is too.
// Everything here is data the engine already has: relation profiles are one
// O(rows) scan (done once per Submit), the width result comes from the plan
// cache, so admission adds no decomposition work to the hot path.
#ifndef TOPOFAQ_SERVER_ADMISSION_H_
#define TOPOFAQ_SERVER_ADMISSION_H_

#include <cstdint>
#include <vector>

#include "ghd/width.h"
#include "hypergraph/hypergraph.h"
#include "relation/relation.h"
#include "relation/sort_perm.h"
#include "server/options.h"
#include "util/status.h"

namespace topofaq {

/// O(1) statistics the predictor needs from one input relation.
struct RelationProfile {
  uint64_t rows = 0;
  /// Longest run of one value in the leading (lowest-VarId) key column: the
  /// worst-case number of tuples matching a bound leading key. 1 for empty
  /// or nullary relations (a scalar matches at most once).
  uint64_t max_leading_run = 1;
};

/// Scans r's leading column once (canonical order ⇒ equal keys are
/// contiguous, so the longest run is the max matches-per-key degree). Equal
/// values have equal codes within a column, so an encoded column's runs are
/// read off its codes, unpacked block-wise, with nothing decoded.
template <CommutativeSemiring S>
RelationProfile ProfileRelation(const Relation<S>& r) {
  RelationProfile p;
  p.rows = r.size();
  if (r.arity() == 0 || r.size() == 0) return p;
  uint64_t run = 0;
  uint64_t prev = 0;
  internal::ForEachKey<EncodedAccess>(
      r.view(0), r.size(), [&](size_t i, uint64_t key) {
        run = (i > 0 && key == prev) ? run + 1 : 1;
        prev = key;
        if (run > p.max_leading_run) p.max_leading_run = run;
      });
  return p;
}

/// What admission predicted for one query; carried on the QueryResult so
/// callers can compare predicted vs observed.
struct QueryBounds {
  int y = 0;   ///< internal-node-width of the cached decomposition
  int n2 = 0;  ///< |V(C(H))| of the cached decomposition
  /// GYO-cyclic (residual core non-empty), read off the plan's own GYO
  /// reduction. Note y >= 1 does NOT mean cyclic: every multi-edge acyclic
  /// H already has internal join-tree nodes.
  bool cyclic = false;
  /// log2 of the output-size bound (min of domain and chain bounds).
  double log2_output = 0.0;
  /// 2^log2_output, saturated at uint64 max.
  uint64_t predicted_output_rows = 0;
  /// Largest input relation (the paper's N).
  uint64_t max_input_rows = 0;
};

/// Priority classes, highest priority first. Strict-priority dispatch with a
/// capped number of in-flight kHeavy queries is what keeps point-lookup
/// latency flat while cyclic analytics churn (tests/engine_test.cc,
/// bench/bench_engine_concurrent.cc).
enum class QueueClass { kPoint = 0, kGeneral = 1, kHeavy = 2 };

inline const char* QueueClassName(QueueClass c) {
  switch (c) {
    case QueueClass::kPoint:
      return "point";
    case QueueClass::kGeneral:
      return "general";
    case QueueClass::kHeavy:
      return "heavy";
  }
  return "?";
}

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions opts) : opts_(opts) {}

  /// Evaluates the bounds for one query shape + data profile. `width` is the
  /// decomposition YannakakisSolve will execute (from the plan cache);
  /// `num_free_vars` and `domain` feed the D^|F| bound.
  QueryBounds Assess(const Hypergraph& h,
                     const std::vector<RelationProfile>& profiles,
                     size_t num_free_vars, uint64_t domain,
                     const WidthResult& width) const;

  /// Ok, or ResourceExhausted naming the violated bound and its budget.
  Status Admit(const QueryBounds& b) const;

  QueueClass Classify(const QueryBounds& b) const;

  const AdmissionOptions& options() const { return opts_; }

 private:
  AdmissionOptions opts_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_SERVER_ADMISSION_H_
