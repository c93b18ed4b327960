#include "server/admission.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <string>

namespace topofaq {

namespace {

/// log2 with the convention log2(0) = 0 (an empty relation joins to an
/// empty output; the chain bound handles that via the 0-row factor anyway).
double Log2(uint64_t v) {
  return v <= 1 ? 0.0 : std::log2(static_cast<double>(v));
}

}  // namespace

QueryBounds AdmissionController::Assess(
    const Hypergraph& h, const std::vector<RelationProfile>& profiles,
    size_t num_free_vars, uint64_t domain, const WidthResult& width) const {
  QueryBounds b;
  b.y = width.internal_nodes;
  // The plan's GYO reduction already decided acyclicity.
  b.cyclic = !width.decomposition.core_forest.gyo.acyclic;
  b.n2 = width.n2;
  for (const RelationProfile& p : profiles)
    b.max_input_rows = std::max(b.max_input_rows, p.rows);

  // Union-find over edges keyed by shared variables: chain bounds multiply
  // only within a variable-connected component.
  const int m = h.num_edges();
  std::vector<int> parent(m);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<int(int)> find = [&](int x) {
    return parent[x] == x ? x : parent[x] = find(parent[x]);
  };
  std::vector<int> var_owner(static_cast<size_t>(h.num_vertices()), -1);
  for (int e = 0; e < m; ++e)
    for (VarId v : h.edge(e)) {
      if (var_owner[v] < 0)
        var_owner[v] = e;
      else
        parent[find(e)] = find(var_owner[v]);
    }

  double chain_log2 = 0.0;
  std::vector<bool> bound(static_cast<size_t>(h.num_vertices()), false);
  std::vector<int> order(static_cast<size_t>(m));
  std::iota(order.begin(), order.end(), 0);
  // Ascending input size: starting each component's chain from its smallest
  // relation tightens the product (stable sort keeps ties deterministic).
  std::stable_sort(order.begin(), order.end(), [&](int a, int b2) {
    return profiles[static_cast<size_t>(a)].rows <
           profiles[static_cast<size_t>(b2)].rows;
  });
  for (int root = 0; root < m; ++root) {
    if (find(root) != root) continue;
    for (int e : order) {
      if (find(e) != root) continue;
      const RelationProfile& p = profiles[static_cast<size_t>(e)];
      const std::vector<VarId>& vars = h.edge(e);
      const bool all_bound =
          std::all_of(vars.begin(), vars.end(),
                      [&](VarId v) { return bound[v]; });
      if (all_bound) {
        // Factor 1: every variable is determined, the edge only filters.
      } else if (!vars.empty() && bound[vars.front()]) {
        // Leading key bound: at most max_leading_run matches per key.
        chain_log2 += Log2(p.max_leading_run);
      } else {
        chain_log2 += Log2(p.rows);
      }
      for (VarId v : vars) bound[v] = true;
    }
  }

  const double domain_log2 =
      static_cast<double>(num_free_vars) * Log2(std::max<uint64_t>(domain, 2));
  b.log2_output = std::min(chain_log2, domain_log2);
  b.predicted_output_rows =
      b.log2_output >= 63.0
          ? std::numeric_limits<uint64_t>::max()
          : static_cast<uint64_t>(std::ceil(std::exp2(b.log2_output)));
  return b;
}

Status AdmissionController::Admit(const QueryBounds& b) const {
  if (opts_.max_predicted_output_rows > 0 &&
      b.predicted_output_rows > opts_.max_predicted_output_rows)
    return Status::ResourceExhausted(
        "FD-aware output bound " + std::to_string(b.predicted_output_rows) +
        " rows exceeds max_predicted_output_rows=" +
        std::to_string(opts_.max_predicted_output_rows));
  if (opts_.max_width >= 0 && b.y > opts_.max_width)
    return Status::ResourceExhausted(
        "internal-node-width y(H)=" + std::to_string(b.y) +
        " exceeds max_width=" + std::to_string(opts_.max_width));
  return Status::Ok();
}

QueueClass AdmissionController::Classify(const QueryBounds& b) const {
  if (b.cyclic || b.predicted_output_rows >= opts_.heavy_output_rows_min ||
      b.max_input_rows >= opts_.heavy_input_rows_min)
    return QueueClass::kHeavy;
  if (b.predicted_output_rows <= opts_.point_output_rows_max &&
      b.max_input_rows <= opts_.point_input_rows_max)
    return QueueClass::kPoint;
  return QueueClass::kGeneral;
}

}  // namespace topofaq
