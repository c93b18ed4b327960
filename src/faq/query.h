// FAQ queries (Eq. (1.0)/(4) of the paper): a multi-hypergraph H, one input
// function (relation in listing representation) per hyperedge, a set of free
// variables F, and a per-bound-variable aggregate ⊕(i).
//
// Specializations (Appendix G.1): BCQ (Boolean semiring, F = ∅), natural
// join (Boolean, F = V), semijoin, and PGM variable/factor marginals
// (counting semiring, F = {v} or F = e).
#ifndef TOPOFAQ_FAQ_QUERY_H_
#define TOPOFAQ_FAQ_QUERY_H_

#include <algorithm>
#include <string>
#include <vector>

#include "hypergraph/hypergraph.h"
#include "relation/ops.h"
#include "relation/relation.h"
#include "semiring/variable_ops.h"
#include "util/status.h"

namespace topofaq {

/// An FAQ instance over semiring S. For FAQ-SS every bound variable uses
/// VarOp::kSemiringSum; general FAQ may assign kMax/kMin/kProduct per
/// variable (Eq. (4)), subject to the push-down conditions of Theorem G.1.
template <CommutativeSemiring S>
struct FaqQuery {
  using Semiring = S;

  Hypergraph hypergraph;
  /// relations[e] has schema == hypergraph.edge(e) (sorted variable order).
  std::vector<Relation<S>> relations;
  /// Free variables F ⊆ V; the answer is a relation over F (a scalar
  /// annotation on the empty tuple when F = ∅).
  std::vector<VarId> free_vars;
  /// Aggregate per vertex id; consulted only for bound variables.
  std::vector<VarOp> var_ops;

  /// Structural checks: one relation per edge with matching schema; free
  /// variables exist, are distinct and occur in some edge; var_ops sized to
  /// the vertex count.
  Status Validate() const {
    if (static_cast<int>(relations.size()) != hypergraph.num_edges())
      return Status::InvalidArgument("need exactly one relation per hyperedge");
    for (int e = 0; e < hypergraph.num_edges(); ++e)
      if (relations[e].schema().vars() != hypergraph.edge(e))
        return Status::InvalidArgument("relation schema != hyperedge " +
                                       std::to_string(e));
    for (size_t i = 0; i < free_vars.size(); ++i) {
      const VarId v = free_vars[i];
      if (v >= static_cast<VarId>(hypergraph.num_vertices()))
        return Status::InvalidArgument("free variable out of range");
      // The answer is a relation over F: each free variable needs a column
      // some input supplies, and one column per variable.
      if (hypergraph.Degree(v) == 0)
        return Status::InvalidArgument("free variable " + std::to_string(v) +
                                       " occurs in no hyperedge");
      if (std::find(free_vars.begin(), free_vars.begin() + i, v) !=
          free_vars.begin() + i)
        return Status::InvalidArgument("free variable " + std::to_string(v) +
                                       " listed twice");
    }
    if (var_ops.size() != static_cast<size_t>(hypergraph.num_vertices()))
      return Status::InvalidArgument("var_ops must cover every vertex");
    // Product aggregates (⊕(i) = ⊗) cannot be pushed below a join without
    // the indicator-function rewriting of Abo Khamis et al.: for a group
    // with m matching tuples, ⊗ over the joined rows contributes the other
    // factors to the m-th power. We support the semiring aggregates
    // (sum/min/max), which cover every experiment in the paper.
    for (VarId v = 0; v < static_cast<VarId>(hypergraph.num_vertices()); ++v) {
      const bool is_free = std::find(free_vars.begin(), free_vars.end(), v) !=
                           free_vars.end();
      if (!is_free && var_ops[v] == VarOp::kProduct && hypergraph.Degree(v) > 0)
        return Status::Unimplemented(
            "product aggregate on bound variable " + std::to_string(v) +
            " requires the FAQ indicator rewriting (not implemented)");
    }
    return Status::Ok();
  }

  VarOp OpFor(VarId v) const { return var_ops[v]; }

  /// The paper's D: an upper bound on attribute-domain size, derived from
  /// the data (at least 2 so log2 D >= 1).
  uint64_t DomainSize() const {
    uint64_t d = 2;
    for (const auto& r : relations) d = std::max(d, r.MaxValuePlusOne());
    return d;
  }

  int MaxRelationSize() const {
    size_t n = 0;
    for (const auto& r : relations) n = std::max(n, r.size());
    return static_cast<int>(n);
  }
};

/// FAQ-SS query with all-sum aggregates.
template <CommutativeSemiring S>
FaqQuery<S> MakeFaqSS(Hypergraph h, std::vector<Relation<S>> relations,
                      std::vector<VarId> free_vars) {
  FaqQuery<S> q;
  q.var_ops.assign(h.num_vertices(), VarOp::kSemiringSum);
  q.hypergraph = std::move(h);
  q.relations = std::move(relations);
  q.free_vars = std::move(free_vars);
  return q;
}

/// Boolean conjunctive query: F = ∅ over the Boolean semiring.
inline FaqQuery<BooleanSemiring> MakeBcq(
    Hypergraph h, std::vector<Relation<BooleanSemiring>> relations) {
  return MakeFaqSS<BooleanSemiring>(std::move(h), std::move(relations), {});
}

/// Natural join: F = V over the Boolean semiring (footnote 4).
inline FaqQuery<BooleanSemiring> MakeNaturalJoin(
    Hypergraph h, std::vector<Relation<BooleanSemiring>> relations) {
  std::vector<VarId> all = h.UsedVertices();
  return MakeFaqSS<BooleanSemiring>(std::move(h), std::move(relations), all);
}

/// PGM factor marginal: F = e for a hyperedge e over (ℝ≥0, +, ×).
inline FaqQuery<CountingSemiring> MakeFactorMarginal(
    Hypergraph h, std::vector<Relation<CountingSemiring>> relations,
    int marginal_edge) {
  std::vector<VarId> f = h.edge(marginal_edge);
  return MakeFaqSS<CountingSemiring>(std::move(h), std::move(relations), f);
}

}  // namespace topofaq

#endif  // TOPOFAQ_FAQ_QUERY_H_
