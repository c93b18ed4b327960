// The ground-truth FAQ solver the differential suites compare against.
//
// BruteForceSolve joins every relation (one variable-connected component at
// a time), then eliminates the bound variables in the canonical
// innermost-first order of Eq. (4) and projects to F. It materializes the
// full join, so it is exponential and lives here, beside the tests, rather
// than in the library: every library path runs the GHD pass of
// faq/solvers.h.
#ifndef TOPOFAQ_TESTS_ORACLE_H_
#define TOPOFAQ_TESTS_ORACLE_H_

#include "faq/solvers.h"
#include "reference_ops.h"

namespace topofaq {

/// Ground-truth solver. Returns a relation over exactly `free_vars`.
template <CommutativeSemiring S>
Result<Relation<S>> BruteForceSolve(const FaqQuery<S>& q,
                                    ExecContext* ctx = nullptr) {
  TOPOFAQ_RETURN_IF_ERROR(q.Validate());
  Relation<S> acc =
      internal::JoinAndEliminate(q.relations, q.free_vars, q, ctx);
  return reference::Project(acc, q.free_vars);
}

}  // namespace topofaq

#endif  // TOPOFAQ_TESTS_ORACLE_H_
