// Out-of-line pieces of the columnar relation storage (relation.h) that need
// the kernel seams: the canonicalization permutation sort is routed through
// the WorkerPool (parallel.h) when the ambient ExecContext allows, and the
// encoding mode is read off that context — exec.h and parallel.h are
// headers relation.h itself must not include.
#include "relation/relation.h"

#include "relation/exec.h"
#include "relation/parallel.h"

namespace topofaq {
namespace detail {

void SortRowPerm(const std::vector<std::vector<Value>>& cols, size_t rows,
                 std::vector<size_t>* perm, ExecContext* ctx) {
  perm->resize(rows);
  std::iota(perm->begin(), perm->end(), size_t{0});
  const size_t ncols = cols.size();
  // Hoisted column bases: the comparator touches one contiguous array per
  // compared column, never a row stride.
  std::vector<const Value*> cp(ncols);
  for (size_t j = 0; j < ncols; ++j) cp[j] = cols[j].data();
  const Value* const* c = cp.data();
  // Index tiebreak ⇒ total order ⇒ the sorted permutation is unique, so the
  // parallel sort-and-merge below is bit-identical to a serial std::sort.
  auto less = [c, ncols](size_t x, size_t y) {
    for (size_t j = 0; j < ncols; ++j) {
      const Value a = c[j][x];
      const Value b = c[j][y];
      if (a != b) return a < b;
    }
    return x < y;
  };
  ExecContext& cx = ExecContext::Resolve(ctx);
  ParallelSortPerm(perm, PlannedWorkers(cx, rows), less);
}

EncodingMode EncodingModeOf(ExecContext* ctx) {
  return ExecContext::Resolve(ctx).encoding;
}

}  // namespace detail
}  // namespace topofaq
