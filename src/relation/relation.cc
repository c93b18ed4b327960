// Out-of-line pieces of the columnar relation storage (relation.h) that need
// the kernel seams: the canonicalization permutation sort is the kernel's
// packed-key sort (sort_perm.h), whose wide-key fallback may run on the
// WorkerPool, and the encoding mode is read off the ExecContext — headers
// relation.h itself must not include.
#include "relation/relation.h"

#include "relation/exec.h"
#include "relation/parallel.h"
#include "relation/sort_perm.h"

namespace topofaq {
namespace detail {

void SortRowPerm(const std::vector<std::vector<Value>>& cols, size_t rows,
                 std::vector<size_t>* perm, ExecContext* ctx) {
  std::vector<const Value*> cp(cols.size());
  for (size_t j = 0; j < cols.size(); ++j) cp[j] = cols[j].data();
  ExecContext& cx = ExecContext::Resolve(ctx);
  SortPermByColumns<PlainAccess>(cp.data(), cp.size(), rows,
                                 PlannedWorkers(cx, rows), perm);
}

EncodingMode EncodingModeOf(ExecContext* ctx) {
  return ExecContext::Resolve(ctx).encoding;
}

}  // namespace detail
}  // namespace topofaq
