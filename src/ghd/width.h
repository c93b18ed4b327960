// Internal-node-width y(H) (Definition 2.9): the minimum number of internal
// nodes over GYO-GHDs of H. Computing the exact minimum over all GYO-GHDs is
// a search over GYO tie-breaking and attachment choices; the paper only needs
// an O(1)-approximation (Appendix F), obtained by flattening to an MD-GHD.
//
// ComputeWidth() returns the canonical flattened GYO-GHD; MinimizeWidth()
// additionally explores randomized GYO orderings (via vertex/edge relabeling)
// and keeps the best decomposition found — deterministic given the seed.
#ifndef TOPOFAQ_GHD_WIDTH_H_
#define TOPOFAQ_GHD_WIDTH_H_

#include "ghd/gyo_ghd.h"
#include "util/rng.h"

namespace topofaq {

struct WidthResult {
  GyoGhd decomposition;  ///< flattened (MD) GYO-GHD achieving the width
  int internal_nodes = 0;  ///< y of the returned decomposition
  int n2 = 0;              ///< |V(C(H))| of the returned decomposition
};

/// Canonical GYO-GHD, flattened. Deterministic.
WidthResult ComputeWidth(const Hypergraph& h);

/// Best decomposition over `restarts` randomized GYO orderings plus the
/// canonical one. Ties prefer smaller n2.
WidthResult MinimizeWidth(const Hypergraph& h, int restarts, uint64_t seed);

/// Like MinimizeWidth, but roots the decomposition at a bag containing
/// `required_vars` when one can host them: the canonical root when it does,
/// else, for acyclic single-tree H, the join tree re-rooted at a covering
/// node. Otherwise it returns MinimizeWidth's plan unchanged — the GHD pass
/// carries free variables outside χ(root) up to the root (faq/solvers.h),
/// so every plan serves; only the protocols need F ⊆ χ(root).
WidthResult MinimizeWidthWithRoot(const Hypergraph& h,
                                  const std::vector<VarId>& required_vars,
                                  int restarts, uint64_t seed);

}  // namespace topofaq

#endif  // TOPOFAQ_GHD_WIDTH_H_
