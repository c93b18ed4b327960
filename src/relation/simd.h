// SIMD kernels for sorted-key work (docs/kernel.md, "SIMD intersection
// layer").
//
// Every hot cross-relation loop in the kernel — the leapfrog frontier of the
// multiway join, the sort-merge Join advance loop, the closing window of a
// galloping seek — is a scan over one or two *sorted* contiguous arrays.
// This header is the one kernel library those loops call into: block-wise
// lower bound, merge advance, the pairwise leapfrog frontier step, and a
// vectorized window decode that unpacks dict/FOR code spaces (encoding.h)
// straight into flat 32- or 64-bit lanes.
//
// Dispatch rules:
//   - Each kernel has a scalar body (the reference semantics, compiled
//     everywhere) and an AVX2 body (x86 only, `target("avx2")` functions
//     selected at runtime via CpuHasAvx2()). The AVX2 body is *guaranteed
//     equivalent*: same return value for every input, enforced by the
//     differential fuzz in tests/simd_kernel_test.cc.
//   - Every dispatcher runs the AVX2 body iff the caller's per-call
//     decision `vec` — simd::Available(ctx.simd), its ExecContext's SIMD
//     switch AND CPU support — is true. A context with `simd = false` (the
//     default under `TOPOFAQ_SIMD=off`, parsed in server/options.cc) runs
//     the scalar bodies end to end — the escape hatch for non-AVX2 hosts and
//     for bit-identity differential runs.
//   - Callers thread OpStats counters through the nullable counter
//     arguments: `simd_blocks` counts vector blocks retired, and callers
//     bump `scalar_fallbacks` when a loop that could vectorize ran the
//     scalar body instead (switch off, unsupported CPU, or an ineligible
//     column shape).
//
// Code-space contract: codes from different columns are never compared —
// cross-relation intersection always runs on decoded *values*. What the
// SIMD layer adds is (a) vectorized decode of small windows (DecodeWindow*)
// so encoded iterators intersect over flat lanes, and (b) a narrow u32 lane
// mode: when every value of an encoded column fits 32 bits (FitsU32 — the
// common case for dictionary/FOR columns, whose whole point is a small
// domain), windows decode to uint32_t and the frontier runs 8 lanes per
// vector instead of 4. Plain columns stay u64 (no narrowing copy is ever
// made for them); the asymmetry is why the compressed path can *beat* plain
// on intersection-heavy shapes instead of merely keeping up.
#ifndef TOPOFAQ_RELATION_SIMD_H_
#define TOPOFAQ_RELATION_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "relation/encoding.h"
#include "util/types.h"

namespace topofaq {

namespace simd {

/// True iff the vector bodies may run for a caller whose SIMD switch
/// (ExecContext::simd) is `on`: the switch on and the CPU has AVX2.
inline bool Available(bool on) {
#if defined(TOPOFAQ_X86_SIMD)
  return on && CpuHasAvx2();
#else
  (void)on;
  return false;
#endif
}

/// First index in [lo, hi) with a[t] >= key (strict: > key) — the closing
/// window of a galloping seek, as one branchless block count instead of a
/// chain of dependent binary-search probes. Intended for cache-resident
/// windows (a gallop's final stride, a decoded window); cost is linear in
/// hi - lo.
size_t LowerBoundU64(bool vec, const Value* a, size_t lo, size_t hi,
                     Value key, bool strict, int64_t* blocks);
size_t LowerBoundU32(bool vec, const uint32_t* a, size_t lo, size_t hi,
                     uint32_t key, bool strict, int64_t* blocks);

/// The merge-compare primitive: first index t in [i, n) with a[t] >= key
/// (strict: > key), by forward block scan — the vector form of the
/// sort-merge `while (a[j] < key) ++j;` advance, same linear asymptotics,
/// 4 lanes per probe.
size_t AdvanceU64(bool vec, const Value* a, size_t i, size_t n, Value key,
                  bool strict, int64_t* blocks);

/// One leapfrog frontier step between two sorted ranges.
struct Frontier {
  enum Kind {
    kMatch,      ///< a[i] == b[j]: the next common key, leftmost occurrences
    kExhausted,  ///< one side ran out (i == an or j == bn): the intersection
                 ///< is complete. The other side's position is unspecified —
                 ///< the vector body may retire a whole trailing block the
                 ///< scalar walk would have entered — so callers must treat
                 ///< kExhausted as a pure stop signal.
    kSeekA,      ///< block budget spent with a lagging: far-seek a to b[j]
    kSeekB,      ///< block budget spent with b lagging: far-seek b to a[i]
  };
  size_t i, j;
  Kind kind;
};

/// Advances (i, j) to the leftmost pair with a[i] == b[j], scanning at most
/// `max_blocks` vector blocks per call. The block scan is the dense-overlap
/// fast path; when the budget runs out the caller falls back to its far-seek
/// machinery (dense directories / sampled gallops), which preserves the
/// leapfrog complexity bound on sparse intersections. kMatch results are
/// positionally equal to the scalar two-pointer walk; see Frontier::Kind for
/// the kExhausted position caveat.
Frontier NextMatchU64(bool vec, const Value* a, size_t i, size_t an,
                      const Value* b, size_t j, size_t bn, size_t max_blocks,
                      int64_t* blocks);
Frontier NextMatchU32(bool vec, const uint32_t* a, size_t i, size_t an,
                      const uint32_t* b, size_t j, size_t bn,
                      size_t max_blocks, int64_t* blocks);

// Scalar reference twins: always the scalar body, regardless of switch or
// CPU — the differential oracle for tests/simd_kernel_test.cc and the
// scalar legs of bench_intersect.
size_t ScalarLowerBoundU64(const Value* a, size_t lo, size_t hi, Value key,
                           bool strict);
size_t ScalarLowerBoundU32(const uint32_t* a, size_t lo, size_t hi,
                           uint32_t key, bool strict);
size_t ScalarAdvanceU64(const Value* a, size_t i, size_t n, Value key,
                        bool strict);
Frontier ScalarNextMatchU64(const Value* a, size_t i, size_t an,
                            const Value* b, size_t j, size_t bn,
                            size_t max_blocks);
Frontier ScalarNextMatchU32(const uint32_t* a, size_t i, size_t an,
                            const uint32_t* b, size_t j, size_t bn,
                            size_t max_blocks);
/// True iff every decoded value of `e` fits uint32_t, so windows of it may
/// decode into the narrow u32 lane mode.
inline bool FitsU32(const EncodedColumn& e) {
  if (e.encoding == ColumnEncoding::kDict)
    return e.dict.empty() || e.dict.back() <= UINT32_MAX;
  // kFor: max decoded value is base + mask() — checked without overflow.
  return e.mask() <= UINT32_MAX && e.base <= UINT32_MAX - e.mask();
}

/// Decodes rows [begin, end) of `e` into flat lanes — the vectorized form
/// of EncodedColumn::DecodeInto (quad-window unpack + gathered dict lookup
/// for widths <= 14; scalar VisitValues fallback for wider codes or when
/// !vec). The u32 form requires FitsU32(e).
void DecodeWindowU64(bool vec, const EncodedColumn& e, size_t begin,
                     size_t end, Value* out, int64_t* blocks);
void DecodeWindowU32(bool vec, const EncodedColumn& e, size_t begin,
                     size_t end, uint32_t* out, int64_t* blocks);

}  // namespace simd
}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_SIMD_H_
