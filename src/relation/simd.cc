#include "relation/simd.h"

#include <algorithm>
#include <cstring>

namespace topofaq {
namespace simd {

// ---------------------------------------------------------------------------
// Scalar reference bodies. These define the kernel semantics; the AVX2
// bodies below must agree with them on every input (tests/simd_kernel_test.cc
// fuzzes the equivalence).

size_t ScalarLowerBoundU64(const Value* a, size_t lo, size_t hi, Value key,
                           bool strict) {
  return static_cast<size_t>(
      (strict ? std::upper_bound(a + lo, a + hi, key)
              : std::lower_bound(a + lo, a + hi, key)) -
      a);
}

size_t ScalarLowerBoundU32(const uint32_t* a, size_t lo, size_t hi,
                           uint32_t key, bool strict) {
  return static_cast<size_t>(
      (strict ? std::upper_bound(a + lo, a + hi, key)
              : std::lower_bound(a + lo, a + hi, key)) -
      a);
}

size_t ScalarAdvanceU64(const Value* a, size_t i, size_t n, Value key,
                        bool strict) {
  if (strict) {
    while (i < n && a[i] <= key) ++i;
  } else {
    while (i < n && a[i] < key) ++i;
  }
  return i;
}

namespace {

/// Shared scalar frontier walk: the classic two-pointer intersection with a
/// step budget (4 scalar steps ~ one vector block). kMatch positions are the
/// leftmost occurrences of the smallest common key at or after (i, j) — the
/// canonical answer every implementation must reproduce.
template <typename T>
Frontier ScalarNextMatch(const T* a, size_t i, size_t an, const T* b,
                         size_t j, size_t bn, size_t max_blocks) {
  size_t steps = 0;
  const size_t max_steps = max_blocks * 4;
  while (i < an && j < bn) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return {i, j, Frontier::kMatch};
    }
    if (++steps >= max_steps && i < an && j < bn)
      return {i, j, a[i] < b[j] ? Frontier::kSeekA : Frontier::kSeekB};
  }
  return {i, j, Frontier::kExhausted};
}

}  // namespace

Frontier ScalarNextMatchU64(const Value* a, size_t i, size_t an,
                            const Value* b, size_t j, size_t bn,
                            size_t max_blocks) {
  return ScalarNextMatch(a, i, an, b, j, bn, max_blocks);
}

Frontier ScalarNextMatchU32(const uint32_t* a, size_t i, size_t an,
                            const uint32_t* b, size_t j, size_t bn,
                            size_t max_blocks) {
  return ScalarNextMatch(a, i, an, b, j, bn, max_blocks);
}

// ---------------------------------------------------------------------------
// AVX2 bodies (x86 only, selected at runtime). Unsigned lane compares go
// through a sign-bit bias: x XOR 2^63 (2^31) maps unsigned order onto the
// signed order the cmpgt instructions implement.

#if defined(TOPOFAQ_X86_SIMD)

namespace {

constexpr long long kBias64 = static_cast<long long>(0x8000000000000000ull);
constexpr int kBias32 = static_cast<int>(0x80000000u);

__attribute__((target("avx2"))) inline __m256i Bias64(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi64x(kBias64));
}
__attribute__((target("avx2"))) inline __m256i Bias32(__m256i v) {
  return _mm256_xor_si256(v, _mm256_set1_epi32(kBias32));
}

__attribute__((target("avx2"))) size_t LowerBoundU64Avx2(
    const Value* a, size_t lo, size_t hi, Value key, bool strict,
    int64_t* blocks) {
  // Branchless count of not-past lanes: the answer is lo + #{t : a[t] < key}
  // (strict: <= key), and sortedness makes the not-past lanes a prefix — so
  // a fully-past block also ends the scan.
  const __m256i kb = Bias64(_mm256_set1_epi64x(static_cast<long long>(key)));
  size_t i = lo;
  size_t cnt = 0;
  int64_t nb = 0;
  for (; i + 4 <= hi; i += 4) {
    const __m256i v =
        Bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    ++nb;
    int np;  // bitmask of not-past lanes
    if (strict) {
      np = ~_mm256_movemask_pd(
               _mm256_castsi256_pd(_mm256_cmpgt_epi64(v, kb))) &
           0xF;
    } else {
      np = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(kb, v)));
    }
    cnt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(np)));
    if (np != 0xF) break;  // a past lane appeared: nothing later counts
  }
  if (blocks != nullptr) *blocks += nb;
  if (cnt == i - lo) {  // every scanned lane was not-past: finish the tail
    size_t t = i;
    while (t < hi && (strict ? a[t] <= key : a[t] < key)) ++t;
    return t;
  }
  return lo + cnt;
}

__attribute__((target("avx2"))) size_t LowerBoundU32Avx2(
    const uint32_t* a, size_t lo, size_t hi, uint32_t key, bool strict,
    int64_t* blocks) {
  const __m256i kb =
      Bias32(_mm256_set1_epi32(static_cast<int>(key)));
  size_t i = lo;
  size_t cnt = 0;
  int64_t nb = 0;
  for (; i + 8 <= hi; i += 8) {
    const __m256i v =
        Bias32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    ++nb;
    int np;
    if (strict) {
      np = ~_mm256_movemask_ps(
               _mm256_castsi256_ps(_mm256_cmpgt_epi32(v, kb))) &
           0xFF;
    } else {
      np = _mm256_movemask_ps(
          _mm256_castsi256_ps(_mm256_cmpgt_epi32(kb, v)));
    }
    cnt += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(np)));
    if (np != 0xFF) break;
  }
  if (blocks != nullptr) *blocks += nb;
  if (cnt == i - lo) {
    size_t t = i;
    while (t < hi && (strict ? a[t] <= key : a[t] < key)) ++t;
    return t;
  }
  return lo + cnt;
}

__attribute__((target("avx2"))) size_t AdvanceU64Avx2(const Value* a, size_t i,
                                                      size_t n, Value key,
                                                      bool strict,
                                                      int64_t* blocks) {
  const __m256i kb = Bias64(_mm256_set1_epi64x(static_cast<long long>(key)));
  int64_t nb = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        Bias64(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i)));
    ++nb;
    // Past lanes (>= key, strict: > key) form a suffix of the block; the
    // lowest set bit is the answer.
    int past;
    if (strict) {
      past = _mm256_movemask_pd(
          _mm256_castsi256_pd(_mm256_cmpgt_epi64(v, kb)));
    } else {
      past = ~_mm256_movemask_pd(
                 _mm256_castsi256_pd(_mm256_cmpgt_epi64(kb, v))) &
             0xF;
    }
    if (past != 0) {
      if (blocks != nullptr) *blocks += nb;
      return i + static_cast<size_t>(
                     __builtin_ctz(static_cast<unsigned>(past)));
    }
  }
  if (blocks != nullptr) *blocks += nb;
  while (i < n && (strict ? a[i] <= key : a[i] < key)) ++i;
  return i;
}

/// All-pairs equality between a 4x64 block and every rotation of another:
/// nonzero iff some a lane equals some b lane.
__attribute__((target("avx2"))) inline __m256i AnyEq64(__m256i va,
                                                       __m256i vb) {
  __m256i e = _mm256_cmpeq_epi64(va, vb);
  e = _mm256_or_si256(
      e, _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0x39)));
  e = _mm256_or_si256(
      e, _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0x4E)));
  e = _mm256_or_si256(
      e, _mm256_cmpeq_epi64(va, _mm256_permute4x64_epi64(vb, 0x93)));
  return e;
}

/// All-pairs equality for 8x32 blocks: compare against all 8 rotations.
__attribute__((target("avx2"))) inline __m256i AnyEq32(__m256i va,
                                                       __m256i vb) {
  __m256i e = _mm256_cmpeq_epi32(va, vb);
  __m256i r = vb;
  const __m256i rot1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
  for (int k = 1; k < 8; ++k) {
    r = _mm256_permutevar8x32_epi32(r, rot1);
    e = _mm256_or_si256(e, _mm256_cmpeq_epi32(va, r));
  }
  return e;
}

__attribute__((target("avx2"))) Frontier NextMatchU64Avx2(
    const Value* a, size_t i, size_t an, const Value* b, size_t j, size_t bn,
    size_t max_blocks, int64_t* blocks) {
  size_t nb = 0;
  while (i + 4 <= an && j + 4 <= bn) {
    const Value amax = a[i + 3];
    const Value bmax = b[j + 3];
    if (amax < b[j]) {  // whole a block below b's minimum: skip it
      i += 4;
    } else if (bmax < a[i]) {
      j += 4;
    } else {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      const __m256i e = AnyEq64(va, vb);
      if (!_mm256_testz_si256(e, e)) {
        // A match exists within these two blocks; the scalar walk finds the
        // leftmost pair without leaving them.
        if (blocks != nullptr) *blocks += static_cast<int64_t>(nb + 1);
        while (true) {
          if (a[i] < b[j]) {
            ++i;
          } else if (b[j] < a[i]) {
            ++j;
          } else {
            return {i, j, Frontier::kMatch};
          }
        }
      }
      // No equal pair, so amax != bmax; the smaller-max block can't match
      // anything later either and retires whole.
      if (amax < bmax) {
        i += 4;
      } else {
        j += 4;
      }
    }
    if (++nb >= max_blocks && i + 4 <= an && j + 4 <= bn) {
      if (blocks != nullptr) *blocks += static_cast<int64_t>(nb);
      return {i, j, a[i] < b[j] ? Frontier::kSeekA : Frontier::kSeekB};
    }
  }
  if (blocks != nullptr) *blocks += static_cast<int64_t>(nb);
  // Fewer than one vector of lanes left on a side: the scalar walk finishes
  // under the same step budget, so a short side never walks the other's
  // whole range.
  return ScalarNextMatch(a, i, an, b, j, bn, max_blocks);
}

__attribute__((target("avx2"))) Frontier NextMatchU32Avx2(
    const uint32_t* a, size_t i, size_t an, const uint32_t* b, size_t j,
    size_t bn, size_t max_blocks, int64_t* blocks) {
  size_t nb = 0;
  while (i + 8 <= an && j + 8 <= bn) {
    const uint32_t amax = a[i + 7];
    const uint32_t bmax = b[j + 7];
    if (amax < b[j]) {
      i += 8;
    } else if (bmax < a[i]) {
      j += 8;
    } else {
      const __m256i va =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + j));
      const __m256i e = AnyEq32(va, vb);
      if (!_mm256_testz_si256(e, e)) {
        if (blocks != nullptr) *blocks += static_cast<int64_t>(nb + 1);
        while (true) {
          if (a[i] < b[j]) {
            ++i;
          } else if (b[j] < a[i]) {
            ++j;
          } else {
            return {i, j, Frontier::kMatch};
          }
        }
      }
      if (amax < bmax) {
        i += 8;
      } else {
        j += 8;
      }
    }
    if (++nb >= max_blocks && i + 8 <= an && j + 8 <= bn) {
      if (blocks != nullptr) *blocks += static_cast<int64_t>(nb);
      return {i, j, a[i] < b[j] ? Frontier::kSeekA : Frontier::kSeekB};
    }
  }
  if (blocks != nullptr) *blocks += static_cast<int64_t>(nb);
  // Fewer than one vector of lanes left on a side: the scalar walk finishes
  // under the same step budget, so a short side never walks the other's
  // whole range.
  return ScalarNextMatch(a, i, an, b, j, bn, max_blocks);
}

/// Quad-window unpack + decode into 64-bit lanes (widths <= 14): one scalar
/// 8-byte load covers four codes ((bit % 8) + 4·width <= 63), vpsrlv splits
/// them into lanes, dict codes resolve through a gathered lookup.
__attribute__((target("avx2"))) void DecodeWindowU64Avx2(
    const EncodedColumn& e, size_t begin, size_t end, Value* out,
    int64_t* blocks) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(e.words.data());
  const size_t w = e.width;
  const __m256i shifts =
      _mm256_set_epi64x(static_cast<long long>(3 * w),
                        static_cast<long long>(2 * w),
                        static_cast<long long>(w), 0);
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(e.mask()));
  const __m256i base = _mm256_set1_epi64x(static_cast<long long>(e.base));
  const bool isdict = e.encoding == ColumnEncoding::kDict;
  const auto* dict = reinterpret_cast<const long long*>(e.dict.data());
  size_t i = begin;
  size_t bit = begin * w;
  int64_t nb = 0;
  for (; i + 4 <= end; i += 4, bit += 4 * w) {
    uint64_t v;
    std::memcpy(&v, bytes + (bit >> 3), sizeof v);
    v >>= (bit & 7);
    const __m256i codes = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(v)),
                          shifts),
        mask);
    const __m256i keys = isdict ? _mm256_i64gather_epi64(dict, codes, 8)
                                : _mm256_add_epi64(codes, base);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + (i - begin)), keys);
    ++nb;
  }
  if (blocks != nullptr) *blocks += nb;
  for (; i < end; ++i) out[i - begin] = e.At(i);
}

/// Same, narrowed into 32-bit lanes (requires FitsU32(e)): the even 32-bit
/// halves of the four decoded 64-bit lanes pack into one 16-byte store.
__attribute__((target("avx2"))) void DecodeWindowU32Avx2(
    const EncodedColumn& e, size_t begin, size_t end, uint32_t* out,
    int64_t* blocks) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(e.words.data());
  const size_t w = e.width;
  const __m256i shifts =
      _mm256_set_epi64x(static_cast<long long>(3 * w),
                        static_cast<long long>(2 * w),
                        static_cast<long long>(w), 0);
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(e.mask()));
  const __m256i base = _mm256_set1_epi64x(static_cast<long long>(e.base));
  const __m256i narrow = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  const bool isdict = e.encoding == ColumnEncoding::kDict;
  const auto* dict = reinterpret_cast<const long long*>(e.dict.data());
  size_t i = begin;
  size_t bit = begin * w;
  int64_t nb = 0;
  for (; i + 4 <= end; i += 4, bit += 4 * w) {
    uint64_t v;
    std::memcpy(&v, bytes + (bit >> 3), sizeof v);
    v >>= (bit & 7);
    const __m256i codes = _mm256_and_si256(
        _mm256_srlv_epi64(_mm256_set1_epi64x(static_cast<long long>(v)),
                          shifts),
        mask);
    const __m256i keys = isdict ? _mm256_i64gather_epi64(dict, codes, 8)
                                : _mm256_add_epi64(codes, base);
    const __m128i packed =
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(keys, narrow));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + (i - begin)), packed);
    ++nb;
  }
  if (blocks != nullptr) *blocks += nb;
  for (; i < end; ++i)
    out[i - begin] = static_cast<uint32_t>(e.At(i));
}

}  // namespace

#endif  // TOPOFAQ_X86_SIMD

// ---------------------------------------------------------------------------
// Dispatchers.

size_t LowerBoundU64([[maybe_unused]] bool vec, const Value* a, size_t lo,
                     size_t hi, Value key, bool strict,
                     [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec) return LowerBoundU64Avx2(a, lo, hi, key, strict, blocks);
#endif
  return ScalarLowerBoundU64(a, lo, hi, key, strict);
}

size_t LowerBoundU32([[maybe_unused]] bool vec, const uint32_t* a, size_t lo,
                     size_t hi, uint32_t key, bool strict,
                     [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec) return LowerBoundU32Avx2(a, lo, hi, key, strict, blocks);
#endif
  return ScalarLowerBoundU32(a, lo, hi, key, strict);
}

size_t AdvanceU64([[maybe_unused]] bool vec, const Value* a, size_t i,
                  size_t n, Value key, bool strict,
                  [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec) return AdvanceU64Avx2(a, i, n, key, strict, blocks);
#endif
  return ScalarAdvanceU64(a, i, n, key, strict);
}

Frontier NextMatchU64([[maybe_unused]] bool vec, const Value* a, size_t i,
                      size_t an, const Value* b, size_t j, size_t bn,
                      size_t max_blocks, [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec) return NextMatchU64Avx2(a, i, an, b, j, bn, max_blocks, blocks);
#endif
  return ScalarNextMatchU64(a, i, an, b, j, bn, max_blocks);
}

Frontier NextMatchU32([[maybe_unused]] bool vec, const uint32_t* a, size_t i,
                      size_t an, const uint32_t* b, size_t j, size_t bn,
                      size_t max_blocks, [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec) return NextMatchU32Avx2(a, i, an, b, j, bn, max_blocks, blocks);
#endif
  return ScalarNextMatchU32(a, i, an, b, j, bn, max_blocks);
}

void DecodeWindowU64([[maybe_unused]] bool vec, const EncodedColumn& e,
                     size_t begin, size_t end, Value* out,
                     [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec && e.width <= 14 && end - begin >= 4) {
    DecodeWindowU64Avx2(e, begin, end, out, blocks);
    return;
  }
#endif
  e.DecodeInto(begin, end, out);
}

void DecodeWindowU32([[maybe_unused]] bool vec, const EncodedColumn& e,
                     size_t begin, size_t end, uint32_t* out,
                     [[maybe_unused]] int64_t* blocks) {
#if defined(TOPOFAQ_X86_SIMD)
  if (vec && e.width <= 14 && end - begin >= 4) {
    DecodeWindowU32Avx2(e, begin, end, out, blocks);
    return;
  }
#endif
  e.VisitValues(begin, end, [out, begin](size_t i, Value v) {
    out[i - begin] = static_cast<uint32_t>(v);
  });
}

}  // namespace simd
}  // namespace topofaq
