// Fused scan fold over a bit-packed column — the probe the scan_skew bench
// row times against the same fold over plain values, and the differential
// tests/encoding_test.cc checks against a naive per-row fold.
#ifndef TOPOFAQ_BENCH_SCAN_CHECKSUM_H_
#define TOPOFAQ_BENCH_SCAN_CHECKSUM_H_

#include <cstdint>
#include <cstring>

#include "relation/encoding.h"

namespace topofaq {

#if defined(TOPOFAQ_X86_SIMD)
/// AVX2 body of ScanChecksum for widths <= 14: one scalar 8-byte load
/// covers four codes ((bit % 8) + 4·width <= 63), a per-lane variable shift
/// (vpsrlv) splits them into four 64-bit lanes, and the 3·key + annot fold
/// stays in vector accumulators end to end.
__attribute__((target("avx2"))) inline uint64_t ScanChecksumAvx2(
    const EncodedColumn& e, size_t begin, size_t end, const uint64_t* annots) {
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
  __m256i acc = _mm256_setzero_si256();
  size_t i = begin;
  size_t bit = begin * w;
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
    const __m256i ann =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(annots + i));
    const __m256i k3 = _mm256_add_epi64(keys, _mm256_slli_epi64(keys, 1));
    acc = _mm256_add_epi64(acc, _mm256_add_epi64(k3, ann));
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < end; ++i) s += 3 * e.At(i) + annots[i];
  return s;
}
#endif  // TOPOFAQ_X86_SIMD

/// Σ (3·value_i + annots_i) over rows [begin, end) of `e`, mod 2^64, read
/// directly from the packed codes. On x86 with AVX2 the quad window is
/// unpacked with one variable shift per four lanes and folded in vector
/// accumulators (dict codes resolve through a gathered table lookup) —
/// where packing the keys turns into scan speed, not just footprint.
/// Scalar VisitValues fallback elsewhere.
inline uint64_t ScanChecksum(const EncodedColumn& e, size_t begin, size_t end,
                             const uint64_t* annots) {
#if defined(TOPOFAQ_X86_SIMD)
  if (e.width <= 14 && end - begin >= 8 && CpuHasAvx2())
    return ScanChecksumAvx2(e, begin, end, annots);
#endif
  uint64_t s = 0;
  e.VisitValues(begin, end, [&](size_t i, Value v) { s += 3 * v + annots[i]; });
  return s;
}

}  // namespace topofaq

#endif  // TOPOFAQ_BENCH_SCAN_CHECKSUM_H_
