// The kernel's one row-permutation sort (docs/kernel.md, "Canonicalization
// is sort + gather"). Relation::Canonicalize and RowOrderPerm (through
// detail::SortRowPerm), KeyOrderPerm and Join's right-side regroup all order
// rows with SortPermByColumns.
//
// The order is lexicographic over the given columns, ties broken by row id:
// a total order, so the sorted permutation is unique. Every path below
// produces it, at every parallelism level, and every downstream ⊕ fold over
// a run of equal rows associates in row-id order.
//
// Packed path. One pass per column finds its min and bit width, in the
// column's order-preserving key space (raw values on plain columns, codes on
// encoded ones — both encodings preserve value order within a column). When
// the widths plus bit_width(n - 1) fit in 64 bits, each row becomes one word
// (col₀ - min₀, …, colₖ₋₁ - minₖ₋₁, row id), highest column first. The words
// start in row-id order and are sorted by an LSD radix over the key bits
// only; every pass is stable, so equal keys stay in row-id order and the
// word order is exactly the comparator's. On large inputs each pass splits
// into contiguous chunks on pool workers, stably, with the same output.
// Below kRadixSortMinRows rows a std::sort of the whole words gives the
// same order. The permutation is the row-id bits of the sorted words.
//
// Fallback. Keys wider than 64 bits (values spread near UINT64_MAX, or many
// wide columns) sort the permutation with the multi-column comparator
// through ParallelSortPerm.
#ifndef TOPOFAQ_RELATION_SORT_PERM_H_
#define TOPOFAQ_RELATION_SORT_PERM_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <type_traits>
#include <vector>

#include "relation/encoding.h"
#include "relation/parallel.h"

namespace topofaq {

/// Row count from which the packed keys are radix-sorted; smaller inputs
/// std::sort the packed words. On 3-column serving-shaped inputs the two
/// cost the same near 256 rows, and the radix sort is 1.7x faster at 2048.
inline constexpr size_t kRadixSortMinRows = 256;

namespace internal {

/// Ordered compare of rows `x` and `y` under the SAME column views —
/// compares raw codes on encoded columns (both encodings preserve value
/// order within a column). The fallback comparator of SortPermByColumns.
template <typename A>
int CompareKeysSameAt(const typename A::Col* c, size_t x, size_t y, size_t k) {
  for (size_t t = 0; t < k; ++t) {
    const int r = A::CompareAt(c[t], x, y);
    if (r != 0) return r;
  }
  return 0;
}

/// Calls fn(i, key) for rows i in [0, n) of column `c`, in order, with the
/// row's order-preserving key: the value on a plain column, the code on an
/// encoded one (unpacked block-wise, never decoded).
template <typename A, typename Fn>
void ForEachKey(const typename A::Col& c, size_t n, Fn&& fn) {
  if constexpr (std::is_same_v<A, PlainAccess>) {
    for (size_t i = 0; i < n; ++i) fn(i, c[i]);
  } else {
    if (c.plain != nullptr) {
      for (size_t i = 0; i < n; ++i) fn(i, c.plain[i]);
      return;
    }
    constexpr size_t kBlock = 256;
    uint64_t buf[kBlock];
    const EncodedColumn& e = *c.enc;
    for (size_t b = 0; b < n; b += kBlock) {
      const size_t m = std::min(kBlock, n - b);
      UnpackRange(e.words.data(), c.offset + b, c.offset + b + m, e.width,
                  buf);
      for (size_t t = 0; t < m; ++t) fn(b + t, buf[t]);
    }
  }
}

/// Stable LSD radix sort of `keys[0, n)` by bits [lo, lo + bits); the other
/// bits ride along. `tmp` is scratch of n words. Large inputs split each
/// pass across up to `workers` pool workers; the result is the same.
/// Returns whichever of the two buffers holds the result. Defined in
/// sort_perm.cc.
size_t* RadixSortKeys(size_t* keys, size_t* tmp, size_t n, int lo, int bits,
                      int workers);

}  // namespace internal

/// Fills `perm` (resized to `n`) with the rows [0, n) ordered by the columns
/// cols[0, k) lexicographically, ties broken by row id. Packed-key sort when
/// the key and row-id bits fit in one word; otherwise the comparator sort.
/// Either may use up to `workers` pool workers. Returns true when the
/// packed path ran. The permutation is the same either way.
template <typename A>
bool SortPermByColumns(const typename A::Col* cols, size_t k, size_t n,
                       int workers, std::vector<size_t>* perm) {
  static_assert(sizeof(size_t) == sizeof(uint64_t),
                "packed keys live in the permutation's own words");
  perm->resize(n);
  if (n == 0) return true;
  std::vector<uint64_t> mins(k);
  std::vector<int> widths(k);
  int key_bits = 0;
  for (size_t j = 0; j < k; ++j) {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    internal::ForEachKey<A>(cols[j], n, [&](size_t, uint64_t v) {
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    });
    mins[j] = lo;
    widths[j] = std::bit_width(hi - lo);
    key_bits += widths[j];
  }
  const int id_bits = std::bit_width(n - 1);
  size_t* keys = perm->data();
  std::iota(keys, keys + n, size_t{0});
  if (key_bits + id_bits > 64) {
    ParallelSortPerm(perm, workers, [cols, k](size_t x, size_t y) {
      const int c = internal::CompareKeysSameAt<A>(cols, x, y, k);
      if (c != 0) return c < 0;
      return x < y;
    });
    return false;
  }
  if (key_bits == 0) return true;  // every key equal: row-id order
  int shift = id_bits + key_bits;
  for (size_t j = 0; j < k; ++j) {
    shift -= widths[j];
    if (widths[j] == 0) continue;
    const uint64_t lo = mins[j];
    internal::ForEachKey<A>(cols[j], n, [&](size_t i, uint64_t v) {
      keys[i] |= (v - lo) << shift;
    });
  }
  const size_t* sorted = keys;
  std::vector<size_t> tmp;
  if (n < kRadixSortMinRows) {
    std::sort(keys, keys + n);
  } else {
    tmp.resize(n);
    sorted = internal::RadixSortKeys(keys, tmp.data(), n, id_bits, key_bits,
                                     workers);
  }
  const size_t id_mask = (size_t{1} << id_bits) - 1;  // id_bits < 64 here
  for (size_t i = 0; i < n; ++i) keys[i] = sorted[i] & id_mask;
  return true;
}

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_SORT_PERM_H_
