#include "relation/multiway.h"

namespace topofaq {
namespace internal {

namespace {

/// Shared gallop: first position t in [lo, hi) of the column satisfying
/// load(t) >= key (strict == false) or load(t) > key (strict == true).
/// Probes are counted into *cmps. Templated over the element loader so the
/// same three-phase search runs on raw Value arrays (plain columns) and on
/// bit-packed code words (encoded columns, one word-at-a-time unpack per
/// probe) — keys and samples are then raw codes, translated once per seek
/// by the caller (LowerCode/UpperCode).
///
/// Three phases, all maintaining the invariant "everything ≤ prev is
/// not-past, cur is past or cur == hi", finished by one shared binary
/// search of (prev, cur]:
///
///  1. Short exponential probe from `lo` — a seek that lands d ≤
///     kShortSeekLimit positions ahead costs O(log d) probes on lines the
///     intersection loop usually just touched (the access pattern Leapfrog
///     Triejoin's complexity bound relies on).
///  2. Far seeks with a sample (`samp` non-null) descend the cache-resident
///     sample instead: a binary search over every-kSeekSampleStride-th key
///     whose probes hit cache, landing in a single stride-wide window of
///     the column — a couple of lines — rather than chasing ~log2(hi - lo)
///     dependent misses across it.
///  3. The closing binary search prefetches both candidate next midpoints
///     (plain columns only — packed probes land inside at most two words,
///     already covered by the loader), overlapping each dependent probe's
///     miss with the next. When the bracket has shrunk to a small window
///     over a raw Value array (`raw` non-null: a plain column, vector
///     kernels on), the remaining dependent probes are replaced by one
///     simd::LowerBoundU64 sweep — independent 4-lane compares over memory
///     the search already pulled near cache.
template <typename Load, typename Prefetch>
size_t Gallop(Load load, Prefetch prefetch, const Value* samp,
              const Value* raw, int64_t* blocks, size_t lo, size_t hi,
              uint64_t key, bool strict, int64_t* cmps) {
  auto past = [&](uint64_t v) { return strict ? v > key : v >= key; };
  if (lo >= hi) return hi;
  // Probes accumulate in a register and publish once on exit; a per-probe
  // write through the pointer would serialize the dependent-load chain.
  int64_t probes = 1;
  struct Publish {
    int64_t* out;
    int64_t* n;
    ~Publish() { *out += *n; }
  } publish{cmps, &probes};
  if (past(load(lo))) return lo;
  size_t prev = lo;  // last position known not-past
  size_t cur = hi;   // first position known past (hi: none yet)
  size_t step = 1;
  size_t probe = lo + 1;
  while (probe < hi) {
    if (samp != nullptr && probe - lo > kShortSeekLimit) {
      // Far seek: switch to the sampled descent. Grid points strictly
      // between prev and hi live at sample indices [slo, shi].
      const size_t slo = prev / kSeekSampleStride + 1;
      const size_t shi = (hi - 1) / kSeekSampleStride;
      if (slo <= shi) {
        size_t a = slo;
        size_t b = shi + 1;
        while (a < b) {
          const size_t mid = a + (b - a) / 2;
          ++probes;
          if (past(samp[mid]))
            b = mid;
          else
            a = mid + 1;
        }
        if (a > slo) prev = (a - 1) * kSeekSampleStride;
        cur = (a <= shi) ? a * kSeekSampleStride : hi;
      }
      break;
    }
    ++probes;
    if (past(load(probe))) {
      cur = probe;
      break;
    }
    prev = probe;
    step <<= 1;
    probe = (step < hi - lo) ? lo + step : hi;
  }
  // Binary search in (prev, cur]; cur == hi means nothing is known past.
  constexpr size_t kSimdCloseSpan = 128;
  size_t a = prev + 1;
  size_t b = cur;
  while (a < b) {
    if (raw != nullptr && b - a <= kSimdCloseSpan) {
      ++probes;
      return simd::LowerBoundU64(/*vec=*/true, raw, a, b, key, strict,
                                 blocks);
    }
    const size_t mid = a + (b - a) / 2;
    prefetch(a + (mid - a) / 2, mid + 1 + (b - mid) / 2);
    ++probes;
    if (past(load(mid))) {
      b = mid;
    } else {
      a = mid + 1;
    }
  }
  return a;
}

size_t GallopPlain(const Value* col, const Value* samp, size_t lo, size_t hi,
                   Value key, bool strict, bool vec, int64_t* cmps,
                   int64_t* blocks) {
  return Gallop(
      [col](size_t i) { return col[i]; },
      [col](size_t m1, size_t m2) {
#if defined(__GNUC__)
        // Both candidate next midpoints, prefetched so the next probe's
        // cache miss overlaps this one's — the search is a chain of
        // dependent loads.
        __builtin_prefetch(col + m1);
        __builtin_prefetch(col + m2);
#else
        (void)m1;
        (void)m2;
#endif
      },
      samp, vec ? col : nullptr, blocks, lo, hi, key, strict, cmps);
}

}  // namespace

size_t TrieSeek(const Value* col, const Value* samp, size_t lo, size_t hi,
                Value key, bool vec, int64_t* cmps, int64_t* blocks) {
  return GallopPlain(col, samp, lo, hi, key, /*strict=*/false, vec, cmps,
                     blocks);
}

size_t TrieRunEnd(const Value* col, const Value* samp, size_t lo, size_t hi,
                  Value key, bool vec, int64_t* cmps, int64_t* blocks) {
  return GallopPlain(col, samp, lo, hi, key, /*strict=*/true, vec, cmps,
                     blocks);
}

size_t TrieSeekPacked(const uint64_t* words, int width, const Value* samp,
                      size_t lo, size_t hi, uint64_t code, int64_t* cmps) {
  const uint64_t mask = PackMask(width);
  if (width <= 57) {
    // Rolling byte-addressed scan of the first few positions: leapfrog
    // seek distances are usually tiny, and the sequential unpack (advance
    // the bit cursor, one unaligned load per code — no positional multiply,
    // no dependent probe chain) beats the exponential phase on those.
    // Far seeks fall through to the shared gallop from where the scan
    // stopped; every scanned position is known not-past, so the gallop
    // invariant holds from the new lo.
    constexpr size_t kPackedLinearProbe = 16;
    const auto* bytes = reinterpret_cast<const unsigned char*>(words);
    const size_t end = std::min(hi, lo + kPackedLinearProbe);
    size_t bit = lo * static_cast<size_t>(width);
    int64_t probes = 0;
    for (size_t pos = lo; pos < end; ++pos) {
      uint64_t v;
      std::memcpy(&v, bytes + (bit >> 3), sizeof v);
      ++probes;
      if (((v >> (bit & 7)) & mask) >= code) {
        *cmps += probes;
        return pos;
      }
      bit += static_cast<size_t>(width);
    }
    *cmps += probes;
    if (end == hi) return hi;
    lo = end;
  }
  // Strictness is handled by the caller's key→code translation (a strict
  // value seek is a non-strict seek to UpperCode), so only the >= form
  // exists here.
  return Gallop(
      [words, width, mask](size_t i) { return UnpackAt(words, i, width, mask); },
      [](size_t, size_t) {}, samp, /*raw=*/nullptr, /*blocks=*/nullptr, lo, hi,
      code, /*strict=*/false, cmps);
}

}  // namespace internal
}  // namespace topofaq
