#include "relation/sort_perm.h"

#include <functional>

namespace topofaq {
namespace internal {

namespace {
// Widest radix digit: 2^11 counters per chunk stay L1-resident.
constexpr int kMaxDigitBits = 11;
// Inputs from which the radix passes split across pool workers; below it
// the fork/join rounds cost more than they save.
constexpr size_t kParallelRadixMinRows = size_t{1} << 16;
}  // namespace

size_t* RadixSortKeys(size_t* keys, size_t* tmp, size_t n, int lo, int bits,
                      int workers) {
  if (bits == 0 || n < 2) return keys;
  // Equal-width digits: 22 key bits sort in two 11-bit passes, not 11 + 11
  // + 0 or 8 + 8 + 6.
  const int passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const int d = (bits + passes - 1) / passes;
  const size_t buckets = size_t{1} << d;
  const size_t mask = buckets - 1;
  // Each pass counts and scatters contiguous chunks on their own workers.
  // A chunk's keys land after every earlier chunk's keys of the same digit,
  // so the pass is stable and its output is the one-chunk output.
  const size_t chunks =
      workers > 1 && n >= kParallelRadixMinRows ? static_cast<size_t>(workers)
                                                : 1;
  std::vector<size_t> bounds(chunks + 1);
  for (size_t c = 0; c <= chunks; ++c) bounds[c] = c * n / chunks;
  std::vector<size_t> hist(chunks * buckets);
  auto run = [&](const std::function<void(int, size_t)>& fn) {
    if (chunks == 1)
      fn(0, 0);
    else
      WorkerPool::Shared().ParallelFor(workers, chunks, fn);
  };
  size_t* src = keys;
  size_t* dst = tmp;
  for (int p = 0; p < passes; ++p) {
    const int shift = lo + p * d;
    run([&](int, size_t c) {
      size_t* h = hist.data() + c * buckets;
      std::fill(h, h + buckets, size_t{0});
      for (size_t i = bounds[c]; i < bounds[c + 1]; ++i)
        ++h[(src[i] >> shift) & mask];
    });
    // A digit every key shares would move nothing: skip its pass.
    const size_t first = (src[0] >> shift) & mask;
    size_t first_total = 0;
    for (size_t c = 0; c < chunks; ++c)
      first_total += hist[c * buckets + first];
    if (first_total == n) continue;
    size_t sum = 0;
    for (size_t b = 0; b < buckets; ++b)
      for (size_t c = 0; c < chunks; ++c) {
        const size_t cnt = hist[c * buckets + b];
        hist[c * buckets + b] = sum;
        sum += cnt;
      }
    run([&](int, size_t c) {
      size_t* h = hist.data() + c * buckets;
      for (size_t i = bounds[c]; i < bounds[c + 1]; ++i) {
        const size_t key = src[i];
        dst[h[(key >> shift) & mask]++] = key;
      }
    });
    std::swap(src, dst);
  }
  return src;
}

}  // namespace internal
}  // namespace topofaq
