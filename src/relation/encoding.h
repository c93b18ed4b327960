// Per-column compressed encodings for the columnar relation storage.
//
// Two order-preserving encodings sit behind the ColumnView seam:
//
//   kDict  dictionary codes. The dictionary is the sorted distinct value
//          set, so code order == value order and code equality == value
//          equality. Chosen for skewed / low-cardinality columns.
//   kFor   frame of reference: each value is stored as the bit-packed
//          delta v - min(column). Order- and equality-preserving by
//          construction. Chosen for sorted leading key columns (and any
//          column whose value range is narrow).
//
// Codes are bit-packed little-endian into 64-bit words at a fixed width
// per column (width = ceil(log2(code_domain)), at least 1). The packed
// buffer is padded with one extra word so an unaligned code that straddles
// a word boundary can always be read with two word loads and a shift —
// no per-element bounds branch in the unpack loop.
//
// Because both encodings preserve order and equality *within a column*,
// operators may compare, group, and gallop over raw codes without
// decoding; only cross-column comparisons (join keys against another
// relation) and emission into a RelationBuilder decode, via At(). The
// scalar decode/compare/fold loops below are the dispatch seam: one
// kernel body in ops.h / multiway.cc instantiates against PlainAccess
// (raw Value loads, today's code paths, zero overhead) or EncodedAccess
// (ColView::At), so a later vectorized unpack only replaces these
// primitives.
#ifndef TOPOFAQ_RELATION_ENCODING_H_
#define TOPOFAQ_RELATION_ENCODING_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

// Vectorized unpack kernels are x86-only and runtime-dispatched: the
// generic scalar paths stay the portable fallback everywhere else.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TOPOFAQ_X86_SIMD 1
#include <immintrin.h>
#endif

#include "util/bits.h"
#include "util/check.h"
#include "util/types.h"

namespace topofaq {

enum class ColumnEncoding : uint8_t { kPlain = 0, kDict = 1, kFor = 2 };

/// How encode-on-canonicalize picks encodings. kAuto consults per-column
/// stats gathered in one pass over each canonical column; the forced modes
/// exist for tests and the TOPOFAQ_ENCODING CI matrix leg and encode every
/// column regardless of benefit (kForceDict falls back to kFor-free plain
/// only when a dictionary cannot be built at all, which never happens —
/// any column has a finite distinct set).
enum class EncodingMode : uint8_t { kAuto = 0, kPlain = 1, kForceDict = 2, kForceFor = 3 };

/// The TOPOFAQ_ENCODING default ("auto" | "plain"/"off" | "dict" | "for"),
/// resolved once: the ExecContext::encoding fresh contexts start at. Defined
/// in server/options.cc, the one file that reads environment knobs.
EncodingMode DefaultEncodingMode();

// ---------------------------------------------------------------------------
// Bit-packing primitives (the word-at-a-time unpack seam).

/// All-ones mask of `width` low bits, width in [1, 64].
inline uint64_t PackMask(int width) {
  return width >= 64 ? ~0ull : ((1ull << width) - 1);
}

/// Number of 64-bit words needed for `rows` codes of `width` bits, plus one
/// padding word so the two-word straddle read in UnpackAt never runs past
/// the allocation.
inline size_t PackedWords(size_t rows, int width) {
  return static_cast<size_t>(
             CeilDiv(static_cast<int64_t>(rows) * width, 64)) +
         1;
}

/// Reads code `i` from a packed buffer. Relies on the +1 padding word.
///
/// For widths up to 57 a code at bit position b always lies inside the
/// 8 bytes starting at byte b/8 (b%8 + width <= 7 + 57 == 64), so on a
/// little-endian host one unaligned load + shift + mask reads it with no
/// word-straddle branch — the form the hot seek/scan loops compile to.
/// Wider codes fall back to the two-word assembly.
inline uint64_t UnpackAt(const uint64_t* words, size_t i, int width,
                         uint64_t mask) {
  const size_t bit = i * static_cast<size_t>(width);
  if (width <= 57) {
    uint64_t v;
    std::memcpy(&v, reinterpret_cast<const unsigned char*>(words) + (bit >> 3),
                sizeof v);
    return (v >> (bit & 7)) & mask;
  }
  const size_t w = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  uint64_t v = words[w] >> off;
  if (off + width > 64) v |= words[w + 1] << (64 - off);
  return v & mask;
}

/// Writes code `v` (must fit `width` bits) at position `i`. The buffer must
/// be zero-initialised; codes are written at most once per position.
inline void PackAt(uint64_t* words, size_t i, int width, uint64_t v) {
  const size_t bit = i * static_cast<size_t>(width);
  const size_t w = bit >> 6;
  const int off = static_cast<int>(bit & 63);
  words[w] |= v << off;
  if (off + width > 64) words[w + 1] |= v >> (64 - off);
}

/// Unpacks codes [begin, end) into `out` (not decoded — raw codes). One
/// contiguous pass; the loop body is branch-free, which is what a SIMD
/// replacement would vectorize.
inline void UnpackRange(const uint64_t* words, size_t begin, size_t end,
                        int width, uint64_t* out) {
  const uint64_t mask = PackMask(width);
  if (width <= 57) {
    // Rolling bit cursor: one unaligned load + shift per code, no
    // positional multiply in the loop.
    const auto* bytes = reinterpret_cast<const unsigned char*>(words);
    size_t bit = begin * static_cast<size_t>(width);
    for (size_t i = begin; i < end; ++i, bit += static_cast<size_t>(width)) {
      uint64_t v;
      std::memcpy(&v, bytes + (bit >> 3), sizeof v);
      *out++ = (v >> (bit & 7)) & mask;
    }
    return;
  }
  for (size_t i = begin; i < end; ++i) *out++ = UnpackAt(words, i, width, mask);
}

// ---------------------------------------------------------------------------
// EncodedColumn: one compressed column.

/// Per-column stats gathered in one sequential pass over a canonical column
/// and consumed by the encoding policy. `run_heads` counts
/// adjacent-distinct positions (i == 0 or col[i] != col[i-1]); when it is
/// small the exact distinct set is recoverable from the run-head values
/// alone, so dictionary construction costs O(run_heads log run_heads)
/// instead of a full sort.
struct ColumnStats {
  Value min = 0;
  Value max = 0;
  size_t rows = 0;
  size_t run_heads = 0;

  static ColumnStats Of(std::span<const Value> col) {
    ColumnStats st;
    st.rows = col.size();
    if (col.empty()) return st;
    st.min = col[0];
    st.max = col[0];
    st.run_heads = 1;
    for (size_t i = 1; i < col.size(); ++i) {
      st.min = std::min(st.min, col[i]);
      st.max = std::max(st.max, col[i]);
      st.run_heads += col[i] != col[i - 1];
    }
    return st;
  }
};

/// A bit-packed column. Self-describing: holds everything needed to decode
/// (dictionary or FOR base plus width), so a sliced copy can travel in a
/// RelationPage and be decoded at the stream sink.
struct EncodedColumn {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  uint8_t width = 0;               // bits per packed code, 1..64
  Value base = 0;                  // kFor: frame of reference (column min)
  std::vector<Value> dict;         // kDict: sorted distinct values, code -> value
  std::vector<uint64_t> words;     // packed codes, PackedWords(rows, width)
  size_t rows = 0;

  uint64_t mask() const { return PackMask(width); }
  /// Number of distinct codes: dict size for kDict, range span for kFor.
  /// Codes are always < code_domain(); used for code-space directories.
  uint64_t code_domain() const {
    return encoding == ColumnEncoding::kDict
               ? static_cast<uint64_t>(dict.size())
               : mask() + (width >= 64 ? 0 : 1);
  }

  uint64_t CodeAt(size_t i) const {
    return UnpackAt(words.data(), i, width, mask());
  }
  Value Decode(uint64_t code) const {
    return encoding == ColumnEncoding::kDict ? dict[code] : base + code;
  }
  Value At(size_t i) const { return Decode(CodeAt(i)); }

  /// Calls `fn(row, value)` for every row in [begin, end), in order — the
  /// scan primitive operators fuse their per-row work into, so a fold or a
  /// block decode runs directly over the packed codes with no intermediate
  /// materialization. For widths up to 14 four consecutive codes always fit
  /// one 8-byte window ((bit % 8) + 4*width <= 7 + 56 < 64), so the scan
  /// amortizes one unaligned load over four independent shift+mask
  /// extractions; wider codes fall back to the rolling single-load cursor.
  template <typename Fn>
  void VisitValues(size_t begin, size_t end, Fn&& fn) const {
    if (encoding == ColumnEncoding::kDict) {
      VisitImpl(
          begin, end, [d = dict.data()](uint64_t c) { return d[c]; }, fn);
    } else {
      VisitImpl(
          begin, end, [b = base](uint64_t c) { return Value(b + c); }, fn);
    }
  }

  /// Decodes rows [begin, end) into `out`.
  void DecodeInto(size_t begin, size_t end, Value* out) const {
    VisitValues(begin, end, [&out](size_t, Value v) { *out++ = v; });
  }

  /// VisitValues body, templated over the code->value map so the dict/FOR
  /// branch is hoisted out of the loops.
  template <typename Dec, typename Fn>
  void VisitImpl(size_t begin, size_t end, Dec dec, Fn& fn) const {
    const uint64_t m = mask();
    const size_t w = width;
    const auto* bytes = reinterpret_cast<const unsigned char*>(words.data());
    size_t i = begin;
    size_t bit = begin * w;
    if (w <= 14) {
      for (; i + 4 <= end; i += 4, bit += 4 * w) {
        uint64_t v;
        std::memcpy(&v, bytes + (bit >> 3), sizeof v);
        v >>= (bit & 7);
        fn(i, dec(v & m));
        fn(i + 1, dec((v >> w) & m));
        fn(i + 2, dec((v >> (2 * w)) & m));
        fn(i + 3, dec((v >> (3 * w)) & m));
      }
    }
    if (w <= 57) {
      for (; i < end; ++i, bit += w) {
        uint64_t v;
        std::memcpy(&v, bytes + (bit >> 3), sizeof v);
        fn(i, dec((v >> (bit & 7)) & m));
      }
      return;
    }
    for (; i < end; ++i) fn(i, dec(UnpackAt(words.data(), i, width, m)));
  }

  /// Smallest code c such that Decode(c) >= key — the code-space image of a
  /// value-space lower bound (valid because both encodings preserve order).
  /// May exceed every stored code (seek-past-end); callers compare codes as
  /// plain uint64_t so that case falls out naturally.
  uint64_t LowerCode(Value key) const {
    if (encoding == ColumnEncoding::kDict)
      return static_cast<uint64_t>(
          std::lower_bound(dict.begin(), dict.end(), key) - dict.begin());
    return key <= base ? 0 : key - base;
  }

  /// Smallest code c such that Decode(c) > key. Returns ~0ull when no code
  /// can exceed `key` (key at the top of the value domain); since width-64
  /// columns could legitimately hold code ~0ull, callers doing strict seeks
  /// must treat key == max-representable specially (TrieSeek does).
  uint64_t UpperCode(Value key) const {
    if (encoding == ColumnEncoding::kDict)
      return static_cast<uint64_t>(
          std::upper_bound(dict.begin(), dict.end(), key) - dict.begin());
    if (key < base) return 0;
    if (key == ~0ull) return ~0ull;  // top of the value domain
    return key - base + 1;
  }

  /// Bits for the dictionary table itself.
  size_t DictBits() const { return dict.size() * sizeof(Value) * 8; }
  /// Bytes this column pins in memory.
  size_t ResidentBytes() const {
    return words.size() * sizeof(uint64_t) + dict.size() * sizeof(Value);
  }

  /// Packs `col` as FOR deltas against `min`.
  static EncodedColumn For(std::span<const Value> col, Value min, Value max);
  /// Packs `col` as codes into the sorted dictionary `d` (must contain
  /// every value of `col`).
  static EncodedColumn Dict(std::span<const Value> col, std::vector<Value> d);
  /// Re-packs rows [begin, end) of `src` into a self-contained chunk that
  /// shares `src`'s code space (same width/base/dict). `ship_dict` controls
  /// whether the dictionary rides along (first page of a stream) or is
  /// elided (sink already cached it).
  static EncodedColumn Slice(const EncodedColumn& src, size_t begin,
                             size_t end, bool ship_dict);
};

#if defined(TOPOFAQ_X86_SIMD)
/// Cached CPUID probe for the vector unpack kernels.
inline bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}
#endif  // TOPOFAQ_X86_SIMD

/// Sequential packed-code reader: a rolling bit cursor over an
/// EncodedColumn — one unaligned load + shift per code, no positional
/// multiply, no dependent chain between rows. Only valid for widths the
/// single-load fast path covers (see UnpackAt); callers check Eligible()
/// and fall back to positional CodeAt for wider codes.
struct PackedCursor {
  const unsigned char* bytes;
  size_t bit;
  size_t width;
  uint64_t mask;

  static bool Eligible(const EncodedColumn& e) { return e.width <= 57; }

  PackedCursor(const EncodedColumn& e, size_t row)
      : bytes(reinterpret_cast<const unsigned char*>(e.words.data())),
        bit(row * static_cast<size_t>(e.width)),
        width(e.width),
        mask(e.mask()) {}

  /// Reads the code under the cursor and advances one row.
  uint64_t Next() {
    uint64_t v;
    std::memcpy(&v, bytes + (bit >> 3), sizeof v);
    const uint64_t code = (v >> (bit & 7)) & mask;
    bit += width;
    return code;
  }
};

/// Encode-on-canonicalize policy. Returns the chosen encoding for one
/// column, or a kPlain-tagged (empty) EncodedColumn when the column should
/// stay as raw values. `leading` marks the relation's first schema column,
/// which is globally sorted in canonical order and therefore the designated
/// FOR target; other columns prefer dictionaries.
EncodedColumn ChooseAndEncode(std::span<const Value> col,
                              const ColumnStats& st, EncodingMode mode,
                              bool leading);

/// Auto-mode thresholds, shared with tests. Columns shorter than
/// kEncodeMinRows stay plain (encoding set-up cost dominates); a candidate
/// encoding must at least halve the payload to be chosen.
inline constexpr size_t kEncodeMinRows = 4096;
inline constexpr size_t kDictMaxEntries = 1u << 16;

// ---------------------------------------------------------------------------
// ColView: the unified column view behind which operators run.

/// A read-only view of one column (or a row range of it) that is either a
/// raw Value pointer or an EncodedColumn plus offset. `At` is the single
/// scalar decode primitive the encoded kernel instantiations go through.
struct ColView {
  const Value* plain = nullptr;      // non-null iff the column is plain
  const EncodedColumn* enc = nullptr;
  size_t offset = 0;                 // row offset of this view into enc

  bool encoded() const { return enc != nullptr; }

  Value At(size_t i) const {
    return plain != nullptr ? plain[i] : enc->At(offset + i);
  }
  uint64_t CodeAt(size_t i) const {
    return plain != nullptr ? plain[i] : enc->CodeAt(offset + i);
  }
  /// Same-column equality without decoding: codes are injective per column.
  bool EqualAt(size_t i, size_t j) const {
    return plain != nullptr ? plain[i] == plain[j]
                            : enc->CodeAt(offset + i) == enc->CodeAt(offset + j);
  }
  /// Same-column ordered compare without decoding: both encodings preserve
  /// value order within a column.
  int CompareAt(size_t i, size_t j) const {
    uint64_t a, b;
    if (plain != nullptr) {
      a = plain[i];
      b = plain[j];
    } else {
      a = enc->CodeAt(offset + i);
      b = enc->CodeAt(offset + j);
    }
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  ColView Sub(size_t begin) const {
    if (plain != nullptr) return ColView{plain + begin, nullptr, 0};
    return ColView{nullptr, enc, offset + begin};
  }
};

// ---------------------------------------------------------------------------
// Access policies: the one-kernel-body dispatch seam used by ops.h.

/// Raw columnar access — compiles to exactly the pre-encoding loads, so the
/// plain instantiation of every kernel keeps its current codegen.
struct PlainAccess {
  using Col = const Value*;
  static Value At(Col c, size_t i) { return c[i]; }
  static bool EqualAt(Col c, size_t i, size_t j) { return c[i] == c[j]; }
  static int CompareAt(Col c, size_t i, size_t j) {
    return c[i] < c[j] ? -1 : (c[i] > c[j] ? 1 : 0);
  }
};

/// View access — decodes on the fly; same kernel bodies, encoded columns.
struct EncodedAccess {
  using Col = ColView;
  static Value At(const Col& c, size_t i) { return c.At(i); }
  static bool EqualAt(const Col& c, size_t i, size_t j) {
    return c.EqualAt(i, j);
  }
  static int CompareAt(const Col& c, size_t i, size_t j) {
    return c.CompareAt(i, j);
  }
};

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_ENCODING_H_
