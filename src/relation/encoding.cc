#include "relation/encoding.h"

#include <cstdlib>
#include <cstring>

namespace topofaq {

namespace {

/// Packs the `n` codes `code(0), ..., code(n-1)` (each must fit `width`
/// bits) with one sequential word writer: each word is assembled in a
/// register and stored once, with no read-modify-write per code. The words
/// equal PackAt's at every position, padding word included.
template <typename CodeFn>
std::vector<uint64_t> Pack(size_t n, int width, CodeFn&& code) {
  std::vector<uint64_t> words(PackedWords(n, width), 0);
  uint64_t* out = words.data();
  uint64_t acc = 0;
  int fill = 0;  // low bits of acc already holding codes
  for (size_t i = 0; i < n; ++i) {
    const uint64_t c = code(i);
    acc |= c << fill;
    fill += width;
    if (fill >= 64) {  // acc is full: store it, carry c's spilled high bits
      *out++ = acc;
      fill -= 64;
      acc = fill == 0 ? 0 : c >> (width - fill);
    }
  }
  if (fill > 0) *out = acc;
  return words;
}

int WidthFor(uint64_t code_domain) {
  const int w = code_domain <= 1 ? 1 : CeilLog2(code_domain);
  return w < 1 ? 1 : w;
}

/// The exact distinct value set of `col`. When the adjacent-distinct count
/// is small the run-head values already cover every distinct value (each
/// value heads at least one of its runs), so only those are collected; the
/// fallback sorts a full copy (forced-dict mode on high-churn columns).
std::vector<Value> DistinctValues(std::span<const Value> col,
                                  const ColumnStats& st) {
  std::vector<Value> vals;
  if (st.run_heads <= kDictMaxEntries) {
    vals.reserve(st.run_heads);
    for (size_t i = 0; i < col.size(); ++i)
      if (i == 0 || col[i] != col[i - 1]) vals.push_back(col[i]);
  } else {
    vals.assign(col.begin(), col.end());
  }
  std::sort(vals.begin(), vals.end());
  vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
  return vals;
}

}  // namespace

EncodedColumn EncodedColumn::For(std::span<const Value> col, Value min,
                                 Value max) {
  EncodedColumn e;
  e.encoding = ColumnEncoding::kFor;
  e.rows = col.size();
  e.base = min;
  e.width = static_cast<uint8_t>(max - min == ~0ull ? 64
                                                    : WidthFor(max - min + 1));
  e.words = Pack(col.size(), e.width, [&](size_t i) { return col[i] - min; });
  return e;
}

EncodedColumn EncodedColumn::Dict(std::span<const Value> col,
                                  std::vector<Value> d) {
  EncodedColumn e;
  e.encoding = ColumnEncoding::kDict;
  e.rows = col.size();
  e.dict = std::move(d);
  e.width = static_cast<uint8_t>(WidthFor(e.dict.size()));
  const Value* db = e.dict.data();
  const Value* de = db + e.dict.size();
  e.words = Pack(col.size(), e.width, [&](size_t i) {
    const Value* it = std::lower_bound(db, de, col[i]);
    TOPOFAQ_CHECK_MSG(it != de && *it == col[i],
                      "value missing from dictionary");
    return static_cast<uint64_t>(it - db);
  });
  return e;
}

EncodedColumn EncodedColumn::Slice(const EncodedColumn& src, size_t begin,
                                   size_t end, bool ship_dict) {
  EncodedColumn e;
  e.encoding = src.encoding;
  e.width = src.width;
  e.base = src.base;
  e.rows = end - begin;
  if (ship_dict) e.dict = src.dict;
  e.words = Pack(e.rows, e.width, [&src, begin](size_t i) {
    return src.CodeAt(begin + i);
  });
  return e;
}

EncodedColumn ChooseAndEncode(std::span<const Value> col,
                              const ColumnStats& st, EncodingMode mode,
                              bool leading) {
  EncodedColumn plain;  // encoding == kPlain signals "leave as raw values"
  if (mode == EncodingMode::kPlain || col.empty()) return plain;
  if (mode == EncodingMode::kForceFor)
    return EncodedColumn::For(col, st.min, st.max);
  if (mode == EncodingMode::kForceDict)
    return EncodedColumn::Dict(col, DistinctValues(col, st));

  // kAuto: encode only when the payload at least halves, and only for
  // columns long enough that set-up cost amortizes. FOR is preferred for
  // the globally sorted leading key column (narrow deltas, O(1) seeks);
  // dictionaries for skewed/low-cardinality columns elsewhere.
  if (st.rows < kEncodeMinRows) return plain;
  const size_t plain_bits = st.rows * sizeof(Value) * 8;

  const uint64_t span = st.max - st.min;
  const int for_width = span == ~0ull ? 64 : WidthFor(span + 1);
  const size_t for_bits = st.rows * static_cast<size_t>(for_width);
  const bool for_ok = for_bits * 2 <= plain_bits;

  const bool dict_candidate =
      st.run_heads <= kDictMaxEntries && st.run_heads * 8 <= st.rows;
  size_t dict_bits = ~size_t{0};
  std::vector<Value> dict;
  if (dict_candidate) {
    dict = DistinctValues(col, st);
    dict_bits = st.rows * static_cast<size_t>(WidthFor(dict.size())) +
                dict.size() * sizeof(Value) * 8;
  }
  const bool dict_ok = dict_candidate && dict_bits * 2 <= plain_bits;

  if (leading && for_ok && (!dict_ok || for_bits <= dict_bits))
    return EncodedColumn::For(col, st.min, st.max);
  if (dict_ok && (!for_ok || dict_bits < for_bits))
    return EncodedColumn::Dict(col, std::move(dict));
  if (for_ok) return EncodedColumn::For(col, st.min, st.max);
  return plain;
}

}  // namespace topofaq
