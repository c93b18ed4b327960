// Semiring-annotated relations in *listing representation*: a function
// f_e : ∏_{v∈e} Dom(v) → D is stored as the list of its tuples with non-zero
// value, R_e = {(y, f_e(y)) : f_e(y) ≠ 0} — exactly the input representation
// assumed by the paper (Section 1).
//
// Storage is columnar (struct-of-arrays): one contiguous `std::vector<Value>`
// per schema column plus the parallel annotation column. Operators never see
// a row stride — they traverse typed column views (`ColumnView`, `RowCursor`)
// over exactly the columns they touch, so a key comparison or a trie seek
// reads only the cache lines of the key columns (docs/kernel.md, "Columnar
// storage"). `MaterializeRows()` is the row-major escape hatch kept for
// layout-differential tests and debugging.
//
// Canonical-order invariant (docs/kernel.md): a relation is *canonical* when
// its rows are sorted lexicographically in schema-column order, tuples are
// distinct, and no annotation is semiring zero. Canonical relations compare
// pointwise-equal functions as per-column bit-equal arrays, and the
// sort-merge operators in ops.h exploit the ordering to skip sorting entirely
// on shared-key-prefix inputs. The `canonical()` flag tracks the invariant;
// RelationBuilder is the sanctioned way for operators to produce sorted
// output directly.
#ifndef TOPOFAQ_RELATION_RELATION_H_
#define TOPOFAQ_RELATION_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "relation/encoding.h"
#include "semiring/semiring.h"
#include "util/bits.h"
#include "util/check.h"
#include "util/types.h"

namespace topofaq {

class ExecContext;  // exec.h; relation.h stays include-free of the kernel seams

/// An ordered list of distinct variables naming a relation's columns.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<VarId> vars) : vars_(std::move(vars)) {
    // Sort-based duplicate detection: O(n log n) instead of the quadratic
    // pairwise scan.
    std::vector<VarId> sorted = vars_;
    std::sort(sorted.begin(), sorted.end());
    TOPOFAQ_CHECK_MSG(
        std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
        "duplicate variable in schema");
  }

  size_t arity() const { return vars_.size(); }
  const std::vector<VarId>& vars() const { return vars_; }
  VarId var(size_t i) const { return vars_[i]; }

  /// Position of `v` in this schema, or -1 if absent. Linear; operators that
  /// look up many variables should build a SchemaIndex once instead.
  int PositionOf(VarId v) const {
    for (size_t i = 0; i < vars_.size(); ++i)
      if (vars_[i] == v) return static_cast<int>(i);
    return -1;
  }
  bool Contains(VarId v) const { return PositionOf(v) >= 0; }

  /// Variables present in both schemas, in this schema's order.
  std::vector<VarId> SharedWith(const Schema& other) const {
    std::vector<VarId> out;
    for (VarId v : vars_)
      if (other.Contains(v)) out.push_back(v);
    return out;
  }

  bool operator==(const Schema& other) const { return vars_ == other.vars_; }

 private:
  std::vector<VarId> vars_;
};

/// Precomputed position map for a schema: build once per operator call, then
/// answer PositionOf in O(log arity) instead of O(arity) per lookup.
class SchemaIndex {
 public:
  explicit SchemaIndex(const Schema& s) {
    pairs_.reserve(s.arity());
    for (size_t i = 0; i < s.arity(); ++i)
      pairs_.emplace_back(s.var(i), static_cast<int>(i));
    std::sort(pairs_.begin(), pairs_.end());
  }

  int PositionOf(VarId v) const {
    auto it = std::lower_bound(
        pairs_.begin(), pairs_.end(), v,
        [](const std::pair<VarId, int>& p, VarId x) { return p.first < x; });
    return (it != pairs_.end() && it->first == v) ? it->second : -1;
  }
  bool Contains(VarId v) const { return PositionOf(v) >= 0; }

 private:
  std::vector<std::pair<VarId, int>> pairs_;
};

/// A borrowed, read-only view of one column: contiguous row values.
using ColumnView = std::span<const Value>;

template <CommutativeSemiring S>
class RelationBuilder;

namespace detail {

/// Compacts parallel column/annotation arrays that are already sorted and
/// distinct by dropping zero-annotated rows in place (merge cancellation,
/// e.g. GF2) — RelationBuilder::Build's certification pass on sorted
/// input. A no-op (and no writes at all) when nothing is zero.
template <CommutativeSemiring S>
void CompactSortedColumns(std::vector<std::vector<Value>>* cols,
                          std::vector<typename S::Value>* annots) {
  std::vector<typename S::Value>& an = *annots;
  size_t w = 0;
  while (w < an.size() && !S::IsZero(an[w])) ++w;
  if (w == an.size()) return;  // common case: nothing to drop
  size_t out = w;
  for (size_t i = w + 1; i < an.size(); ++i) {
    if (S::IsZero(an[i])) continue;
    an[out] = an[i];
    for (std::vector<Value>& c : *cols) c[out] = c[i];
    ++out;
  }
  an.resize(out);
  for (std::vector<Value>& c : *cols) c.resize(out);
}

/// Fills `perm` (resized to the row count) with the lexicographic row order
/// of the column arrays `cols`, ties broken by row id — a *total* order, so
/// the sorted permutation is unique and every downstream duplicate-merge ⊕
/// folds in a deterministic association. The sort is SortPermByColumns
/// (sort_perm.h): a radix sort of one packed 64-bit word per row when the
/// column widths and row-id bits fit, else a comparator sort that may run
/// on the WorkerPool when the ambient context (`ctx`, or the thread-local
/// default for nullptr) has parallelism > 1. Both give the same
/// permutation. Defined in relation.cc.
void SortRowPerm(const std::vector<std::vector<Value>>& cols, size_t rows,
                 std::vector<size_t>* perm, ExecContext* ctx);

/// ExecContext::Resolve(ctx).encoding. Defined in relation.cc.
EncodingMode EncodingModeOf(ExecContext* ctx);

}  // namespace detail

/// A relation annotated with values from semiring S. Column-major: column j
/// of the rows lives in its own contiguous array, parallel to the
/// annotation column.
template <CommutativeSemiring S>
class Relation {
 public:
  using SemiringValue = typename S::Value;

  Relation() = default;
  explicit Relation(Schema schema)
      : schema_(std::move(schema)), cols_(schema_.arity()) {}

  const Schema& schema() const { return schema_; }
  size_t arity() const { return schema_.arity(); }
  size_t size() const { return annots_.size(); }
  bool empty() const { return annots_.empty(); }

  /// True when rows are sorted lexicographically, distinct, and non-zero.
  bool canonical() const { return canonical_; }

  /// True when column `j` is stored compressed (encode-on-canonicalize).
  const EncodedColumn* encoded_col(size_t j) const {
    if (encs_.empty() || encs_[j].encoding == ColumnEncoding::kPlain)
      return nullptr;
    return &encs_[j];
  }
  bool any_encoded() const { return !encs_.empty(); }
  ColumnEncoding col_encoding(size_t j) const {
    const EncodedColumn* e = encoded_col(j);
    return e == nullptr ? ColumnEncoding::kPlain : e->encoding;
  }

  /// Column `j` behind the encoding seam — the view the operator kernels
  /// traverse. Plain columns cost a raw pointer; encoded columns decode
  /// per access (or compare raw codes, see ColView).
  ColView view(size_t j) const {
    if (const EncodedColumn* e = encoded_col(j)) return ColView{nullptr, e, 0};
    return ColView{cols_[j].data(), nullptr, 0};
  }
  /// View of column `j` starting at row `begin`.
  ColView view(size_t j, size_t begin) const { return view(j).Sub(begin); }

  /// Column `j` as a contiguous read-only view — the unit plain-path
  /// operators traverse. On an encoded column this *materializes* the
  /// decoded values into a per-relation cache (kept until the next
  /// mutation): correct but O(n) space, intended for tests, benches and
  /// reference code. NOT thread-safe on encoded columns — kernels running
  /// on the WorkerPool must go through view() instead.
  ColumnView col(size_t j) const {
    if (encs_.empty() || encs_[j].encoding == ColumnEncoding::kPlain)
      return cols_[j];
    if (dcache_.empty()) dcache_.resize(arity());
    if (dcache_[j].size() != size()) {
      dcache_[j].resize(size());
      encs_[j].DecodeInto(0, size(), dcache_[j].data());
    }
    return dcache_[j];
  }
  /// Rows [begin, end) of column `j` — the page-granular view the streaming
  /// transport (network/stream.h) cuts fixed-size column chunks from.
  ColumnView col(size_t j, size_t begin, size_t end) const {
    TOPOFAQ_DCHECK(begin <= end && end <= size());
    return col(j).subspan(begin, end - begin);
  }
  /// All columns, schema order, decoded. Per-column equality of columns() +
  /// annots() is the determinism contract of the parallel kernel (encoded
  /// relations compare by decoded bit pattern). Same caching caveat as
  /// col(): single-threaded callers only when any column is encoded.
  const std::vector<std::vector<Value>>& columns() const {
    if (encs_.empty()) return cols_;
    if (dcache_.empty()) dcache_.resize(arity());
    for (size_t j = 0; j < arity(); ++j) {
      if (dcache_[j].size() == size() && size() > 0) continue;
      if (encs_[j].encoding == ColumnEncoding::kPlain) {
        dcache_[j] = cols_[j];
      } else {
        dcache_[j].resize(size());
        encs_[j].DecodeInto(0, size(), dcache_[j].data());
      }
    }
    return dcache_;
  }

  /// Value of column `j` at row `i` (random access; hot loops should hoist
  /// view(j) or col(j).data() instead).
  Value at(size_t i, size_t j) const {
    if (const EncodedColumn* e = encoded_col(j)) return e->At(i);
    return cols_[j][i];
  }

  /// Row `i` gathered across all columns — the row-at-a-time escape hatch
  /// for reference/debug code; O(arity) column probes per call.
  std::vector<Value> Row(size_t i) const {
    std::vector<Value> out(arity());
    for (size_t j = 0; j < out.size(); ++j) out[j] = at(i, j);
    return out;
  }

  /// The whole relation gathered into a flat row-major array (stride =
  /// arity) — kept for layout round-trip tests and row-oriented baselines;
  /// no operator consumes this.
  std::vector<Value> MaterializeRows() const {
    std::vector<Value> out(size() * arity());
    for (size_t j = 0; j < arity(); ++j) {
      const Value* c = col(j).data();
      for (size_t i = 0; i < size(); ++i) out[i * arity() + j] = c[i];
    }
    return out;
  }

  /// Bytes the key columns pin in memory: packed words + dictionaries for
  /// encoded columns, raw value arrays for plain ones. The transient
  /// decode cache behind col() is excluded — production paths never fill
  /// it. This is the footprint number the bench gate compares encoded vs
  /// plain on.
  size_t ResidentKeyBytes() const {
    size_t bytes = 0;
    for (size_t j = 0; j < arity(); ++j) {
      if (const EncodedColumn* e = encoded_col(j))
        bytes += e->ResidentBytes();
      else
        bytes += cols_[j].size() * sizeof(Value);
    }
    return bytes;
  }

  SemiringValue annot(size_t i) const { return annots_[i]; }
  /// The full annotation column, parallel to the rows.
  const std::vector<SemiringValue>& annots() const { return annots_; }

  /// Appends (t, v). Zero-annotated tuples are dropped (listing rep stores
  /// only non-zeros). Duplicates are merged by Canonicalize(). Like every
  /// mutator it decodes first, so the non-canonical states downstream code
  /// sorts through only ever see plain columns.
  void Add(std::span<const Value> t, SemiringValue v) {
    TOPOFAQ_CHECK(t.size() == arity());
    if (S::IsZero(v)) return;
    DecodeAll();
    for (size_t j = 0; j < t.size(); ++j) cols_[j].push_back(t[j]);
    annots_.push_back(v);
    canonical_ = false;
  }
  void Add(std::initializer_list<Value> t, SemiringValue v) {
    Add(std::span<const Value>(t.begin(), t.size()), v);
  }
  /// Convenience: annotation = 1.
  void Add(std::initializer_list<Value> t) { Add(t, S::One()); }

  /// Sorts rows lexicographically, merges duplicate tuples with S::Add, and
  /// drops zero annotations. After this, the relation is a canonical function
  /// representation: pointwise-equal functions compare equal. A no-op when
  /// the canonical flag is already set. Columnar execution: one permutation
  /// sort (detail::SortRowPerm — a packed-key radix sort when the columns
  /// fit in 64 bits beside the row id), one gather pass per column, then
  /// one sequential fold-and-compact pass over the sorted rows; rows are
  /// never copied through a row buffer. The columns are then encoded under
  /// `ctx`'s mode (the thread-local ambient context's for nullptr).
  void Canonicalize(ExecContext* ctx = nullptr) {
    if (canonical_) return;
    DecodeAll();  // non-canonical relations are plain; enforce defensively
    const size_t n = size();
    std::vector<size_t> order;
    detail::SortRowPerm(cols_, n, &order, ctx);
    // Gather every column and the annotations into sorted order — the only
    // random reads. Equal rows are then adjacent. Each column gathers into
    // the storage the previous one released.
    std::vector<Value> buf(n);
    for (std::vector<Value>& c : cols_) {
      const Value* src = c.data();
      for (size_t i = 0; i < n; ++i) buf[i] = src[order[i]];
      c.swap(buf);
    }
    std::vector<SemiringValue> na(n);
    for (size_t i = 0; i < n; ++i) na[i] = annots_[order[i]];
    // Fold each run of equal rows in sorted (row-id) order, drop zero sums,
    // and compact in place.
    size_t out = 0;
    for (size_t idx = 0; idx < n;) {
      size_t run_end = idx + 1;
      while (run_end < n && RowsEqual(idx, run_end)) ++run_end;
      SemiringValue acc = na[idx];
      for (size_t j = idx + 1; j < run_end; ++j) acc = S::Add(acc, na[j]);
      if (!S::IsZero(acc)) {
        if (out != idx)
          for (std::vector<Value>& c : cols_) c[out] = c[idx];
        na[out++] = acc;
      }
      idx = run_end;
    }
    for (std::vector<Value>& c : cols_) c.resize(out);
    na.resize(out);
    annots_ = std::move(na);
    canonical_ = true;
    EncodeColumns(ctx);
  }

  /// Applies the encode-on-canonicalize policy, under `ctx`'s mode (the
  /// thread-local default context's for nullptr), to a canonical, currently
  /// plain relation (no-op otherwise). Exposed so Build() — which certifies
  /// canonical without running Canonicalize — and tests can trigger the
  /// same policy.
  /// Columns the policy compresses move into encs_ and release their plain
  /// storage; the rest stay raw (their encs_ slot is a kPlain marker).
  void EncodeColumns(ExecContext* ctx = nullptr) {
    if (!canonical_ || !encs_.empty() || size() == 0) return;
    const EncodingMode mode = detail::EncodingModeOf(ctx);
    if (mode == EncodingMode::kPlain) return;
    std::vector<EncodedColumn> encs(arity());
    bool any = false;
    for (size_t j = 0; j < arity(); ++j) {
      encs[j] =
          ChooseAndEncode(cols_[j], ColumnStats::Of(cols_[j]), mode, j == 0);
      if (encs[j].encoding != ColumnEncoding::kPlain) {
        any = true;
        cols_[j].clear();
        cols_[j].shrink_to_fit();
      }
    }
    if (any) encs_ = std::move(encs);
  }

  /// Materializes every encoded column back into its plain value array and
  /// drops the encodings. Mutators call this so row-level edits and sorts
  /// always operate on raw values.
  void DecodeAll() {
    if (encs_.empty()) return;
    for (size_t j = 0; j < arity(); ++j) {
      if (encs_[j].encoding == ColumnEncoding::kPlain) continue;
      cols_[j].resize(encs_[j].rows);
      encs_[j].DecodeInto(0, encs_[j].rows, cols_[j].data());
    }
    encs_.clear();
    dcache_.clear();
    dcache_.shrink_to_fit();
  }

  /// Exact function equality. Canonical operands compare directly, column by
  /// column; others are canonicalized on a copy first.
  bool EqualsAsFunction(const Relation& other) const {
    if (!(schema_ == other.schema_)) return false;
    if (canonical_ && other.canonical_)
      return columns() == other.columns() && annots_ == other.annots_;
    Relation a = *this, b = other;
    a.Canonicalize();
    b.Canonicalize();
    return a.columns() == b.columns() && a.annots_ == b.annots_;
  }

  /// Wire size in bits when shipped over the network: each tuple costs
  /// arity·bits_per_attr (the paper's r·log2 D) plus kValueBits annotation.
  int64_t EncodedBits(int bits_per_attr) const {
    return EncodedBitsRange(0, size(), bits_per_attr);
  }

  /// Wire size of rows [begin, end) only under the plain cost model — what
  /// one streamed page of this relation would cost with no column
  /// encodings (network/stream.h prices every page both ways and ships the
  /// cheaper encoded form when columns carry one).
  int64_t EncodedBitsRange(size_t begin, size_t end, int bits_per_attr) const {
    TOPOFAQ_DCHECK(begin <= end && end <= size());
    return static_cast<int64_t>(end - begin) *
           (static_cast<int64_t>(arity()) * bits_per_attr + S::kValueBits);
  }

  /// Largest attribute value + 1 appearing anywhere (lower bound on D).
  /// Encoded columns never decode per row: a dictionary's last entry is its
  /// column's max, a sorted leading FOR column's max is its last row, and
  /// any other FOR column's max code is found by a block-wise code scan
  /// (codes preserve value order within a column).
  uint64_t MaxValuePlusOne() const {
    uint64_t m = 1;
    for (size_t j = 0; j < arity(); ++j) {
      if (const EncodedColumn* e = encoded_col(j)) {
        if (e->encoding == ColumnEncoding::kDict) {
          if (!e->dict.empty()) m = std::max(m, e->dict.back() + 1);
        } else if (e->rows > 0) {
          uint64_t top = 0;
          if (j == 0 && canonical_) {
            top = e->CodeAt(e->rows - 1);
          } else {
            auto code = [](uint64_t c) { return c; };
            auto fold = [&top](size_t, uint64_t c) { top = std::max(top, c); };
            e->VisitImpl(0, e->rows, code, fold);
          }
          m = std::max(m, e->Decode(top) + 1);
        }
      } else {
        for (Value v : cols_[j]) m = std::max(m, v + 1);
      }
    }
    return m;
  }

  /// Reinterprets the relation under a permuted schema: column j of the
  /// result is current column `src[j]`. Pure column-handle moves — no row
  /// data is copied and rows keep their identity — but row *order* is no
  /// longer sorted under the new column order, so the canonical flag drops;
  /// callers re-canonicalize (one permutation sort + per-column gather).
  /// The identity permutation only renames the schema: row order, the
  /// canonical flag and the column encodings all survive.
  void ReorderColumns(Schema new_schema, const std::vector<int>& src) {
    TOPOFAQ_CHECK(new_schema.arity() == arity() && src.size() == arity());
    bool identity = true;
    for (size_t j = 0; j < src.size(); ++j)
      identity = identity && src[j] == static_cast<int>(j);
    if (identity) {
      schema_ = std::move(new_schema);
      return;
    }
    DecodeAll();
    std::vector<std::vector<Value>> nc(src.size());
    for (size_t j = 0; j < src.size(); ++j)
      nc[j] = std::move(cols_[static_cast<size_t>(src[j])]);
    cols_ = std::move(nc);
    schema_ = std::move(new_schema);
    canonical_ = false;
  }

  /// Puts the columns in `target`'s order (same variable set, any order)
  /// and certifies the result canonical. A matching order moves no column;
  /// otherwise ReorderColumns permutes the column handles. Either way a
  /// non-canonical relation is re-canonicalized, which ⊕-folds its duplicate
  /// rows. Solvers finish their answer over F with this, and incremental
  /// terms align with the message they fold into.
  void ReorderTo(const Schema& target, ExecContext* ctx = nullptr) {
    if (schema_ != target) {
      TOPOFAQ_CHECK_MSG(arity() == target.arity(), "ReorderTo: arity mismatch");
      std::vector<int> src(target.arity());
      for (size_t j = 0; j < target.arity(); ++j) {
        src[j] = schema_.PositionOf(target.var(j));
        TOPOFAQ_CHECK_MSG(src[j] >= 0, "ReorderTo: variable set mismatch");
      }
      ReorderColumns(target, src);
    }
    Canonicalize(ctx);
  }

  std::string DebugString() const {
    std::string out = "[";
    for (size_t i = 0; i < size(); ++i) {
      if (i) out += ", ";
      out += "(";
      for (size_t j = 0; j < arity(); ++j) {
        if (j) out += ",";
        out += std::to_string(at(i, j));
      }
      out += ")";
    }
    out += "]";
    return out;
  }

 private:
  friend class RelationBuilder<S>;

  Relation(Schema schema, std::vector<std::vector<Value>> cols,
           std::vector<SemiringValue> annots, bool canonical)
      : schema_(std::move(schema)),
        cols_(std::move(cols)),
        annots_(std::move(annots)),
        canonical_(canonical) {
    TOPOFAQ_DCHECK(cols_.size() == schema_.arity());
  }

  bool RowsEqual(size_t x, size_t y) const {
    for (const std::vector<Value>& c : cols_)
      if (c[x] != c[y]) return false;
    return true;
  }

  Schema schema_;
  std::vector<std::vector<Value>> cols_;  // column-major: cols_[j][row]
  // Compressed columns (encode-on-canonicalize). Empty when every column is
  // plain; otherwise one entry per column, kPlain-tagged for columns left
  // raw. An encoded column's cols_[j] is released (empty).
  std::vector<EncodedColumn> encs_;
  // Lazy decoded copies backing col()/columns() on encoded relations.
  // Transient (cleared on mutation), excluded from ResidentKeyBytes().
  mutable std::vector<std::vector<Value>> dcache_;
  std::vector<SemiringValue> annots_;     // parallel annotation column
  // Empty relations are trivially canonical; Add clears the flag.
  bool canonical_ = true;
};

/// Cached per-column base pointers over a chosen column subset of one
/// relation — the typed view operators traverse instead of assuming any row
/// stride. Borrowed: invalidated by any mutation of the relation.
class RowCursor {
 public:
  RowCursor() = default;
  /// All columns, schema order.
  template <CommutativeSemiring S>
  explicit RowCursor(const Relation<S>& r) {
    cols_.reserve(r.arity());
    for (size_t j = 0; j < r.arity(); ++j) cols_.push_back(r.col(j).data());
  }
  /// The columns named by `pos`, in `pos` order.
  template <CommutativeSemiring S>
  RowCursor(const Relation<S>& r, const std::vector<int>& pos) {
    cols_.reserve(pos.size());
    for (int p : pos) cols_.push_back(r.col(static_cast<size_t>(p)).data());
  }

  size_t width() const { return cols_.size(); }
  Value at(size_t row, size_t c) const { return cols_[c][row]; }
  /// Raw base-pointer array for hot loops.
  const Value* const* cols() const { return cols_.data(); }
  /// Copies row `row` into out[0..width).
  void Gather(size_t row, Value* out) const {
    for (size_t c = 0; c < cols_.size(); ++c) out[c] = cols_[c][row];
  }

 private:
  std::vector<const Value*> cols_;
};

/// Accumulates operator output rows and produces a canonical Relation.
///
/// Append merges a row equal to the previous one with S::Add and tracks
/// whether rows arrive in nondecreasing order. Build() then either certifies
/// the output canonical with a single zero-dropping pass (the sorted case —
/// every sort-merge operator emitting in key order lands here) or falls back
/// to one Canonicalize() sort. This is what lets operators produce sorted
/// output directly instead of sort-after-the-fact. Output accumulates
/// column-major, so Build is a handle move with no transpose.
template <CommutativeSemiring S>
class RelationBuilder {
 public:
  using SemiringValue = typename S::Value;

  explicit RelationBuilder(Schema schema)
      : schema_(std::move(schema)),
        arity_(schema_.arity()),
        cols_(arity_) {}

  /// Disables encode-on-build. Morsel builders use this: their pieces are
  /// spliced into one more builder as plain column views, so only the
  /// spliced result runs the encoding policy.
  void set_encode(bool encode) { encode_ = encode; }

  void Reserve(size_t rows) {
    for (std::vector<Value>& c : cols_) c.reserve(rows);
    annots_.reserve(rows);
  }

  size_t rows() const { return annots_.size(); }

  /// Appends (t, v). A tuple equal to the previous appended tuple is merged
  /// into it with S::Add instead of stored again.
  void Append(std::span<const Value> t, SemiringValue v) {
    TOPOFAQ_DCHECK(t.size() == arity_);
    if (!annots_.empty()) {
      const int cmp = CompareLast(t.data());
      if (cmp == 0) {
        annots_.back() = S::Add(annots_.back(), v);
        return;
      }
      if (cmp > 0) sorted_ = false;
    }
    for (size_t j = 0; j < arity_; ++j) cols_[j].push_back(t[j]);
    annots_.push_back(v);
  }
  void Append(std::initializer_list<Value> t, SemiringValue v) {
    Append(std::span<const Value>(t.begin(), t.size()), v);
  }

  /// Bulk append of a sorted, distinct column chunk — the one sorted
  /// splice: the morsel concatenation of MorselRun (parallel.h), the page
  /// splice of the streaming sink (network/stream.h) and the untouched base
  /// runs of a delta merge (ivm/delta.h) all land here. `cols[j]` are
  /// borrowed parallel column ranges of `annots.size()` rows each,
  /// lexicographically ascending and distinct (verified under
  /// TOPOFAQ_DCHECK). One boundary compare against the stored last row,
  /// then arity+1 range inserts: a chunk whose first row equals the stored
  /// last row merges that row with S::Add, exactly Append's rule, and a
  /// chunk starting below it clears the sorted flag (Build() then pays its
  /// closing sort).
  void AppendChunk(std::span<const ColumnView> cols,
                   std::span<const SemiringValue> annots) {
    TOPOFAQ_DCHECK(cols.size() == arity_);
    const size_t n = annots.size();
    if (n == 0) return;
#ifndef NDEBUG
    for (size_t j = 0; j < arity_; ++j) TOPOFAQ_DCHECK(cols[j].size() == n);
    for (size_t i = 1; i < n; ++i) {
      int cmp = 0;
      for (size_t j = 0; j < arity_ && cmp == 0; ++j) {
        const Value x = cols[j][i - 1];
        const Value y = cols[j][i];
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      TOPOFAQ_DCHECK(cmp < 0);
    }
#endif
    size_t start = 0;
    if (!annots_.empty()) {
      const size_t last = annots_.size() - 1;
      int cmp = 0;
      for (size_t j = 0; j < arity_ && cmp == 0; ++j) {
        const Value x = cols_[j][last];
        const Value y = cols[j][0];
        cmp = x < y ? -1 : (x > y ? 1 : 0);
      }
      if (cmp == 0) {
        annots_.back() = S::Add(annots_.back(), annots[0]);
        start = 1;
      } else if (cmp > 0) {
        sorted_ = false;
      }
    }
    for (size_t j = 0; j < arity_; ++j)
      cols_[j].insert(cols_[j].end(), cols[j].begin() + start, cols[j].end());
    annots_.insert(annots_.end(), annots.begin() + start, annots.end());
  }

  /// Finalizes into a canonical relation, encoded under `ctx`'s mode (the
  /// thread-local default context's for nullptr). The builder is left empty
  /// and reusable for the same schema.
  Relation<S> Build(ExecContext* ctx = nullptr) {
    if (sorted_) {
      // Rows are already sorted and distinct; drop zero annotations
      // (merge cancellation, e.g. GF2) with one compacting pass.
      detail::CompactSortedColumns<S>(&cols_, &annots_);
      Relation<S> out{schema_, std::move(cols_), std::move(annots_), true};
      Clear();
      if (encode_) out.EncodeColumns(ctx);
      return out;
    }
    Relation<S> out{schema_, std::move(cols_), std::move(annots_), false};
    Clear();
    out.Canonicalize(ctx);
    return out;
  }

 private:
  /// Lexicographic compare of the last stored row vs `t`: <0, 0, >0.
  int CompareLast(const Value* t) const {
    const size_t last = annots_.size() - 1;
    for (size_t j = 0; j < arity_; ++j) {
      const Value x = cols_[j][last];
      if (x < t[j]) return -1;
      if (x > t[j]) return 1;
    }
    return 0;
  }

  void Clear() {
    cols_.assign(arity_, {});
    annots_ = {};
    sorted_ = true;
  }

  Schema schema_;
  size_t arity_;
  std::vector<std::vector<Value>> cols_;  // column-major, parallel to annots_
  std::vector<SemiringValue> annots_;
  bool sorted_ = true;
  bool encode_ = true;
};

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_RELATION_H_
