// Worst-case-optimal multiway join (docs/kernel.md, "Worst-case-optimal
// join"): a Leapfrog-Triejoin-style intersection join over any number of
// relations, evaluated variable by variable instead of relation by relation,
// so the peak materialized size is the output itself — never the
// polynomially larger pairwise intermediates the AGM / fractional-edge-cover
// bound rules out for cyclic queries (Gottlob–Lee–Valiant size bounds;
// PAPERS.md).
//
// The kernel's canonical-order invariant does the heavy lifting: a canonical
// relation whose columns follow the shared global variable order (ascending
// VarId) *is* a sorted trie — level d of the trie is column d, and every
// trie operation (open a child, seek a key, step to the next key) is a
// galloping search over a contiguous range *of that single column array*:
// columnar storage (docs/kernel.md, "Columnar storage") makes each seek a
// dense binary search with no row stride between probed keys, the layout's
// payoff case. The only preprocessing is a column-handle permutation +
// re-canonicalization per input whose columns are out of order (one sort,
// counted in OpStats::sorts; already-ascending canonical inputs are free
// and counted in sort_skips), after which the join needs nothing but
// per-relation cursor stacks. Annotations combine with ⊗ exactly once
// per relation, at the level where its last variable is bound.
//
// Output rows are emitted in ascending global variable order — which is the
// output's own schema order — so the result is certified canonical with no
// closing sort, like every other operator in ops.h.
//
// The walk runs through one MorselRun call (docs/kernel.md "Morsel-parallel
// execution"). With ctx->parallelism > 1 the outermost variable's
// intersection is cut into key-aligned morsels over the smallest top-level
// relation; each worker runs the full leapfrog restricted to its key window,
// and the per-morsel outputs splice bit-identically to the serial bytes. One
// worker walks the whole key space, with no window.
#ifndef TOPOFAQ_RELATION_MULTIWAY_H_
#define TOPOFAQ_RELATION_MULTIWAY_H_

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "obs/op_format.h"
#include "obs/trace.h"
#include "relation/exec.h"
#include "relation/parallel.h"
#include "relation/relation.h"
#include "relation/simd.h"

namespace topofaq {
namespace internal {

/// Far seeks descend through a per-column *sample*: every
/// kSeekSampleStride-th key copied into a dense side array small enough to
/// stay cache-resident (built once per MultiwayJoin call for columns of at
/// least kSeekSampleMinRows rows). A sampled seek binary-searches the
/// sample first — cached probes — and finishes inside one stride-wide
/// window of the column (a couple of cache lines), instead of chasing
/// ~log2(n) dependent misses across the full column. Short seeks (within
/// kShortSeekLimit positions) keep the plain exponential gallop, which is
/// cheaper on already-hot lines.
inline constexpr size_t kSeekSampleStride = 64;
inline constexpr size_t kSeekSampleMinRows = 4096;
inline constexpr size_t kShortSeekLimit = 128;

/// First position in [lo, hi) of the contiguous column array `col` whose
/// value is >= key (galloping search; probes are counted into *cmps).
/// `samp` is the column's seek sample, or nullptr for unsampled columns.
/// When `vec` (the caller's simd::Available decision), the descent finishes
/// with one simd::LowerBoundU64 sweep over the final window; its vector
/// iterations are counted into *blocks (nullable).
size_t TrieSeek(const Value* col, const Value* samp, size_t lo, size_t hi,
                Value key, bool vec, int64_t* cmps, int64_t* blocks = nullptr);

/// First position in [lo, hi) of `col` whose value is > key: the end of the
/// key's run when [lo, hi) is positioned at it.
size_t TrieRunEnd(const Value* col, const Value* samp, size_t lo, size_t hi,
                  Value key, bool vec, int64_t* cmps,
                  int64_t* blocks = nullptr);

/// The packed-column gallop: first position in [lo, hi) of the bit-packed
/// code buffer `words` (codes of `width` bits) whose code is >= `code`.
/// Encoded trie columns seek through this — the seek key is translated to
/// code space once per seek (EncodedColumn::LowerCode/UpperCode, valid
/// because both encodings preserve order within a column), then every
/// gallop probe is a word-at-a-time unpack instead of a decode. `samp`
/// holds every kSeekSampleStride-th *code* (or nullptr).
size_t TrieSeekPacked(const uint64_t* words, int width, const Value* samp,
                      size_t lo, size_t hi, uint64_t code, int64_t* cmps);

/// Returns `r` as a canonical relation whose columns follow ascending VarId
/// order — the trie view MultiwayJoin consumes. Takes its argument by value
/// so the common case — a canonical input whose schema is already ascending
/// (every hyperedge relation) — moves through with no copy at all
/// (sort_skips); otherwise Relation::ReorderTo permutes the column handles
/// (no row data moves) and pays one re-canonicalization sort (sorts).
template <CommutativeSemiring S>
Relation<S> PermuteToVarOrder(Relation<S> r, ExecContext& cx, OpStats* st) {
  std::vector<VarId> tvars = r.schema().vars();
  std::sort(tvars.begin(), tvars.end());
  if (r.canonical() && tvars == r.schema().vars()) {
    ++st->sort_skips;
    return r;
  }
  r.ReorderTo(Schema(std::move(tvars)), &cx);
  ++st->sorts;
  st->peak_rows = std::max<int64_t>(st->peak_rows,
                                    static_cast<int64_t>(r.size()));
  return r;
}

/// Read-only plan shared by every worker of one MultiwayJoin call.
template <CommutativeSemiring S>
struct MultiwayPlan {
  /// One relation's participation at one global level.
  struct Active {
    int rel;     ///< index into rels
    size_t col;  ///< the level variable's column (== trie depth) in rel
    bool last;   ///< this is rel's deepest column: its row is now determined
  };
  std::vector<Relation<S>> rels;  ///< trie views (canonical, ascending vars)
  std::vector<VarId> vars;        ///< global variable order (ascending)
  std::vector<std::vector<Active>> levels;  ///< actives per global level
  /// samples[rel][col]: the column's seek sample (every
  /// kSeekSampleStride-th value — raw *codes* for an encoded column, so the
  /// sampled descent compares in code space), empty below
  /// kSeekSampleMinRows rows.
  std::vector<std::vector<std::vector<Value>>> samples;
  /// root_dirs[rel]: dense O(1) seek directory for the relation's *root*
  /// column — the one column that is globally sorted over the whole
  /// relation, so a single array d with d[v] = first position whose leading
  /// key is >= v answers every seek with one cached load. Built only when
  /// the leading-key domain is dense (max key + 1 <= 4x rows) and the
  /// relation is large; empty otherwise (seeks fall back to the gallop).
  /// For an encoded root column the directory is rebuilt in *code space*
  /// (d indexed by code, seeks translate through LowerCode/UpperCode first)
  /// — and since codes are dense by construction (dict codes are
  /// consecutive, FOR deltas span the value range), encoded roots qualify
  /// far more often than raw keys do.
  std::vector<std::vector<uint32_t>> root_dirs;

  /// Builds the per-column seek samples and per-relation root directories;
  /// one sequential pass each, shared read-only by all workers. Encoded
  /// columns are sampled/indexed via CodeAt — never decoded, never through
  /// the col() cache.
  void BuildSeekIndexes() {
    samples.resize(rels.size());
    root_dirs.resize(rels.size());
    for (size_t i = 0; i < rels.size(); ++i) {
      samples[i].resize(rels[i].arity());
      const size_t n = rels[i].size();
      if (n < kSeekSampleMinRows) continue;
      for (size_t c = 0; c < rels[i].arity(); ++c) {
        std::vector<Value>& samp = samples[i][c];
        if (const EncodedColumn* e = rels[i].encoded_col(c)) {
          samp.reserve(n / kSeekSampleStride + 1);
          for (size_t t = 0; t < n; t += kSeekSampleStride)
            samp.push_back(e->CodeAt(t));
          continue;
        }
        const ColumnView col = rels[i].col(c);
        samp.reserve(col.size() / kSeekSampleStride + 1);
        for (size_t t = 0; t < col.size(); t += kSeekSampleStride)
          samp.push_back(col[t]);
      }
      if (const EncodedColumn* e = rels[i].encoded_col(0)) {
        // Root column sorted ⇒ codes sorted (order-preserving encodings),
        // so the last code is the max. Same density guard as the plain
        // directory, in code space.
        const uint64_t max_code = e->CodeAt(n - 1);
        if (max_code < 4 * n && n < UINT32_MAX) {
          std::vector<uint32_t>& d = root_dirs[i];
          d.resize(static_cast<size_t>(max_code) + 2);
          size_t pos = 0;
          for (uint64_t v = 0; v <= max_code + 1; ++v) {
            while (pos < n && e->CodeAt(pos) < v) ++pos;
            d[static_cast<size_t>(v)] = static_cast<uint32_t>(pos);
          }
        }
        continue;
      }
      const ColumnView c0 = rels[i].col(0);
      const Value max_key = c0[n - 1];  // root column is globally sorted
      // max_key < 4n (rather than max_key + 1 <= 4n) so a UINT64_MAX key
      // cannot wrap the density check and the resize below.
      if (max_key < 4 * n && n < UINT32_MAX) {
        std::vector<uint32_t>& d = root_dirs[i];
        d.resize(static_cast<size_t>(max_key) + 2);
        size_t pos = 0;
        for (Value v = 0; v <= max_key + 1; ++v) {
          while (pos < n && c0[pos] < v) ++pos;
          d[static_cast<size_t>(v)] = static_cast<uint32_t>(pos);
        }
      }
    }
  }
};

/// One leapfrog walk over the plan: per-relation cursor stacks (rng_), one
/// iterator per active relation per level. A walker is built per morsel (or
/// once, serially); all mutable state is its own, so workers share only the
/// immutable plan.
template <CommutativeSemiring S>
class MultiwayWalker {
 public:
  using SemiringValue = typename S::Value;

  MultiwayWalker(const MultiwayPlan<S>& plan, RelationBuilder<S>* out,
                 OpStats* st, bool vec)
      : plan_(plan), out_(out), st_(st), vec_(vec) {
    const size_t levels = plan.vars.size();
    its_.resize(levels);
    for (size_t l = 0; l < levels; ++l) {
      its_[l].reserve(plan.levels[l].size());
      for (const auto& a : plan.levels[l]) {
        Iter it;
        // The level variable's column of this relation: one contiguous
        // value array (plain) or one packed code buffer (encoded) — every
        // seek below gallops over dense keys or codes respectively, and an
        // encoded column is never materialized.
        const Relation<S>& rel = plan.rels[static_cast<size_t>(a.rel)];
        if (const EncodedColumn* e = rel.encoded_col(a.col)) {
          it.enc = e;
          it.c = nullptr;
          it.ebytes = reinterpret_cast<const unsigned char*>(e->words.data());
          it.edict = e->encoding == ColumnEncoding::kDict ? e->dict.data()
                                                          : nullptr;
          it.ebase = e->encoding == ColumnEncoding::kDict ? 0 : e->base;
          it.emask = e->mask();
          it.ewidth = static_cast<uint32_t>(e->width);
        } else {
          it.c = rel.col(a.col).data();
          it.enc = nullptr;
          it.ebytes = nullptr;
          it.edict = nullptr;
          it.ebase = 0;
          it.emask = 0;
          it.ewidth = 0;
        }
        it.dec = nullptr;
        it.dec32 = nullptr;
        it.dec_lo = 0;
        it.dec_hi = 0;
        it.dec32_lo = 0;
        it.dec32_hi = 0;
        it.use32 = it.enc != nullptr && simd::FitsU32(*it.enc);
        const auto& samp = plan.samples[static_cast<size_t>(a.rel)][a.col];
        it.samp = samp.empty() ? nullptr : samp.data();
        const auto& dir = plan.root_dirs[static_cast<size_t>(a.rel)];
        it.dir = (a.col == 0 && !dir.empty()) ? dir.data() : nullptr;
        it.dir_max = it.dir ? static_cast<Value>(dir.size() - 2) : 0;
        it.col = a.col;
        it.rel = a.rel;
        it.last = a.last;
        its_[l].push_back(it);
      }
    }
    row_.resize(levels);
    rng_.resize(plan.rels.size());
    for (size_t i = 0; i < plan.rels.size(); ++i)
      rng_[i].assign(plan.rels[i].arity(), {0, 0});
  }

  /// Runs the walk over the outermost-key window [win_lo, win_hi) — the
  /// morsel contract. win_lo == 0 skips the entry seek (every iterator
  /// already starts at >= 0; the first morsel passes it); bounded == false
  /// drops the upper limit (the last morsel — with one worker the only
  /// one, which passes (0, 0, false)).
  void Run(SemiringValue scalar, Value win_lo, Value win_hi, bool bounded) {
    for (size_t i = 0; i < plan_.rels.size(); ++i) {
      if (plan_.rels[i].empty()) return;  // any empty input: empty join
      rng_[i][0] = {0, plan_.rels[i].size()};
    }
    win_lo_ = win_lo;
    win_hi_ = win_hi;
    bounded_ = bounded;
    Level(0, scalar);
  }

 private:
  struct Iter {
    const Value* c;       // this level's column array (nullptr if encoded)
    const EncodedColumn* enc;  // this level's packed column (nullptr if plain)
    // Flattened encoded-column fields (valid iff enc != nullptr): the
    // per-step decode in Key() runs off the iterator row alone instead of
    // chasing the EncodedColumn object on every frontier advance.
    const unsigned char* ebytes;  // packed code bytes
    const Value* edict;           // dict table (nullptr for FOR)
    Value ebase;                  // FOR base (0 for dict)
    uint64_t emask;
    uint32_t ewidth;
    const Value* samp;    // its seek sample (nullptr below the size floor)
    const uint32_t* dir;  // root-column dense directory (col == 0 only)
    Value dir_max;        // largest key (plain) / code (encoded) it covers
    size_t col;           // trie depth (column index) of c in rel
    size_t lo = 0, hi = 0;  // current candidate range (rows matching prefix)
    size_t run = 0;         // end of the matched key's run
    // Small-window decode cache: when the parent level binds this iterator
    // to a window of at most kDecodeWindow rows, the packed codes are
    // decoded once into `scratch` and the whole intersection at this level
    // runs on plain values (dec[pos - dec_lo]). Keyed by the window bounds,
    // so a window revisited across sibling subtrees (the same prefix run
    // re-intersected for every key of an unrelated level) decodes once.
    // When every value of the column fits 32 bits (use32) and the vector
    // kernels are on, windows decode into `scratch32` instead — 8 frontier
    // lanes per vector instead of 4, and a quarter of plain's cache
    // footprint; the separate cache key keeps the two modes from aliasing.
    std::vector<Value> scratch;
    std::vector<uint32_t> scratch32;
    const Value* dec;     // scratch.data() iff the current window is decoded
    const uint32_t* dec32;  // scratch32.data() iff decoded narrow
    size_t dec_lo, dec_hi;
    size_t dec32_lo, dec32_hi;
    int rel;
    bool last;
    bool use32;  // FitsU32(enc): the column qualifies for narrow windows
  };

  /// Largest encoded window materialized by the small-window decode cache.
  static constexpr size_t kDecodeWindow = 128;

  /// Vector blocks one NextMatch call may burn before the frontier falls
  /// back to a far seek (dense directory / sampled gallop). Small, so a
  /// sparse intersection keeps its sub-linear seek asymptotics; a dense one
  /// re-enters the block loop right after the landing.
  static constexpr size_t kFrontierBlockCap = 8;

  /// The *value* at the iterator's head: keys cross relation boundaries in
  /// the leapfrog frontier, so they are always decoded (codes from
  /// different columns are incomparable). This is the only per-step decode
  /// an encoded column pays; seeks translate once and stay in code space.
  /// The packed read is the byte-addressed single-load form of UnpackAt,
  /// off the iterator's flattened fields (widths above 57 bits fall back
  /// to the two-word read; the policy never picks them, forced modes can).
  Value Key(const Iter& it) const {
    if (it.c != nullptr) return it.c[it.lo];
    if (it.dec32 != nullptr) return it.dec32[it.lo - it.dec32_lo];
    if (it.dec != nullptr) return it.dec[it.lo - it.dec_lo];
    if (it.ewidth <= 57) {
      const size_t bit = it.lo * it.ewidth;
      uint64_t v;
      std::memcpy(&v, it.ebytes + (bit >> 3), sizeof v);
      const uint64_t code = (v >> (bit & 7)) & it.emask;
      return it.edict != nullptr ? it.edict[code] : it.ebase + code;
    }
    return it.enc->At(it.lo);
  }

  /// First position in [it.lo, it.hi) with value >= key. Root columns with
  /// a dense directory answer in O(1): the directory's global lower bound,
  /// clamped into the current window (valid because the root column is
  /// globally sorted). Everything else gallops — over raw values (plain)
  /// or packed codes after one LowerCode translation (encoded).
  size_t Seek(const Iter& it, Value key) {
    ++st_->seeks;
    if (it.dec32 != nullptr) {
      // Narrow decoded window: one branchless vector lower bound. A key
      // past the u32 range is past every stored value by construction.
      ++st_->comparisons;
      if (key > UINT32_MAX) return it.hi;
      return it.dec32_lo +
             simd::LowerBoundU32(vec_, it.dec32, it.lo - it.dec32_lo,
                                 it.hi - it.dec32_lo,
                                 static_cast<uint32_t>(key),
                                 /*strict=*/false, &st_->simd_blocks);
    }
    if (it.dec != nullptr) {
      // Materialized window: value-space gallop over the decoded scratch
      // (window <= kDecodeWindow rows, so no sample is ever warranted).
      return it.dec_lo + TrieSeek(it.dec, nullptr, it.lo - it.dec_lo,
                                  it.hi - it.dec_lo, key, vec_,
                                  &st_->comparisons, &st_->simd_blocks);
    }
    if (it.enc != nullptr) {
      const uint64_t target = it.enc->LowerCode(key);
      if (it.dir != nullptr) {
        ++st_->comparisons;
        // The code-space directory is addressable up to dir_max + 1.
        if (target > static_cast<uint64_t>(it.dir_max) + 1) return it.hi;
        const size_t g = it.dir[static_cast<size_t>(target)];
        return g <= it.lo ? it.lo : (g >= it.hi ? it.hi : g);
      }
      return TrieSeekPacked(it.enc->words.data(), it.enc->width, it.samp,
                            it.lo, it.hi, target, &st_->comparisons);
    }
    if (it.dir != nullptr) {
      ++st_->comparisons;
      if (key > it.dir_max) return it.hi;
      const size_t g = it.dir[static_cast<size_t>(key)];
      return g <= it.lo ? it.lo : (g >= it.hi ? it.hi : g);
    }
    return TrieSeek(it.c, it.samp, it.lo, it.hi, key, vec_, &st_->comparisons,
                    &st_->simd_blocks);
  }

  /// End of `key`'s run at [it.lo, it.hi): first position with value > key.
  /// On an encoded column the strict bound is translated to code space —
  /// first code >= UpperCode(key) — with the top-of-domain corner (no code
  /// can exceed `key`) answered directly, so the ~0ull sentinel never
  /// collides with a legitimate width-64 code.
  size_t RunEnd(const Iter& it, Value key) {
    ++st_->seeks;
    if (it.dec32 != nullptr) {
      ++st_->comparisons;
      if (key > UINT32_MAX) return it.hi;
      return it.dec32_lo +
             simd::LowerBoundU32(vec_, it.dec32, it.lo - it.dec32_lo,
                                 it.hi - it.dec32_lo,
                                 static_cast<uint32_t>(key),
                                 /*strict=*/true, &st_->simd_blocks);
    }
    if (it.dec != nullptr) {
      return it.dec_lo + TrieRunEnd(it.dec, nullptr, it.lo - it.dec_lo,
                                    it.hi - it.dec_lo, key, vec_,
                                    &st_->comparisons, &st_->simd_blocks);
    }
    if (it.enc != nullptr) {
      uint64_t target;
      if (it.enc->encoding == ColumnEncoding::kDict) {
        target = it.enc->UpperCode(key);
      } else if (key < it.enc->base) {
        target = 0;
      } else {
        const uint64_t d = key - it.enc->base;
        if (d == ~0ull) return it.hi;  // no representable code exceeds key
        target = d + 1;
      }
      if (it.dir != nullptr) {
        ++st_->comparisons;
        if (target > static_cast<uint64_t>(it.dir_max) + 1) return it.hi;
        const size_t g = it.dir[static_cast<size_t>(target)];
        return g <= it.lo ? it.lo : (g >= it.hi ? it.hi : g);
      }
      return TrieSeekPacked(it.enc->words.data(), it.enc->width, it.samp,
                            it.lo, it.hi, target, &st_->comparisons);
    }
    if (it.dir != nullptr) {
      ++st_->comparisons;
      if (key >= it.dir_max) return it.hi;
      const size_t g = it.dir[static_cast<size_t>(key) + 1];
      return g <= it.lo ? it.lo : (g >= it.hi ? it.hi : g);
    }
    return TrieRunEnd(it.c, it.samp, it.lo, it.hi, key, vec_,
                      &st_->comparisons, &st_->simd_blocks);
  }

  void Level(size_t l, SemiringValue acc) {
    std::vector<Iter>& its = its_[l];
    const size_t k = its.size();
    for (Iter& it : its) {
      const auto [a, b] = rng_[static_cast<size_t>(it.rel)][it.col];
      if (a == b) return;
      it.lo = a;
      it.hi = b;
      if (it.enc != nullptr && b - a <= kDecodeWindow) {
        if (it.use32 && vec_) {
          if (it.dec32_lo != a || it.dec32_hi != b) {
            it.scratch32.resize(b - a);
            simd::DecodeWindowU32(vec_, *it.enc, a, b, it.scratch32.data(),
                                  &st_->simd_blocks);
            it.dec32_lo = a;
            it.dec32_hi = b;
          }
          it.dec32 = it.scratch32.data();
          it.dec = nullptr;
        } else {
          if (it.dec_lo != a || it.dec_hi != b) {
            it.scratch.resize(b - a);
            simd::DecodeWindowU64(vec_, *it.enc, a, b, it.scratch.data(),
                                  &st_->simd_blocks);
            it.dec_lo = a;
            it.dec_hi = b;
          }
          it.dec = it.scratch.data();
          it.dec32 = nullptr;
        }
      } else {
        it.dec = nullptr;
        it.dec32 = nullptr;
      }
    }
    if (l == 0 && win_lo_ > 0) {
      // Morsel window entry: land every outermost iterator at the first key
      // >= the window start instead of replaying the prefix.
      for (Iter& it : its) {
        it.lo = Seek(it, win_lo_);
        if (it.lo == it.hi) return;
      }
    }
    Value maxkey = Key(its[0]);
    for (size_t t = 1; t < k; ++t) maxkey = std::max(maxkey, Key(its[t]));

    while (true) {
      // Leapfrog: seek every iterator below the current frontier key up to
      // it; any overshoot raises the frontier and rescans until stable.
      if (k == 2) {
        // Two-iterator levels (every level of a k-cycle query) collapse to
        // the classic two-pointer intersection. When both sides expose
        // contiguous lanes — plain column arrays, or decoded windows (u32
        // windows pair only with u32 windows; values, never codes, cross
        // relations) — the pointer chase becomes block intersects
        // (simd::NextMatch*): whole vector blocks retire per compare, and
        // the per-call block cap hands sparse stretches back to the far
        // seeks (dense directory / sampled gallop) so the leapfrog bound
        // survives. Match positions equal the scalar walk's exactly, so
        // output bytes are identical with the kernels on or off.
        Iter& i0 = its[0];
        Iter& i1 = its[1];
        const uint32_t* n0 = i0.dec32;
        const uint32_t* n1 = i1.dec32;
        const Value* a0 = i0.c != nullptr ? i0.c : i0.dec;
        const Value* a1 = i1.c != nullptr ? i1.c : i1.dec;
        if (vec_ && n0 != nullptr && n1 != nullptr) {
          const size_t off0 = i0.dec32_lo;
          const size_t off1 = i1.dec32_lo;
          while (true) {
            const simd::Frontier f = simd::NextMatchU32(
                vec_, n0, i0.lo - off0, i0.hi - off0, n1, i1.lo - off1,
                i1.hi - off1, kFrontierBlockCap, &st_->simd_blocks);
            ++st_->seeks;
            ++st_->comparisons;
            i0.lo = off0 + f.i;
            i1.lo = off1 + f.j;
            if (f.kind == simd::Frontier::kMatch) {
              maxkey = n0[f.i];
              break;
            }
            if (f.kind == simd::Frontier::kExhausted) return;
            if (f.kind == simd::Frontier::kSeekA) {
              i0.lo = Seek(i0, Key(i1));
              if (i0.lo == i0.hi) return;
            } else {
              i1.lo = Seek(i1, Key(i0));
              if (i1.lo == i1.hi) return;
            }
          }
        } else if (vec_ && a0 != nullptr && a1 != nullptr) {
          const size_t off0 = i0.c != nullptr ? 0 : i0.dec_lo;
          const size_t off1 = i1.c != nullptr ? 0 : i1.dec_lo;
          while (true) {
            const simd::Frontier f = simd::NextMatchU64(
                vec_, a0, i0.lo - off0, i0.hi - off0, a1, i1.lo - off1,
                i1.hi - off1, kFrontierBlockCap, &st_->simd_blocks);
            ++st_->seeks;
            ++st_->comparisons;
            i0.lo = off0 + f.i;
            i1.lo = off1 + f.j;
            if (f.kind == simd::Frontier::kMatch) {
              maxkey = a0[f.i];
              break;
            }
            if (f.kind == simd::Frontier::kExhausted) return;
            if (f.kind == simd::Frontier::kSeekA) {
              i0.lo = Seek(i0, Key(i1));
              if (i0.lo == i0.hi) return;
            } else {
              i1.lo = Seek(i1, Key(i0));
              if (i1.lo == i1.hi) return;
            }
          }
        } else {
          if (vec_) ++st_->scalar_fallbacks;
          Value k0 = Key(i0);
          Value k1 = Key(i1);
          while (k0 != k1) {
            ++st_->comparisons;
            if (k0 < k1) {
              i0.lo = Seek(i0, k1);
              if (i0.lo == i0.hi) return;
              k0 = Key(i0);
            } else {
              i1.lo = Seek(i1, k0);
              if (i1.lo == i1.hi) return;
              k1 = Key(i1);
            }
          }
          maxkey = k0;
        }
      } else {
        bool changed = true;
        while (changed) {
          changed = false;
          for (Iter& it : its) {
            ++st_->comparisons;
            if (Key(it) < maxkey) {
              it.lo = Seek(it, maxkey);
              if (it.lo == it.hi) return;
              if (Key(it) > maxkey) {
                maxkey = Key(it);
                changed = true;
              }
            }
          }
        }
      }
      // All active iterators agree on maxkey: one assignment of this level's
      // variable. The morsel window is half-open, so a frontier at or past
      // win_hi_ belongs to the next morsel.
      if (l == 0 && bounded_ && maxkey >= win_hi_) return;
      SemiringValue child = acc;
      for (Iter& it : its) {
        if (it.last) {
          // All of this relation's columns are bound and canonical rows are
          // distinct, so the run is exactly one row: fold its annotation
          // and skip the run-end gallop entirely.
          it.run = it.lo + 1;
          child = S::Multiply(
              child, plan_.rels[static_cast<size_t>(it.rel)].annot(it.lo));
        } else {
          it.run = RunEnd(it, maxkey);
          rng_[static_cast<size_t>(it.rel)][it.col + 1] = {it.lo, it.run};
        }
      }
      row_[l] = maxkey;
      if (l + 1 == row_.size()) {
        out_->Append(row_, child);
      } else {
        Level(l + 1, child);
      }
      // Step past the matched runs and re-establish the frontier.
      maxkey = 0;
      for (Iter& it : its) {
        it.lo = it.run;
        if (it.lo == it.hi) return;
        maxkey = std::max(maxkey, Key(it));
      }
    }
  }

  const MultiwayPlan<S>& plan_;
  RelationBuilder<S>* out_;
  OpStats* st_;
  const bool vec_;  // simd::Available(ctx.simd) of the emitting context
  std::vector<std::vector<Iter>> its_;             // per level
  std::vector<std::vector<std::pair<size_t, size_t>>> rng_;  // per rel/depth
  std::vector<Value> row_;
  Value win_lo_ = 0;
  Value win_hi_ = 0;
  bool bounded_ = false;
};

/// The MultiwayJoin body, with the context already resolved; the public
/// wrapper below adds the trace span (this body has four exits — the
/// wrapper gives the span a single one).
template <CommutativeSemiring S>
Relation<S> MultiwayJoinImpl(std::vector<Relation<S>> inputs,
                             ExecContext& cx) {
  OpStats& st = cx.multiway;
  ++st.calls;
  for (const auto& r : inputs) st.rows_in += static_cast<int64_t>(r.size());

  internal::MultiwayPlan<S> plan;
  typename S::Value scalar = S::One();
  bool scalar_zero = false;
  for (Relation<S>& r : inputs) {
    if (r.arity() == 0) {
      // Zero-ary input: a scalar factor (at most one nonzero empty tuple).
      r.Canonicalize(&cx);
      if (r.empty())
        scalar_zero = true;
      else
        scalar = S::Multiply(scalar, r.annot(0));
      continue;
    }
    plan.rels.push_back(internal::PermuteToVarOrder(std::move(r), cx, &st));
  }

  for (const auto& r : plan.rels)
    plan.vars.insert(plan.vars.end(), r.schema().vars().begin(),
                     r.schema().vars().end());
  std::sort(plan.vars.begin(), plan.vars.end());
  plan.vars.erase(std::unique(plan.vars.begin(), plan.vars.end()),
                  plan.vars.end());
  Schema out_schema{plan.vars};

  if (plan.vars.empty()) {
    // Every input was zero-ary: the answer is the combined scalar.
    Relation<S> out{out_schema};
    if (!scalar_zero) out.Add(std::initializer_list<Value>{}, scalar);
    out.Canonicalize(&cx);
    st.rows_out += static_cast<int64_t>(out.size());
    return out;
  }

  // Any empty input (or a zero scalar) annihilates the join; short-circuit
  // before the morsel dispatch so the cut source is never an empty relation.
  bool annihilated = scalar_zero;
  for (const auto& r : plan.rels)
    if (r.empty()) annihilated = true;
  if (annihilated) return Relation<S>{std::move(out_schema)};

  plan.levels.resize(plan.vars.size());
  for (size_t i = 0; i < plan.rels.size(); ++i) {
    const Schema& s = plan.rels[i].schema();
    for (size_t c = 0; c < s.arity(); ++c) {
      const size_t level = static_cast<size_t>(
          std::lower_bound(plan.vars.begin(), plan.vars.end(), s.var(c)) -
          plan.vars.begin());
      plan.levels[level].push_back({static_cast<int>(i), c,
                                    c + 1 == s.arity()});
    }
  }
  plan.BuildSeekIndexes();

  // Morsel cut source: the smallest relation intersecting at the outermost
  // level. Its distinct leading keys partition the output's key space, so
  // key-aligned cuts over it are key-aligned cuts of the whole join.
  int cut_rel = plan.levels[0][0].rel;
  for (const auto& a : plan.levels[0])
    if (plan.rels[static_cast<size_t>(a.rel)].size() <
        plan.rels[static_cast<size_t>(cut_rel)].size())
      cut_rel = a.rel;
  const Relation<S>& cut = plan.rels[static_cast<size_t>(cut_rel)];
  // Leading column behind the encoding seam: run boundaries compare codes,
  // window endpoints decode once per morsel.
  const ColView cd = cut.view(0);
  const size_t cn = cut.size();

  // Gate the fan-out on the *largest* input, not the cut relation: a small
  // top-level relation can still drive per-outer-key subtrees over huge
  // deeper relations, and each of its keys is a valid morsel boundary.
  size_t max_rows = 0;
  for (const auto& r : plan.rels) max_rows = std::max(max_rows, r.size());
  Relation<S> out = MorselRun<S>(
      cx, PlannedWorkers(cx, max_rows), std::move(out_schema), cn,
      [&](size_t t) { return !cd.EqualAt(t, t - 1); }, &ExecContext::multiway,
      [&](ExecContext& wc, size_t xb, size_t xe, RelationBuilder<S>* b) {
        internal::MultiwayWalker<S> walk(plan, b, &wc.multiway,
                                         simd::Available(wc.simd));
        const bool bounded_hi = xe < cn;
        walk.Run(scalar, xb > 0 ? cd.At(xb) : 0, bounded_hi ? cd.At(xe) : 0,
                 bounded_hi);
      });
  st.rows_out += static_cast<int64_t>(out.size());
  st.peak_rows = std::max(st.peak_rows, static_cast<int64_t>(out.size()));
  return out;
}

}  // namespace internal

/// Worst-case-optimal natural join of any number of relations; annotations
/// multiply (⊗). Output schema is the union of the input variables in
/// ascending VarId order, and the output is canonical.
///
/// Leapfrog intersection per variable over the trie views of the inputs
/// (see the header comment): runtime is O~(Σ inputs + output·Σ seeks) and
/// the peak materialization is the output itself, so cyclic queries (the
/// triangle, k-cycles, Loomis–Whitney) never pay the super-AGM pairwise
/// intermediates. Zero-arity inputs fold into a scalar factor; any empty
/// input short-circuits to the empty result.
///
/// With ctx->parallelism > 1 and a large enough top-level relation, the
/// outermost variable's key space is cut into key-aligned morsels
/// (bit-identical splice semantics, like every kernel operator).
template <CommutativeSemiring S>
Relation<S> MultiwayJoin(std::vector<Relation<S>> inputs,
                         ExecContext* ctx = nullptr) {
  ExecContext& cx = ExecContext::Resolve(ctx);
  // One branch when tracing is off — see Join in relation/ops.h.
  if (cx.trace == nullptr)
    return internal::MultiwayJoinImpl<S>(std::move(inputs), cx);
  obs::Span sp(cx.trace, "multiway", cx.trace_track);
  const OpStats before = cx.multiway;
  Relation<S> out = internal::MultiwayJoinImpl<S>(std::move(inputs), cx);
  sp.SetArgsJson(obs::OpStatsJson(obs::OpStatsDelta(before, cx.multiway)));
  return out;
}

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_MULTIWAY_H_
