// Relational algebra over semiring-annotated relations: natural join ⋈
// (Definition 3.4) and multi-variable elimination with per-variable
// aggregates (the push-down step of Corollary G.2 / Algorithm 3). These,
// with MultiwayJoin (multiway.h), are every operator a plan runs; the
// semijoin of Appendix G.1 is itself an FAQ (Boolean, F = ar(R1)) and is
// answered as one, and the root's column order is a Relation::ReorderTo.
//
// All operators run on the sorted-relation kernel (docs/kernel.md): inputs
// are consumed through key-order row permutations — the identity, with no
// sort at all, whenever the key columns are a schema prefix of a canonical
// relation — and outputs are emitted through RelationBuilder in
// nondecreasing row order wherever the access pattern allows, so the result
// is certified canonical without a closing sort. At most one permutation
// sort per input is paid when key orderings mismatch. The seed hash-based
// operators survive in tests/reference_ops.h for differential tests and
// speedup benchmarks.
//
// Storage is columnar (docs/kernel.md, "Columnar storage"), and columns may
// arrive *compressed* (relation/encoding.h). Every kernel below has exactly
// one body, templated over an access policy — PlainAccess (raw base-pointer
// loads, byte-for-byte the pre-encoding code paths) or EncodedAccess
// (ColView, decoding per access) — and each public operator dispatches on
// whether any input column is encoded. Same-column work (run boundaries,
// group detection, key-order sorts, morsel cut alignment) compares raw
// codes without decoding — valid because both encodings preserve order and
// equality within a column; only cross-relation key comparisons and hashes
// decode, and rows decode at emission into the RelationBuilder.
//
// Each operator's emission loop is factored over a traversal *range* and
// runs through one MorselRun call (relation/parallel.h): one worker (the
// default ExecContext::parallelism == 1) emits the whole range on the
// caller's context, more workers replay disjoint key-aligned slices of the
// same traversal, and results are bit-identical at every parallelism level.
#ifndef TOPOFAQ_RELATION_OPS_H_
#define TOPOFAQ_RELATION_OPS_H_

#include <numeric>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/op_format.h"
#include "obs/trace.h"
#include "relation/exec.h"
#include "relation/parallel.h"
#include "relation/relation.h"
#include "relation/simd.h"
#include "relation/sort_perm.h"
#include "semiring/variable_ops.h"

namespace topofaq {
namespace internal {

/// Fills `out` with the base pointers of the `pos` columns of `r` — the
/// typed column view the plain kernel instantiation traverses. Borrowed
/// from `r`: invalidated by any mutation. Plain-path only: the caller must
/// have dispatched away relations with encoded columns.
template <CommutativeSemiring S>
void GatherColPtrs(const Relation<S>& r, const std::vector<int>& pos,
                   std::vector<const Value*>* out) {
  out->clear();
  out->reserve(pos.size());
  for (int p : pos) out->push_back(r.col(static_cast<size_t>(p)).data());
}

/// All columns of `r` in schema order.
template <CommutativeSemiring S>
void GatherAllColPtrs(const Relation<S>& r, std::vector<const Value*>* out) {
  out->clear();
  out->reserve(r.arity());
  for (size_t j = 0; j < r.arity(); ++j) out->push_back(r.col(j).data());
}

/// ColView counterparts for the encoded instantiation (safe on worker
/// threads: views never touch the relation's decode cache).
template <CommutativeSemiring S>
void GatherColViews(const Relation<S>& r, const std::vector<int>& pos,
                    std::vector<ColView>* out) {
  out->clear();
  out->reserve(pos.size());
  for (int p : pos) out->push_back(r.view(static_cast<size_t>(p)));
}

template <CommutativeSemiring S>
void GatherAllColViews(const Relation<S>& r, std::vector<ColView>* out) {
  out->clear();
  out->reserve(r.arity());
  for (size_t j = 0; j < r.arity(); ++j) out->push_back(r.view(j));
}

/// One gather entry point per access policy.
template <typename A, CommutativeSemiring S>
void GatherCols(const Relation<S>& r, const std::vector<int>& pos,
                std::vector<typename A::Col>* out) {
  if constexpr (std::is_same_v<A, PlainAccess>)
    GatherColPtrs(r, pos, out);
  else
    GatherColViews(r, pos, out);
}

template <typename A, CommutativeSemiring S>
void GatherAllCols(const Relation<S>& r, std::vector<typename A::Col>* out) {
  if constexpr (std::is_same_v<A, PlainAccess>)
    GatherAllColPtrs(r, out);
  else
    GatherAllColViews(r, out);
}

/// Maps an access policy to the ExecContext scratch vectors it borrows.
template <typename A>
struct ScratchCols;
template <>
struct ScratchCols<PlainAccess> {
  static std::vector<const Value*>& a(ExecContext& cx) { return cx.cols_a; }
  static std::vector<const Value*>& b(ExecContext& cx) { return cx.cols_b; }
  static std::vector<const Value*>& c(ExecContext& cx) { return cx.cols_c; }
  static std::vector<const Value*>& d(ExecContext& cx) { return cx.cols_d; }
  static std::vector<const Value*>& e(ExecContext& cx) { return cx.cols_e; }
};
template <>
struct ScratchCols<EncodedAccess> {
  static std::vector<ColView>& a(ExecContext& cx) { return cx.vcols_a; }
  static std::vector<ColView>& b(ExecContext& cx) { return cx.vcols_b; }
  static std::vector<ColView>& c(ExecContext& cx) { return cx.vcols_c; }
  static std::vector<ColView>& d(ExecContext& cx) { return cx.vcols_d; }
  static std::vector<ColView>& e(ExecContext& cx) { return cx.vcols_e; }
};

/// Lexicographic compare of row `x` under columns `a` vs row `y` under
/// columns `b`; both views must have width `k`. Cross-view: values decode
/// through the access policy (codes from different columns are not
/// comparable).
template <typename A>
int CompareKeysAt(const typename A::Col* a, size_t x, const typename A::Col* b,
                  size_t y, size_t k) {
  for (size_t t = 0; t < k; ++t) {
    const Value u = A::At(a[t], x);
    const Value v = A::At(b[t], y);
    if (u < v) return -1;
    if (u > v) return 1;
  }
  return 0;
}

/// Equality of rows `x` and `y` under the SAME column views — compares raw
/// codes on encoded columns (encodings are injective per column), so run
/// boundaries and group scans never decode.
template <typename A>
bool KeysEqualAt(const typename A::Col* c, size_t x, size_t y, size_t k) {
  for (size_t t = 0; t < k; ++t)
    if (!A::EqualAt(c[t], x, y)) return false;
  return true;
}

/// n·ceil(log2 n): the `comparisons` charged per permutation sort — the
/// sort's work bound, not a count of comparator calls. The packed radix
/// path makes no comparisons at all, and the comparator fallback runs on
/// pool workers where a per-call count would race; the bound is the same
/// on every path and at every parallelism level.
inline int64_t SortComparisonBound(size_t n) {
  if (n < 2) return 0;
  int64_t lg = 0;
  while ((size_t{1} << lg) < n) ++lg;
  return static_cast<int64_t>(n) * lg;
}

/// Fills `perm` with the canonical (full-row lexicographic) order of `r`;
/// the identity, sort skipped, when `r` is already canonical. The sort is
/// detail::SortRowPerm (row-id tiebreak → total order → bit-identical at
/// every parallelism level). Non-canonical relations are always plain
/// (mutation decodes), so this path reads raw columns.
template <CommutativeSemiring S>
void RowOrderPerm(const Relation<S>& r, ExecContext& cx,
                  std::vector<size_t>* perm, OpStats* st) {
  const size_t n = r.size();
  if (r.canonical()) {
    perm->resize(n);
    std::iota(perm->begin(), perm->end(), size_t{0});
    ++st->sort_skips;
    return;
  }
  detail::SortRowPerm(r.columns(), n, perm, &cx);
  ++st->sorts;
  st->comparisons += SortComparisonBound(n);
}

/// True when `pos` names the schema prefix [0, k) in order.
inline bool IsPrefixPositions(const std::vector<int>& pos) {
  for (size_t t = 0; t < pos.size(); ++t)
    if (pos[t] != static_cast<int>(t)) return false;
  return true;
}

/// True when the key columns `pos` are the schema prefix [0, k) of a
/// canonical relation — its rows are then already key-ordered in place and
/// every kernel fast path (identity traversal, skipped sorts) applies.
template <CommutativeSemiring S>
bool IsCanonicalKeyPrefix(const Relation<S>& r, const std::vector<int>& pos) {
  return r.canonical() && IsPrefixPositions(pos);
}

/// FNV-1a over row `row` of the key columns `cols` (width `k`). Hashes the
/// *decoded* values so directories built over one relation's codes match
/// probes arriving from another relation's.
template <typename A>
uint64_t HashKeyAt(const typename A::Col* cols, size_t k, size_t row) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t t = 0; t < k; ++t) {
    h ^= A::At(cols[t], row);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Builds an open-addressing directory from key hashes to the key-run starts
/// of the traversal-position range [sb, se) of a key-ordered traversal (runs
/// have distinct keys, so no duplicate handling is needed). `rk` is the
/// key-column view of the probed side (width `nk`); `rp` maps traversal
/// position to row id; nullptr means the identity (rows already key-ordered
/// in place — the canonical-prefix case, spared the indirection). Stored
/// positions are *global* traversal positions (+ 1; entry 0 means empty), so
/// per-shard directories built over key-aligned ranges probe with the
/// unchanged ProbeRunDirectory below. Run detection compares codes; only
/// the per-run hash decodes.
template <typename A>
void BuildRunDirectoryRange(const typename A::Col* rk, size_t nk, size_t sb,
                            size_t se, const size_t* rp,
                            std::vector<uint64_t>* table) {
  const size_t rows = se - sb;
  size_t cap = 16;
  while (cap < rows * 2) cap <<= 1;
  table->assign(cap, 0);
  const uint64_t mask = cap - 1;
  size_t prev = 0;
  bool have_prev = false;
  for (size_t s = sb; s < se; ++s) {
    const size_t row = rp ? rp[s] : s;
    if (have_prev && KeysEqualAt<A>(rk, row, prev, nk)) {
      prev = row;
      continue;
    }
    prev = row;
    have_prev = true;
    uint64_t idx = HashKeyAt<A>(rk, nk, row) & mask;
    while ((*table)[idx] != 0) idx = (idx + 1) & mask;
    (*table)[idx] = s + 1;
  }
}

/// Returns the traversal-position run [lo, hi) whose key equals row `lrow`
/// of the left key view `lk`, or an empty range when there is no match.
template <typename A>
std::pair<size_t, size_t> ProbeRunDirectory(const std::vector<uint64_t>& table,
                                            const typename A::Col* rk,
                                            size_t nk, size_t rn,
                                            const size_t* rp,
                                            const typename A::Col* lk,
                                            size_t lrow, int64_t* cmps) {
  const uint64_t mask = table.size() - 1;
  uint64_t idx = HashKeyAt<A>(lk, nk, lrow) & mask;
  while (table[idx] != 0) {
    const size_t s = table[idx] - 1;
    ++*cmps;
    if (CompareKeysAt<A>(rk, rp ? rp[s] : s, lk, lrow, nk) == 0) {
      size_t hi = s + 1;
      while (hi < rn &&
             CompareKeysAt<A>(rk, rp ? rp[hi] : hi, lk, lrow, nk) == 0)
        ++hi;
      *cmps += static_cast<int64_t>(hi - s);
      return {s, hi};
    }
    idx = (idx + 1) & mask;
  }
  return {0, 0};
}

/// Probe-side handle over the per-shard run directories of the probed side:
/// shard s covers the key-aligned traversal range [cuts[s], cuts[s+1]) and
/// its table is `(*shards)[s]`. One worker builds one shard (the serial
/// path is the one-shard directory). Probing first binary-searches the
/// shard whose first key is the largest one ≤ the probe key (shards are
/// key-ordered) — no search at all with one shard — then probes only that
/// shard's table; a key run never crosses a shard because shard cuts are
/// key-aligned.
struct RunDirectory {
  const std::vector<std::vector<uint64_t>>* shards = nullptr;
  std::vector<size_t> cuts;
  size_t num_shards() const { return cuts.size() - 1; }
};

template <typename A>
std::pair<size_t, size_t> DirProbe(const RunDirectory& dir,
                                   const typename A::Col* rk, size_t nk,
                                   size_t rn, const size_t* rp,
                                   const typename A::Col* lk, size_t lrow,
                                   int64_t* cmps) {
  const std::vector<size_t>& cuts = dir.cuts;
  size_t lo = 0;
  size_t hi = dir.num_shards();
  while (hi - lo > 1) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*cmps;
    const size_t s = rp ? rp[cuts[mid]] : cuts[mid];
    if (CompareKeysAt<A>(rk, s, lk, lrow, nk) <= 0)
      lo = mid;
    else
      hi = mid;
  }
  return ProbeRunDirectory<A>((*dir.shards)[lo], rk, nk, rn, rp, lk, lrow,
                              cmps);
}

/// Fills `perm` with a row ordering of `r` sorted by key columns `pos`,
/// ties broken by row id. When `pos` is the schema prefix [0, k) of a
/// canonical relation the rows are already key-ordered and the sort is
/// skipped (the kernel fast path). Otherwise the key columns go through
/// SortPermByColumns — one packed-key radix sort when key and row-id bits
/// fit in 64 — reading codes on encoded columns.
template <typename A, CommutativeSemiring S>
void KeyOrderPerm(const Relation<S>& r, const std::vector<int>& pos,
                  ExecContext& cx, std::vector<size_t>* perm, OpStats* st) {
  const size_t n = r.size();
  if (IsCanonicalKeyPrefix(r, pos)) {
    perm->resize(n);
    std::iota(perm->begin(), perm->end(), size_t{0});
    ++st->sort_skips;
    return;
  }
  std::vector<typename A::Col> kc;
  GatherCols<A>(r, pos, &kc);
  SortPermByColumns<A>(kc.data(), kc.size(), n, PlannedWorkers(cx, n), perm);
  ++st->sorts;
  st->comparisons += SortComparisonBound(n);
}

/// Lower bound of the left key of row `lrow` in the key-ordered right
/// traversal: first traversal position whose key is not < the probe key.
/// Used by morsels entering the middle of a monotone merge.
template <typename A>
size_t RightLowerBound(const typename A::Col* rk, size_t nk, size_t rn,
                       const size_t* rpm, const typename A::Col* lk,
                       size_t lrow, int64_t* cmps) {
  size_t lo = 0, hi = rn;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    ++*cmps;
    if (CompareKeysAt<A>(rk, rpm ? rpm[mid] : mid, lk, lrow, nk) < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

/// The raw sorted key array behind a merge side, or nullptr when the column
/// is encoded — the eligibility probe for the vector merge fast path.
inline const Value* RawMergeColumn(const Value* c) { return c; }
inline const Value* RawMergeColumn(const ColView& v) {
  return v.enc == nullptr ? v.plain : nullptr;
}

/// Emits the join outputs of left traversal positions [xb, xe) into `b`:
/// the serial Join emission loop, parameterized over the traversal range so
/// key-aligned morsels can replay disjoint slices of it on workers. `lall`
/// is every left column (output assembly — rows decode here, at emission),
/// `lk`/`rk` the key views, `rex` the right extra columns. `dir` must be
/// populated when !lmono and rn > 0. `wc` is the emitting context: its row
/// buffer, its join counters and its SIMD switch.
///
/// The monotone merge's advance + run scan — a single plain key column in
/// traversal order — runs through simd::AdvanceU64 (4 key lanes per probe,
/// same linear walk, same comparison counts); every other shape keeps the
/// scalar loops.
template <typename A, CommutativeSemiring S>
void JoinEmitRange(const Relation<S>& left, const Relation<S>& right,
                   const typename A::Col* lall, const typename A::Col* lk,
                   const typename A::Col* rk, size_t nk,
                   const typename A::Col* rex, size_t nex, const size_t* lpm,
                   const size_t* rpm, bool lmono, const RunDirectory& dir,
                   size_t xb, size_t xe, RelationBuilder<S>* b,
                   ExecContext& wc) {
  const size_t la = left.arity();
  const size_t rn = right.size();
  if (xb >= xe || rn == 0) return;
  OpStats* const st = &wc.join;
  int64_t* const cmps = &st->comparisons;
  std::vector<Value>& row = wc.row;
  row.resize(la + nex);

  const Value* rk0 =
      (nk == 1 && rpm == nullptr) ? RawMergeColumn(rk[0]) : nullptr;
  const bool vec = rk0 != nullptr && simd::Available(wc.simd);
  if (lmono && nk == 1 && rpm == nullptr && !vec) ++st->scalar_fallbacks;

  // Monotone morsels entering mid-merge find their right-side start by one
  // binary search instead of replaying the merge from traversal position 0.
  size_t j = 0;
  if (lmono && xb > 0)
    j = RightLowerBound<A>(rk, nk, rn, rpm, lk, lpm ? lpm[xb] : xb, cmps);

  bool have_prev = false;
  size_t prev_x = 0;
  size_t lo = 0, hi = 0;
  for (size_t xi = xb; xi < xe; ++xi) {
    const size_t x = lpm ? lpm[xi] : xi;
#if defined(__GNUC__)
    // Hide the directory-probe cache miss of the next left row behind this
    // row's emission work (one-shard directories only; several shards start
    // each probe with a shard binary search instead).
    if (!lmono && dir.num_shards() == 1 && xi + 1 < xe) {
      const size_t nx = lpm ? lpm[xi + 1] : xi + 1;
      const std::vector<uint64_t>& table = (*dir.shards)[0];
      __builtin_prefetch(table.data() +
                         (HashKeyAt<A>(lk, nk, nx) & (table.size() - 1)));
    }
#endif
    if (!have_prev || !KeysEqualAt<A>(lk, x, prev_x, nk)) {
      if (lmono) {
        if (vec) {
          const Value key = A::At(lk[0], x);
          lo = simd::AdvanceU64(vec, rk0, j, rn, key, /*strict=*/false,
                                &st->simd_blocks);
          *cmps += static_cast<int64_t>(lo - j);
          hi = simd::AdvanceU64(vec, rk0, lo, rn, key, /*strict=*/true,
                                &st->simd_blocks);
          *cmps += static_cast<int64_t>(hi - lo) + 1;
          j = hi;
        } else {
          while (j < rn &&
                 CompareKeysAt<A>(rk, rpm ? rpm[j] : j, lk, x, nk) < 0) {
            ++*cmps;
            ++j;
          }
          lo = hi = j;
          while (hi < rn &&
                 CompareKeysAt<A>(rk, rpm ? rpm[hi] : hi, lk, x, nk) == 0)
            ++hi;
          *cmps += static_cast<int64_t>(hi - lo) + 1;
          j = hi;
        }
      } else {
        std::tie(lo, hi) = DirProbe<A>(dir, rk, nk, rn, rpm, lk, x, cmps);
      }
    }
    have_prev = true;
    prev_x = x;
    if (lo == hi) continue;
    for (size_t t = 0; t < la; ++t) row[t] = A::At(lall[t], x);
    for (size_t y = lo; y < hi; ++y) {
      const size_t ry = rpm ? rpm[y] : y;
      for (size_t t = 0; t < nex; ++t) row[la + t] = A::At(rex[t], ry);
      b->Append(row, S::Multiply(left.annot(x), right.annot(ry)));
    }
  }
}

/// Counts the elimination groups covering traversal positions [gb, ge) —
/// the pre-scan that sizes the output builder's Reserve. Pure same-column
/// equality (codes on encoded columns), no decoding; not charged to
/// OpStats::comparisons so counter semantics stay unchanged.
template <typename A>
size_t CountGroups(const typename A::Col* kc, size_t nkc, const size_t* perm,
                   size_t gb, size_t ge) {
  if (gb >= ge) return 0;
  size_t groups = 1;
  if (perm == nullptr && nkc == 1) {
    if constexpr (std::is_same_v<A, EncodedAccess>) {
      if (kc[0].encoded() && PackedCursor::Eligible(*kc[0].enc)) {
        // Rolling bit cursor over the packed codes: the boundary scan is
        // purely sequential, so no positional unpack per row. Narrow codes
        // (width <= 14, the policy's usual output) extract four per load —
        // branchless boundary adds over one 8-byte window.
        const EncodedColumn& E = *kc[0].enc;
        const size_t w = E.width;
        PackedCursor cur(E, kc[0].offset + gb);
        uint64_t prev = cur.Next();
        size_t t = gb + 1;
        if (w <= 14) {
          const uint64_t m = cur.mask;
          for (; t + 4 <= ge; t += 4, cur.bit += 4 * w) {
            uint64_t v;
            std::memcpy(&v, cur.bytes + (cur.bit >> 3), sizeof v);
            v >>= (cur.bit & 7);
            const uint64_t c0 = v & m;
            const uint64_t c1 = (v >> w) & m;
            const uint64_t c2 = (v >> (2 * w)) & m;
            const uint64_t c3 = (v >> (3 * w)) & m;
            groups += (c0 != prev) + (c1 != c0) + (c2 != c1) + (c3 != c2);
            prev = c3;
          }
        }
        for (; t < ge; ++t) {
          const uint64_t code = cur.Next();
          groups += code != prev;
          prev = code;
        }
        return groups;
      }
    }
    for (size_t t = gb + 1; t < ge; ++t)
      groups += !A::EqualAt(kc[0], t, t - 1);
    return groups;
  }
  for (size_t t = gb + 1; t < ge; ++t) {
    const size_t a = perm ? perm[t] : t;
    const size_t p = perm ? perm[t - 1] : t - 1;
    groups += !KeysEqualAt<A>(kc, a, p, nkc);
  }
  return groups;
}

/// Folds the elimination groups covering traversal positions [gb, ge)
/// (kept-key order via `perm`) into `b`. gb and ge must be group boundaries
/// — key-aligned morsel cuts guarantee exactly that — so every group folds
/// whole, in traversal order, identical to the serial pass. The group scan
/// touches only the kept columns `kc` and the annotation column; on an
/// encoded key column it detects runs over the packed codes and decodes
/// exactly once per group, at emission.
template <typename A, CommutativeSemiring S>
void EliminateEmitRange(const Relation<S>& r, const typename A::Col* kc,
                        size_t nkc, const size_t* perm, VarOp op, size_t gb,
                        size_t ge, RelationBuilder<S>* b,
                        std::vector<Value>* rowbuf, int64_t* cmps) {
  std::vector<Value>& row = *rowbuf;
  row.resize(nkc);
  const auto annots = r.annots().data();
  if (perm == nullptr && nkc == 1) {
    // The flagship columnar scan: group boundaries read one contiguous key
    // column and the fold one contiguous annotation column — no permutation
    // stream, no pointer-array indirection.
    const Value* c0 = nullptr;
    if constexpr (std::is_same_v<A, PlainAccess>) {
      c0 = kc[0];
    } else {
      c0 = kc[0].plain;  // non-null when the single kept column is plain
    }
    if (c0 != nullptr) {
      // Hoisting the base pointer into a local also frees the compiler
      // from assuming the builder aliases it.
      for (size_t g = gb; g < ge;) {
        const Value key = c0[g];
        typename S::Value acc = annots[g];
        size_t e = g + 1;
        while (e < ge && c0[e] == key) {
          acc = ApplyVarOp<S>(op, acc, annots[e]);
          ++e;
        }
        *cmps += static_cast<int64_t>(e - g);
        row[0] = key;
        b->Append(row, acc);
        g = e;
      }
      return;
    }
    if constexpr (std::is_same_v<A, EncodedAccess>) {
      // Encoded single-column scan: run detection over the packed codes
      // (one word-at-a-time unpack per step, no dictionary touch), decode
      // once per group at emission.
      const ColView c0v = kc[0];
      if (PackedCursor::Eligible(*c0v.enc)) {
        // Sequential scan over the packed codes — one unaligned load per
        // probe instead of a positional unpack, four rows per load inside a
        // run for narrow codes — and the dictionary is touched once per
        // group, at emission.
        const EncodedColumn& E = *c0v.enc;
        const auto* bytes =
            reinterpret_cast<const unsigned char*>(E.words.data());
        const size_t w = E.width;
        const uint64_t m = E.mask();
        const size_t off = c0v.offset;
        uint64_t code = E.CodeAt(off + gb);
        for (size_t g = gb; g < ge;) {
          typename S::Value acc = annots[g];
          size_t e = g + 1;
          size_t bit = (off + e) * w;
          if (w <= 14) {
            // Quad run fold: leave at the first window containing a
            // boundary, finish that run scalar.
            while (e + 4 <= ge) {
              uint64_t v;
              std::memcpy(&v, bytes + (bit >> 3), sizeof v);
              v >>= (bit & 7);
              if ((v & m) != code || ((v >> w) & m) != code ||
                  ((v >> (2 * w)) & m) != code ||
                  ((v >> (3 * w)) & m) != code)
                break;
              acc = ApplyVarOp<S>(op, acc, annots[e]);
              acc = ApplyVarOp<S>(op, acc, annots[e + 1]);
              acc = ApplyVarOp<S>(op, acc, annots[e + 2]);
              acc = ApplyVarOp<S>(op, acc, annots[e + 3]);
              e += 4;
              bit += 4 * w;
            }
          }
          uint64_t next = 0;
          bool have_next = false;
          while (e < ge) {
            uint64_t v;
            std::memcpy(&v, bytes + (bit >> 3), sizeof v);
            const uint64_t c = (v >> (bit & 7)) & m;
            if (c != code) {
              next = c;
              have_next = true;
              break;
            }
            acc = ApplyVarOp<S>(op, acc, annots[e]);
            ++e;
            bit += w;
          }
          *cmps += static_cast<int64_t>(e - g);
          row[0] = E.Decode(code);
          b->Append(row, acc);
          g = e;
          if (have_next) code = next;
        }
        return;
      }
      for (size_t g = gb; g < ge;) {
        const uint64_t code = c0v.CodeAt(g);
        typename S::Value acc = annots[g];
        size_t e = g + 1;
        while (e < ge && c0v.CodeAt(e) == code) {
          acc = ApplyVarOp<S>(op, acc, annots[e]);
          ++e;
        }
        *cmps += static_cast<int64_t>(e - g);
        row[0] = c0v.enc->Decode(code);
        b->Append(row, acc);
        g = e;
      }
      return;
    }
  }
  for (size_t g = gb; g < ge;) {
    const size_t head = perm ? perm[g] : g;
    typename S::Value acc = annots[head];
    size_t e = g + 1;
    while (e < ge) {
      const size_t src = perm ? perm[e] : e;
      if (!KeysEqualAt<A>(kc, src, head, nkc)) break;
      acc = ApplyVarOp<S>(op, acc, annots[src]);
      ++e;
    }
    *cmps += static_cast<int64_t>(e - g);
    for (size_t k = 0; k < nkc; ++k) row[k] = A::At(kc[k], head);
    b->Append(row, acc);
    g = e;
  }
}

/// Builds the run directory over the key-ordered right traversal into
/// `cx.table_shards`: the traversal is cut into one key-aligned shard per
/// worker, and worker w claims shards through the pool and builds each into
/// `cx.table_shards[s]`. One worker builds its single shard on the calling
/// thread.
template <typename A>
RunDirectory BuildShardedRunDirectory(ExecContext& cx, int workers,
                                      const typename A::Col* rk, size_t nk,
                                      size_t rn, const size_t* rpm) {
  RunDirectory dir;
  dir.shards = &cx.table_shards;
  dir.cuts = KeyAlignedCuts(rn, static_cast<size_t>(workers), [&](size_t t) {
    const size_t a = rpm ? rpm[t] : t;
    const size_t p = rpm ? rpm[t - 1] : t - 1;
    return !KeysEqualAt<A>(rk, a, p, nk);
  });
  const size_t n_shards = dir.num_shards();
  if (cx.table_shards.size() < n_shards) cx.table_shards.resize(n_shards);
  auto build = [&](int, size_t s) {
    BuildRunDirectoryRange<A>(rk, nk, dir.cuts[s], dir.cuts[s + 1], rpm,
                              &cx.table_shards[s]);
  };
  if (n_shards == 1)
    build(0, 0);
  else
    WorkerPool::Shared().ParallelFor(
        std::min<int>(workers, static_cast<int>(n_shards)), n_shards, build);
  return dir;
}

/// The Join body (see the public wrapper below for semantics), one
/// instantiation per access policy.
template <typename A, CommutativeSemiring S>
Relation<S> JoinImpl(const Relation<S>& left, const Relation<S>& right,
                     ExecContext* ctx) {
  ExecContext& cx = ExecContext::Resolve(ctx);
  OpStats& st = cx.join;
  ++st.calls;
  st.rows_in += static_cast<int64_t>(left.size() + right.size());

  const SchemaIndex lidx(left.schema());
  const SchemaIndex ridx(right.schema());
  std::vector<int>& lpos = cx.pos_a;
  std::vector<int>& rpos = cx.pos_b;
  std::vector<int>& rextra = cx.pos_c;
  lpos.clear();
  rpos.clear();
  rextra.clear();
  for (size_t i = 0; i < left.arity(); ++i) {
    const int rp = ridx.PositionOf(left.schema().var(i));
    if (rp >= 0) {
      lpos.push_back(static_cast<int>(i));
      rpos.push_back(rp);
    }
  }
  std::vector<VarId> out_vars = left.schema().vars();
  for (size_t i = 0; i < right.arity(); ++i)
    if (!lidx.Contains(right.schema().var(i))) {
      out_vars.push_back(right.schema().var(i));
      rextra.push_back(static_cast<int>(i));
    }

  // Typed column views of everything this call traverses: left key + all
  // left columns (output assembly), right key + right extras.
  GatherCols<A>(left, lpos, &ScratchCols<A>::a(cx));
  GatherCols<A>(right, rpos, &ScratchCols<A>::b(cx));
  GatherCols<A>(right, rextra, &ScratchCols<A>::c(cx));
  GatherAllCols<A>(left, &ScratchCols<A>::d(cx));
  const typename A::Col* lk = ScratchCols<A>::a(cx).data();
  const typename A::Col* rk = ScratchCols<A>::b(cx).data();
  const typename A::Col* rex = ScratchCols<A>::c(cx).data();
  const typename A::Col* lall = ScratchCols<A>::d(cx).data();
  const size_t nk = lpos.size();
  const size_t nex = rextra.size();
  const size_t ln = left.size();
  const size_t rn = right.size();

  // Left traversal in canonical row order: nullptr permutation = identity
  // (no indirection on the hot path) when already canonical.
  const size_t* lpm = nullptr;
  if (left.canonical()) {
    ++st.sort_skips;
  } else {
    RowOrderPerm(left, cx, &cx.perm_a, &st);
    lpm = cx.perm_a.data();
  }

  // Right side key-ordered with full-row tiebreak so extras within a key-run
  // stream out sorted; identity (no sort, no indirection) when the key is
  // already a canonical schema prefix. Under equal keys the full row differs
  // only in the extras, so the sort columns are the key then the extras
  // (schema order), ties broken by row id.
  const size_t* rpm = nullptr;
  if (IsCanonicalKeyPrefix(right, rpos)) {
    ++st.sort_skips;
  } else {
    std::vector<typename A::Col>& sc = ScratchCols<A>::e(cx);
    sc.assign(rk, rk + nk);
    sc.insert(sc.end(), rex, rex + nex);
    SortPermByColumns<A>(sc.data(), sc.size(), rn, PlannedWorkers(cx, rn),
                         &cx.perm_b);
    ++st.sorts;
    st.comparisons += SortComparisonBound(rn);
    rpm = cx.perm_b.data();
  }

  // Left keys arrive monotonically under full-row traversal order exactly
  // when the key columns are the left schema prefix — then a linear merge
  // suffices; otherwise probe through the hashed run directory.
  const bool lmono = IsPrefixPositions(lpos);
  Schema out_schema{std::move(out_vars)};

  // Parallel only for a canonical left: duplicate left tuples would emit
  // non-adjacent duplicate outputs, and piece-local canonicalization folds
  // their ⊕ in a different association than the serial whole-output
  // Canonicalize — observable as different float bits. A non-canonical
  // right is fine: the right sort above tie-breaks by full row, so
  // duplicate right rows are adjacent in traversal order (sort stability
  // irrelevant) and duplicate outputs merge adjacently in the builder, in
  // emission order, identically on both paths.
  const int workers =
      left.canonical() && rn > 0 ? PlannedWorkers(cx, ln) : 1;
  RunDirectory dir;
  if (!lmono && ln > 0 && rn > 0)
    dir = BuildShardedRunDirectory<A>(cx, workers, rk, nk, rn, rpm);
  Relation<S> out = MorselRun<S>(
      cx, workers, std::move(out_schema), ln,
      [&](size_t t) {
        const size_t a = lpm ? lpm[t] : t;
        const size_t p = lpm ? lpm[t - 1] : t - 1;
        return !KeysEqualAt<A>(lk, a, p, nk);
      },
      &ExecContext::join,
      [&](ExecContext& wc, size_t xb, size_t xe, RelationBuilder<S>* b) {
        b->Reserve(xe - xb);
        JoinEmitRange<A>(left, right, lall, lk, rk, nk, rex, nex, lpm, rpm,
                         lmono, dir, xb, xe, b, wc);
      });
  st.rows_out += static_cast<int64_t>(out.size());
  return out;
}

/// One Eliminate batch (all variables sharing one aggregate), one
/// instantiation per access policy. `vb`/`ve` delimit the batch's variables.
template <typename A, CommutativeSemiring S>
Relation<S> EliminateBatch(const Relation<S>& in, const VarId* vb,
                           const VarId* ve, VarOp op, ExecContext& cx,
                           OpStats& st) {
  // Surviving columns of this batch, in schema order.
  std::vector<VarId> kept_vars;
  std::vector<int>& kept_pos = cx.pos_a;
  kept_pos.clear();
  for (size_t p = 0; p < in.arity(); ++p) {
    const VarId v = in.schema().var(p);
    if (std::find(vb, ve, v) == ve) {
      kept_vars.push_back(v);
      kept_pos.push_back(static_cast<int>(p));
    }
  }

  const size_t n = in.size();
  const size_t* perm = nullptr;
  if (IsCanonicalKeyPrefix(in, kept_pos)) {
    ++st.sort_skips;
  } else {
    KeyOrderPerm<A>(in, kept_pos, cx, &cx.perm_a, &st);
    perm = cx.perm_a.data();
  }
  GatherCols<A>(in, kept_pos, &ScratchCols<A>::a(cx));
  const typename A::Col* kc = ScratchCols<A>::a(cx).data();
  const size_t nkc = kept_pos.size();
  Schema out_schema{std::move(kept_vars)};

  return MorselRun<S>(
      cx, PlannedWorkers(cx, n), std::move(out_schema), n,
      [&](size_t t) {
        const size_t a = perm ? perm[t] : t;
        const size_t p = perm ? perm[t - 1] : t - 1;
        return !KeysEqualAt<A>(kc, a, p, nkc);
      },
      &ExecContext::eliminate,
      [&](ExecContext& wc, size_t gb, size_t ge, RelationBuilder<S>* b) {
        // Reserve from the group count discovered by the scan pass: the
        // emission loop then never regrows its output columns.
        b->Reserve(CountGroups<A>(kc, nkc, perm, gb, ge));
        EliminateEmitRange<A>(in, kc, nkc, perm, op, gb, ge, b, &wc.row,
                              &wc.eliminate.comparisons);
      });
}

}  // namespace internal

/// Natural join: output schema is left's variables followed by right's
/// non-shared variables; annotations multiply (⊗). Output is canonical.
///
/// Left-driven sort-merge: the left side is walked in canonical row order
/// and matched against key-runs of the key-ordered right side — by a linear
/// two-pointer merge when the left key is a schema prefix (keys then arrive
/// monotonically), and by a flat hashed run directory otherwise. Because
/// every output row is the left row extended by right extras — and runs are
/// tie-broken by full right row — output rows stream out in nondecreasing
/// order, so the result is certified canonical with no closing sort. At most
/// one permutation sort is paid (on the right, only when its key columns are
/// not already a canonical schema prefix); with no shared variables the
/// single all-rows run makes this the streaming cross product.
///
/// With ctx->parallelism > 1 and a large enough left side, the left
/// traversal is cut into key-aligned morsels executed on the worker pool
/// (run directory sharded across workers too); output bytes are identical
/// to the serial path — see docs/kernel.md, "Morsel-parallel execution".
/// Encoded inputs dispatch to the EncodedAccess instantiation of the same
/// body; outputs are bit-identical either way.
template <CommutativeSemiring S>
Relation<S> Join(const Relation<S>& left, const Relation<S>& right,
                 ExecContext* ctx = nullptr) {
  ExecContext& cx = ExecContext::Resolve(ctx);
  const bool enc = left.any_encoded() || right.any_encoded();
  // Tracing off is the overwhelmingly common case and must stay free: this
  // one branch is the operator's entire span cost (the contract
  // bench/bench_obs_overhead.cc gates). MultiwayJoin has the same shape.
  if (cx.trace == nullptr) {
    return enc ? internal::JoinImpl<EncodedAccess>(left, right, &cx)
               : internal::JoinImpl<PlainAccess>(left, right, &cx);
  }
  obs::Span sp(cx.trace, "join", cx.trace_track);
  const OpStats before = cx.join;
  Relation<S> out = enc ? internal::JoinImpl<EncodedAccess>(left, right, &cx)
                        : internal::JoinImpl<PlainAccess>(left, right, &cx);
  sp.SetArgsJson(obs::OpStatsJson(obs::OpStatsDelta(before, cx.join)));
  return out;
}

/// Batched multi-variable elimination: removes every variable of `vars`
/// (paired with its aggregate in `ops`) in the canonical innermost-first
/// order of Eq. (4) — descending VarId. Variables absent from the schema are
/// ignored.
///
/// Consecutive variables sharing the same aggregate are eliminated as one
/// batch: a single group-by over the surviving columns folds the whole batch
/// (sound because each aggregate is associative and commutative, so folding
/// the combined group equals folding variable-at-a-time). FAQ-SS queries —
/// every aggregate the semiring ⊕ — therefore group exactly once, where the
/// seed kernel re-grouped once per variable. Columnar storage makes the
/// group-by touch only the surviving columns and the annotation column —
/// the eliminated columns are never read, the payoff the scan benches gate;
/// on an encoded key column the group scan runs over packed codes.
/// Each batch's group-by fans out into key-aligned morsels when
/// ctx->parallelism > 1; a group always folds whole inside one morsel, in
/// traversal order, so parallel results are bit-identical to serial —
/// floating-point semirings included. The input is consumed by const
/// reference through column views — no defensive copy. Each batch
/// re-dispatches on its input's encoding, so encoded intermediates stay on
/// the encoded kernel.
template <CommutativeSemiring S>
Relation<S> Eliminate(const Relation<S>& r, std::vector<VarId> vars,
                      std::vector<VarOp> ops, ExecContext* ctx = nullptr) {
  TOPOFAQ_CHECK_MSG(vars.size() == ops.size(),
                    "one aggregate op per eliminated variable required");
  ExecContext& cx = ExecContext::Resolve(ctx);
  // Single span over the whole batched loop (one operator call, however many
  // batches it folds); the per-batch breakdown is visible in the counters it
  // carries. One branch here when tracing is off — see Join.
  obs::Span sp(cx.trace, "eliminate", cx.trace_track);
  const OpStats op_before = cx.trace != nullptr ? cx.eliminate : OpStats{};
  OpStats& st = cx.eliminate;
  ++st.calls;
  st.rows_in += static_cast<int64_t>(r.size());

  // The input is only ever *read* (the first batch consumes it through
  // column views; later batches consume the previous batch's output), so an
  // lvalue argument costs no relation copy. Only the degenerate call that
  // eliminates nothing returns a copy of `r`.
  const Relation<S>* src = &r;
  Relation<S> cur;

  // Keep only variables present, then order descending (innermost first).
  {
    const SchemaIndex idx(r.schema());
    size_t w = 0;
    for (size_t i = 0; i < vars.size(); ++i)
      if (idx.Contains(vars[i])) {
        vars[w] = vars[i];
        ops[w] = ops[i];
        ++w;
      }
    vars.resize(w);
    ops.resize(w);
  }
  std::vector<size_t> order(vars.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return vars[x] > vars[y]; });
  {
    std::vector<VarId> v2(vars.size());
    std::vector<VarOp> o2(ops.size());
    for (size_t i = 0; i < order.size(); ++i) {
      v2[i] = vars[order[i]];
      o2[i] = ops[order[i]];
    }
    vars = std::move(v2);
    ops = std::move(o2);
  }

  size_t bi = 0;
  while (bi < vars.size()) {
    size_t be = bi + 1;
    while (be < vars.size() && ops[be] == ops[bi]) ++be;
    const VarOp op = ops[bi];
    const Relation<S>& in = *src;
    const VarId* vb = vars.data() + bi;
    const VarId* ve = vars.data() + be;
    Relation<S> out =
        in.any_encoded()
            ? internal::EliminateBatch<EncodedAccess>(in, vb, ve, op, cx, st)
            : internal::EliminateBatch<PlainAccess>(in, vb, ve, op, cx, st);
    cur = std::move(out);
    src = &cur;
    bi = be;
  }
  st.rows_out += static_cast<int64_t>(src->size());
  if (cx.trace != nullptr)
    sp.SetArgsJson(obs::OpStatsJson(obs::OpStatsDelta(op_before, st)));
  return src == &r ? r : std::move(cur);
}

/// The full relation [N]^arity × {1} on `schema` with domain [0, n) — used by
/// the TRIBES embeddings ("[N] × {1}" relations of Lemma 4.3). Enumerated in
/// lexicographic order, so the result is canonical with no sort.
template <CommutativeSemiring S>
Relation<S> FullRelation(const Schema& schema, uint64_t n) {
  RelationBuilder<S> b{schema};
  std::vector<Value> row(schema.arity(), 0);
  // Odometer enumeration of [n)^arity, last column fastest.
  while (true) {
    b.Append(row, S::One());
    size_t k = row.size();
    while (k > 0) {
      if (++row[k - 1] < n) break;
      row[k - 1] = 0;
      --k;
    }
    if (k == 0) break;
  }
  return b.Build();
}

}  // namespace topofaq

#endif  // TOPOFAQ_RELATION_OPS_H_
