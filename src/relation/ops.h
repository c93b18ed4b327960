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
  /// Index of shard 0's table in `*shards` (a factor-Eliminate keeps one
  /// directory per probed factor side by side in one shard vector).
  size_t first = 0;
  std::vector<size_t> cuts;
  size_t num_shards() const { return cuts.size() - 1; }
  const std::vector<uint64_t>& table(size_t s) const {
    return (*shards)[first + s];
  }
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
  return ProbeRunDirectory<A>(dir.table(lo), rk, nk, rn, rp, lk, lrow, cmps);
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
      const std::vector<uint64_t>& table = dir.table(0);
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
/// touches only the kept columns `kc` and the annotation column `annots`
/// (parallel to the rows `kc` indexes); on an encoded key column it detects
/// runs over the packed codes and decodes exactly once per group, at
/// emission.
template <typename A, CommutativeSemiring S>
void EliminateEmitRange(const typename S::Value* annots,
                        const typename A::Col* kc, size_t nkc,
                        const size_t* perm, VarOp op, size_t gb, size_t ge,
                        RelationBuilder<S>* b, std::vector<Value>* rowbuf,
                        int64_t* cmps) {
  std::vector<Value>& row = *rowbuf;
  row.resize(nkc);
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
/// `cx.table_shards`, from index `first` on: the traversal is cut into one
/// key-aligned shard per worker, and worker w claims shards through the pool
/// and builds each into `cx.table_shards[first + s]`. One worker builds its
/// single shard on the calling thread.
template <typename A>
RunDirectory BuildShardedRunDirectory(ExecContext& cx, int workers,
                                      const typename A::Col* rk, size_t nk,
                                      size_t rn, const size_t* rpm,
                                      size_t first = 0) {
  RunDirectory dir;
  dir.shards = &cx.table_shards;
  dir.first = first;
  dir.cuts = KeyAlignedCuts(rn, static_cast<size_t>(workers), [&](size_t t) {
    const size_t a = rpm ? rpm[t] : t;
    const size_t p = rpm ? rpm[t - 1] : t - 1;
    return !KeysEqualAt<A>(rk, a, p, nk);
  });
  const size_t n_shards = dir.num_shards();
  if (cx.table_shards.size() < first + n_shards)
    cx.table_shards.resize(first + n_shards);
  auto build = [&](int, size_t s) {
    BuildRunDirectoryRange<A>(rk, nk, dir.cuts[s], dir.cuts[s + 1], rpm,
                              &cx.table_shards[first + s]);
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

/// Folds the kept-key groups of traversal [0, n) (kept-key order via
/// `perm`, nullptr = identity) into the batch's output — the one group-by
/// emission of every Eliminate batch. `annots` is parallel to the rows the
/// kept columns `kc` index.
template <typename A, CommutativeSemiring S>
Relation<S> FoldGroups(const typename S::Value* annots,
                       const typename A::Col* kc, size_t nkc,
                       const size_t* perm, size_t n, VarOp op, Schema schema,
                       ExecContext& cx) {
  return MorselRun<S>(
      cx, PlannedWorkers(cx, n), std::move(schema), n,
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
        EliminateEmitRange<A>(annots, kc, nkc, perm, op, gb, ge, b, &wc.row,
                              &wc.eliminate.comparisons);
      });
}

/// How the outer relation's walk finds a factor's run at a row's key.
enum class FactorProbeKind {
  kMerge,   ///< the factor's columns lead the walk order: a merge cursor
  kDense,   ///< one key column over a narrow range: direct addressing
  kHashed,  ///< anything else: the hashed run directory
};

/// One ⊗-factor of a factor-Eliminate, resolved against the outer
/// relation: the columns of the factor's variables on both sides (factor
/// schema order), the factor's key-ordered traversal, and how the outer
/// relation's walk probes it.
/// The walk reads raw values (see EliminateBatch).
template <CommutativeSemiring S>
struct FactorProbe {
  std::vector<const Value*> dk;  ///< outer columns of the factor's vars
  std::vector<const Value*> fk;  ///< the factor's own columns
  const typename S::Value* annots = nullptr;
  size_t rows = 0;
  const size_t* fpm = nullptr;  ///< traversal; nullptr = identity
  std::vector<size_t> perm;     ///< backs `fpm` for a non-canonical factor
  FactorProbeKind kind = FactorProbeKind::kHashed;
  /// kDense: slot v - dense_lo holds 1 + the traversal position where key
  /// v's run starts, 0 when v is absent.
  Value dense_lo = 0;
  std::vector<uint32_t> dense;
  RunDirectory dir;  ///< kHashed

  size_t Pos(size_t t) const { return fpm ? fpm[t] : t; }
};

/// Direct addressing pays when the one key column spans at most this many
/// slots per factor row (plus a small floor): the slot array then stays
/// within a few times the factor's own key column.
inline constexpr uint64_t kDenseSlotsPerRow = 4;
inline constexpr uint64_t kDenseMinSlots = 4096;

/// Fills `f.dense` when `f` has one key column whose value range is narrow
/// enough; returns false (and leaves `f` as it was) otherwise.
template <CommutativeSemiring S>
bool BuildDenseRunIndex(FactorProbe<S>* f) {
  if (f->fk.size() != 1 || f->rows == 0 || f->rows >= UINT32_MAX) return false;
  const Value* c = f->fk[0];
  const Value lo = c[f->Pos(0)];
  const Value hi = c[f->Pos(f->rows - 1)];
  const uint64_t span = hi - lo;
  if (span >= std::max<uint64_t>(kDenseMinSlots,
                                  kDenseSlotsPerRow * f->rows))
    return false;
  f->dense_lo = lo;
  f->dense.assign(span + 1, 0);
  Value prev = 0;
  for (size_t t = 0; t < f->rows; ++t) {
    const Value v = c[f->Pos(t)];
    if (t == 0 || v != prev) f->dense[v - lo] = static_cast<uint32_t>(t + 1);
    prev = v;
  }
  return true;
}

/// One factor's probe state inside one morsel's walk: the merge cursor, the
/// outer row whose key was probed last, and the factor run it found.
struct FactorCursor {
  size_t j = 0;
  size_t last = 0;
  size_t lo = 0;
  size_t hi = 0;
  bool have = false;
};

/// The walk of a factor-Eliminate. The outer relation is walked in `walk`
/// order (canonical under the output's column order; nullptr = identity),
/// one run of duplicate rows at a time; every factor is probed at the run's
/// key, and the annotations multiply in operand order — the `lead` factors,
/// then the outer relation, then the rest. That reproduces the pairwise
/// Join chain P₀ ⋈ P₁ ⋈ … byte for byte: stage 1 ⊕-merges the products of
/// P₀'s run with P₁'s run, P₀-major (the chain's first Join merges equal
/// output rows in emission order), every later stage ⊕-merges acc ⊗ p over
/// its operand's run, and a row that misses a probe, or whose product is
/// zero after any stage (the chain's builders drop it there), is dropped.
/// Runs of canonical operands are one row each, so `single` walks take the
/// plain product.
template <CommutativeSemiring S>
struct FactorWalk {
  using V = typename S::Value;
  using P = PlainAccess;
  const V* annots = nullptr;           ///< the outer relation's annotations
  const size_t* walk = nullptr;
  std::vector<const Value*> all;       ///< every outer column (dups only)
  size_t n = 0;                        ///< walk length
  bool dups = false;    ///< non-canonical outer relation: merge duplicate rows
  bool single = false;  ///< every run is one row
  size_t lead = 0;
  std::vector<FactorProbe<S>> fac;

  size_t Row(size_t t) const { return walk ? walk[t] : t; }

  /// True when walk position t starts a new run of duplicate outer rows.
  bool StartsRun(size_t t) const {
    return !dups || !KeysEqualAt<P>(all.data(), Row(t), Row(t - 1), all.size());
  }

  /// Finds factor i's run at outer row x into `c`.
  void Probe(size_t i, size_t x, FactorCursor* c, int64_t* cmps) const {
    const FactorProbe<S>& f = fac[i];
    const size_t nk = f.fk.size();
    const Value* const* fk = f.fk.data();
    const Value* const* dk = f.dk.data();
    switch (f.kind) {
      case FactorProbeKind::kMerge:
        while (c->j < f.rows && CompareKeysAt<P>(fk, f.Pos(c->j), dk, x, nk) < 0) {
          ++*cmps;
          ++c->j;
        }
        c->lo = c->hi = c->j;
        while (c->hi < f.rows &&
               CompareKeysAt<P>(fk, f.Pos(c->hi), dk, x, nk) == 0)
          ++c->hi;
        *cmps += static_cast<int64_t>(c->hi - c->lo) + 1;
        c->j = c->hi;
        return;
      case FactorProbeKind::kDense: {
        const uint64_t slot = dk[0][x] - f.dense_lo;
        const uint32_t s = slot < f.dense.size() ? f.dense[slot] : 0;
        ++*cmps;
        c->lo = c->hi = s == 0 ? 0 : s - 1;
        if (s == 0) return;
        ++c->hi;
        // A canonical factor's keys are distinct; a duplicate run goes on.
        if (f.fpm != nullptr)
          while (c->hi < f.rows && fk[0][f.Pos(c->hi)] == dk[0][x]) ++c->hi;
        return;
      }
      case FactorProbeKind::kHashed:
        std::tie(c->lo, c->hi) =
            DirProbe<P>(f.dir, fk, nk, f.rows, f.fpm, dk, x, cmps);
        return;
    }
  }

  /// Calls fn(row, product) for the head row of every surviving run in walk
  /// positions [xb, xe), in walk order; xb and xe must start runs.
  template <typename Fn>
  void Run(size_t xb, size_t xe, int64_t* cmps, Fn&& fn) const {
    if (xb >= xe) return;
    const size_t k = fac.size();
    std::vector<FactorCursor> cur(k);
    // A morsel entering mid-walk finds each merge cursor's start by one
    // binary search instead of replaying the merge from position 0.
    if (xb > 0)
      for (size_t i = 0; i < k; ++i)
        if (fac[i].kind == FactorProbeKind::kMerge)
          cur[i].j = RightLowerBound<P>(fac[i].fk.data(), fac[i].fk.size(),
                                        fac[i].rows, fac[i].fpm,
                                        fac[i].dk.data(), Row(xb), cmps);
    for (size_t xi = xb; xi < xe;) {
      const size_t x = Row(xi);
      size_t xn = xi + 1;
      if (dups)
        while (xn < xe && !StartsRun(xn)) ++xn;
      bool hit = true;
      for (size_t i = 0; i < k && hit; ++i) {
        FactorCursor& c = cur[i];
        if (!c.have ||
            !KeysEqualAt<P>(fac[i].dk.data(), x, c.last, fac[i].dk.size())) {
          Probe(i, x, &c, cmps);
          c.have = true;
          c.last = x;
        }
        hit = c.lo < c.hi;
      }
      const size_t at = xi;
      xi = xn;
      if (!hit) continue;
      V acc;
      if (single) {
        // Every run is one row: the plain product, in operand order.
        acc = lead == 0 ? annots[x] : fac[0].annots[cur[0].lo];
        bool zero = false;
        for (size_t o = 1; o <= k && !zero; ++o) {
          const size_t i = o < lead ? o : o - 1;
          acc = S::Multiply(acc, o == lead ? annots[x]
                                           : fac[i].annots[cur[i].lo]);
          zero = S::IsZero(acc);
        }
        if (zero) continue;
      } else if (!Product(at, xn, x, cur, &acc)) {
        continue;
      }
      fn(x, acc);
    }
  }

  /// True when the walk rows sharing the first lead factor's key with the
  /// duplicate run [xi, xn) (head row x) reach beyond it — the lead
  /// factor's columns lead the walk order, so those rows are adjacent.
  bool LeadKeyRunIsWider(size_t xi, size_t xn, size_t x) const {
    const Value* const* dk = fac[0].dk.data();
    const size_t nk = fac[0].dk.size();
    return (xi > 0 && KeysEqualAt<P>(dk, Row(xi - 1), x, nk)) ||
           (xn < n && KeysEqualAt<P>(dk, Row(xn), x, nk));
  }

  /// The product of the outer run at walk positions [xi, xn) (head row x)
  /// with the factor runs in `cur`, when some run holds duplicate rows;
  /// false when a stage's product is zero.
  bool Product(size_t xi, size_t xn, size_t x,
               const std::vector<FactorCursor>& cur, V* out) const {
    const size_t k = fac.size();
    // Operand o's run [lo, hi) and its value at run position t.
    auto lo = [&](size_t o) {
      return o == lead ? xi : cur[o < lead ? o : o - 1].lo;
    };
    auto hi = [&](size_t o) {
      return o == lead ? xn : cur[o < lead ? o : o - 1].hi;
    };
    auto at = [&](size_t o, size_t t) {
      if (o == lead) return annots[Row(t)];
      const FactorProbe<S>& f = fac[o < lead ? o : o - 1];
      return f.annots[f.Pos(t)];
    };
    // A lead factor's duplicate rows each emit the outer rows under their
    // key. When those rows hold more than one distinct tuple, the emissions
    // of one tuple are not adjacent: the Join merges each factor row's
    // partial sum, and its closing sort folds the partial sums.
    const bool nested = lead == 1 && hi(0) - lo(0) > 1 &&
                        LeadKeyRunIsWider(xi, xn, x);
    V acc{};
    bool have = false;
    for (size_t a = lo(0); a < hi(0); ++a) {
      const V l = at(0, a);
      V part{};
      bool have_part = false;
      for (size_t b = lo(1); b < hi(1); ++b) {
        const V p = S::Multiply(l, at(1, b));
        if (nested) {
          part = have_part ? S::Add(part, p) : p;
          have_part = true;
        } else {
          acc = have ? S::Add(acc, p) : p;
          have = true;
        }
      }
      if (nested) {
        acc = have ? S::Add(acc, part) : part;
        have = true;
      }
    }
    if (S::IsZero(acc)) return false;
    for (size_t o = 2; o <= k; ++o) {
      const V l = acc;
      have = false;
      for (size_t b = lo(o); b < hi(o); ++b) {
        const V p = S::Multiply(l, at(o, b));
        acc = have ? S::Add(acc, p) : p;
        have = true;
      }
      if (S::IsZero(acc)) return false;
    }
    *out = acc;
    return true;
  }
};

/// Raw values of column `j` of `r`: the column itself when plain, else
/// decoded once, sequentially, into the next of the context's `raw_cols`
/// buffers (`*used` counts the buffers this call has taken).
template <CommutativeSemiring S>
const Value* RawColumn(const Relation<S>& r, size_t j, ExecContext& cx,
                       size_t* used) {
  const ColView v = r.view(j);
  if (v.plain != nullptr) return v.plain;
  if (cx.raw_cols.size() <= *used) cx.raw_cols.resize(*used + 1);
  std::vector<Value>& buf = cx.raw_cols[(*used)++];
  if (buf.size() < r.size()) buf.resize(r.size());
  v.enc->DecodeInto(0, r.size(), buf.data());
  return buf.data();
}

/// One Eliminate batch (all variables sharing one aggregate), one
/// instantiation per access policy. `vb`/`ve` delimit the batch's variables
/// — none at all when a batch only folds factors in. With `factors` the
/// batch groups r ⊗ f₁ ⊗ … (FactorWalk) without materializing that product;
/// its output columns follow operand order, as the Join chain's would: the
/// `lead` factors' variables first, then the rest of the outer relation's.
template <typename A, CommutativeSemiring S>
Relation<S> EliminateBatch(const Relation<S>& in,
                           const std::vector<const Relation<S>*>& factors,
                           size_t lead, const VarId* vb, const VarId* ve,
                           VarOp op, ExecContext& cx, OpStats& st) {
  using V = typename S::Value;
  // Outer positions of the output columns, in output order: the outer
  // relation's schema unless lead factors put their columns first.
  std::vector<int> chain(in.arity());
  std::iota(chain.begin(), chain.end(), 0);
  if (lead > 0) {
    const SchemaIndex idx(in.schema());
    std::vector<char> seen(in.arity(), 0);
    chain.clear();
    auto take = [&](const Schema& sc) {
      for (VarId v : sc.vars()) {
        const int p = idx.PositionOf(v);
        if (!seen[p]) {
          seen[p] = 1;
          chain.push_back(p);
        }
      }
    };
    for (size_t i = 0; i < lead; ++i) take(factors[i]->schema());
    take(in.schema());
  }
  // Surviving columns of this batch, in output order.
  std::vector<VarId> kept_vars;
  std::vector<int>& kept_pos = cx.pos_a;
  kept_pos.clear();
  for (int p : chain) {
    const VarId v = in.schema().var(static_cast<size_t>(p));
    if (std::find(vb, ve, v) == ve) {
      kept_vars.push_back(v);
      kept_pos.push_back(p);
    }
  }
  const size_t nkc = kept_pos.size();
  Schema out_schema{std::move(kept_vars)};

  if (factors.empty()) {
    const size_t* perm = nullptr;
    if (IsCanonicalKeyPrefix(in, kept_pos)) {
      ++st.sort_skips;
    } else {
      KeyOrderPerm<A>(in, kept_pos, cx, &cx.perm_a, &st);
      perm = cx.perm_a.data();
    }
    GatherCols<A>(in, kept_pos, &ScratchCols<A>::a(cx));
    return FoldGroups<A, S>(in.annots().data(), ScratchCols<A>::a(cx).data(),
                            nkc, perm, in.size(), op, std::move(out_schema),
                            cx);
  }

  const SchemaIndex idx(in.schema());
  bool any_empty = false;
  for (const Relation<S>* f : factors) any_empty = any_empty || f->empty();
  const size_t n = any_empty ? 0 : in.size();
  const int workers = PlannedWorkers(cx, n);
  FactorWalk<S> w;
  w.annots = in.annots().data();
  w.n = n;
  w.dups = !in.canonical();
  w.lead = lead;
  // The walk: canonical order under the output's column order — no sort
  // when the outer relation is canonical and no lead factor reorders its
  // columns.
  // The sort reads codes; everything after it reads raw values: each
  // encoded column the walk probes or groups by is decoded once, in order,
  // rather than unpacked at every access.
  if (n > 0) {
    if (in.canonical() && IsPrefixPositions(chain)) {
      ++st.sort_skips;
    } else {
      GatherCols<A>(in, chain, &ScratchCols<A>::c(cx));
      SortPermByColumns<A>(ScratchCols<A>::c(cx).data(), chain.size(), n,
                           workers, &cx.perm_b);
      ++st.sorts;
      st.comparisons += SortComparisonBound(n);
      w.walk = cx.perm_b.data();
    }
  }
  size_t raw_used = 0;
  std::vector<const Value*> dcol(in.arity(), nullptr);
  auto outer_col = [&](int j) {
    const Value*& c = dcol[static_cast<size_t>(j)];
    if (c == nullptr) c = RawColumn(in, static_cast<size_t>(j), cx, &raw_used);
    return c;
  };
  std::vector<const Value*> kc(nkc);
  for (size_t c = 0; c < nkc; ++c) kc[c] = outer_col(kept_pos[c]);
  if (w.dups)
    for (size_t j = 0; j < in.arity(); ++j)
      w.all.push_back(outer_col(static_cast<int>(j)));
  w.single = !w.dups;
  w.fac.resize(factors.size());
  size_t shard = 0;
  for (size_t i = 0; i < factors.size(); ++i) {
    const Relation<S>& f = *factors[i];
    FactorProbe<S>& p = w.fac[i];
    p.annots = f.annots().data();
    p.rows = f.size();
    bool mono = true;
    for (size_t t = 0; t < f.arity(); ++t) {
      const int d = idx.PositionOf(f.schema().var(t));
      mono = mono && d == chain[t];
      if (n == 0) continue;
      p.dk.push_back(outer_col(d));
      p.fk.push_back(RawColumn(f, t, cx, &raw_used));
    }
    if (n == 0) continue;
    if (!f.canonical()) {
      RowOrderPerm(f, cx, &p.perm, &st);
      p.fpm = p.perm.data();
      w.single = false;
    }
    if (mono) {
      p.kind = FactorProbeKind::kMerge;
    } else if (BuildDenseRunIndex(&p)) {
      p.kind = FactorProbeKind::kDense;
    } else {
      p.kind = FactorProbeKind::kHashed;
      p.dir = BuildShardedRunDirectory<PlainAccess>(
          cx, workers, p.fk.data(), p.fk.size(), p.rows, p.fpm, shard);
      shard += p.dir.num_shards();
    }
  }

  // Kept columns leading the output order: the survivors arrive grouped,
  // and each group folds as the walk passes it.
  if (std::equal(kept_pos.begin(), kept_pos.end(), chain.begin())) {
    return MorselRun<S>(
        cx, workers, std::move(out_schema), n,
        [&](size_t t) {
          return !KeysEqualAt<PlainAccess>(kc.data(), w.Row(t), w.Row(t - 1),
                                           nkc);
        },
        &ExecContext::eliminate,
        [&](ExecContext& wc, size_t gb, size_t ge, RelationBuilder<S>* b) {
          int64_t* cmps = &wc.eliminate.comparisons;
          std::vector<Value>& row = wc.row;
          row.resize(nkc);
          bool open = false;
          size_t head = 0;
          int64_t len = 0;
          V acc{};
          auto flush = [&] {
            for (size_t c = 0; c < nkc; ++c) row[c] = kc[c][head];
            b->Append(row, acc);
            *cmps += len;
          };
          w.Run(gb, ge, cmps, [&](size_t x, V v) {
            if (open && KeysEqualAt<PlainAccess>(kc.data(), x, head, nkc)) {
              acc = ApplyVarOp<S>(op, acc, v);
              ++len;
              return;
            }
            if (open) flush();
            open = true;
            head = x;
            acc = v;
            len = 1;
          });
          if (open) flush();
        });
  }

  // Otherwise collect the survivors (head row, product) in walk order,
  // gather their kept columns once, and regroup them with one sort.
  std::vector<size_t> rows;
  std::vector<V> vals;
  if (workers <= 1) {
    w.Run(0, n, &st.comparisons, [&](size_t x, V v) {
      rows.push_back(x);
      vals.push_back(v);
    });
  } else {
    const std::vector<size_t> cuts =
        KeyAlignedCuts(n, static_cast<size_t>(workers) * kMorselsPerWorker,
                       [&](size_t t) { return w.StartsRun(t); });
    const size_t m = cuts.size() - 1;
    std::vector<std::vector<size_t>> prow(m);
    std::vector<std::vector<V>> pval(m);
    std::vector<int64_t> pcmp(m, 0);
    WorkerPool::Shared().ParallelFor(
        std::min<int>(workers, static_cast<int>(m)), m, [&](int, size_t t) {
          if (cx.cancelled()) return;
          w.Run(cuts[t], cuts[t + 1], &pcmp[t], [&](size_t x, V v) {
            prow[t].push_back(x);
            pval[t].push_back(v);
          });
        });
    st.morsels += static_cast<int64_t>(m);
    for (size_t t = 0; t < m; ++t) {
      rows.insert(rows.end(), prow[t].begin(), prow[t].end());
      vals.insert(vals.end(), pval[t].begin(), pval[t].end());
      st.comparisons += pcmp[t];
    }
  }
  const size_t ns = rows.size();
  std::vector<std::vector<Value>> gathered(nkc, std::vector<Value>(ns));
  std::vector<const Value*> gc(nkc);
  for (size_t c = 0; c < nkc; ++c) {
    Value* g = gathered[c].data();
    for (size_t t = 0; t < ns; ++t) g[t] = kc[c][rows[t]];
    gc[c] = g;
  }
  SortPermByColumns<PlainAccess>(gc.data(), nkc, ns, PlannedWorkers(cx, ns),
                                 &cx.perm_a);
  ++st.sorts;
  st.comparisons += SortComparisonBound(ns);
  return FoldGroups<PlainAccess, S>(vals.data(), gc.data(), nkc,
                                    cx.perm_a.data(), ns, op,
                                    std::move(out_schema), cx);
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

/// Batched multi-variable elimination over a ⊗-product: computes
/// ⊕_vars (r ⊗ f₁ ⊗ … ⊗ f_k), removing every variable of `vars` (paired with
/// its aggregate in `ops`) in the canonical innermost-first order of
/// Eq. (4) — descending VarId. Every factor's schema must lie inside r's.
/// Variables absent from r's schema are ignored. With no factors this is
/// plain elimination; with no variables it is the ⊗-fold alone.
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
///
/// The factors fold into the first batch (the InsideOut step of a GHD node,
/// docs/kernel.md, "Factor probes"): r is walked in canonical order, each
/// factor is probed per row — by a merge cursor when its columns lead the
/// walk order, through a hashed run directory otherwise — the annotations
/// multiply in operand order, rows that miss a probe or multiply to zero
/// drop out, and the survivors fold straight into their kept-key groups
/// (when the kept columns lead the walk order) or are regrouped by one sort
/// of their gathered kept columns. The product r ⊗ f₁ ⊗ … is never
/// materialized, and the result is byte-identical to Join(…Join(r, f₁)…,
/// f_k) followed by Eliminate — column order and duplicate-row merges
/// included. `lead` factors precede r in that chain: the operands are
/// f₀ … f_{lead-1}, r, f_lead …, and the output columns follow that order
/// (with two or more lead factors the first must be canonical).
///
/// Each batch's group-by fans out into key-aligned morsels when
/// ctx->parallelism > 1; a group always folds whole inside one morsel, in
/// traversal order, so parallel results are bit-identical to serial —
/// floating-point semirings included. The inputs are consumed by const
/// reference through column views — no defensive copy. Each batch
/// re-dispatches on its inputs' encoding, so encoded intermediates stay on
/// the encoded kernel.
template <CommutativeSemiring S>
Relation<S> Eliminate(const Relation<S>& r,
                      const std::vector<const Relation<S>*>& factors,
                      std::vector<VarId> vars, std::vector<VarOp> ops,
                      ExecContext* ctx = nullptr, size_t lead = 0) {
  TOPOFAQ_CHECK_MSG(vars.size() == ops.size(),
                    "one aggregate op per eliminated variable required");
  TOPOFAQ_CHECK_MSG(lead <= factors.size(), "Eliminate: lead past factors");
  TOPOFAQ_CHECK_MSG(lead < 2 || factors[0]->canonical(),
                    "Eliminate: two or more lead factors need a canonical "
                    "first factor");
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
  // neither eliminates nor folds anything returns a copy of `r`.
  const Relation<S>* src = &r;
  Relation<S> cur;

  // Keep only variables present, then order descending (innermost first).
  {
    const SchemaIndex idx(r.schema());
    for (const Relation<S>* f : factors) {
      st.rows_in += static_cast<int64_t>(f->size());
      for (VarId v : f->schema().vars())
        TOPOFAQ_CHECK_MSG(idx.Contains(v),
                          "Eliminate: factor variable outside r's schema");
    }
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

  // The first batch takes the factors — a batch of no variables when there
  // is nothing to eliminate.
  const std::vector<const Relation<S>*> none;
  bool fold = !factors.empty();
  size_t bi = 0;
  while (bi < vars.size() || fold) {
    size_t be = bi;
    VarOp op = VarOp::kSemiringSum;
    if (bi < vars.size()) {
      op = ops[bi];
      while (be < vars.size() && ops[be] == op) ++be;
    }
    const Relation<S>& in = *src;
    const std::vector<const Relation<S>*>& fs = fold ? factors : none;
    bool enc = in.any_encoded();
    for (const Relation<S>* f : fs) enc = enc || f->any_encoded();
    const VarId* vb = vars.data() + bi;
    const VarId* ve = vars.data() + be;
    const size_t ld = fold ? lead : 0;
    Relation<S> out =
        enc ? internal::EliminateBatch<EncodedAccess>(in, fs, ld, vb, ve, op,
                                                      cx, st)
            : internal::EliminateBatch<PlainAccess>(in, fs, ld, vb, ve, op, cx,
                                                    st);
    cur = std::move(out);
    src = &cur;
    bi = be;
    fold = false;
  }
  st.rows_out += static_cast<int64_t>(src->size());
  if (cx.trace != nullptr)
    sp.SetArgsJson(obs::OpStatsJson(obs::OpStatsDelta(op_before, st)));
  return src == &r ? r : std::move(cur);
}

/// Plain batched elimination: the zero-factor case of the operator above.
template <CommutativeSemiring S>
Relation<S> Eliminate(const Relation<S>& r, std::vector<VarId> vars,
                      std::vector<VarOp> ops, ExecContext* ctx = nullptr) {
  return Eliminate(r, std::vector<const Relation<S>*>{}, std::move(vars),
                   std::move(ops), ctx);
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
