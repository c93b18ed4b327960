// Batched deltas on base relations — the data half of incremental view
// maintenance (docs/ivm.md).
//
// A delta is a pair of annotated relations: `removes` erases matching tuples
// from the base outright (its annotations are ignored — deletion is by key),
// `adds` is ⊕-merged in, removes first. Both halves are canonicalized on
// application, so callers can hand over raw batches.
//
// The base update is one splice over the canonical columns: erased rows are
// zeroed with set_annot and dropped by the one-pass Relation::Compact()
// re-certification, then AddInto walks the (sorted) add rows once, bulk-
// appending the untouched base runs between them via
// RelationBuilder::AppendChunk and ⊕-merging collisions exactly the way
// Canonicalize's run fold would (base row first, delta row second). Cost:
// O(|base| memmove + |delta| · log |base|), no sort.
//
// RingTraits classifies each semiring for the propagation layer
// (ivm/standing_query.h): in a *ring*, the net effect of a delta on a base
// relation is itself an annotated relation C with base_new = base_old ⊕ C
// pointwise (deletions contribute additive inverses), and because every
// operator in the Yannakakis pass is ⊕-linear in each argument, C can be
// pushed through the join tree instead of recomputing it. Only exact rings
// qualify for that path bit-for-bit: Natural (uint64 wraps — the ring
// ℤ/2^64) and GF2 (XOR is its own inverse). Counting *is* a ring
// algebraically, but IEEE double addition is not associative at the bit
// level, so folding -old ⊕ new incrementally can differ in low bits from a
// fresh fold; it is marked inexact and takes the recompute path, keeping
// the differential bit-identity guarantee unconditional.
#ifndef TOPOFAQ_IVM_DELTA_H_
#define TOPOFAQ_IVM_DELTA_H_

#include <span>
#include <utility>
#include <vector>

#include "faq/query.h"
#include "relation/relation.h"
#include "util/status.h"

namespace topofaq {

/// Ring classification per semiring. kIsRing: ⊕ has additive inverses
/// (Negate). kExact: ⊕/⊗ are exact (no rounding), so incremental folds are
/// bit-identical to full refolds — the gate for delta propagation.
template <typename S>
struct RingTraits {
  static constexpr bool kIsRing = false;
  static constexpr bool kExact = false;
};

template <>
struct RingTraits<NaturalSemiring> {  // ℤ/2^64: wrapping uint64 arithmetic
  static constexpr bool kIsRing = true;
  static constexpr bool kExact = true;
  static NaturalSemiring::Value Negate(NaturalSemiring::Value v) {
    return ~v + 1;  // two's complement: 0 - v mod 2^64
  }
};

template <>
struct RingTraits<Gf2Semiring> {  // F2: every element is its own inverse
  static constexpr bool kIsRing = true;
  static constexpr bool kExact = true;
  static Gf2Semiring::Value Negate(Gf2Semiring::Value v) { return v; }
};

template <>
struct RingTraits<CountingSemiring> {  // (ℝ, +, ×): a ring, but floats are
  static constexpr bool kIsRing = true;   // not bit-exact under reassociation
  static constexpr bool kExact = false;
  static CountingSemiring::Value Negate(CountingSemiring::Value v) {
    return -v;
  }
};

/// One batched update to a base relation. Schemas of non-empty halves must
/// match the base relation's schema.
template <CommutativeSemiring S>
struct Delta {
  /// Tuples to erase from the base. Matching is by key columns only; the
  /// annotations here are ignored (deletion, not subtraction). Tuples not
  /// present in the base are ignored.
  Relation<S> removes;
  /// Tuples to ⊕-merge into the base after the removes. A tuple both
  /// removed and added ends up carrying exactly the added annotation.
  Relation<S> adds;

  bool empty() const { return removes.empty() && adds.empty(); }
  size_t size() const { return removes.size() + adds.size(); }
};

namespace ivm_detail {

/// First row index >= `t` lexicographically in canonical `r`, searching
/// [lo, r.size()). O(arity · log n) via at() (decoded or encoded).
template <CommutativeSemiring S>
size_t LowerBoundRow(const Relation<S>& r, std::span<const Value> t,
                     size_t lo) {
  size_t hi = r.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    int cmp = 0;
    for (size_t j = 0; j < t.size() && cmp == 0; ++j) {
      const Value x = r.at(mid, j);
      cmp = x < t[j] ? -1 : (x > t[j] ? 1 : 0);
    }
    if (cmp < 0)
      lo = mid + 1;
    else
      hi = mid;
  }
  return lo;
}

template <CommutativeSemiring S>
bool RowEquals(const Relation<S>& r, size_t i, std::span<const Value> t) {
  for (size_t j = 0; j < t.size(); ++j)
    if (r.at(i, j) != t[j]) return false;
  return true;
}

}  // namespace ivm_detail

/// Erases every base tuple that appears in (canonical) `removes`: binary
/// search per remove row, zero the annotation, then one Compact() pass
/// drops the zeroed runs and re-certifies (re-encoding under `ctx`'s mode)
/// — the set_annot/Compact re-certification contract exercised as a bulk
/// mutation. Tuples absent from the base are silently skipped.
template <CommutativeSemiring S>
void EraseMatching(Relation<S>* base, const Relation<S>& removes,
                   ExecContext* ctx = nullptr) {
  if (removes.empty() || base->empty()) return;
  const size_t a = base->arity();
  std::vector<Value> row(a);
  size_t lo = 0;  // removes are sorted too: searches only ever move right
  for (size_t i = 0; i < removes.size(); ++i) {
    for (size_t j = 0; j < a; ++j) row[j] = removes.at(i, j);
    lo = ivm_detail::LowerBoundRow(*base, row, lo);
    if (lo >= base->size()) break;
    if (ivm_detail::RowEquals(*base, lo, row)) base->set_annot(lo, S::Zero());
  }
  base->Compact(ctx);
}

/// ⊕-merges canonical `delta` into canonical `*base` with one splice pass:
/// base runs between consecutive delta rows move as AppendChunk column
/// views, collisions fold S::Add(base_annot, delta_annot) — the same
/// association Canonicalize's run fold (base row id < delta row id) would
/// produce — and Build()'s compaction drops exact cancellations (GF2,
/// wrapping Natural) and re-runs the encoding policy under `ctx`'s mode on
/// the spliced result.
template <CommutativeSemiring S>
void AddInto(Relation<S>* base, const Relation<S>& delta,
             ExecContext* ctx = nullptr) {
  if (delta.empty()) return;
  TOPOFAQ_CHECK_MSG(base->schema() == delta.schema() ||
                        (base->empty() && base->arity() == 0),
                    "AddInto: schema mismatch");
  if (base->empty()) {
    *base = delta;
    base->Canonicalize(ctx);
    return;
  }
  base->Compact(ctx);  // canonical in, canonical out
  Relation<S> old = std::move(*base);
  old.DecodeAll();
  const size_t a = old.arity();
  const auto& dcols = delta.columns();  // decoded once; delta is canonical
  RelationBuilder<S> b(old.schema());
  b.Reserve(old.size() + delta.size());
  std::vector<ColumnView> chunk(a);
  std::vector<Value> row(a);
  size_t pos = 0;
  for (size_t di = 0; di < delta.size(); ++di) {
    for (size_t j = 0; j < a; ++j) row[j] = dcols[j][di];
    const size_t ub = ivm_detail::LowerBoundRow(old, row, pos);
    if (ub > pos) {
      for (size_t j = 0; j < a; ++j)
        chunk[j] = ColumnView(old.col(j).data() + pos, ub - pos);
      b.AppendChunk(std::span<const ColumnView>(chunk),
                    std::span<const typename S::Value>(
                        old.annots().data() + pos, ub - pos));
      pos = ub;
    }
    if (pos < old.size() && ivm_detail::RowEquals(old, pos, row)) {
      b.Append(row, S::Add(old.annot(pos), delta.annot(di)));
      ++pos;
    } else {
      b.Append(row, delta.annot(di));
    }
  }
  if (pos < old.size()) {
    for (size_t j = 0; j < a; ++j)
      chunk[j] = ColumnView(old.col(j).data() + pos, old.size() - pos);
    b.AppendChunk(std::span<const ColumnView>(chunk),
                  std::span<const typename S::Value>(
                      old.annots().data() + pos, old.size() - pos));
  }
  *base = b.Build(ctx);
}

/// Ring mode only: the annotated relation C with base_after = base_before
/// ⊕ C pointwise, for a delta of (canonical) `removes` then `adds`. Erased
/// tuples contribute their base annotation negated; added tuples contribute
/// their value; a tuple in both folds Negate(old) ⊕ new (row-id order:
/// removes were Added first). Exact rings only — C drives join-tree
/// propagation in StandingQuery.
template <CommutativeSemiring S>
  requires(RingTraits<S>::kIsRing)
Relation<S> NetChange(const Relation<S>& base, const Relation<S>& removes,
                      const Relation<S>& adds, ExecContext* ctx = nullptr) {
  Relation<S> c(base.schema());
  const size_t a = base.arity();
  std::vector<Value> row(a);
  size_t lo = 0;
  for (size_t i = 0; i < removes.size(); ++i) {
    for (size_t j = 0; j < a; ++j) row[j] = removes.at(i, j);
    lo = ivm_detail::LowerBoundRow(base, row, lo);
    if (lo >= base.size()) break;
    if (ivm_detail::RowEquals(base, lo, row))
      c.Add(std::span<const Value>(row), RingTraits<S>::Negate(base.annot(lo)));
  }
  for (size_t i = 0; i < adds.size(); ++i) {
    for (size_t j = 0; j < a; ++j) row[j] = adds.at(i, j);
    c.Add(std::span<const Value>(row), adds.annot(i));
  }
  c.Canonicalize(ctx);
  return c;
}

/// The check step of a base update: canonicalizes both halves of `d` and
/// checks their schemas against `base`. Ring-mode maintenance computes its
/// NetChange between this step and UpdateBase.
template <CommutativeSemiring S>
Status CheckDelta(const Relation<S>& base, Delta<S>* d,
                  ExecContext* ctx = nullptr) {
  d->removes.Canonicalize(ctx);
  d->adds.Canonicalize(ctx);
  if (!d->removes.empty() && !(d->removes.schema() == base.schema()))
    return Status::InvalidArgument("delta removes schema != base schema");
  if (!d->adds.empty() && !(d->adds.schema() == base.schema()))
    return Status::InvalidArgument("delta adds schema != base schema");
  return Status::Ok();
}

/// The update step of a base update: erase, then merge. `d` must have
/// passed CheckDelta against `*base`.
template <CommutativeSemiring S>
void UpdateBase(Relation<S>* base, const Delta<S>& d,
                ExecContext* ctx = nullptr) {
  EraseMatching(base, d.removes, ctx);
  AddInto(base, d.adds, ctx);
}

/// Applies one delta to a base relation: CheckDelta, then UpdateBase. These
/// two steps are the single base-update path — the standing query and the
/// full-recompute oracle both go through them, so their bases stay
/// byte-identical by construction.
template <CommutativeSemiring S>
Status ApplyDeltaToRelation(Relation<S>* base, Delta<S> d,
                            ExecContext* ctx = nullptr) {
  if (Status s = CheckDelta(*base, &d, ctx); !s.ok()) return s;
  UpdateBase(base, d, ctx);
  return Status::Ok();
}

/// Oracle-side convenience: applies a delta to one relation of a query.
template <CommutativeSemiring S>
Status ApplyDeltaToQuery(FaqQuery<S>* q, int relation_id, Delta<S> d,
                         ExecContext* ctx = nullptr) {
  if (relation_id < 0 ||
      relation_id >= static_cast<int>(q->relations.size()))
    return Status::InvalidArgument("delta targets unknown relation " +
                                   std::to_string(relation_id));
  return ApplyDeltaToRelation(&q->relations[relation_id], std::move(d), ctx);
}

}  // namespace topofaq

#endif  // TOPOFAQ_IVM_DELTA_H_
