// Batched deltas on base relations — the data half of incremental view
// maintenance (docs/ivm.md).
//
// A delta is a pair of annotated relations: `removes` erases matching tuples
// from the base outright (its annotations are ignored — deletion is by key),
// `adds` is ⊕-merged in, removes first. Both halves are canonicalized on
// application, so callers can hand over raw batches.
//
// The base update is one sorted merge walk (ivm_detail::MergeDelta) of the
// canonical base against both halves, emitted through one RelationBuilder:
// untouched base runs move as AppendChunk column views, touched rows are
// Appended, collisions ⊕-merge exactly the way Canonicalize's run fold would
// (base row first, delta row second), and in ring mode the same walk emits
// the net change. Cost: O(|base| memmove + |delta| · log |base|), no sort.
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

/// The check step of a base update: canonicalizes both halves of `d` and
/// checks their schemas against `base`.
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

/// The update step of a base update — the one merge walk: canonical
/// `*base`, `removes` and `adds` (both past CheckDelta) in a single sorted
/// pass. Delta keys are taken in order (a key in both halves once); each is
/// binary-searched in the base from the last touched row on. A touched row
/// goes into one RelationBuilder with Append, the untouched base run before
/// it with AppendChunk:
///   in base, removed, not added  → dropped
///   in base, removed and added   → the added annotation
///   in base, added only          → S::Add(base, added), base row first
///   absent, added                → the added annotation
///   absent, removed only         → nothing (not a touch)
/// Build() drops exact cancellations and re-runs the encoding policy under
/// `ctx`'s mode. A non-canonical base is canonicalized first; a delta that
/// touches nothing leaves the canonical base as it was, and the base is
/// decoded only once something is touched.
///
/// With `change` non-null (ring semirings only) the same walk emits the net
/// change C, base_new = base_old ⊕ C: Negate(old) for a removed row, the
/// added annotation for an added one, Negate(old) ⊕ new for a row in both.
template <CommutativeSemiring S>
void UpdateBase(Relation<S>* base, const Relation<S>& removes,
                const Relation<S>& adds, ExecContext* ctx = nullptr,
                Relation<S>* change = nullptr) {
  using V = typename S::Value;
  TOPOFAQ_CHECK_MSG(change == nullptr || RingTraits<S>::kIsRing,
                    "UpdateBase: a net change needs additive inverses");
  base->Canonicalize(ctx);  // canonical in, canonical out
  const size_t a = base->arity();
  RelationBuilder<S> b(base->schema());
  RelationBuilder<S> c(base->schema());
  std::vector<Value> rrow(a), arow(a);
  std::vector<ColumnView> chunk(a);
  auto load = [a](const Relation<S>& r, size_t i, std::vector<Value>* row) {
    for (size_t j = 0; j < a; ++j) (*row)[j] = r.at(i, j);
  };
  auto append_base = [&](size_t begin, size_t end) {  // base rows [begin, end)
    for (size_t j = 0; j < a; ++j)
      chunk[j] = base->col(j).subspan(begin, end - begin);
    b.AppendChunk(chunk, std::span<const V>(base->annots())
                             .subspan(begin, end - begin));
  };
  bool touched = false;
  size_t pos = 0, ri = 0, ai = 0;  // base rows [0, pos) are in the builder
  if (!removes.empty()) load(removes, 0, &rrow);
  if (!adds.empty()) load(adds, 0, &arow);
  while (ri < removes.size() || ai < adds.size()) {
    int cmp = ri == removes.size() ? 1 : (ai == adds.size() ? -1 : 0);
    for (size_t j = 0; j < a && cmp == 0; ++j)
      cmp = rrow[j] < arow[j] ? -1 : (rrow[j] > arow[j] ? 1 : 0);
    const bool removed = cmp <= 0, added = cmp >= 0;
    const std::span<const Value> key(removed ? rrow : arow);
    const size_t at = ivm_detail::LowerBoundRow(*base, key, pos);
    const bool hit = at < base->size() && ivm_detail::RowEquals(*base, at, key);
    if (hit || added) {
      if (!touched) {
        touched = true;
        base->DecodeAll();  // chunks are views into the plain columns
        b.Reserve(base->size() + adds.size());
      }
      append_base(pos, at);
      pos = hit ? at + 1 : at;
      const V added_v = added ? adds.annot(ai) : S::Zero();
      if constexpr (RingTraits<S>::kIsRing) {
        if (change != nullptr && hit && removed) {
          const V neg = RingTraits<S>::Negate(base->annot(at));
          c.Append(key, added ? S::Add(neg, added_v) : neg);
        } else if (change != nullptr) {
          c.Append(key, added_v);
        }
      }
      if (added)
        b.Append(key, hit && !removed ? S::Add(base->annot(at), added_v)
                                      : added_v);
    }
    if (removed && ++ri < removes.size()) load(removes, ri, &rrow);
    if (added && ++ai < adds.size()) load(adds, ai, &arow);
  }
  if (change != nullptr) *change = c.Build(ctx);
  if (!touched) return;
  append_base(pos, base->size());
  *base = b.Build(ctx);
}

/// ⊕-merges canonical `delta` into canonical `*base` — the adds-only merge
/// walk ring propagation folds its terms with.
/// Collisions fold S::Add(base_annot, delta_annot), the association
/// Canonicalize's run fold (base row id < delta row id) would produce.
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
  UpdateBase(base, Relation<S>(base->schema()), delta, ctx);
}

/// Applies one delta to a base relation: CheckDelta, then UpdateBase. These
/// two steps are the single base-update path — the standing query and the
/// full-recompute oracle both go through them, so their bases stay
/// byte-identical by construction.
template <CommutativeSemiring S>
Status ApplyDeltaToRelation(Relation<S>* base, Delta<S> d,
                            ExecContext* ctx = nullptr) {
  if (Status s = CheckDelta(*base, &d, ctx); !s.ok()) return s;
  UpdateBase(base, d.removes, d.adds, ctx);
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
