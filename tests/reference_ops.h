// The seed hash-based relational operators, retained as the *reference
// implementation* for the sorted-relation kernel (relation/ops.h):
// differential tests cross-check the sort-merge operators against these on
// randomized inputs, and bench_relation_ops reports kernel speedup relative
// to them.
// Row-at-a-time on purpose — rows are gathered through RowCursor (the
// columnar escape hatch), preserving the seed kernel's hash-and-gather
// access pattern as the baseline the benches normalize against. Not used on
// any production path.
#ifndef TOPOFAQ_TESTS_REFERENCE_OPS_H_
#define TOPOFAQ_TESTS_REFERENCE_OPS_H_

#include <unordered_map>
#include <vector>

#include "relation/relation.h"
#include "semiring/variable_ops.h"

namespace topofaq {
namespace reference {

namespace internal {

/// FNV-1a over a key tuple.
inline uint64_t HashKey(std::span<const Value> key) {
  uint64_t h = 1469598103934665603ULL;
  for (Value v : key) {
    h ^= v;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Extracts row `row` of the cursor's columns into `out`.
inline void Gather(const RowCursor& cur, size_t row, std::vector<Value>* out) {
  out->resize(cur.width());
  cur.Gather(row, out->data());
}

/// Groups rows of `r` by the named key positions. Returns map hash→row ids;
/// collisions resolved by the caller re-checking key equality.
template <CommutativeSemiring S>
std::unordered_multimap<uint64_t, size_t> BuildHashIndex(
    const Relation<S>& r, const std::vector<int>& key_positions) {
  std::unordered_multimap<uint64_t, size_t> index;
  index.reserve(r.size() * 2);
  const RowCursor keys(r, key_positions);
  std::vector<Value> key;
  for (size_t i = 0; i < r.size(); ++i) {
    Gather(keys, i, &key);
    index.emplace(HashKey(key), i);
  }
  return index;
}

}  // namespace internal

/// Hash natural join: output schema is left's variables followed by right's
/// non-shared variables; annotations multiply (⊗). Output is canonicalized.
template <CommutativeSemiring S>
Relation<S> Join(const Relation<S>& left, const Relation<S>& right) {
  const std::vector<VarId> shared = left.schema().SharedWith(right.schema());
  std::vector<int> lpos, rpos, rextra;
  for (VarId v : shared) {
    lpos.push_back(left.schema().PositionOf(v));
    rpos.push_back(right.schema().PositionOf(v));
  }
  std::vector<VarId> out_vars = left.schema().vars();
  for (size_t i = 0; i < right.arity(); ++i)
    if (!left.schema().Contains(right.schema().var(i))) {
      out_vars.push_back(right.schema().var(i));
      rextra.push_back(static_cast<int>(i));
    }

  Relation<S> out{Schema(out_vars)};
  auto index = internal::BuildHashIndex(right, rpos);
  const RowCursor lkeys(left, lpos);
  const RowCursor lall(left);
  const RowCursor rkeys(right, rpos);
  const RowCursor rex(right, rextra);
  std::vector<Value> key, rkey, row;
  for (size_t i = 0; i < left.size(); ++i) {
    internal::Gather(lkeys, i, &key);
    auto [lo, hi] = index.equal_range(internal::HashKey(key));
    for (auto it = lo; it != hi; ++it) {
      const size_t j = it->second;
      internal::Gather(rkeys, j, &rkey);
      if (rkey != key) continue;
      row.resize(left.arity() + rextra.size());
      lall.Gather(i, row.data());
      rex.Gather(j, row.data() + left.arity());
      out.Add(row, S::Multiply(left.annot(i), right.annot(j)));
    }
  }
  out.Canonicalize();
  return out;
}

/// Hash semijoin left ⋉ right (Definition 3.5 semantics).
template <CommutativeSemiring S>
Relation<S> Semijoin(const Relation<S>& left, const Relation<S>& right) {
  const std::vector<VarId> shared = left.schema().SharedWith(right.schema());
  std::vector<int> lpos, rpos;
  for (VarId v : shared) {
    lpos.push_back(left.schema().PositionOf(v));
    rpos.push_back(right.schema().PositionOf(v));
  }
  auto index = internal::BuildHashIndex(right, rpos);
  Relation<S> out{left.schema()};
  const RowCursor lkeys(left, lpos);
  const RowCursor lall(left);
  const RowCursor rkeys(right, rpos);
  std::vector<Value> key, rkey, row;
  for (size_t i = 0; i < left.size(); ++i) {
    internal::Gather(lkeys, i, &key);
    auto [lo, hi] = index.equal_range(internal::HashKey(key));
    bool matched = false;
    for (auto it = lo; it != hi && !matched; ++it) {
      internal::Gather(rkeys, it->second, &rkey);
      matched = (rkey == key);
    }
    if (matched) {
      internal::Gather(lall, i, &row);
      out.Add(row, left.annot(i));
    }
  }
  out.Canonicalize();
  return out;
}

/// π with ⊕-aggregation via hashing.
template <CommutativeSemiring S>
Relation<S> Project(const Relation<S>& r, const std::vector<VarId>& keep) {
  std::vector<int> pos;
  for (VarId v : keep) {
    int p = r.schema().PositionOf(v);
    TOPOFAQ_CHECK_MSG(p >= 0, "projection variable not in schema");
    pos.push_back(p);
  }
  Relation<S> out{Schema(keep)};
  const RowCursor kept(r, pos);
  std::vector<Value> row;
  for (size_t i = 0; i < r.size(); ++i) {
    internal::Gather(kept, i, &row);
    out.Add(row, r.annot(i));
  }
  out.Canonicalize();
  return out;
}

/// Single-variable elimination via hash grouping.
template <CommutativeSemiring S>
Relation<S> EliminateVar(const Relation<S>& r, VarId v, VarOp op) {
  TOPOFAQ_CHECK_MSG(r.schema().Contains(v), "eliminated variable not in schema");
  std::vector<VarId> keep;
  std::vector<int> pos;
  for (size_t i = 0; i < r.arity(); ++i)
    if (r.schema().var(i) != v) {
      keep.push_back(r.schema().var(i));
      pos.push_back(static_cast<int>(i));
    }
  // Group rows by the kept columns.
  struct Group {
    std::vector<Value> key;
    typename S::Value acc;
    bool init = false;
  };
  std::unordered_map<uint64_t, std::vector<Group>> groups;
  const RowCursor kept(r, pos);
  std::vector<Value> key;
  for (size_t i = 0; i < r.size(); ++i) {
    internal::Gather(kept, i, &key);
    auto& bucket = groups[internal::HashKey(key)];
    Group* g = nullptr;
    for (auto& cand : bucket)
      if (cand.key == key) {
        g = &cand;
        break;
      }
    if (g == nullptr) {
      bucket.push_back(Group{key, S::Zero(), false});
      g = &bucket.back();
    }
    if (!g->init) {
      g->acc = r.annot(i);
      g->init = true;
    } else {
      g->acc = ApplyVarOp<S>(op, g->acc, r.annot(i));
    }
  }
  Relation<S> out{Schema(keep)};
  for (auto& [h, bucket] : groups)
    for (auto& g : bucket) out.Add(g.key, g.acc);
  out.Canonicalize();
  return out;
}

}  // namespace reference
}  // namespace topofaq

#endif  // TOPOFAQ_TESTS_REFERENCE_OPS_H_
