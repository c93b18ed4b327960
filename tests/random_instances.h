// Shared randomized-instance generators for the test suites.
//
// Every suite that needs "a random canonical relation" or "a random FAQ
// query over shape H" builds it here, from an explicit seed, so
//   * the same (shape, size, domain, seed) tuple reproduces the same bytes
//     in every suite and under every encoding mode, and
//   * failures are replayable: wrap checks in
//     SCOPED_TRACE(InstanceLabel("what", seed)) and the seed appears in the
//     failure output.
//
// The IVM differential harness (ivm_test.cc) draws its base instances and
// delta batches from these generators too, so a standing-query mismatch
// reproduces as a plain solver instance with the logged seed.
#ifndef TOPOFAQ_TESTS_RANDOM_INSTANCES_H_
#define TOPOFAQ_TESTS_RANDOM_INSTANCES_H_

#include <algorithm>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "faq/query.h"
#include "hypergraph/hypergraph.h"
#include "ivm/delta.h"
#include "relation/exec.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace topofaq {

/// Nonzero annotation for row-key `k`, bitwise-reproducible per semiring:
/// small integers for the exact rings, small half-integer doubles for the
/// floating semirings (sums and the products our suites take stay exact in
/// an IEEE double), One() for the 1-byte semirings (Boolean/GF(2), whose
/// carrier is {0,1}).
template <CommutativeSemiring S>
typename S::Value TestAnnot(uint64_t k) {
  if constexpr (std::is_same_v<typename S::Value, double>) {
    return 0.5 * static_cast<double>(k % 13 + 1);
  } else if constexpr (sizeof(typename S::Value) == 1) {
    return S::One();
  } else {
    return static_cast<typename S::Value>(k % 97 + 1);
  }
}

/// An ExecContext whose relations are stored under encoding mode `m`: how a
/// test pins the encoding its check is about, whatever TOPOFAQ_ENCODING says.
struct EncodingContext : ExecContext {
  explicit EncodingContext(EncodingMode m) { encoding = m; }
};

/// Random canonical relation over `vars`: n draws from [0, dom) per column,
/// duplicate rows ⊕-merged by Canonicalize under `ctx`'s encoding mode (the
/// default context's for nullptr). skew > 0 squashes the leading column's
/// domain so key runs get long and unequal — the distribution dictionaries,
/// run-aware kernels, and morsel-cut alignment pay off on.
template <CommutativeSemiring S>
Relation<S> RandomRelation(std::vector<VarId> vars, size_t n, uint64_t dom,
                           uint64_t seed, int skew = 0,
                           ExecContext* ctx = nullptr) {
  Rng rng(seed);
  Relation<S> r{Schema(std::move(vars))};
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      uint64_t v = rng.NextU64(dom);
      if (j == 0 && skew > 0) v = (v * v) / (dom << skew);
      row[j] = v;
    }
    r.Add(row, TestAnnot<S>(rng.NextU64(1 << 20)));
  }
  r.Canonicalize(ctx);
  return r;
}

/// A copy of canonical `r` stored under encoding mode `m` (kPlain decodes).
template <CommutativeSemiring S>
Relation<S> Recode(Relation<S> r, EncodingMode m) {
  EncodingContext ctx(m);
  r.DecodeAll();
  r.EncodeColumns(&ctx);
  return r;
}

/// Random FAQ-SS query over shape `h`: one RandomRelation per hyperedge,
/// seeded seed, seed+1, ... in edge order, encoded under `ctx`'s mode.
template <CommutativeSemiring S>
FaqQuery<S> RandomQuery(const Hypergraph& h, size_t tuples, uint64_t dom,
                        uint64_t seed, std::vector<VarId> free_vars,
                        int skew = 0, ExecContext* ctx = nullptr) {
  std::vector<Relation<S>> rels;
  rels.reserve(h.num_edges());
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), tuples, dom,
                                     seed + static_cast<uint64_t>(e), skew,
                                     ctx));
  return MakeFaqSS<S>(h, std::move(rels), std::move(free_vars));
}

/// A random batched delta against `base`: `n_remove` existing rows sampled
/// without replacement, `n_add` rows of which roughly half collide with
/// existing keys (⊕-merge / cancellation paths) and half are fresh.
template <CommutativeSemiring S>
Delta<S> RandomDelta(const Relation<S>& base, uint64_t dom, uint64_t seed,
                     size_t n_remove, size_t n_add) {
  Rng rng(seed);
  Delta<S> d;
  d.removes = Relation<S>(base.schema());
  d.adds = Relation<S>(base.schema());
  std::vector<Value> row(base.arity());
  if (!base.empty() && n_remove > 0) {
    for (uint64_t i :
         rng.Sample(base.size(), std::min<uint64_t>(n_remove, base.size()))) {
      for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
      d.removes.Add(std::span<const Value>(row), S::One());
    }
  }
  for (size_t i = 0; i < n_add; ++i) {
    if (!base.empty() && rng.NextBool()) {
      const size_t r = rng.NextU64(base.size());
      for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(r, j);
    } else {
      for (size_t j = 0; j < row.size(); ++j) row[j] = rng.NextU64(dom);
    }
    d.adds.Add(std::span<const Value>(row), TestAnnot<S>(rng.NextU64(1u << 20)));
  }
  return d;
}

/// "what (seed N)" — the SCOPED_TRACE label that makes every generated
/// instance replayable from the failure output.
inline std::string InstanceLabel(const std::string& what, uint64_t seed) {
  return what + " (seed " + std::to_string(seed) + ")";
}

}  // namespace topofaq

#endif  // TOPOFAQ_TESTS_RANDOM_INSTANCES_H_
