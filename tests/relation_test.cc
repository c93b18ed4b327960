// Relation algebra unit + property tests: differential testing of the
// sort-merge kernel against a naive nested-loop reference and against the
// retained hash-based reference operators (reference_ops.h) on random inputs
// across several semirings, plus RelationBuilder / canonical-invariant
// coverage.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>

#include "bit_identity.h"
#include "random_instances.h"
#include "reference_ops.h"
#include "relation/encoding.h"
#include "relation/exec.h"
#include "relation/ops.h"
#include "relation/parallel.h"
#include "relation/relation.h"
#include "util/rng.h"

namespace topofaq {
namespace {

using BRel = Relation<BooleanSemiring>;
using NRel = Relation<NaturalSemiring>;
using CRel = Relation<CountingSemiring>;

TEST(Schema, PositionsAndContains) {
  Schema s({5, 2, 9});
  EXPECT_EQ(s.arity(), 3u);
  EXPECT_EQ(s.PositionOf(5), 0);
  EXPECT_EQ(s.PositionOf(2), 1);
  EXPECT_EQ(s.PositionOf(9), 2);
  EXPECT_EQ(s.PositionOf(7), -1);
  EXPECT_TRUE(s.Contains(9));
  EXPECT_FALSE(s.Contains(0));
}

TEST(Schema, SharedVarsInLeftOrder) {
  Schema a({1, 2, 3}), b({3, 1, 7});
  EXPECT_EQ(a.SharedWith(b), (std::vector<VarId>{1, 3}));
  EXPECT_EQ(b.SharedWith(a), (std::vector<VarId>{3, 1}));
}

TEST(Relation, AddDropsZeros) {
  NRel r{Schema({0})};
  r.Add({1}, 0);  // zero annotation: not stored
  r.Add({2}, 5);
  EXPECT_EQ(r.size(), 1u);
}

TEST(Relation, CanonicalizeMergesDuplicates) {
  NRel r{Schema({0, 1})};
  r.Add({1, 2}, 3);
  r.Add({0, 0}, 1);
  r.Add({1, 2}, 4);
  r.Canonicalize();
  ASSERT_EQ(r.size(), 2u);
  // Sorted lexicographically.
  EXPECT_EQ(r.at(0, 0), 0u);
  EXPECT_EQ(r.annot(0), 1u);
  EXPECT_EQ(r.at(1, 0), 1u);
  EXPECT_EQ(r.annot(1), 7u);
}

TEST(Relation, CanonicalizeMergesAllZeroToEmpty) {
  // Every tuple's annotations cancel: the canonical form is the empty
  // relation (the listing representation of the zero function).
  Relation<Gf2Semiring> r{Schema({0, 1})};
  r.Add({1, 2}, 1);
  r.Add({3, 4}, 1);
  r.Add({1, 2}, 1);
  r.Add({3, 4}, 1);
  r.Canonicalize();
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.canonical());
}

TEST(Relation, CanonicalFlagTracksInvariant) {
  NRel r{Schema({0})};
  EXPECT_TRUE(r.canonical());  // empty is trivially canonical
  r.Add({2}, 1);
  EXPECT_FALSE(r.canonical());
  r.Canonicalize();
  EXPECT_TRUE(r.canonical());
}

/// A removes-only delta of the rows of `base` at `rows`.
template <CommutativeSemiring S>
Delta<S> RemoveRows(const Relation<S>& base, const std::vector<size_t>& rows) {
  Delta<S> d{Relation<S>(base.schema()), Relation<S>(base.schema())};
  for (size_t i : rows) d.removes.Add(base.Row(i), S::One());
  return d;
}

TEST(DeltaMerge, RemoveDropsOnlyTheMatchingRow) {
  NRel r{Schema({0})};
  r.Add({1}, 2);
  r.Add({2}, 3);
  r.Canonicalize();
  // A remove row absent from the base is skipped and touches nothing.
  Delta<NaturalSemiring> absent = RemoveRows(r, {});
  absent.removes.Add({9}, 1);
  ASSERT_TRUE(ApplyDeltaToRelation(&r, std::move(absent)).ok());
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 2u);
  // Removing the first row drops only it; the result stays canonical.
  ASSERT_TRUE(ApplyDeltaToRelation(&r, RemoveRows(r, {0})).ok());
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.at(0, 0), 2u);
  EXPECT_EQ(r.annot(0), 3u);
}

TEST(DeltaMerge, RemovesDropEveryMatchingRowAndKeepOrder) {
  NRel r{Schema({0, 1})};
  for (Value v = 0; v < 10; ++v) r.Add({v, v + 100}, v + 1);
  r.Canonicalize();
  ASSERT_TRUE(ApplyDeltaToRelation(&r, RemoveRows(r, {2, 7})).ok());
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 8u);
  // Survivors keep relative order and values.
  NRel expect{Schema({0, 1})};
  for (Value v = 0; v < 10; ++v)
    if (v != 2 && v != 7) expect.Add({v, v + 100}, v + 1);
  expect.Canonicalize();
  EXPECT_TRUE(r.EqualsAsFunction(expect));
}

TEST(DeltaMerge, UnsortedBaseIsCanonicalizedFirst) {
  NRel r{Schema({0})};
  r.Add({5}, 1);
  r.Add({3}, 2);  // out of order: the update must sort, not just splice
  ASSERT_TRUE(ApplyDeltaToRelation(&r, RemoveRows(r, {})).ok());
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0, 0), 3u);
  EXPECT_EQ(r.at(1, 0), 5u);
}

TEST(SchemaIndex, MatchesLinearLookup) {
  Schema s({9, 4, 17, 2});
  SchemaIndex idx(s);
  for (VarId v : {0u, 2u, 4u, 9u, 17u, 20u})
    EXPECT_EQ(idx.PositionOf(v), s.PositionOf(v)) << v;
  EXPECT_TRUE(idx.Contains(17));
  EXPECT_FALSE(idx.Contains(5));
}

TEST(RelationBuilder, SortedAppendsSkipTheSort) {
  RelationBuilder<NaturalSemiring> b{Schema({0, 1})};
  b.Append({1, 5}, 2);
  b.Append({1, 5}, 3);  // equal: merged with Add
  b.Append({2, 0}, 7);
  NRel r = b.Build();
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.annot(0), 5u);
  EXPECT_EQ(r.annot(1), 7u);
}

TEST(RelationBuilder, UnsortedAppendsFallBackToCanonicalize) {
  RelationBuilder<NaturalSemiring> b{Schema({0})};
  b.Append({9}, 1);
  b.Append({3}, 2);
  b.Append({9}, 4);
  NRel r = b.Build();
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r.at(0, 0), 3u);
  EXPECT_EQ(r.annot(1), 5u);
}

TEST(RelationBuilder, CancellationDropsRowsOnSortedPath) {
  RelationBuilder<Gf2Semiring> b{Schema({0})};
  b.Append({1}, 1);
  b.Append({1}, 1);  // cancels to 0
  b.Append({2}, 1);
  Relation<Gf2Semiring> r = b.Build();
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.at(0, 0), 2u);
}

/// AppendChunk of owned test columns, passed as borrowed views.
template <CommutativeSemiring S>
void AppendCols(RelationBuilder<S>* b,
                const std::vector<std::vector<Value>>& cols,
                const std::vector<typename S::Value>& annots) {
  const std::vector<ColumnView> views(cols.begin(), cols.end());
  b->AppendChunk(views, annots);
}

TEST(RelationBuilder, AppendChunkSplicesSortedPages) {
  // The streaming-sink path: sorted distinct column chunks splice with one
  // boundary compare; an equal boundary row merges with ⊕ (Append's rule).
  RelationBuilder<NaturalSemiring> b{Schema({0, 1})};
  AppendCols(&b, {{1, 2}, {5, 0}}, {2, 7});
  AppendCols(&b, {{2, 3}, {0, 9}}, {4, 1});  // merges (2,0)
  AppendCols(&b, {{}, {}}, {});              // empty page
  NRel r = b.Build();
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.annot(0), 2u);
  EXPECT_EQ(r.annot(1), 11u);  // 7 ⊕ 4
  EXPECT_EQ(r.annot(2), 1u);
}

TEST(RelationBuilder, AppendChunkOutOfOrderFallsBackToCanonicalize) {
  RelationBuilder<NaturalSemiring> b{Schema({0})};
  AppendCols(&b, {{7, 9}}, {1, 2});
  AppendCols(&b, {{3}}, {5});  // below the stored rows
  NRel r = b.Build();
  EXPECT_TRUE(r.canonical());
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r.at(0, 0), 3u);
  EXPECT_EQ(r.annot(0), 5u);
}

TEST(Relation, CanonicalizeDropsCancellingPairsInGf2) {
  Relation<Gf2Semiring> r{Schema({0})};
  r.Add({4}, 1);
  r.Add({4}, 1);  // 1 XOR 1 = 0: tuple vanishes
  r.Add({5}, 1);
  r.Canonicalize();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r.at(0, 0), 5u);
}

TEST(Relation, EqualsAsFunctionIgnoresOrder) {
  NRel a{Schema({0})}, b{Schema({0})};
  a.Add({1}, 2);
  a.Add({2}, 3);
  b.Add({2}, 3);
  b.Add({1}, 1);
  b.Add({1}, 1);
  EXPECT_TRUE(a.EqualsAsFunction(b));
}

TEST(Relation, EncodedBitsMatchesFormula) {
  BRel r{Schema({0, 1})};
  r.Add({1, 2});
  r.Add({3, 4});
  // 2 tuples * (2 attrs * 10 bits + 1 annotation bit).
  EXPECT_EQ(r.EncodedBits(10), 2 * (2 * 10 + 1));
}

TEST(Join, SimpleTwoWay) {
  BRel r{Schema({0, 1})};  // R(A,B)
  r.Add({1, 10});
  r.Add({2, 20});
  BRel s{Schema({1, 2})};  // S(B,C)
  s.Add({10, 100});
  s.Add({10, 101});
  s.Add({30, 300});
  BRel j = Join(r, s);
  EXPECT_EQ(j.schema().vars(), (std::vector<VarId>{0, 1, 2}));
  ASSERT_EQ(j.size(), 2u);  // (1,10,100), (1,10,101)
  EXPECT_EQ(j.at(0, 0), 1u);
  EXPECT_EQ(j.at(1, 2), 101u);
}

TEST(Join, AnnotationsMultiply) {
  NRel r{Schema({0})};
  r.Add({7}, 3);
  NRel s{Schema({0})};
  s.Add({7}, 5);
  NRel j = Join(r, s);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.annot(0), 15u);
}

TEST(Join, DisjointSchemasGiveCrossProduct) {
  BRel r{Schema({0})};
  r.Add({1});
  r.Add({2});
  BRel s{Schema({1})};
  s.Add({8});
  s.Add({9});
  s.Add({10});
  EXPECT_EQ(Join(r, s).size(), 6u);
}

TEST(Join, EmptyInputGivesEmptyOutput) {
  BRel r{Schema({0})};
  BRel s{Schema({0})};
  s.Add({1});
  EXPECT_TRUE(Join(r, s).empty());
  EXPECT_TRUE(Join(s, r).empty());
}

TEST(EliminateVar, MaxAggregate) {
  CRel r{Schema({0, 1})};
  r.Add({1, 10}, 2.0);
  r.Add({1, 11}, 7.0);
  r.Add({2, 12}, 4.0);
  CRel out = Eliminate(r, {1}, {VarOp::kMax});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.annot(0), 7.0);
  EXPECT_EQ(out.annot(1), 4.0);
}

TEST(EliminateVar, ProductAggregate) {
  CRel r{Schema({0, 1})};
  r.Add({1, 10}, 2.0);
  r.Add({1, 11}, 7.0);
  CRel out = Eliminate(r, {1}, {VarOp::kProduct});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.annot(0), 14.0);
}

TEST(EliminateVar, SumEqualsProject) {
  Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    NRel r{Schema({0, 1, 2})};
    for (int i = 0; i < 30; ++i)
      r.Add({rng.NextU64(3), rng.NextU64(3), rng.NextU64(3)},
            rng.NextU64(5) + 1);
    r.Canonicalize();
    NRel a = Eliminate(r, {1}, {VarOp::kSemiringSum});
    NRel b = reference::Project(r, {0, 2});
    EXPECT_TRUE(a.EqualsAsFunction(b));
  }
}

TEST(FullRelation, EnumeratesDomainPower) {
  auto r = FullRelation<BooleanSemiring>(Schema({0, 1}), 3);
  EXPECT_EQ(r.size(), 9u);
  auto r1 = FullRelation<BooleanSemiring>(Schema({0}), 5);
  EXPECT_EQ(r1.size(), 5u);
}

// --- Differential property tests against a naive reference ---------------

NRel NaiveJoin(const NRel& a, const NRel& b) {
  std::vector<VarId> out_vars = a.schema().vars();
  for (VarId v : b.schema().vars())
    if (!a.schema().Contains(v)) out_vars.push_back(v);
  NRel out{Schema(out_vars)};
  for (size_t i = 0; i < a.size(); ++i)
    for (size_t j = 0; j < b.size(); ++j) {
      bool match = true;
      for (VarId v : a.schema().SharedWith(b.schema()))
        if (a.at(i, a.schema().PositionOf(v)) !=
            b.at(j, b.schema().PositionOf(v)))
          match = false;
      if (!match) continue;
      std::vector<Value> row = a.Row(i);
      for (VarId v : out_vars)
        if (!a.schema().Contains(v))
          row.push_back(b.at(j, b.schema().PositionOf(v)));
      out.Add(row, a.annot(i) * b.annot(j));
    }
  out.Canonicalize();
  return out;
}

class JoinProperty : public ::testing::TestWithParam<int> {};

TEST_P(JoinProperty, HashJoinMatchesNestedLoop) {
  Rng rng(1000 + GetParam());
  // Random schemas over variables {0..4} with guaranteed overlap patterns.
  auto random_rel = [&](std::vector<VarId> vars, int tuples) {
    NRel r{Schema(std::move(vars))};
    for (int i = 0; i < tuples; ++i) {
      std::vector<Value> row;
      for (size_t k = 0; k < r.arity(); ++k) row.push_back(rng.NextU64(3));
      r.Add(row, rng.NextU64(4) + 1);
    }
    r.Canonicalize();
    return r;
  };
  std::vector<std::vector<VarId>> schemas = {
      {0, 1}, {1, 2}, {0, 2}, {2, 3, 4}, {0}, {1, 3}};
  NRel a = random_rel(schemas[GetParam() % schemas.size()], 20);
  NRel b = random_rel(schemas[(GetParam() + 1) % schemas.size()], 20);
  EXPECT_TRUE(Join(a, b).EqualsAsFunction(NaiveJoin(a, b)));
}

TEST_P(JoinProperty, JoinIsCommutativeAsFunction) {
  Rng rng(2000 + GetParam());
  NRel a{Schema({0, 1})}, b{Schema({1, 2})};
  for (int i = 0; i < 25; ++i) {
    a.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
    b.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
  }
  a.Canonicalize();
  b.Canonicalize();
  NRel ab = Join(a, b);
  NRel ba = Join(b, a);
  ba.ReorderTo(ab.schema());
  EXPECT_TRUE(ab.EqualsAsFunction(ba));
}

INSTANTIATE_TEST_SUITE_P(Sweep, JoinProperty, ::testing::Range(0, 12));

// --- Edge cases around empty and disjoint schemas -------------------------

TEST(Join, WithUnitRelationScalesAnnotations) {
  NRel unit{Schema(std::vector<VarId>{})};
  unit.Add(std::initializer_list<Value>{}, 3);
  NRel r{Schema({0})};
  r.Add({1}, 2);
  r.Add({2}, 5);
  r.Canonicalize();
  NRel a = Join(unit, r);
  EXPECT_EQ(a.schema().vars(), (std::vector<VarId>{0}));
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.annot(0), 6u);
  EXPECT_EQ(a.annot(1), 15u);
  NRel b = Join(r, unit);
  EXPECT_TRUE(a.EqualsAsFunction(b));
}

TEST(Join, BothEmptySchemasMultiplyScalars) {
  NRel a{Schema(std::vector<VarId>{})}, b{Schema(std::vector<VarId>{})};
  a.Add(std::initializer_list<Value>{}, 4);
  b.Add(std::initializer_list<Value>{}, 6);
  NRel j = Join(a, b);
  ASSERT_EQ(j.size(), 1u);
  EXPECT_EQ(j.arity(), 0u);
  EXPECT_EQ(j.annot(0), 24u);
}

TEST(Join, EmptyRelationWithDisjointSchema) {
  NRel a{Schema({0})};  // empty
  NRel b{Schema({1})};
  b.Add({5}, 1);
  EXPECT_TRUE(Join(a, b).empty());
  EXPECT_TRUE(Join(b, a).empty());
  EXPECT_EQ(Join(a, b).schema().vars(), (std::vector<VarId>{0, 1}));
}

// --- Per-variable aggregates: Max/Min vs the semiring ⊕ -------------------

TEST(EliminateVar, MinAggregateDiffersFromSum) {
  CRel r{Schema({0, 1})};
  r.Add({1, 10}, 2.0);
  r.Add({1, 11}, 7.0);
  r.Canonicalize();
  CRel mn = Eliminate(r, {1}, {VarOp::kMin});
  ASSERT_EQ(mn.size(), 1u);
  EXPECT_EQ(mn.annot(0), 2.0);
  CRel sum = Eliminate(r, {1}, {VarOp::kSemiringSum});
  ASSERT_EQ(sum.size(), 1u);
  EXPECT_EQ(sum.annot(0), 9.0);
  CRel mx = Eliminate(r, {1}, {VarOp::kMax});
  ASSERT_EQ(mx.size(), 1u);
  EXPECT_EQ(mx.annot(0), 7.0);
}

TEST(Eliminate, IgnoresVariablesOutsideSchema) {
  NRel r{Schema({0, 1})};
  r.Add({1, 2}, 3);
  r.Canonicalize();
  NRel out = Eliminate(r, {1, 9}, {VarOp::kSemiringSum, VarOp::kSemiringSum});
  EXPECT_EQ(out.schema().vars(), (std::vector<VarId>{0}));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.annot(0), 3u);
}

// --- Differential cross-checks against the retained reference kernel -----

template <CommutativeSemiring S, typename AnnotFn>
Relation<S> RandomRel(Rng* rng, std::vector<VarId> vars, int tuples,
                      uint64_t dom, AnnotFn annot) {
  Relation<S> r{Schema(std::move(vars))};
  std::vector<Value> row;
  for (int i = 0; i < tuples; ++i) {
    row.clear();
    for (size_t k = 0; k < r.arity(); ++k) row.push_back(rng->NextU64(dom));
    r.Add(row, annot(rng));
  }
  r.Canonicalize();
  return r;
}

/// Checks kernel == reference for Join/Eliminate on random
/// inputs over semiring S (randomized schemas with overlapping, disjoint,
/// and identical variable sets).
template <CommutativeSemiring S, typename AnnotFn>
void CrossCheckAgainstReference(uint64_t seed, AnnotFn annot) {
  Rng rng(seed);
  const std::vector<std::vector<VarId>> schemas = {
      {0, 1}, {1, 2}, {0, 2}, {2, 3, 4}, {0, 1}, {3}, {0, 1, 2}};
  for (int iter = 0; iter < 30; ++iter) {
    auto a = RandomRel<S>(&rng, schemas[iter % schemas.size()], 25, 4, annot);
    auto b = RandomRel<S>(&rng, schemas[(iter + 1) % schemas.size()], 25, 4,
                          annot);
    EXPECT_TRUE(Join(a, b).EqualsAsFunction(reference::Join(a, b)))
        << "join iter " << iter;
    const VarId ev = a.schema().var(rng.NextU64(a.arity()));
    for (VarOp op : {VarOp::kSemiringSum, VarOp::kMax, VarOp::kMin})
      EXPECT_TRUE(Eliminate(a, {ev}, {op}).EqualsAsFunction(
          reference::EliminateVar(a, ev, op)))
          << "eliminate iter " << iter << " op " << VarOpName(op);
  }
}

TEST(KernelVsReference, NaturalSemiring) {
  CrossCheckAgainstReference<NaturalSemiring>(
      101, [](Rng* r) { return r->NextU64(5) + 1; });
}

TEST(KernelVsReference, Gf2Semiring) {
  CrossCheckAgainstReference<Gf2Semiring>(
      202, [](Rng*) { return static_cast<uint8_t>(1); });
}

TEST(KernelVsReference, MinPlusSemiring) {
  CrossCheckAgainstReference<MinPlusSemiring>(
      303, [](Rng* r) { return static_cast<double>(r->NextU64(9)); });
}

TEST(KernelVsReference, MaxProductSemiring) {
  CrossCheckAgainstReference<MaxProductSemiring>(
      404, [](Rng* r) { return static_cast<double>(r->NextU64(6) + 1); });
}

TEST(Eliminate, BatchedMatchesSequentialSingleVarElimination) {
  // Multi-variable Eliminate with mixed per-variable aggregates must equal
  // eliminating one variable at a time in descending order (the seed-kernel
  // semantics).
  Rng rng(777);
  const std::vector<VarOp> op_pool = {VarOp::kSemiringSum, VarOp::kMax,
                                      VarOp::kMin};
  for (int iter = 0; iter < 40; ++iter) {
    auto r = RandomRel<CountingSemiring>(
        &rng, {0, 1, 2, 3}, 40, 3,
        [](Rng* g) { return static_cast<double>(g->NextU64(7) + 1); });
    std::vector<VarId> vars{1, 2, 3};
    std::vector<VarOp> ops;
    for (size_t i = 0; i < vars.size(); ++i)
      ops.push_back(op_pool[rng.NextU64(op_pool.size())]);

    CRel batched = Eliminate(r, vars, ops);

    // Sequential oracle: descending variable order via the hash reference.
    std::vector<size_t> order{2, 1, 0};  // vars 3, 2, 1
    CRel seq = r;
    for (size_t idx : order)
      seq = reference::EliminateVar(seq, vars[idx], ops[idx]);
    EXPECT_TRUE(batched.EqualsAsFunction(seq)) << "iter " << iter;
  }
}

TEST(KernelOps, NonCanonicalInputsStillAgreeWithReference) {
  // Operators accept non-canonical inputs (duplicates unmerged); the builder
  // fallback must keep results identical to the reference kernel.
  Rng rng(555);
  for (int iter = 0; iter < 20; ++iter) {
    NRel a{Schema({0, 1})}, b{Schema({1, 2})};
    for (int i = 0; i < 20; ++i) {
      a.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
      b.Add({rng.NextU64(3), rng.NextU64(3)}, rng.NextU64(4) + 1);
    }
    ASSERT_FALSE(a.canonical());
    EXPECT_TRUE(Join(a, b).EqualsAsFunction(reference::Join(a, b)));
  }
}

// --- Columnar storage: round-trip, views, morsel splices ------------------

TEST(Columnar, RoundTripMaterializeRowsMatchesColumns) {
  NRel r{Schema({3, 1, 7})};
  Rng rng(11);
  std::vector<std::vector<Value>> rows;
  for (int i = 0; i < 50; ++i) {
    std::vector<Value> row{rng.NextU64(6), rng.NextU64(6), rng.NextU64(6)};
    r.Add(row, rng.NextU64(4) + 1);
    rows.push_back(row);
  }
  r.Canonicalize();
  // Columns are parallel, same length, and agree with every row accessor.
  ASSERT_EQ(r.columns().size(), 3u);
  for (const auto& c : r.columns()) ASSERT_EQ(c.size(), r.size());
  const std::vector<Value> flat = r.MaterializeRows();
  ASSERT_EQ(flat.size(), r.size() * r.arity());
  for (size_t i = 0; i < r.size(); ++i) {
    const std::vector<Value> row = r.Row(i);
    for (size_t j = 0; j < r.arity(); ++j) {
      EXPECT_EQ(row[j], r.at(i, j));
      EXPECT_EQ(row[j], r.col(j)[i]);
      EXPECT_EQ(row[j], flat[i * r.arity() + j]);
    }
  }
  // Rebuilding from the materialized rows reproduces the same function.
  NRel back{Schema({3, 1, 7})};
  for (size_t i = 0; i < r.size(); ++i)
    back.Add(std::span<const Value>(flat.data() + i * 3, 3), r.annot(i));
  EXPECT_TRUE(back.EqualsAsFunction(r));
}

TEST(Columnar, RowCursorGathersSelectedColumns) {
  NRel r{Schema({0, 1, 2})};
  r.Add({1, 2, 3}, 1);
  r.Add({4, 5, 6}, 2);
  r.Canonicalize();
  RowCursor cur(r, std::vector<int>{2, 0});
  ASSERT_EQ(cur.width(), 2u);
  EXPECT_EQ(cur.at(1, 0), 6u);
  EXPECT_EQ(cur.at(1, 1), 4u);
  Value out[2];
  cur.Gather(0, out);
  EXPECT_EQ(out[0], 3u);
  EXPECT_EQ(out[1], 1u);
}

TEST(Columnar, ReorderColumnsKeepsTheFunction) {
  NRel r{Schema({4, 2})};
  r.Add({10, 20}, 3);
  r.Add({11, 21}, 5);
  r.Canonicalize();
  NRel permuted = r;
  permuted.ReorderColumns(Schema({2, 4}), {1, 0});
  EXPECT_FALSE(permuted.canonical());
  permuted.Canonicalize();
  ASSERT_EQ(permuted.size(), 2u);
  EXPECT_EQ(permuted.at(0, 0), 20u);
  EXPECT_EQ(permuted.at(0, 1), 10u);
  EXPECT_EQ(permuted.annot(0), 3u);
}

/// Splices canonical `pieces` in order through one builder, the way
/// MorselRun concatenates its morsel outputs: each piece goes in as one
/// AppendChunk of its (decoded) column views.
template <CommutativeSemiring S>
Relation<S> Splice(const Schema& schema, const std::vector<Relation<S>>& pieces,
                   ExecContext* ctx = nullptr) {
  RelationBuilder<S> b{schema};
  std::vector<ColumnView> cols(schema.arity());
  for (const Relation<S>& p : pieces) {
    for (size_t j = 0; j < cols.size(); ++j) cols[j] = p.col(j);
    b.AppendChunk(cols, p.annots());
  }
  return b.Build(ctx);
}

TEST(MorselSplice, SplicesSortedPiecesWithBoundaryMerge) {
  // Three canonical pieces in key order; the last row of piece 0 equals the
  // first row of piece 1, so the boundary rows must merge with ⊕.
  RelationBuilder<NaturalSemiring> b0{Schema({0})}, b1{Schema({0})},
      b2{Schema({0})};
  b0.Append({1}, 2);
  b0.Append({5}, 3);
  b1.Append({5}, 4);
  b1.Append({9}, 1);
  b2.Append({12}, 7);
  std::vector<NRel> pieces;
  pieces.push_back(b0.Build());
  pieces.push_back(b1.Build());
  pieces.push_back(b2.Build());
  NRel out = Splice(Schema({0}), pieces);
  EXPECT_TRUE(out.canonical());
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out.at(1, 0), 5u);
  EXPECT_EQ(out.annot(1), 7u);  // 3 ⊕ 4 merged across the boundary
}

TEST(MorselSplice, BoundaryMergeToZeroDropsTheRow) {
  RelationBuilder<Gf2Semiring> b0{Schema({0})}, b1{Schema({0})};
  b0.Append({1}, 1);
  b0.Append({4}, 1);
  b1.Append({4}, 1);  // cancels the boundary row: 1 XOR 1 = 0
  b1.Append({6}, 1);
  std::vector<Relation<Gf2Semiring>> pieces;
  pieces.push_back(b0.Build());
  pieces.push_back(b1.Build());
  auto out = Splice(Schema({0}), pieces);
  EXPECT_TRUE(out.canonical());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at(0, 0), 1u);
  EXPECT_EQ(out.at(1, 0), 6u);
}

TEST(MorselSplice, OutOfOrderPiecesFallBackToCanonicalize) {
  RelationBuilder<NaturalSemiring> b0{Schema({0})}, b1{Schema({0})};
  b0.Append({8}, 1);
  b1.Append({2}, 1);  // starts below piece 0's last key
  std::vector<NRel> pieces;
  pieces.push_back(b0.Build());
  pieces.push_back(b1.Build());
  NRel out = Splice(Schema({0}), pieces);
  EXPECT_TRUE(out.canonical());
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out.at(0, 0), 2u);
  EXPECT_EQ(out.at(1, 0), 8u);
}

// --- Delta workloads: merges and splices under repeated updates -----------
//
// The IVM base update (ivm/delta.h) and the morsel concatenation
// (relation/parallel.h) both splice sorted runs through
// RelationBuilder::AppendChunk. These tests pin that splice under
// *repeated* application — interleaved runs of removed rows, boundary rows
// whose annotations split or cancel, and encoded columns that must decode
// before the splice.

TEST(DeltaWorkload, RepeatedRunRemovalMatchesRebuild) {
  EncodingContext plain(EncodingMode::kPlain);
  const uint64_t seed = 881;
  NRel r = RandomRelation<NaturalSemiring>({0, 1}, 5000, 48, seed, 2, &plain);
  for (int round = 0; round < 6 && r.size() > 100; ++round) {
    SCOPED_TRACE(InstanceLabel("round " + std::to_string(round), seed));
    // Remove interleaved runs of rows, including the very first and very
    // last row of the relation.
    const size_t run = 7 + static_cast<size_t>(round);
    const size_t last = r.size() - 1;
    auto dropped = [&](size_t i) {
      return (i / run) % 3 == static_cast<size_t>(round) % 3 || i == 0 ||
             i == last;
    };
    NRel expect{r.schema()};
    std::vector<Value> row(r.arity());
    for (size_t i = 0; i < r.size(); ++i) {
      if (dropped(i)) continue;
      for (size_t j = 0; j < row.size(); ++j) row[j] = r.at(i, j);
      expect.Add(row, r.annot(i));
    }
    expect.Canonicalize(&plain);
    std::vector<size_t> rows;
    for (size_t i = 0; i < r.size(); ++i)
      if (dropped(i)) rows.push_back(i);
    ASSERT_TRUE(ApplyDeltaToRelation(&r, RemoveRows(r, rows), &plain).ok());
    EXPECT_TRUE(r.canonical());
    EXPECT_FALSE(r.any_encoded());
    EXPECT_TRUE(BytesEqual(r, expect));
  }
}

TEST(DeltaWorkload, RemovesOnEncodedColumnsMatchPlain) {
  // Repeated removes on dict/FOR-encoded storage: the merge decodes the base
  // before splicing and Build re-encodes — every round, bytes must match
  // the all-plain twin.
  const uint64_t seed = 883;
  EncodingContext plain(EncodingMode::kPlain);
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)));
    EncodingContext force(m);
    NRel oracle =
        RandomRelation<NaturalSemiring>({0, 1}, 4000, 64, seed, 1, &plain);
    NRel enc =
        RandomRelation<NaturalSemiring>({0, 1}, 4000, 64, seed, 1, &force);
    ASSERT_TRUE(enc.any_encoded());
    for (int round = 0; round < 4; ++round) {
      SCOPED_TRACE(InstanceLabel("round " + std::to_string(round), seed));
      ASSERT_EQ(enc.size(), oracle.size());
      std::vector<size_t> rows;
      for (size_t i = 0; i < oracle.size(); ++i)
        if (i % 5 == static_cast<size_t>(round) % 5) rows.push_back(i);
      const Delta<NaturalSemiring> d = RemoveRows(oracle, rows);
      ASSERT_TRUE(ApplyDeltaToRelation(&oracle, d, &plain).ok());
      ASSERT_TRUE(ApplyDeltaToRelation(&enc, d, &force).ok());
      EXPECT_TRUE(enc.any_encoded());  // forced modes re-encode
      EXPECT_TRUE(enc.canonical());
      EXPECT_TRUE(BytesEqual(enc, oracle));  // BytesEqual decodes
    }
  }
}

/// Cuts `base` into key-ordered pieces at `cuts` (row indexes), splitting
/// each cut row's annotation across the two adjacent pieces when it can be
/// split into two nonzero halves (a delta splice's boundary shape). The
/// pieces are built under `ctx`'s encoding mode.
std::vector<NRel> SplitWithBoundaryOverlap(const NRel& base,
                                           const std::vector<size_t>& cuts,
                                           ExecContext* ctx) {
  std::vector<NRel> pieces;
  std::vector<Value> row(base.arity());
  size_t begin = 0;
  for (size_t c = 0; c <= cuts.size(); ++c) {
    const size_t end = c < cuts.size() ? cuts[c] : base.size();
    RelationBuilder<NaturalSemiring> b{base.schema()};
    size_t i = begin;
    if (c > 0 && begin > 0 && base.annot(begin - 1) >= 2) {
      // The previous piece kept annot-1 of the cut row; this piece opens
      // with the remaining 1, so the splice's boundary ⊕ reassembles it.
      for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(begin - 1, j);
      b.Append(row, 1);
    }
    for (; i < end; ++i) {
      for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
      const bool split_here =
          c < cuts.size() && i == end - 1 && base.annot(i) >= 2;
      b.Append(row, split_here ? base.annot(i) - 1 : base.annot(i));
    }
    pieces.push_back(b.Build(ctx));
    begin = end;
  }
  return pieces;
}

TEST(DeltaWorkload, RepeatedBoundarySplittingSplicesReassembleTheBytes) {
  EncodingContext plain(EncodingMode::kPlain);
  const uint64_t seed = 885;
  NRel base =
      RandomRelation<NaturalSemiring>({0, 1}, 3000, 100, seed, 0, &plain);
  Rng rng(seed + 1);
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE(InstanceLabel("round " + std::to_string(round), seed));
    std::vector<size_t> cuts;
    for (uint64_t c : rng.Sample(base.size() - 2, 3))
      cuts.push_back(static_cast<size_t>(c) + 1);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    NRel out =
        Splice(base.schema(), SplitWithBoundaryOverlap(base, cuts, &plain),
               &plain);
    EXPECT_TRUE(out.canonical());
    EXPECT_FALSE(out.any_encoded());
    EXPECT_TRUE(BytesEqual(out, base));
    base = std::move(out);  // re-splice the splice: repeated application
  }
}

TEST(DeltaWorkload, EncodedPiecesSpliceBitIdenticalToPlain) {
  // Pieces arriving already dict/FOR-encoded (a delta shipped over the
  // stream transport lands encoded): the splice reads their decoded views
  // and the output bytes must match the all-plain splice of the same
  // pieces.
  const uint64_t seed = 887;
  EncodingContext plain(EncodingMode::kPlain);
  NRel base =
      RandomRelation<NaturalSemiring>({0, 1}, 4000, 64, seed, 1, &plain);
  const std::vector<size_t> cuts = {base.size() / 3, (2 * base.size()) / 3};
  for (EncodingMode m : {EncodingMode::kForceDict, EncodingMode::kForceFor}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)));
    EncodingContext force(m);
    std::vector<NRel> pieces = SplitWithBoundaryOverlap(base, cuts, &force);
    ASSERT_TRUE(pieces[0].any_encoded());
    NRel out = Splice(base.schema(), pieces, &plain);
    EXPECT_TRUE(out.canonical());
    EXPECT_FALSE(out.any_encoded());
    EXPECT_TRUE(BytesEqual(out, base));
  }
}

TEST(DeltaWorkload, CancellingSpliceDropsRowsAndCanEmptyTheRelation) {
  // GF(2): a boundary row duplicated into both adjacent pieces cancels
  // (1 XOR 1) and must vanish from the splice; splicing a relation against
  // a full copy of itself empties it — the delta-that-empties-a-relation
  // storage case.
  EncodingContext plain(EncodingMode::kPlain);
  using GRel = Relation<Gf2Semiring>;
  const uint64_t seed = 889;
  GRel base = RandomRelation<Gf2Semiring>({0, 1}, 2000, 150, seed, 0, &plain);
  ASSERT_GT(base.size(), 10u);

  const size_t cut = base.size() / 2;
  std::vector<Value> row(base.arity());
  RelationBuilder<Gf2Semiring> b0{base.schema()}, b1{base.schema()};
  for (size_t i = 0; i < base.size(); ++i) {
    for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
    if (i < cut) b0.Append(row, 1);
    if (i >= cut - 1) b1.Append(row, 1);  // row cut-1 lands in both pieces
  }
  std::vector<GRel> pieces;
  pieces.push_back(b0.Build(&plain));
  pieces.push_back(b1.Build(&plain));
  GRel out = Splice(base.schema(), pieces, &plain);
  EXPECT_TRUE(out.canonical());
  GRel expect = base;
  ASSERT_TRUE(
      ApplyDeltaToRelation(&expect, RemoveRows(base, {cut - 1}), &plain).ok());
  EXPECT_TRUE(BytesEqual(out, expect));

  // Full self-cancellation: every row pairs off, the result is empty.
  std::vector<GRel> both;
  both.push_back(out);
  both.push_back(out);
  GRel empty = Splice(out.schema(), both, &plain);
  EXPECT_TRUE(empty.empty());
  EXPECT_TRUE(empty.canonical());
}

// --- Parallel canonicalization (the parallelized serial preamble) ----------

template <CommutativeSemiring S, typename AnnotFn>
void CheckParallelCanonicalize(uint64_t seed, AnnotFn annot) {
  Rng rng(seed);
  Relation<S> base{Schema({0, 1})};
  std::vector<Value> row(2);
  // > kParallelMinRows rows with duplicates, so the parallel sort path and
  // the duplicate ⊕ folds are both exercised.
  for (int i = 0; i < 6000; ++i) {
    row[0] = rng.NextU64(40);
    row[1] = rng.NextU64(40);
    base.Add(row, annot(&rng));
  }
  ExecContext serial;
  serial.parallelism = 1;
  Relation<S> want = base;
  want.Canonicalize(&serial);
  for (int p : {2, 4, static_cast<int>(std::thread::hardware_concurrency())}) {
    ExecContext ctx;
    ctx.parallelism = std::max(p, 1);
    Relation<S> got = base;
    got.Canonicalize(&ctx);
    EXPECT_TRUE(got.canonical());
    EXPECT_TRUE(BytesEqual(want, got)) << "parallelism " << p;
  }
}

TEST(ParallelCanonicalize, BitIdenticalAcrossParallelismNatural) {
  CheckParallelCanonicalize<NaturalSemiring>(
      91, [](Rng* r) { return r->NextU64(9) + 1; });
}

TEST(ParallelCanonicalize, BitIdenticalAcrossParallelismCountingFloat) {
  // Duplicate folds are float additions: the index-tiebroken total order
  // pins their association, so even double ⊕ must be bit-identical.
  CheckParallelCanonicalize<CountingSemiring>(
      92, [](Rng* r) { return 0.25 * static_cast<double>(r->NextU64(31) + 1); });
}

// --- Columnar kernel vs reference across semirings × shapes × parallelism --

enum class Shape { kRandom, kSkewed, kEmpty, kSingleKeyRun };

template <CommutativeSemiring S, typename AnnotFn>
Relation<S> ShapedRel(Rng* rng, std::vector<VarId> vars, size_t n,
                      Shape shape, AnnotFn annot) {
  Relation<S> r{Schema(std::move(vars))};
  if (shape == Shape::kEmpty) return r;
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < row.size(); ++j) {
      switch (shape) {
        case Shape::kRandom:
          row[j] = rng->NextU64(64);
          break;
        case Shape::kSkewed: {
          const uint64_t v = rng->NextU64(64);
          row[j] = (j == 0) ? (v * v) / 256 : v;  // front-loaded first column
          break;
        }
        case Shape::kSingleKeyRun:
          row[j] = (j == 0) ? 7 : rng->NextU64(64);
          break;
        case Shape::kEmpty:
          break;
      }
    }
    r.Add(row, annot(rng));
  }
  r.Canonicalize();
  return r;
}

/// Differential check of the columnar kernel against reference_ops at the
/// given parallelism: Join/Eliminate on 2000-row inputs of
/// the named shape (above kParallelMinRows, so p > 1 really fans out).
template <CommutativeSemiring S, typename AnnotFn>
void CrossCheckShapedAtParallelism(uint64_t seed, Shape shape, int p,
                                   AnnotFn annot) {
  Rng rng(seed);
  ExecContext ctx;
  ctx.parallelism = p;
  auto a = ShapedRel<S>(&rng, {0, 1}, 2000, shape, annot);
  auto b = ShapedRel<S>(&rng, {1, 2}, 2000, shape, annot);
  EXPECT_TRUE(Join(a, b, &ctx).EqualsAsFunction(reference::Join(a, b)));
  if (!a.empty()) {
    for (VarOp op : {VarOp::kSemiringSum, VarOp::kMax})
      EXPECT_TRUE(Eliminate(a, {1}, {op}, &ctx).EqualsAsFunction(
          reference::EliminateVar(a, 1, op)));
  }
}

template <CommutativeSemiring S, typename AnnotFn>
void CrossCheckAllShapes(uint64_t seed, AnnotFn annot) {
  const int hw = std::max(1, static_cast<int>(
                                 std::thread::hardware_concurrency()));
  for (Shape shape : {Shape::kRandom, Shape::kSkewed, Shape::kEmpty,
                      Shape::kSingleKeyRun})
    for (int p : {1, 2, hw})
      CrossCheckShapedAtParallelism<S>(
          seed + static_cast<uint64_t>(shape) * 131 +
              static_cast<uint64_t>(p),
          shape, p, annot);
}

TEST(ColumnarVsReference, NaturalAllShapesAllParallelism) {
  CrossCheckAllShapes<NaturalSemiring>(
      1101, [](Rng* r) { return r->NextU64(5) + 1; });
}

TEST(ColumnarVsReference, CountingAllShapesAllParallelism) {
  CrossCheckAllShapes<CountingSemiring>(
      2202, [](Rng* r) { return 0.5 * static_cast<double>(r->NextU64(7) + 1); });
}

TEST(ColumnarVsReference, MinPlusAllShapesAllParallelism) {
  CrossCheckAllShapes<MinPlusSemiring>(
      3303, [](Rng* r) { return static_cast<double>(r->NextU64(9)); });
}

TEST(ColumnarVsReference, Gf2AllShapesAllParallelism) {
  CrossCheckAllShapes<Gf2Semiring>(
      4404, [](Rng*) { return static_cast<uint8_t>(1); });
}

}  // namespace
}  // namespace topofaq
