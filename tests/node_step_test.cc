// Differential tests of the one-pass GHD node step. The factor Eliminate
// (relation/ops.h) computes ⊕_vars (r ⊗ f₁ ⊗ … ⊗ f_k) without
// materializing the product; these suites hold it to the composition it
// replaces — the pairwise Join chain P₀ ⋈ P₁ ⋈ … followed by Eliminate — for
// bit identity (schema, canonical flag, column bytes, annotation bit
// patterns), under all six semirings, at parallelism 1 and 4, and under
// every encoding mode. Floating annotations are drawn as random doubles, so
// any change in multiplication or fold order shows up in the bits.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "bit_identity.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "random_instances.h"
#include "relation/ops.h"
#include "util/rng.h"

namespace topofaq {
namespace {

constexpr EncodingMode kModes[] = {EncodingMode::kPlain, EncodingMode::kForceDict,
                                   EncodingMode::kForceFor, EncodingMode::kAuto};
constexpr int kParallelism[] = {1, 4};

/// A random nonzero annotation; order-sensitive for the float semirings.
template <CommutativeSemiring S>
typename S::Value RandomAnnot(Rng* rng) {
  if constexpr (std::is_same_v<typename S::Value, double>) {
    return 0.05 + rng->NextDouble();
  } else if constexpr (sizeof(typename S::Value) == 1) {
    return S::One();
  } else {
    return static_cast<typename S::Value>(rng->NextU64(1000) + 1);
  }
}

/// n random rows over `vars` from [0, dom). `canonical` false keeps the
/// rows as drawn — unsorted, duplicates unmerged — with every third row
/// repeated under a fresh annotation.
template <CommutativeSemiring S>
Relation<S> RandomRel(std::vector<VarId> vars, size_t n, uint64_t dom,
                      Rng* rng, bool canonical, ExecContext* ctx) {
  Relation<S> r{Schema(std::move(vars))};
  std::vector<Value> row(r.arity());
  for (size_t i = 0; i < n; ++i) {
    for (Value& v : row) v = rng->NextU64(dom);
    r.Add(row, RandomAnnot<S>(rng));
    if (!canonical && i % 3 == 0) r.Add(row, RandomAnnot<S>(rng));
  }
  if (canonical) r.Canonicalize(ctx);
  return r;
}

/// The composition the factor step replaces: Join the operands in order,
/// then Eliminate.
template <CommutativeSemiring S>
Relation<S> JoinChainThenEliminate(const std::vector<const Relation<S>*>& parts,
                                   std::vector<VarId> vars,
                                   std::vector<VarOp> ops, ExecContext* ctx) {
  if (parts.size() == 1)
    return Eliminate(*parts[0], std::move(vars), std::move(ops), ctx);
  Relation<S> j = Join(*parts[0], *parts[1], ctx);
  for (size_t i = 2; i < parts.size(); ++i) j = Join(j, *parts[i], ctx);
  return Eliminate(j, std::move(vars), std::move(ops), ctx);
}

/// The factor step over the same operands, parts[lead] walked.
template <CommutativeSemiring S>
Relation<S> FactorStep(const std::vector<const Relation<S>*>& parts,
                       size_t lead, std::vector<VarId> vars,
                       std::vector<VarOp> ops, ExecContext* ctx) {
  std::vector<const Relation<S>*> factors;
  for (size_t i = 0; i < parts.size(); ++i)
    if (i != lead) factors.push_back(parts[i]);
  return Eliminate(*parts[lead], factors, std::move(vars), std::move(ops),
                   ctx, lead);
}

/// SolveNode as it ran before the factor step: on an edge bag whose
/// operands lie inside the bag, the pairwise Join chain, then Eliminate.
template <CommutativeSemiring S>
Relation<S> ChainSolveNode(const FaqQuery<S>& q, const Ghd& ghd, int v,
                           const std::vector<const Relation<S>*>& parts,
                           ExecContext* ctx) {
  const GhdNode& node = ghd.node(v);
  const bool root = v == ghd.root();
  std::vector<VarId> keep = q.free_vars;
  if (!root) {
    const std::vector<VarId>& up = ghd.node(node.parent).chi;
    keep.insert(keep.end(), up.begin(), up.end());
  }
  bool pairwise = node.edge_id >= 0;
  for (const Relation<S>* p : parts)
    for (VarId x : p->schema().vars())
      pairwise = pairwise &&
                 std::binary_search(node.chi.begin(), node.chi.end(), x);
  Relation<S> out;
  if (pairwise) {
    Relation<S> chain;
    if (parts.size() > 1) {
      chain = Join(*parts[0], *parts[1], ctx);
      for (size_t i = 2; i < parts.size(); ++i)
        chain = Join(chain, *parts[i], ctx);
    }
    const Relation<S>& in = parts.size() == 1 ? *parts[0] : chain;
    std::vector<VarId> bound = internal::VarsOutside(in.schema(), keep);
    if (!bound.empty())
      out = internal::EliminateAll(in, std::move(bound), q, ctx);
    else
      out = in;
  } else {
    std::vector<Relation<S>> owned;
    for (const Relation<S>* p : parts) owned.push_back(*p);
    out = internal::JoinAndEliminate(std::move(owned), keep, q, ctx);
  }
  if (root) out.ReorderTo(Schema(q.free_vars), ctx);
  return out;
}

/// Runs the upward pass with both node steps and compares every message.
template <CommutativeSemiring S>
void ExpectPassesAgree(const FaqQuery<S>& q, ExecContext* ctx) {
  auto plan = PlanCache::Shared().PlanFor(q.hypergraph, q.free_vars);
  ASSERT_TRUE(plan.ok());
  const Ghd& ghd = plan->decomposition.ghd;
  std::vector<Relation<S>> now(static_cast<size_t>(ghd.num_nodes()));
  std::vector<Relation<S>> before(now.size());
  for (int v : ghd.BottomUpOrder()) {
    now[static_cast<size_t>(v)] = internal::SolveNode(
        q, ghd, v, internal::PassOperands(q, ghd, v, now), ctx);
    before[static_cast<size_t>(v)] = ChainSolveNode(
        q, ghd, v, internal::PassOperands(q, ghd, v, before), ctx);
    ASSERT_TRUE(BytesEqual(now[static_cast<size_t>(v)],
                           before[static_cast<size_t>(v)]))
        << "node " << v;
  }
}

template <CommutativeSemiring S>
void CheckRandomAcyclicPasses(uint64_t seed) {
  for (int p : kParallelism) {
    for (EncodingMode m : kModes) {
      EncodingContext ctx(m);
      ctx.parallelism = p;
      Rng rng(seed);
      for (int iter = 0; iter < 6; ++iter) {
        SCOPED_TRACE(InstanceLabel("p=" + std::to_string(p) + " mode=" +
                                       std::to_string(static_cast<int>(m)) +
                                       " iter=" + std::to_string(iter),
                                   seed));
        const Hypergraph h =
            iter == 0   ? PathGraph(4)
            : iter == 1 ? StarGraph(3)
                        : RandomAcyclicHypergraph(5, 3, &rng);
        std::vector<Relation<S>> rels;
        for (int e = 0; e < h.num_edges(); ++e)
          rels.push_back(RandomRel<S>(h.edge(e), 1100 + rng.NextU64(1500),
                                      h.edge(e).size() > 2 ? 14 : 60, &rng,
                                      /*canonical=*/iter != 5, &ctx));
        // At most one free variable: carried free columns multiply the
        // messages' sizes without reaching any new path of the step.
        std::vector<VarId> free;
        if (rng.NextBool())
          free.push_back(static_cast<VarId>(rng.NextU64(
              static_cast<uint64_t>(h.num_vertices()))));
        FaqQuery<S> q = MakeFaqSS<S>(h, std::move(rels), std::move(free));
        // Mixed aggregates: bound variables alternate between ⊕ and
        // max/min, so a bag's elimination splits into several batches.
        if constexpr (!std::is_same_v<S, Gf2Semiring>)
          for (int x = 0; x < h.num_vertices(); ++x)
            if (rng.NextU64(3) == 0)
              q.var_ops[static_cast<size_t>(x)] =
                  rng.NextBool() ? VarOp::kMax : VarOp::kMin;
        ASSERT_TRUE(q.Validate().ok());
        ExpectPassesAgree(q, &ctx);
      }
    }
  }
}

/// Operator-level cases the pass rarely reaches, each under every
/// parallelism level and encoding mode: a non-canonical outer relation with
/// duplicate rows, a non-canonical factor, an empty factor, nullary
/// factors, the ring-mode operand order (the delta first) and a second lead
/// factor, mixed aggregate batches, nothing eliminated and everything
/// eliminated.
template <CommutativeSemiring S>
void CheckOperatorCases(uint64_t seed) {
  for (int p : kParallelism) {
    for (EncodingMode m : kModes) {
      EncodingContext ctx(m);
      ctx.parallelism = p;
      Rng rng(seed);
      const Relation<S> r = RandomRel<S>({0, 1, 2}, 6000, 24, &rng, true, &ctx);
      const Relation<S> dup_r =
          RandomRel<S>({0, 1, 2}, 4000, 12, &rng, false, &ctx);
      const Relation<S> m1 = RandomRel<S>({1}, 20, 24, &rng, true, &ctx);
      const Relation<S> m0 = RandomRel<S>({0}, 20, 24, &rng, true, &ctx);
      const Relation<S> m21 = RandomRel<S>({2, 1}, 300, 24, &rng, true, &ctx);
      const Relation<S> m01 = RandomRel<S>({0, 1}, 300, 24, &rng, true, &ctx);
      const Relation<S> dup_m1 = RandomRel<S>({1}, 30, 24, &rng, false, &ctx);
      const Relation<S> dup_m0 = RandomRel<S>({0}, 30, 24, &rng, false, &ctx);
      const Relation<S> empty{Schema({2})};
      Relation<S> scalar{Schema(std::vector<VarId>{})};
      scalar.Add(std::initializer_list<Value>{}, RandomAnnot<S>(&rng));
      scalar.Canonicalize(&ctx);
      Relation<S> dup_scalar{Schema(std::vector<VarId>{})};
      dup_scalar.Add(std::initializer_list<Value>{}, RandomAnnot<S>(&rng));
      dup_scalar.Add(std::initializer_list<Value>{}, RandomAnnot<S>(&rng));

      struct Case {
        std::string name;
        std::vector<const Relation<S>*> parts;
        size_t lead;
        std::vector<VarId> vars;
        std::vector<VarOp> ops;
      };
      const VarOp sum = VarOp::kSemiringSum;
      const VarOp mx = std::is_same_v<S, Gf2Semiring> ? sum : VarOp::kMax;
      const VarOp mn = std::is_same_v<S, Gf2Semiring> ? sum : VarOp::kMin;
      const std::vector<Case> cases = {
          {"prefix probe, kept prefix", {&r, &m0, &m01}, 0, {2}, {sum}},
          {"directory probes, kept non-prefix", {&r, &m1, &m21}, 0, {0},
           {sum}},
          {"mixed batches", {&r, &m1, &m0}, 0, {2, 1}, {mx, sum}},
          {"three batches", {&r, &m21}, 0, {2, 0, 1}, {mn, sum, mx}},
          {"nothing eliminated", {&r, &m1, &m21}, 0, {}, {}},
          {"everything eliminated", {&r, &m0, &m1}, 0, {0, 1, 2},
           {sum, sum, sum}},
          {"non-canonical outer", {&dup_r, &m1, &m0}, 0, {1}, {sum}},
          {"non-canonical outer, kept prefix", {&dup_r, &m0}, 0, {2, 1},
           {sum, sum}},
          {"non-canonical outer, nothing eliminated", {&dup_r, &m21}, 0, {},
           {}},
          {"non-canonical factors", {&r, &dup_m1, &dup_m0}, 0, {0}, {sum}},
          {"both non-canonical", {&dup_r, &dup_m0}, 0, {2}, {sum}},
          {"empty factor", {&r, &m1, &empty}, 0, {0}, {sum}},
          {"scalar factor", {&r, &scalar, &m1}, 0, {1, 2}, {sum, mx}},
          {"non-canonical scalar factor", {&r, &dup_scalar}, 0, {0}, {sum}},
          {"ring order: delta first", {&m1, &r, &m0}, 1, {2}, {sum}},
          {"ring order, nothing eliminated", {&m21, &r, &m1}, 1, {}, {}},
          {"ring order, non-canonical delta", {&dup_m1, &r}, 1, {0}, {sum}},
          {"ring order, both non-canonical", {&dup_m1, &dup_r}, 1, {0},
           {sum}},
          {"two lead factors", {&m1, &m01, &r, &m0}, 2, {1}, {sum}},
      };
      for (const Case& c : cases) {
        SCOPED_TRACE(InstanceLabel(c.name + " p=" + std::to_string(p) +
                                       " mode=" +
                                       std::to_string(static_cast<int>(m)),
                                   seed));
        const Relation<S> want =
            JoinChainThenEliminate(c.parts, c.vars, c.ops, &ctx);
        const Relation<S> got = FactorStep(c.parts, c.lead, c.vars, c.ops, &ctx);
        EXPECT_TRUE(BytesEqual(got, want));
      }
    }
  }
}

TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesBoolean) {
  CheckRandomAcyclicPasses<BooleanSemiring>(11);
}
TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesCounting) {
  CheckRandomAcyclicPasses<CountingSemiring>(12);
}
TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesNatural) {
  CheckRandomAcyclicPasses<NaturalSemiring>(13);
}
TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesMinPlus) {
  CheckRandomAcyclicPasses<MinPlusSemiring>(14);
}
TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesMaxProduct) {
  CheckRandomAcyclicPasses<MaxProductSemiring>(15);
}
TEST(NodeStep, MatchesJoinChainOnRandomAcyclicPassesGf2) {
  CheckRandomAcyclicPasses<Gf2Semiring>(16);
}

TEST(NodeStep, MatchesJoinChainOnOperatorCasesBoolean) {
  CheckOperatorCases<BooleanSemiring>(21);
}
TEST(NodeStep, MatchesJoinChainOnOperatorCasesCounting) {
  CheckOperatorCases<CountingSemiring>(22);
}
TEST(NodeStep, MatchesJoinChainOnOperatorCasesNatural) {
  CheckOperatorCases<NaturalSemiring>(23);
}
TEST(NodeStep, MatchesJoinChainOnOperatorCasesMinPlus) {
  CheckOperatorCases<MinPlusSemiring>(24);
}
TEST(NodeStep, MatchesJoinChainOnOperatorCasesMaxProduct) {
  CheckOperatorCases<MaxProductSemiring>(25);
}
TEST(NodeStep, MatchesJoinChainOnOperatorCasesGf2) {
  CheckOperatorCases<Gf2Semiring>(26);
}

TEST(NodeStep, PairwiseBagsMakeNoJoinCall) {
  // The pass over an acyclic query runs every bag as one factor Eliminate:
  // no Join call anywhere, and the answer is the chain's.
  ExecContext ctx;
  ctx.parallelism = 1;
  Rng rng(31);
  std::vector<Relation<NaturalSemiring>> rels;
  const Hypergraph h = PathGraph(4);
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRel<NaturalSemiring>(h.edge(e), 2000, 200, &rng,
                                              true, &ctx));
  const auto q = MakeFaqSS<NaturalSemiring>(h, std::move(rels), {0});
  auto got = YannakakisSolve(q, &ctx);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(ctx.join.calls, 0);
  EXPECT_EQ(ctx.multiway.calls, 0);
  EXPECT_GT(ctx.eliminate.calls, 0);
  ExpectPassesAgree(q, &ctx);
}

}  // namespace
}  // namespace topofaq
