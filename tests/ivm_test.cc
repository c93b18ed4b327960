// Differential tests for incremental view maintenance (ivm/delta.h,
// ivm/standing_query.h, server/subscribe.h).
//
// The contract under test is bit-identity: after every applied delta, the
// standing query's materialized answer must compare byte-equal (BytesEqual,
// tests/bit_identity.h) to a full recompute over a base kept current through
// the *same* ApplyDeltaToRelation path. The matrix crosses every semiring
// with shapes {path, star, triangle, 4-cycle}, parallelism {1, 2, hw}, and
// forced encodings {plain, dict, for}; delete-heavy batches and deltas that
// empty a relation outright are exercised explicitly, since those are where
// an inexact inverse or a stale message would show. The engine-level tests
// cover Subscribe/ApplyDelta plumbing: admission pricing the delta (not the
// standing database), rejection leaving the answer untouched, and the
// validation surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bit_identity.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "ivm/delta.h"
#include "ivm/standing_query.h"
#include "random_instances.h"
#include "relation/encoding.h"
#include "server/engine.h"
#include "server/subscribe.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// The encoding a forced (non-auto) mode stores every non-empty column in.
ColumnEncoding ForcedEncoding(EncodingMode m) {
  if (m == EncodingMode::kForceDict) return ColumnEncoding::kDict;
  if (m == EncodingMode::kForceFor) return ColumnEncoding::kFor;
  return ColumnEncoding::kPlain;
}

/// One differential round: apply `d` to the standing query and (a copy) to
/// the oracle's base, then assert the updated base and the answer are both
/// byte-identical to the standing state.
template <CommutativeSemiring S>
void CheckRound(StandingQuery<S>* sq, FaqQuery<S>* oracle, int rel, Delta<S> d,
                ExecContext* ctx) {
  Delta<S> d2 = d;
  const Status applied = sq->ApplyDelta(rel, std::move(d), ctx);
  ASSERT_TRUE(applied.ok()) << applied.ToString();
  const Status mirrored =
      ApplyDeltaToQuery(oracle, rel, std::move(d2), ctx);
  ASSERT_TRUE(mirrored.ok()) << mirrored.ToString();
  // Both sides go through ApplyDeltaToRelation, so the bases must agree
  // byte-for-byte before the answers are even compared.
  const Relation<S>& base = sq->query().relations[static_cast<size_t>(rel)];
  ASSERT_TRUE(BytesEqual(base, oracle->relations[static_cast<size_t>(rel)]));
  // A forced mode on the context reaches the maintained base too.
  if (!base.empty() && ctx->encoding != EncodingMode::kAuto) {
    EXPECT_EQ(base.col_encoding(0), ForcedEncoding(ctx->encoding));
  }
  auto full = YannakakisSolve(*oracle, ctx);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(BytesEqual(sq->Current(), *full));
}

/// Runs `rounds` random deltas against one random instance; every third
/// round is delete-heavy (half the touched base erased, nothing added).
template <CommutativeSemiring S>
void RunDifferential(const Hypergraph& h, std::vector<VarId> free_vars,
                     size_t tuples, uint64_t dom, uint64_t seed,
                     int parallelism, int rounds,
                     EncodingMode mode = DefaultEncodingMode()) {
  EncodingContext ctx(mode);
  ctx.parallelism = parallelism;
  FaqQuery<S> oracle =
      RandomQuery<S>(h, tuples, dom, seed, free_vars, 0, &ctx);
  auto sq = StandingQuery<S>::Create(oracle, &ctx);
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  auto full0 = YannakakisSolve(oracle, &ctx);
  ASSERT_TRUE(full0.ok()) << full0.status().ToString();
  ASSERT_TRUE(BytesEqual(sq->Current(), *full0));
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int rel = static_cast<int>(rng.NextU64(oracle.relations.size()));
    const Relation<S>& base = oracle.relations[static_cast<size_t>(rel)];
    size_t n_remove, n_add;
    if (round % 3 == 2) {  // delete-heavy batch
      n_remove = base.size() / 2 + 1;
      n_add = 0;
    } else {
      n_remove = rng.NextU64(base.size() / 4 + 1);
      n_add = 1 + rng.NextU64(tuples / 4 + 1);
    }
    CheckRound(&*sq, &oracle, rel,
               RandomDelta<S>(base, dom, seed + 7777 + round, n_remove, n_add),
               &ctx);
    if (::testing::Test::HasFailure()) return;
  }
}

/// The acceptance matrix for one semiring: shapes × parallelism × forced
/// encoding modes, each cell a fresh seeded instance.
template <CommutativeSemiring S>
void RunMatrix(uint64_t seed0) {
  struct ShapeCase {
    const char* name;
    Hypergraph h;
    std::vector<VarId> free_vars;
  };
  std::vector<ShapeCase> shapes;
  shapes.push_back({"path", PathGraph(2), {0}});
  shapes.push_back({"star", StarGraph(3), {0}});
  shapes.push_back({"triangle", CycleGraph(3), {0, 1}});
  shapes.push_back({"4-cycle", CycleGraph(4), {0}});
  const int hw =
      std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  const struct {
    const char* name;
    EncodingMode mode;
  } encodings[] = {{"plain", EncodingMode::kPlain},
                   {"dict", EncodingMode::kForceDict},
                   {"for", EncodingMode::kForceFor}};
  uint64_t seed = seed0;
  for (const ShapeCase& sh : shapes) {
    for (int p : {1, 2, hw}) {
      for (const auto& enc : encodings) {
        ++seed;
        SCOPED_TRACE(InstanceLabel(std::string(sh.name) + " p=" +
                                       std::to_string(p) + " enc=" + enc.name,
                                   seed));
        RunDifferential<S>(sh.h, sh.free_vars, 120, 30, seed, p, 5, enc.mode);
        if (::testing::Test::HasFailure()) return;
      }
    }
  }
}

TEST(IvmDifferential, BooleanMatrix) { RunMatrix<BooleanSemiring>(11000); }
TEST(IvmDifferential, NaturalMatrix) { RunMatrix<NaturalSemiring>(12000); }
TEST(IvmDifferential, CountingMatrix) { RunMatrix<CountingSemiring>(13000); }
TEST(IvmDifferential, MinPlusMatrix) { RunMatrix<MinPlusSemiring>(14000); }
TEST(IvmDifferential, MaxProductMatrix) {
  RunMatrix<MaxProductSemiring>(15000);
}
TEST(IvmDifferential, Gf2Matrix) { RunMatrix<Gf2Semiring>(16000); }

// F = ∅: the standing answer is a scalar (arity-0 relation) — full
// contraction is where sloppy delta algebra would hide, since every tuple
// folds into one annotation.
TEST(IvmDifferential, ScalarAggregateOverTriangle) {
  RunDifferential<NaturalSemiring>(CycleGraph(3), {}, 150, 25, 501, 2, 6);
  if (::testing::Test::HasFailure()) return;
  RunDifferential<CountingSemiring>(CycleGraph(3), {}, 150, 25, 502, 2, 6);
  if (::testing::Test::HasFailure()) return;
  RunDifferential<MinPlusSemiring>(CycleGraph(3), {}, 150, 25, 503, 1, 6);
}

/// Wipes relation 1 with a delta whose removes are a full copy of the base,
/// asserts the answer empties exactly, then refills and asserts recovery.
template <CommutativeSemiring S>
void RunEmptying(uint64_t seed) {
  ExecContext ctx;
  ctx.parallelism = 2;
  FaqQuery<S> oracle = RandomQuery<S>(PathGraph(2), 100, 20, seed, {0});
  auto sq = StandingQuery<S>::Create(oracle, &ctx);
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  ASSERT_FALSE(sq->Current().empty());

  Delta<S> wipe;
  wipe.removes = oracle.relations[1];
  CheckRound(&*sq, &oracle, 1, std::move(wipe), &ctx);
  if (::testing::Test::HasFailure()) return;
  EXPECT_TRUE(oracle.relations[1].empty());
  EXPECT_TRUE(sq->Current().empty()) << "join against an emptied relation";

  Delta<S> refill;
  refill.adds = RandomRelation<S>({1, 2}, 80, 20, seed + 1);
  CheckRound(&*sq, &oracle, 1, std::move(refill), &ctx);
  if (::testing::Test::HasFailure()) return;
  EXPECT_FALSE(sq->Current().empty()) << "standing query recovers from empty";
}

TEST(IvmDifferential, DeltaThatEmptiesARelation) {
  RunEmptying<NaturalSemiring>(61);  // exact ring: cancellation is exact
  if (::testing::Test::HasFailure()) return;
  RunEmptying<BooleanSemiring>(62);  // idempotent: recompute path
  if (::testing::Test::HasFailure()) return;
  RunEmptying<CountingSemiring>(63);  // ring but inexact: recompute path
}

// GF2's ⊕ is its own inverse: adding the base to itself must cancel every
// row — the relation empties through the *adds* half, with no removes.
TEST(IvmDifferential, Gf2AddIsItsOwnInverse) {
  ExecContext ctx;
  ctx.parallelism = 1;
  FaqQuery<Gf2Semiring> oracle =
      RandomQuery<Gf2Semiring>(PathGraph(2), 60, 15, 71, {0});
  auto sq = StandingQuery<Gf2Semiring>::Create(oracle, &ctx);
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  Delta<Gf2Semiring> d;
  d.adds = oracle.relations[0];
  CheckRound(&*sq, &oracle, 0, std::move(d), &ctx);
  if (::testing::Test::HasFailure()) return;
  EXPECT_TRUE(oracle.relations[0].empty());
  EXPECT_TRUE(sq->Current().empty());
}

// ---------------------------------------------------------------------------
// The base-update merge walk against a rebuild
// ---------------------------------------------------------------------------

/// The rebuild oracle of one base update: every base row whose key is not
/// removed, then every add row, through Add + Canonicalize (base row first
/// in each ⊕ fold, as in the merge walk).
template <CommutativeSemiring S>
Relation<S> Rebuild(const Relation<S>& base, const Delta<S>& d,
                    ExecContext* ctx) {
  std::set<std::vector<Value>> removed;
  for (size_t i = 0; i < d.removes.size(); ++i)
    removed.insert(d.removes.Row(i));
  Relation<S> r(base.schema());
  for (size_t i = 0; i < base.size(); ++i)
    if (!removed.count(base.Row(i))) r.Add(base.Row(i), base.annot(i));
  for (size_t i = 0; i < d.adds.size(); ++i)
    r.Add(d.adds.Row(i), d.adds.annot(i));
  r.Canonicalize(ctx);
  return r;
}

/// Applies `d` to `*base` through ApplyDeltaToRelation and asserts the
/// bytes equal Rebuild's; in a ring, also asserts that the walk's net
/// change C satisfies AddInto(old, C) == new base.
template <CommutativeSemiring S>
void CheckMerge(Relation<S>* base, Delta<S> d, ExecContext* ctx) {
  const Relation<S> old = *base;
  ASSERT_TRUE(CheckDelta(old, &d, ctx).ok());
  const Relation<S> expect = Rebuild(old, d, ctx);
  ASSERT_TRUE(ApplyDeltaToRelation(base, d, ctx).ok());
  EXPECT_TRUE(BytesEqual(*base, expect));
  if (!base->empty() && ctx->encoding != EncodingMode::kAuto) {
    EXPECT_EQ(base->col_encoding(0), ForcedEncoding(ctx->encoding));
  }
  if constexpr (RingTraits<S>::kIsRing) {
    Relation<S> with_change = old, change;
    UpdateBase(&with_change, d.removes, d.adds, ctx, &change);
    EXPECT_TRUE(BytesEqual(with_change, *base));
    Relation<S> sum = old;
    AddInto(&sum, change, ctx);
    EXPECT_TRUE(BytesEqual(sum, *base));
  }
}

/// One base per encoding mode, five deltas in sequence: first/last rows
/// and absent rows removed; a row removed and re-added; adds that cancel
/// (rings) or ⊕-merge into live rows; every row removed; rows added to
/// the emptied base.
template <CommutativeSemiring S>
void RunMergeCases(uint64_t seed) {
  using V = typename S::Value;
  const uint64_t dom = 40;
  for (EncodingMode m : {EncodingMode::kPlain, EncodingMode::kForceDict,
                         EncodingMode::kForceFor}) {
    SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)));
    EncodingContext ctx(m);
    Relation<S> base = RandomRelation<S>({0, 1}, 300, dom, seed, 0, &ctx);
    ASSERT_GT(base.size(), 20u);
    const Schema sc = base.schema();
    auto fresh = [&sc] { return Delta<S>{Relation<S>(sc), Relation<S>(sc)}; };

    Delta<S> ends = fresh();
    ends.removes.Add(base.Row(0), S::One());
    ends.removes.Add(base.Row(base.size() - 1), S::One());
    ends.removes.Add({dom + 1, 0}, S::One());  // absent: past the last row
    ends.removes.Add({0, dom + 2}, S::One());  // absent: between rows
    ends.adds.Add({dom + 3, 1}, S::One());
    CheckMerge(&base, std::move(ends), &ctx);
    if (::testing::Test::HasFailure()) return;

    Delta<S> readd = fresh();
    const size_t mid = base.size() / 2;
    readd.removes.Add(base.Row(mid), S::One());
    readd.adds.Add(base.Row(mid), TestAnnot<S>(seed + 5));
    readd.adds.Add(base.Row(mid + 3), TestAnnot<S>(seed + 6));  // ⊕-merges
    CheckMerge(&base, std::move(readd), &ctx);
    if (::testing::Test::HasFailure()) return;

    Delta<S> cancel = fresh();
    for (size_t i = 1; i < base.size(); i += 4) {
      V v = TestAnnot<S>(i);
      if constexpr (RingTraits<S>::kIsRing)
        v = RingTraits<S>::Negate(base.annot(i));  // old ⊕ v == 0
      cancel.adds.Add(base.Row(i), v);
    }
    const size_t before = base.size();
    CheckMerge(&base, std::move(cancel), &ctx);
    if (::testing::Test::HasFailure()) return;
    if (RingTraits<S>::kIsRing) EXPECT_LT(base.size(), before);

    Delta<S> wipe = fresh();
    wipe.removes = base;
    CheckMerge(&base, std::move(wipe), &ctx);
    if (::testing::Test::HasFailure()) return;
    EXPECT_TRUE(base.empty());

    Delta<S> refill = fresh();
    refill.adds = RandomRelation<S>({0, 1}, 50, dom, seed + 1);
    CheckMerge(&base, std::move(refill), &ctx);
    if (::testing::Test::HasFailure()) return;
    EXPECT_FALSE(base.empty());
  }
}

TEST(IvmDeltaMerge, MatchesRebuildAcrossSemiringsAndEncodings) {
  RunMergeCases<NaturalSemiring>(81);  // ring: wrapping cancellation
  if (::testing::Test::HasFailure()) return;
  RunMergeCases<Gf2Semiring>(82);  // ring: self-inverse cancellation
  if (::testing::Test::HasFailure()) return;
  RunMergeCases<MinPlusSemiring>(83);  // idempotent ⊕: no net change
}

// ---------------------------------------------------------------------------
// Maintenance-mode classification and stats
// ---------------------------------------------------------------------------

TEST(IvmModes, RingPropagationOnlyForExactRingsWithAllSumAggregates) {
  ExecContext ctx;
  ctx.parallelism = 1;
  const Hypergraph h = PathGraph(2);
  {
    auto q = RandomQuery<NaturalSemiring>(h, 50, 12, 81, {0});
    auto sq = StandingQuery<NaturalSemiring>::Create(q, &ctx);
    ASSERT_TRUE(sq.ok());
    EXPECT_TRUE(sq->ring_mode()) << "Z/2^64 is an exact ring";
  }
  {
    auto q = RandomQuery<Gf2Semiring>(h, 50, 12, 82, {0});
    auto sq = StandingQuery<Gf2Semiring>::Create(q, &ctx);
    ASSERT_TRUE(sq.ok());
    EXPECT_TRUE(sq->ring_mode()) << "F2 is an exact ring";
  }
  {
    auto q = RandomQuery<CountingSemiring>(h, 50, 12, 83, {0});
    auto sq = StandingQuery<CountingSemiring>::Create(q, &ctx);
    ASSERT_TRUE(sq.ok());
    EXPECT_FALSE(sq->ring_mode()) << "floats are a ring but not exact";
  }
  {
    auto q = RandomQuery<BooleanSemiring>(h, 50, 12, 84, {0});
    auto sq = StandingQuery<BooleanSemiring>::Create(q, &ctx);
    ASSERT_TRUE(sq.ok());
    EXPECT_FALSE(sq->ring_mode()) << "idempotent ⊕ has no inverse";
  }
  {
    // A bound min-aggregate breaks ⊕-linearity even over an exact ring.
    auto q = RandomQuery<NaturalSemiring>(h, 50, 12, 85, {0});
    q.var_ops[2] = VarOp::kMin;
    auto sq = StandingQuery<NaturalSemiring>::Create(q, &ctx);
    ASSERT_TRUE(sq.ok());
    EXPECT_FALSE(sq->ring_mode());
    // The recompute fallback must still be differentially correct.
    CheckRound(&*sq, &q, 0, RandomDelta<NaturalSemiring>(q.relations[0], 12, 86, 8, 12),
               &ctx);
  }
}

TEST(IvmModes, StatsCountPropagationAndCleanSubtreeReuse) {
  ExecContext ctx;
  ctx.parallelism = 1;
  // Recompute path over a star: touching one leaf must reuse every clean
  // node's cached message. The expected reuse count is read off the
  // decomposition (num_nodes minus the touched node's root path).
  FaqQuery<BooleanSemiring> oracle =
      RandomQuery<BooleanSemiring>(StarGraph(3), 80, 16, 91, {0});
  auto sq = StandingQuery<BooleanSemiring>::Create(oracle, &ctx);
  ASSERT_TRUE(sq.ok()) << sq.status().ToString();
  EXPECT_FALSE(sq->ring_mode());
  const int rel = 2;
  CheckRound(&*sq, &oracle, rel,
             RandomDelta<BooleanSemiring>(oracle.relations[rel], 16, 92, 5, 10),
             &ctx);
  if (::testing::Test::HasFailure()) return;

  const Ghd& ghd = sq->decomposition().ghd;
  int path_len = 0;
  for (int v = sq->decomposition().node_of_edge[rel]; v >= 0;
       v = ghd.node(v).parent)
    ++path_len;
  const StandingStats st = sq->stats();
  EXPECT_EQ(st.deltas_applied, 1);
  EXPECT_EQ(st.recompute_deltas, 1);
  EXPECT_EQ(st.ring_deltas, 0);
  EXPECT_EQ(st.nodes_updated, path_len);
  EXPECT_EQ(st.nodes_reused, ghd.num_nodes() - path_len);
  EXPECT_EQ(st.nodes_updated + st.nodes_reused, ghd.num_nodes());

  // Empty deltas are free: admitted trivially, counted nowhere.
  const Status empty_delta =
      sq->ApplyDelta(0, Delta<BooleanSemiring>{}, &ctx);
  EXPECT_TRUE(empty_delta.ok());
  EXPECT_EQ(sq->stats().deltas_applied, 1);

  // Ring path counters on the exact-ring twin.
  FaqQuery<NaturalSemiring> noracle =
      RandomQuery<NaturalSemiring>(PathGraph(2), 80, 16, 93, {0});
  auto nsq = StandingQuery<NaturalSemiring>::Create(noracle, &ctx);
  ASSERT_TRUE(nsq.ok());
  CheckRound(&*nsq, &noracle, 0,
             RandomDelta<NaturalSemiring>(noracle.relations[0], 16, 94, 5, 10),
             &ctx);
  if (::testing::Test::HasFailure()) return;
  EXPECT_EQ(nsq->stats().ring_deltas, 1);
  EXPECT_EQ(nsq->stats().recompute_deltas, 0);
}

// ---------------------------------------------------------------------------
// Engine subscription surface
// ---------------------------------------------------------------------------

TEST(IvmEngine, SubscribeMatchesSolveAndStaysCurrentUnderDeltas) {
  Engine engine{EngineOptions{}};
  FaqQuery<NaturalSemiring> oracle =
      RandomQuery<NaturalSemiring>(PathGraph(2), 300, 40, 901, {0});
  QueryRequest req;
  req.query = oracle;
  req.tag = "ivm-subscribe";
  auto ss = engine.Subscribe(std::move(req));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  EXPECT_TRUE((*ss)->ring_mode());
  EXPECT_EQ((*ss)->num_relations(), 2);

  auto solved0 = engine.Solve<NaturalSemiring>(oracle);
  ASSERT_TRUE(solved0.ok()) << solved0.status().ToString();
  EXPECT_TRUE(BytesEqual((*ss)->Current<NaturalSemiring>(), *solved0));

  for (int round = 0; round < 4; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const int rel = round % 2;
    Delta<NaturalSemiring> d = RandomDelta<NaturalSemiring>(
        oracle.relations[static_cast<size_t>(rel)], 40, 903 + round, 20, 30);
    Delta<NaturalSemiring> d2 = d;
    auto r = (*ss)->ApplyDelta(rel, std::move(d));
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const Status mirrored = ApplyDeltaToQuery(&oracle, rel, std::move(d2));
    ASSERT_TRUE(mirrored.ok()) << mirrored.ToString();
    auto full = engine.Solve<NaturalSemiring>(oracle);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ASSERT_TRUE(BytesEqual((*ss)->Current<NaturalSemiring>(), *full));
  }
  const EngineStats st = engine.stats();
  EXPECT_EQ(st.subscriptions, 1);
  EXPECT_EQ(st.deltas_applied, 4);
  EXPECT_EQ(st.deltas_rejected, 0);
}

TEST(IvmEngine, DeltaValidationSurface) {
  Engine engine{EngineOptions{}};
  FaqQuery<NaturalSemiring> q =
      RandomQuery<NaturalSemiring>(PathGraph(2), 50, 12, 906, {0});
  QueryRequest req;
  req.query = q;
  auto ss = engine.Subscribe(std::move(req));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();
  const AnyRelation before = (*ss)->Current();

  // Wrong semiring for the subscription.
  auto r1 = (*ss)->ApplyDelta(0, AnyDelta(Delta<BooleanSemiring>{}));
  ASSERT_FALSE(r1.ok());
  EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);

  // Unknown relation id.
  auto r2 = (*ss)->ApplyDelta(7, Delta<NaturalSemiring>{});
  ASSERT_FALSE(r2.ok());
  EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);

  // Schema mismatch against the touched base.
  Delta<NaturalSemiring> bad;
  bad.adds = RandomRelation<NaturalSemiring>({5, 6, 7}, 4, 8, 907);
  auto r3 = (*ss)->ApplyDelta(0, std::move(bad));
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kInvalidArgument);

  // Nothing was applied: the answer is untouched, the counters unmoved.
  EXPECT_TRUE(BytesEqual(std::get<Relation<NaturalSemiring>>(before),
                         (*ss)->Current<NaturalSemiring>()));
  EXPECT_EQ(engine.stats().deltas_applied, 0);
}

TEST(IvmEngine, DeltaAdmissionPricesTheDeltaNotTheBase) {
  EngineOptions opts;
  opts.admission.max_predicted_output_rows = 200;
  Engine engine(opts);
  // A tiny base subscribes comfortably under the cap.
  FaqQuery<NaturalSemiring> q =
      RandomQuery<NaturalSemiring>(PathGraph(2), 8, 200, 908, {0, 1});
  QueryRequest req;
  req.query = q;
  auto ss = engine.Subscribe(std::move(req));
  ASSERT_TRUE(ss.ok()) << ss.status().ToString();

  // A delta whose one hot key would join-amplify past the budget is
  // refused — admission assessed the *delta's* profile, not the 8-row base.
  Delta<NaturalSemiring> big;
  big.adds = Relation<NaturalSemiring>(Schema(std::vector<VarId>{0, 1}));
  for (uint64_t i = 0; i < 600; ++i) big.adds.Add({5, i % 200}, 1);
  auto rejected = (*ss)->ApplyDelta(0, std::move(big));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // Rejected means not applied: the answer still matches a fresh solve of
  // the unmodified query.
  auto unchanged = engine.Solve<NaturalSemiring>(q);
  ASSERT_TRUE(unchanged.ok()) << unchanged.status().ToString();
  EXPECT_TRUE(BytesEqual((*ss)->Current<NaturalSemiring>(), *unchanged));

  // A small delta on the same session is still admitted and applied.
  Delta<NaturalSemiring> small;
  small.adds = Relation<NaturalSemiring>(Schema(std::vector<VarId>{0, 1}));
  small.adds.Add({3, 4}, 2);
  Delta<NaturalSemiring> small2 = small;
  auto ok = (*ss)->ApplyDelta(0, std::move(small));
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  const Status mirrored = ApplyDeltaToQuery(&q, 0, std::move(small2));
  ASSERT_TRUE(mirrored.ok()) << mirrored.ToString();
  auto full = engine.Solve<NaturalSemiring>(q);
  ASSERT_TRUE(full.ok()) << full.status().ToString();
  EXPECT_TRUE(BytesEqual((*ss)->Current<NaturalSemiring>(), *full));

  const EngineStats st = engine.stats();
  EXPECT_EQ(st.deltas_rejected, 1);
  EXPECT_EQ(st.deltas_applied, 1);
}

}  // namespace
}  // namespace topofaq
