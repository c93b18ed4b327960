// Engine serving-path tests: concurrent queries through topofaq::Engine must
// be bit-identical to direct solver calls (the variant/queue/dispatch layers
// may not change a single output byte); cancellation surfaces
// Status::Cancelled and leaves the engine reusable; admission rejects
// over-budget queries with a Status naming the violated bound; the textual
// query format round-trips; the plan cache reports hits.
//
// CI runs this suite under TSan with TOPOFAQ_PARALLELISM=max (the engine
// stress leg), so every cross-thread handoff here is sanitizer-checked.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bit_identity.h"
#include "faq/parse.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "hypergraph/gyo.h"
#include "oracle.h"
#include "random_instances.h"
#include "relation/simd.h"
#include "server/engine.h"
#include "util/rng.h"

namespace topofaq {
namespace {

/// The engine's solver called directly on a private serial context: the
/// baseline the engine must reproduce byte for byte.
template <CommutativeSemiring S>
Relation<S> DirectSolve(const FaqQuery<S>& q) {
  ExecContext ctx;
  ctx.parallelism = 1;
  auto ans = YannakakisSolve(q, &ctx);
  EXPECT_TRUE(ans.ok()) << ans.status().ToString();
  return *std::move(ans);
}

// ---------------------------------------------------------------------------
// Concurrent bit-identity across semirings, shapes, and queue classes.

/// One in-flight comparison: submit through the engine, remember the
/// directly-computed baseline, check bytes after Wait().
template <CommutativeSemiring S>
struct Flight {
  std::shared_ptr<Session> session;
  Relation<S> expected;
  QueueClass want_class;

  void Launch(Engine& engine, const FaqQuery<S>& q, QueueClass want) {
    expected = DirectSolve(q);
    want_class = want;
    QueryRequest req;
    req.query = q;
    session = engine.Submit(std::move(req));
  }

  void Check() {
    auto r = session->Wait();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(BytesEqual(expected, r->answer_as<S>()));
    EXPECT_EQ(r->klass, want_class);
    // The admission predictor must be a genuine upper bound.
    EXPECT_LE(r->observed_rows, r->bounds.predicted_output_rows);
  }
};

TEST(Engine, ConcurrentQueriesBitIdenticalToDirectCalls) {
  EngineOptions opts;
  opts.parallelism = 4;
  opts.dispatchers = 3;
  opts.heavy_slots = 1;
  Engine engine(opts);

  const Hypergraph path = PathGraph(2);   // acyclic: R(0,1), S(1,2)
  const Hypergraph star = StarGraph(4);   // acyclic, one shared attribute
  const Hypergraph cycle = CycleGraph(3); // y = 1: heavy class

  // 13 concurrent queries: 4 semirings x {path point lookup, star BCQ,
  // cyclic heavy}, plus a path with both ends free (no bag covers F, so the
  // free columns ride up to the root). All in flight at once on 3
  // dispatchers, multiplexing the process WorkerPool at morsel granularity.
  Flight<BooleanSemiring> b1, b2, b3;
  Flight<NaturalSemiring> n1, n2, n3;
  Flight<CountingSemiring> c1, c2, c3;
  Flight<MinPlusSemiring> m1, m2, m3;

  b1.Launch(engine,
            RandomQuery<BooleanSemiring>(path, 200, 40, 1, {0}),
            QueueClass::kPoint);
  n1.Launch(engine,
            RandomQuery<NaturalSemiring>(path, 200, 40, 2, {0}),
            QueueClass::kPoint);
  c1.Launch(engine,
            RandomQuery<CountingSemiring>(path, 200, 40, 3, {0}),
            QueueClass::kPoint);
  m1.Launch(engine,
            RandomQuery<MinPlusSemiring>(path, 200, 40, 4, {0}),
            QueueClass::kPoint);

  b2.Launch(engine,
            RandomQuery<BooleanSemiring>(star, 300, 16, 5, {}),
            QueueClass::kPoint);
  n2.Launch(engine,
            RandomQuery<NaturalSemiring>(star, 300, 16, 6, {}),
            QueueClass::kPoint);
  c2.Launch(engine,
            RandomQuery<CountingSemiring>(star, 300, 16, 7, {}),
            QueueClass::kPoint);
  m2.Launch(engine,
            RandomQuery<MinPlusSemiring>(star, 300, 16, 8, {}),
            QueueClass::kPoint);

  b3.Launch(engine,
            RandomQuery<BooleanSemiring>(cycle, 400, 24, 9, {}),
            QueueClass::kHeavy);
  n3.Launch(engine,
            RandomQuery<NaturalSemiring>(cycle, 400, 24, 10, {}),
            QueueClass::kHeavy);
  c3.Launch(engine,
            RandomQuery<CountingSemiring>(cycle, 400, 24, 11, {}),
            QueueClass::kHeavy);
  m3.Launch(engine,
            RandomQuery<MinPlusSemiring>(cycle, 400, 24, 12, {}),
            QueueClass::kHeavy);

  // F = {0, 2} on the path: no bag covers it. The answer must match the
  // direct solve and the brute-force oracle.
  auto qf = RandomQuery<NaturalSemiring>(path, 120, 12, 13, {0, 2});
  auto oracle = BruteForceSolve(qf);
  ASSERT_TRUE(oracle.ok());
  Flight<NaturalSemiring> uncovered;
  uncovered.Launch(engine, qf, QueueClass::kPoint);

  b1.Check(); n1.Check(); c1.Check(); m1.Check();
  b2.Check(); n2.Check(); c2.Check(); m2.Check();
  b3.Check(); n3.Check(); c3.Check(); m3.Check();
  uncovered.Check();
  EXPECT_TRUE(oracle->EqualsAsFunction(uncovered.expected));

  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, 13);
  EXPECT_EQ(stats.completed, 13);
  EXPECT_EQ(stats.rejected, 0);
}

// ---------------------------------------------------------------------------
// Cancellation.

TEST(Engine, CancelledQueryReturnsCancelledAndEngineStaysUsable) {
  EngineOptions opts;
  opts.dispatchers = 1;  // one dispatcher: the heavy query occupies it
  opts.heavy_slots = 1;
  Engine engine(opts);

  // Occupy the only dispatcher with a heavy cyclic query...
  auto heavy = RandomQuery<NaturalSemiring>(CycleGraph(3), 800, 48, 21, {});
  QueryRequest heavy_req;
  heavy_req.query = heavy;
  auto heavy_session = engine.Submit(std::move(heavy_req));

  // ...queue a victim behind it and cancel while it waits. Whether the
  // victim is still queued (fast path) or just started (solver checks the
  // token at operator/morsel boundaries), the outcome is kCancelled.
  auto victim = RandomQuery<NaturalSemiring>(PathGraph(2), 200, 40, 22, {0});
  QueryRequest victim_req;
  victim_req.query = victim;
  auto victim_session = engine.Submit(std::move(victim_req));
  victim_session->Cancel();

  auto victim_result = victim_session->Wait();
  ASSERT_FALSE(victim_result.ok());
  EXPECT_EQ(victim_result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(heavy_session->Wait().ok());

  // No leaked scratch / poisoned state: the same engine must keep serving
  // bit-identical answers after a cancellation.
  auto followup = RandomQuery<NaturalSemiring>(PathGraph(2), 200, 40, 22, {0});
  auto again = engine.Solve(followup);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(BytesEqual(DirectSolve(followup), *again));

  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.cancelled, 1);
}

TEST(Engine, SolversReturnCancelledOnPreFiredToken) {
  // The solver-level contract, no engine involved: a context whose token is
  // already set yields kCancelled.
  auto q = RandomQuery<CountingSemiring>(CycleGraph(3), 100, 16, 31, {});
  std::atomic<bool> flag{true};
  ExecContext ctx;
  ctx.cancel = &flag;
  auto b = YannakakisSolve(q, &ctx);
  ASSERT_FALSE(b.ok());
  EXPECT_EQ(b.status().code(), StatusCode::kCancelled);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(Engine, AdmissionRejectsOverBudgetNamingTheBound) {
  EngineOptions opts;
  opts.admission.max_predicted_output_rows = 10;
  Engine engine(opts);

  // Natural join over a path: predicted output far above 10 rows.
  auto big = RandomQuery<BooleanSemiring>(PathGraph(2), 3000, 1u << 20, 41,
                                          {0, 1, 2});
  auto r = engine.Solve(big);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("FD-aware output bound"),
            std::string::npos)
      << r.status().message();

  // Tiny point lookups still get through the same engine.
  auto small = RandomQuery<BooleanSemiring>(PathGraph(2), 50, 8, 42, {0});
  EXPECT_TRUE(engine.Solve(small).ok());
  EXPECT_EQ(engine.stats().rejected, 1);
}

TEST(Engine, AdmissionRejectsDeepJoinTreesByWidth) {
  // y counts internal join-tree nodes: PathGraph(5) decomposes with y = 3,
  // PathGraph(2) with y = 1 (see ghd_test.cc).
  EngineOptions opts;
  opts.admission.max_width = 2;
  Engine engine(opts);

  auto deep = RandomQuery<NaturalSemiring>(PathGraph(5), 50, 8, 51, {});
  auto r = engine.Solve(deep);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(r.status().message().find("internal-node-width"),
            std::string::npos)
      << r.status().message();

  auto shallow = RandomQuery<NaturalSemiring>(PathGraph(2), 50, 8, 52, {});
  EXPECT_TRUE(engine.Solve(shallow).ok());
}

/// The value of counter `name` in Engine::MetricsText() (0 when absent).
int64_t MetricsCounter(const Engine& engine, const std::string& name) {
  const std::string text = engine.MetricsText();
  const std::string key = "counter " + name + " ";
  const size_t at = text.find(key);
  return at == std::string::npos ? 0 : std::stoll(text.substr(at + key.size()));
}

TEST(Engine, SubscribeSharesSubmitAdmissionCounters) {
  // Subscribe admits through the same path as Submit: its plan lookup
  // counts as a plan-cache hit or miss, and a refusal counts as rejected in
  // the metrics registry as well as in EngineStats.
  PlanCache::Shared().Clear();
  EngineOptions opts;
  opts.admission.max_predicted_output_rows = 10;
  Engine engine(opts);
  const auto hits = [&] {
    return MetricsCounter(engine, "engine.plan_cache.hit");
  };
  const auto misses = [&] {
    return MetricsCounter(engine, "engine.plan_cache.miss");
  };
  const auto rejected = [&] {
    return MetricsCounter(engine, "engine.admission.rejected");
  };
  const int64_t hit0 = hits(), miss0 = misses(), rej0 = rejected();

  auto small = RandomQuery<BooleanSemiring>(PathGraph(2), 50, 8, 42, {0});
  for (int i = 0; i < 2; ++i) {
    QueryRequest req;
    req.query = small;
    ASSERT_TRUE(engine.Subscribe(std::move(req)).ok());
  }
  EXPECT_EQ(misses(), miss0 + 1);
  EXPECT_EQ(hits(), hit0 + 1);
  EXPECT_EQ(rejected(), rej0);

  QueryRequest big;
  big.query = RandomQuery<BooleanSemiring>(PathGraph(2), 3000, 1u << 20, 41,
                                           {0, 1, 2});
  auto refused = engine.Subscribe(std::move(big));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rejected(), rej0 + 1);
  EXPECT_EQ(engine.stats().rejected, 1);
  EXPECT_EQ(hits() + misses(), hit0 + miss0 + 3);
}

TEST(Engine, SolveLooksUpItsPlanOnce) {
  // Admission plans a query and execution runs that plan: each Solve makes
  // exactly one PlanCache lookup, and the engine's plan-cache counters
  // count exactly those lookups.
  PlanCache::Shared().Clear();
  Engine engine;
  const auto lookups = [] {
    const PlanCache::Stats s = PlanCache::Shared().stats();
    return s.hits + s.misses;
  };
  const auto counted = [&] {
    return MetricsCounter(engine, "engine.plan_cache.hit") +
           MetricsCounter(engine, "engine.plan_cache.miss");
  };
  const int64_t lookups0 = lookups(), counted0 = counted();
  for (int i = 0; i < 3; ++i) {
    QueryRequest req;
    req.query =
        RandomQuery<NaturalSemiring>(StarGraph(3), 100, 16, 70 + i, {0});
    ASSERT_TRUE(engine.Solve(std::move(req)).ok());
    EXPECT_EQ(lookups(), lookups0 + i + 1);
    EXPECT_EQ(counted() - counted0, lookups() - lookups0);
  }
  EXPECT_EQ(PlanCache::Shared().stats().misses, 1);
}

TEST(Engine, SubscribeLooksUpItsPlanOnce) {
  // Subscribe builds its standing query on the plan admission looked up:
  // each Subscribe makes exactly one PlanCache lookup, and the engine's
  // plan-cache counters count exactly those lookups.
  PlanCache::Shared().Clear();
  Engine engine;
  const auto lookups = [] {
    const PlanCache::Stats s = PlanCache::Shared().stats();
    return s.hits + s.misses;
  };
  const auto counted = [&] {
    return MetricsCounter(engine, "engine.plan_cache.hit") +
           MetricsCounter(engine, "engine.plan_cache.miss");
  };
  const int64_t lookups0 = lookups(), counted0 = counted();
  for (int i = 0; i < 3; ++i) {
    QueryRequest req;
    req.query =
        RandomQuery<NaturalSemiring>(StarGraph(3), 100, 16, 80 + i, {0});
    auto ss = engine.Subscribe(std::move(req));
    ASSERT_TRUE(ss.ok()) << ss.status().ToString();
    EXPECT_EQ(lookups(), lookups0 + i + 1);
    EXPECT_EQ(counted() - counted0, lookups() - lookups0);
  }
  EXPECT_EQ(PlanCache::Shared().stats().misses, 1);
}

TEST(Engine, TwoEnginesKeepTheirOwnModesConcurrently) {
  // Modes are request context: two engines in one process, configured with
  // different encoding and SIMD settings and solving concurrently from two
  // threads, each compute and store every answer as their own options say.
  // The triangle's answer over F = {0, 1} is built by operators (the
  // multiway join, then the elimination of 2), never passed through from an
  // input, so its column encodings are the engine's.
  using S = NaturalSemiring;
  const FaqQuery<S> q = RandomQuery<S>(CycleGraph(3), 400, 24, 31, {0, 1});
  auto oracle = BruteForceSolve(q);
  ASSERT_TRUE(oracle.ok());
  ASSERT_FALSE(oracle->empty());
  struct Config {
    EncodingMode mode;
    bool simd;
    ColumnEncoding want;
  };
  const Config configs[2] = {
      {EncodingMode::kPlain, false, ColumnEncoding::kPlain},
      {EncodingMode::kForceDict, true, ColumnEncoding::kDict}};
  std::vector<std::unique_ptr<Engine>> engines;
  for (const Config& c : configs) {
    EngineOptions opts;
    opts.encoding = c.mode;
    opts.simd = c.simd;
    engines.push_back(std::make_unique<Engine>(opts));
  }
  constexpr int kRounds = 8;
  std::vector<Result<QueryResult>> results[2];
  std::vector<std::thread> threads;
  for (int e = 0; e < 2; ++e)
    threads.emplace_back([&, e] {
      for (int i = 0; i < kRounds; ++i) {
        QueryRequest req;
        req.query = q;
        results[e].push_back(engines[static_cast<size_t>(e)]->Solve(
            std::move(req)));
      }
    });
  for (std::thread& t : threads) t.join();
  for (int e = 0; e < 2; ++e) {
    SCOPED_TRACE("engine " + std::to_string(e));
    ASSERT_EQ(results[e].size(), static_cast<size_t>(kRounds));
    for (const Result<QueryResult>& r : results[e]) {
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const Relation<S>& ans = r->answer_as<S>();
      EXPECT_TRUE(ans.EqualsAsFunction(*oracle));
      for (size_t j = 0; j < ans.arity(); ++j)
        EXPECT_EQ(ans.col_encoding(j), configs[e].want) << "column " << j;
      if (!configs[e].simd) {
        EXPECT_EQ(r->kernel.simd_blocks, 0);
      } else if (simd::Available(true)) {
        EXPECT_GT(r->kernel.simd_blocks, 0);
      }
    }
  }
}

TEST(Admission, CyclicityIsThePlansGyoVerdict) {
  // Assess reads `cyclic` off the plan's own GYO reduction instead of
  // running a second one: over random and named shapes, with and without
  // free variables, it must agree with a fresh IsAcyclic.
  std::vector<Hypergraph> shapes = {PaperH0(), PaperH1(), PaperH2(),
                                    PaperH3()};
  for (int n = 3; n <= 7; ++n) {
    shapes.push_back(CycleGraph(n));
    shapes.push_back(CliqueGraph(n));
    shapes.push_back(StarGraph(n));
    shapes.push_back(PathGraph(n));
  }
  Rng rng(815);
  for (int i = 0; i < 60; ++i) {
    shapes.push_back(RandomHypergraph(4 + i % 6, 1 + i % 3, 2 + i % 3, &rng));
    shapes.push_back(RandomDDegenerate(4 + i % 5, 1 + i % 3, &rng));
    shapes.push_back(RandomAcyclicHypergraph(2 + i % 5, 3, &rng));
    shapes.push_back(RandomForest(2, 2 + i % 4, &rng));
  }
  const AdmissionController admission{AdmissionOptions{}};
  int cyclic = 0, acyclic = 0;
  for (const Hypergraph& h : shapes) {
    ASSERT_GT(h.num_edges(), 0);
    const std::vector<VarId> last = h.edge(h.num_edges() - 1);
    for (const std::vector<VarId>& f :
         {std::vector<VarId>{}, std::vector<VarId>{h.edge(0).front()},
          std::vector<VarId>{last.back()}}) {
      const WidthResult w = PlanCache::Shared().PlanFor(h, f).value();
      const std::vector<RelationProfile> profiles(
          static_cast<size_t>(h.num_edges()));
      const QueryBounds b = admission.Assess(h, profiles, f.size(), 2, w);
      EXPECT_EQ(b.cyclic, !IsAcyclic(h));
      (b.cyclic ? cyclic : acyclic) += 1;
    }
  }
  EXPECT_GT(cyclic, 0);
  EXPECT_GT(acyclic, 0);
}

TEST(Engine, ProfileRelationMeasuresLeadingRuns) {
  Relation<NaturalSemiring> r{Schema(std::vector<VarId>{0, 1})};
  for (Value k : {0, 0, 0, 1, 2, 2})
    r.Add({k, static_cast<Value>(r.size())}, 1);
  r.Canonicalize();
  const RelationProfile p = ProfileRelation(r);
  EXPECT_EQ(p.rows, 6u);
  EXPECT_EQ(p.max_leading_run, 3u);
}

TEST(Engine, ProfileAndMaxValueReadCodesLikeAPerRowScan) {
  // The profile and the domain bound read codes (block-unpacked, last row
  // of a sorted leading FOR column); both must equal a per-row scan of the
  // decoded values under every column encoding.
  for (EncodingMode m : {EncodingMode::kPlain, EncodingMode::kForceDict,
                         EncodingMode::kForceFor, EncodingMode::kAuto}) {
    for (int skew : {0, 3}) {
      const auto r = RandomRelation<NaturalSemiring>(
          {0, 1, 2}, 9000, 5000, 40 + static_cast<uint64_t>(skew), skew);
      const auto enc = Recode(r, m);
      SCOPED_TRACE("mode " + std::to_string(static_cast<int>(m)) + " skew " +
                   std::to_string(skew));
      if (m == EncodingMode::kForceFor)
        ASSERT_EQ(enc.col_encoding(0), ColumnEncoding::kFor);
      if (m == EncodingMode::kForceDict)
        ASSERT_EQ(enc.col_encoding(1), ColumnEncoding::kDict);
      uint64_t run = 0, longest = 1, top = 1;
      for (size_t i = 0; i < enc.size(); ++i) {
        run = i > 0 && enc.at(i, 0) == enc.at(i - 1, 0) ? run + 1 : 1;
        longest = std::max(longest, run);
        for (size_t j = 0; j < enc.arity(); ++j)
          top = std::max(top, enc.at(i, j) + 1);
      }
      const RelationProfile p = ProfileRelation(enc);
      EXPECT_EQ(p.rows, enc.size());
      EXPECT_EQ(p.max_leading_run, longest);
      EXPECT_EQ(enc.MaxValuePlusOne(), top);
    }
  }
}

// ---------------------------------------------------------------------------
// Parser round-trip and instantiation.

TEST(Parse, RoundTripsThroughFormat) {
  const char* text = "q(A, C) :- R(A, B), S(B, C), T(C); min(B)";
  auto p1 = ParseQuery(text);
  ASSERT_TRUE(p1.ok()) << p1.status().ToString();
  const std::string printed = FormatQuery(*p1);
  auto p2 = ParseQuery(printed);
  ASSERT_TRUE(p2.ok()) << p2.status().ToString();
  EXPECT_EQ(FormatQuery(*p2), printed);
  EXPECT_EQ(p1->head, p2->head);
  EXPECT_EQ(p1->var_names, p2->var_names);
  EXPECT_EQ(p1->free_vars, p2->free_vars);
  EXPECT_EQ(p1->var_ops, p2->var_ops);
  ASSERT_EQ(p1->atoms.size(), p2->atoms.size());
  for (size_t i = 0; i < p1->atoms.size(); ++i) {
    EXPECT_EQ(p1->atoms[i].name, p2->atoms[i].name);
    EXPECT_EQ(p1->atoms[i].vars, p2->atoms[i].vars);
  }
  // Shape checks: vars are interned in first-appearance order A,C,B.
  EXPECT_EQ(p1->var_names, (std::vector<std::string>{"A", "C", "B"}));
  EXPECT_EQ(p1->free_vars, (std::vector<VarId>{0, 1}));
  EXPECT_EQ(p1->var_ops[2], VarOp::kMin);
}

TEST(Parse, RejectsMalformedQueries) {
  EXPECT_FALSE(ParseQuery("q(A)").ok());                       // no body
  EXPECT_FALSE(ParseQuery("q(A) :- ").ok());                   // empty body
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, A)").ok());            // repeated var
  EXPECT_FALSE(ParseQuery("q(A, A) :- R(A)").ok());            // repeated head
  EXPECT_FALSE(ParseQuery("q(A) :- R(B)").ok());               // A not in body
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, B); avg(B)").ok());    // unknown agg
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, B); min(Z)").ok());    // unknown var
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, B); min(A)").ok());    // agg on free
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, B); min(B), max(B)").ok());  // dup agg
  EXPECT_FALSE(ParseQuery("q(A) :- R(A, B) garbage").ok());    // trailing
}

TEST(Parse, InstantiatedQueryMatchesHandBuiltQuery) {
  // S is written S(C, B) — reversed relative to VarId order — so this also
  // exercises the positional column reordering.
  auto parsed = ParseQuery("q(A) :- R(A, B), S(C, B)");
  ASSERT_TRUE(parsed.ok());

  Rng rng(77);
  std::vector<std::vector<Value>> r_rows, s_rows;
  for (int i = 0; i < 150; ++i) {
    r_rows.push_back({rng.NextU64(20), rng.NextU64(20)});
    s_rows.push_back({rng.NextU64(20), rng.NextU64(20)});
  }

  // Text path: columns in written-atom order (S's first column is C).
  Relation<NaturalSemiring> r_txt{Schema(std::vector<VarId>{0, 1})};
  for (auto& row : r_rows) r_txt.Add({row[0], row[1]}, 1);
  Relation<NaturalSemiring> s_txt{Schema(std::vector<VarId>{0, 1})};
  for (auto& row : s_rows) s_txt.Add({row[0], row[1]}, 1);
  auto q_txt = InstantiateQuery<NaturalSemiring>(
      *parsed, {std::move(r_txt), std::move(s_txt)});
  ASSERT_TRUE(q_txt.ok()) << q_txt.status().ToString();

  // Hand-built path: A=0, B=1, C=2; S's schema is sorted {B=1, C=2}.
  Hypergraph h(3, {{0, 1}, {1, 2}});
  Relation<NaturalSemiring> r_hand{Schema(std::vector<VarId>{0, 1})};
  for (auto& row : r_rows) r_hand.Add({row[0], row[1]}, 1);
  Relation<NaturalSemiring> s_hand{Schema(std::vector<VarId>{1, 2})};
  for (auto& row : s_rows) s_hand.Add({row[1], row[0]}, 1);  // B, C
  r_hand.Canonicalize();
  s_hand.Canonicalize();
  auto q_hand = MakeFaqSS<NaturalSemiring>(
      h, {std::move(r_hand), std::move(s_hand)}, {0});

  Engine engine;
  auto a_txt = engine.Solve(*std::move(q_txt));
  auto a_hand = engine.Solve(std::move(q_hand));
  ASSERT_TRUE(a_txt.ok());
  ASSERT_TRUE(a_hand.ok());
  EXPECT_TRUE(BytesEqual(*a_txt, *a_hand));
}

// ---------------------------------------------------------------------------
// Plan cache.

TEST(Engine, PlanCacheHitsOnRepeatedShapes) {
  PlanCache::Shared().Clear();
  Engine engine;

  // Same shape, different data: first query misses, the rest hit.
  auto q1 = RandomQuery<NaturalSemiring>(StarGraph(3), 100, 16, 61, {});
  auto q2 = RandomQuery<NaturalSemiring>(StarGraph(3), 100, 16, 62, {});
  QueryRequest req1;
  req1.query = q1;
  auto r1 = engine.Solve(std::move(req1));
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1->plan_cache_hit);

  QueryRequest req2;
  req2.query = q2;
  auto r2 = engine.Solve(std::move(req2));
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2->plan_cache_hit);

  const PlanCache::Stats stats = PlanCache::Shared().stats();
  EXPECT_GE(stats.hits, 1);
  EXPECT_GE(stats.misses, 1);
  EXPECT_GT(stats.HitRate(), 0.0);

  // Direct solver calls share the same cache: a third solve of the shape
  // adds hits without misses.
  const int64_t misses_before = stats.misses;
  ExecContext ctx;
  ASSERT_TRUE(YannakakisSolve(q1, &ctx).ok());
  EXPECT_EQ(PlanCache::Shared().stats().misses, misses_before);
  EXPECT_GT(PlanCache::Shared().stats().hits, stats.hits);
}

TEST(PlanCache, FingerprintSeparatesShapes) {
  const Hypergraph a(3, {{0, 1}, {1, 2}});
  const Hypergraph b(3, {{1, 2}, {0, 1}});  // same edge set, other order
  EXPECT_NE(PlanCache::Fingerprint(a, {}, 4, 1),
            PlanCache::Fingerprint(b, {}, 4, 1));
  EXPECT_NE(PlanCache::Fingerprint(a, {0}, 4, 1),
            PlanCache::Fingerprint(a, {1}, 4, 1));
  EXPECT_EQ(PlanCache::Fingerprint(a, {}, 4, 1),
            PlanCache::Fingerprint(a, {}, 4, 1));
}

TEST(PlanCache, EvictsLeastRecentlyUsed) {
  PlanCache cache(/*capacity=*/2);
  const Hypergraph h1(2, {{0, 1}});
  const Hypergraph h2(3, {{0, 1}, {1, 2}});
  const Hypergraph h3(4, {{0, 1}, {1, 2}, {2, 3}});
  cache.Canonical(h1);
  cache.Canonical(h2);
  cache.Canonical(h3);  // evicts h1
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1);
  bool hit = false;
  cache.Canonical(h1, &hit);  // re-miss after eviction
  EXPECT_FALSE(hit);
  cache.Canonical(h3, &hit);
  EXPECT_TRUE(hit);
}

// ---------------------------------------------------------------------------
// Options.

TEST(EngineOptions, FromEnvParsesPageBudget) {
  setenv("TOPOFAQ_PAGE_BUDGET", "3", 1);
  EXPECT_EQ(EngineOptions::FromEnv().page_budget, 3);
  setenv("TOPOFAQ_PAGE_BUDGET", "0", 1);  // invalid: keep the default
  EXPECT_EQ(EngineOptions::FromEnv().page_budget, 8);
  unsetenv("TOPOFAQ_PAGE_BUDGET");
  EXPECT_EQ(EngineOptions::FromEnv().page_budget, 8);
}

}  // namespace
}  // namespace topofaq
