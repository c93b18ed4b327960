// The serving inputs and client: point-class lookups over a Zipf-skewed
// pool of random acyclic query shapes, beside forward/inverse delta pairs
// against two standing subscriptions and interleaved Current() reads.
//
// Everything a seed does not pick is fixed here: the pool size, the size
// and edge-count strata, the Zipf exponent, and the op mix.
#ifndef TOPOFAQ_PERFBENCH_SERVE_H_
#define TOPOFAQ_PERFBENCH_SERVE_H_

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "faq/parse.h"
#include "faq/solvers.h"
#include "hypergraph/generators.h"
#include "harness.h"
#include "ivm/delta.h"
#include "probe.h"

namespace perfbench {

/// Fixed shape of the serving inputs.
struct ServeSpec {
  static constexpr size_t kShapes = 256;  ///< > PlanCache's 128 entries
  static constexpr double kZipf = 0.75;
  static constexpr size_t kMinRows = 256;
  static constexpr double kRowSpread = 64.0;  ///< rows in [256, 16384)
  static constexpr int kMinEdges = 4;         ///< edges in [4, 8]
  static constexpr int kMaxArity = 3;
  static constexpr double kTextShare = 0.25;  ///< lookups arriving as text
  // Op draw: lookup 6/8, delta pair 1/8 (ring:recompute 1:1), Current() 1/8.
  static constexpr double kLookupShare = 0.75;
  static constexpr double kPairShare = 0.125;
  static constexpr size_t kSubscriptionRows = 2000;
  static constexpr size_t kPairsPerRelation = 16;
  static constexpr size_t kDeltaRows = 4;  ///< removes and adds per delta
};

/// One pooled lookup shape: canonical query text, the instantiated query
/// (the struct path), and its oracle answer.
struct LookupShape {
  std::string text;
  AnyQuery query;
  AnyRelation oracle;
};

template <CommutativeSemiring S>
struct DeltaPair {
  int relation = 0;
  Delta<S> fwd;
  Delta<S> inv;
  Relation<S> after_fwd;  ///< the answer after `fwd` alone (oracle)
};

/// One standing subscription with its delta pairs. Every pair removes live
/// rows and adds rows that were not live, and its inverse undoes exactly
/// that, so the subscription's answer returns to `answer0`'s bytes after
/// every pair.
template <CommutativeSemiring S>
struct Subscription {
  std::shared_ptr<StandingSession> session;
  FaqQuery<S> base;
  Relation<S> answer0;
  std::vector<DeltaPair<S>> pairs;
};

struct ServeWorld {
  std::vector<LookupShape> shapes;
  Zipf zipf{ServeSpec::kShapes, ServeSpec::kZipf};
  Subscription<NaturalSemiring> ring;       ///< ring propagation path
  Subscription<MinPlusSemiring> recompute;  ///< affected-subtree recompute
  double canonicalize_ms = 0;
  size_t resident_key_bytes = 0;
};

/// Random relation over `vars` with `n` draws per value from [0, dom)
/// (duplicates merge, so about `n` rows; exactly `n` distinct rows with
/// `exact`, which needs dom^arity well above n). Annotations come from
/// `annot(rng)`; canonicalization time goes to *canon_ms.
template <CommutativeSemiring S, typename Annot>
Relation<S> RandomRelation(const std::vector<VarId>& vars, size_t n,
                           uint64_t dom, Rng* rng, Annot annot,
                           double* canon_ms, bool exact = false) {
  std::vector<Value> row(vars.size());
  Relation<S> r{Schema(vars)};
  for (size_t want = n; want > 0;) {
    for (size_t i = 0; i < want; ++i) {
      for (Value& v : row) v = rng->NextU64(dom);
      r.Add(row, annot(rng));
    }
    const auto t0 = Clock::now();
    r.Canonicalize();
    *canon_ms += MsSince(t0);
    want = exact ? n - r.size() : 0;
  }
  return r;
}

/// Oracle answer by a direct solver call on a private plan cache.
template <CommutativeSemiring S>
Relation<S> DirectSolve(const FaqQuery<S>& q, PlanCache* plans,
                        int parallelism) {
  auto w = plans->PlanFor(q.hypergraph, q.free_vars);
  TOPOFAQ_CHECK_MSG(w.ok(), w.status().ToString().c_str());
  ExecContext ctx;
  ctx.parallelism = parallelism;
  auto ans = YannakakisSolveOn(q, w->decomposition, &ctx);
  TOPOFAQ_CHECK_MSG(ans.ok(), ans.status().ToString().c_str());
  return *std::move(ans);
}

namespace serve_detail {

/// Canonical text for h with optional free vertex `free_v`: variables are
/// renamed by first appearance and every atom lists them in ascending
/// order, so parsing the text reproduces the hypergraph the relations are
/// built for, column for column.
inline ParsedQuery CanonicalParse(const Hypergraph& h, int free_v,
                                  std::string* text) {
  std::string t = "q(";
  if (free_v >= 0) t += "x" + std::to_string(free_v);
  t += ") :- ";
  for (int e = 0; e < h.num_edges(); ++e) {
    t += (e == 0 ? "R" : ", R") + std::to_string(e) + "(";
    for (size_t j = 0; j < h.edge(e).size(); ++j)
      t += (j == 0 ? "x" : ", x") + std::to_string(h.edge(e)[j]);
    t += ")";
  }
  auto p = ParseQuery(t);
  TOPOFAQ_CHECK_MSG(p.ok(), p.status().ToString().c_str());
  ParsedQuery sorted = *std::move(p);
  for (auto& atom : sorted.atoms) std::sort(atom.vars.begin(), atom.vars.end());
  *text = FormatQuery(sorted);
  auto again = ParseQuery(*text);
  TOPOFAQ_CHECK_MSG(again.ok(), again.status().ToString().c_str());
  for (size_t i = 0; i < sorted.atoms.size(); ++i)
    TOPOFAQ_CHECK_MSG(again->atoms[i].vars == sorted.atoms[i].vars,
                      "canonical query text does not round-trip");
  return *std::move(again);
}

/// Delta pairs over every relation of `sub.base`. A forward delta removes
/// live rows and adds rows drawn from the live domain that are not live yet,
/// annotated One, so both halves join; its answer is precomputed into
/// `after_fwd` and must differ from `answer0` (a draw that leaves the answer
/// unchanged is redrawn).
template <CommutativeSemiring S>
std::vector<DeltaPair<S>> MakePairs(const Subscription<S>& sub, uint64_t dom,
                                    Rng* rng, PlanCache* plans) {
  std::vector<DeltaPair<S>> pairs;
  const FaqQuery<S>& q = sub.base;
  for (int e = 0; e < q.hypergraph.num_edges(); ++e) {
    const Relation<S>& base = q.relations[e];
    std::set<std::vector<Value>> live;
    std::vector<Value> row(base.arity());
    for (size_t i = 0; i < base.size(); ++i) {
      for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
      live.insert(row);
    }
    for (size_t k = 0; k < ServeSpec::kPairsPerRelation; ++k) {
      DeltaPair<S> p;
      for (int draw = 0;; ++draw) {
        TOPOFAQ_CHECK_MSG(draw < 16, "no delta draw changes the answer");
        p.relation = e;
        p.fwd.removes = p.fwd.adds = p.inv.removes = p.inv.adds =
            Relation<S>(base.schema());
        for (uint64_t i : rng->Sample(base.size(), ServeSpec::kDeltaRows)) {
          for (size_t j = 0; j < row.size(); ++j) row[j] = base.at(i, j);
          p.fwd.removes.Add(std::span<const Value>(row), S::One());
          p.inv.adds.Add(std::span<const Value>(row), base.annot(i));
        }
        std::set<std::vector<Value>> added;
        while (added.size() < ServeSpec::kDeltaRows) {
          for (Value& v : row) v = rng->NextU64(dom);
          if (live.count(row) != 0 || !added.insert(row).second) continue;
          p.fwd.adds.Add(std::span<const Value>(row), S::One());
          p.inv.removes.Add(std::span<const Value>(row), S::One());
        }
        for (Relation<S>* r :
             {&p.fwd.removes, &p.fwd.adds, &p.inv.removes, &p.inv.adds})
          r->Canonicalize();
        FaqQuery<S> after = q;
        const Status st = ApplyDeltaToQuery(&after, e, p.fwd);
        TOPOFAQ_CHECK_MSG(st.ok(), st.ToString().c_str());
        p.after_fwd = DirectSolve(after, plans, 1);
        if (!SameBytes(p.after_fwd, sub.answer0)) break;
      }
      pairs.push_back(std::move(p));
    }
  }
  return pairs;
}

template <CommutativeSemiring S, typename Annot>
Subscription<S> Subscribe(Engine& engine, uint64_t seed, Annot annot,
                          PlanCache* plans, double* canon_ms) {
  Rng rng(seed);
  const Hypergraph h = PathGraph(4);
  const size_t n = ServeSpec::kSubscriptionRows;
  const uint64_t dom = 2 * static_cast<uint64_t>(std::sqrt(double(n)));
  std::vector<Relation<S>> rels;
  for (int e = 0; e < h.num_edges(); ++e)
    rels.push_back(RandomRelation<S>(h.edge(e), n, dom, &rng, annot, canon_ms));
  Subscription<S> sub;
  sub.base = MakeFaqSS<S>(h, std::move(rels), {0});
  QueryRequest req;
  req.query = sub.base;
  req.tag = "subscription";
  auto ss = engine.Subscribe(std::move(req));
  TOPOFAQ_CHECK_MSG(ss.ok(), ss.status().ToString().c_str());
  sub.session = *std::move(ss);
  sub.answer0 = sub.session->template Current<S>();
  TOPOFAQ_CHECK_MSG(SameBytes(sub.answer0, DirectSolve(sub.base, plans, 1)),
                    "subscription answer differs from a direct solve");
  sub.pairs = MakePairs(sub, dom, &rng, plans);
  return sub;
}

}  // namespace serve_detail

/// Builds the serving inputs for `seed`. The pool is fixed: shape ranks
/// carry fixed strata (row count log-uniform by a low-discrepancy sequence,
/// edge count by rank mod 5, BCQ or marginal by rank parity), and the
/// hypergraphs and free variables come from a fixed generator seed, so a
/// run's cost does not hinge on which shapes one seed happened to draw. The
/// workload seed draws the data.
inline std::unique_ptr<ServeWorld> BuildServe(Engine& engine, uint64_t seed) {
  auto w = std::make_unique<ServeWorld>();
  Rng rng(seed ^ 0x5e4e5e4eull);
  Rng shape_rng(0x5ea7e5);
  PlanCache plans(ServeSpec::kShapes * 2);
  w->shapes.reserve(ServeSpec::kShapes);
  for (size_t rank = 0; rank < ServeSpec::kShapes; ++rank) {
    const double frac = std::fmod(0.6180339887 * static_cast<double>(rank + 1), 1.0);
    const size_t n = static_cast<size_t>(
        static_cast<double>(ServeSpec::kMinRows) * std::pow(ServeSpec::kRowSpread, frac));
    const int edges = ServeSpec::kMinEdges + static_cast<int>(rank % 5);
    const bool marginal = rank % 2 == 1;
    const Hypergraph h0 =
        RandomAcyclicHypergraph(edges, ServeSpec::kMaxArity, &shape_rng);
    const std::vector<VarId> used = h0.UsedVertices();
    const int free_v =
        marginal ? static_cast<int>(used[shape_rng.NextU64(used.size())]) : -1;
    LookupShape shape;
    const ParsedQuery p = serve_detail::CanonicalParse(h0, free_v, &shape.text);
    const Hypergraph h = p.ToHypergraph();
    const uint64_t dom =
        std::max<uint64_t>(16, 2 * static_cast<uint64_t>(std::sqrt(double(n))));
    auto build = [&](auto tag, auto annot) {
      using S = decltype(tag);
      std::vector<Relation<S>> rels;
      for (int e = 0; e < h.num_edges(); ++e)
        rels.push_back(RandomRelation<S>(h.edge(e), n, dom, &rng, annot,
                                         &w->canonicalize_ms));
      FaqQuery<S> q = MakeFaqSS<S>(h, std::move(rels), p.free_vars);
      for (const auto& r : q.relations) w->resident_key_bytes += r.ResidentKeyBytes();
      shape.oracle = DirectSolve(q, &plans, 1);
      shape.query = std::move(q);
    };
    if (marginal)
      build(NaturalSemiring{}, [](Rng* r) { return r->NextU64(7) + 1; });
    else
      build(BooleanSemiring{}, [](Rng*) { return BooleanSemiring::One(); });
    w->shapes.push_back(std::move(shape));
  }
  w->ring = serve_detail::Subscribe<NaturalSemiring>(
      engine, seed ^ 0x41ull, [](Rng* r) { return r->NextU64(1000) + 1; },
      &plans, &w->canonicalize_ms);
  w->recompute = serve_detail::Subscribe<MinPlusSemiring>(
      engine, seed ^ 0x42ull,
      [](Rng* r) { return static_cast<double>(r->NextU64(100) + 1); }, &plans,
      &w->canonicalize_ms);
  TOPOFAQ_CHECK_MSG(w->ring.session->ring_mode() &&
                        !w->recompute.session->ring_mode(),
                    "subscriptions did not take the ring / recompute paths");
  for (const auto& r : w->ring.base.relations)
    w->resident_key_bytes += r.ResidentKeyBytes();
  for (const auto& r : w->recompute.base.relations)
    w->resident_key_bytes += r.ResidentKeyBytes();
  return w;
}

/// What one serving client measured.
struct ServeResults {
  OpLedger ledger;
  int64_t ops = 0;
  double busy_ms = 0;   ///< wall time spent in ops (probe time excluded)
  double probe_ms = 0;  ///< outside-in probe time (traced windows only)
  Samples lookup_ms;
  Strata ring_ms;
  Strata recompute_ms;
  Samples current_us;
  Samples overhead_us;  ///< Engine::Solve minus direct plan + solve
  std::vector<EngineCall> calls;
  int64_t lookups_by_class[3] = {0, 0, 0};
};

/// One closed-loop serving client: each op is issued after the previous
/// one completes. `keep_going(ops_done)` is consulted before every op.
class ServeClient {
 public:
  ServeClient(Engine& engine, ServeWorld& world, uint64_t seed,
              LayerProbe* probe)
      : engine_(engine), world_(world), rng_(seed), probe_(probe) {
    if (probe_ != nullptr) track_ = probe_->Track("serve client");
  }

  template <typename KeepGoing>
  ServeResults Run(KeepGoing&& keep_going) {
    ServeResults out;
    const auto t0 = Clock::now();
    while (keep_going(out.ops)) {
      const double u = rng_.NextDouble();
      if (u < ServeSpec::kLookupShare) {
        Lookup(&out);
      } else if (u < ServeSpec::kLookupShare + ServeSpec::kPairShare) {
        if (rng_.NextBool())
          Pair(world_.ring, &out.ring_ms, &out);
        else
          Pair(world_.recompute, &out.recompute_ms, &out);
      } else {
        if (rng_.NextBool())
          Current(world_.ring, &out);
        else
          Current(world_.recompute, &out);
      }
    }
    out.busy_ms = MsSince(t0) - out.probe_ms;
    return out;
  }

 private:
  void Lookup(ServeResults* out) {
    const LookupShape& shape = world_.shapes[world_.zipf.Draw(&rng_)];
    const bool as_text = rng_.NextDouble() < ServeSpec::kTextShare;
    const bool sampled = ++lookups_ % LayerProbe::kSampleEvery == 0;
    // The caller owns its inputs before it submits: the copy of the shape's
    // relations (the struct request, or the relation list InstantiateQuery
    // takes) is made before the timer starts.
    QueryRequest req;
    req.tag = "lookup";
    AnyQuery rels;
    (as_text ? rels : req.query) = shape.query;
    const auto t0 = Clock::now();
    bool built = true;
    if (as_text) {
      obs::Span sp(probe_ != nullptr ? probe_->session() : nullptr,
                   "faq.parse", track_);
      auto p = ParseQuery(shape.text);
      built = p.ok();
      if (built)
        std::visit(
            [&](auto& q) {
              using S = typename std::decay_t<decltype(q)>::Semiring;
              auto inst = InstantiateQuery<S>(*p, std::move(q.relations));
              built = inst.ok();
              if (built) req.query = *std::move(inst);
            },
            rels);
    }
    if (!built) {
      out->ledger.Count(false);
      ++out->ops;
      return;
    }
    const auto t_solve = Clock::now();
    Result<QueryResult> r = engine_.Solve(std::move(req));
    const double solve_ms = MsSince(t_solve);
    const double ms = MsSince(t0);
    const bool ok = r.ok() && SameBytes(r->answer, shape.oracle);
    out->ledger.Count(ok);
    ++out->ops;
    out->lookup_ms.Add(ms);
    if (r.ok()) {
      ++out->lookups_by_class[static_cast<int>(r->klass)];
      Record(EngineCall::kLookup, solve_ms, *r, out);
    }
    if (probe_ != nullptr && probe_->on()) {
      std::visit(
          [&](const auto& q) {
            const double direct =
                probe_->Probe(q, sampled, 1, track_, &out->probe_ms);
            if (sampled) out->overhead_us.Add((solve_ms - direct) * 1e3);
          },
          shape.query);
    }
  }

  template <CommutativeSemiring S>
  void Pair(Subscription<S>& sub, Strata* strata, ServeResults* out) {
    const DeltaPair<S>& p = sub.pairs[rng_.NextU64(sub.pairs.size())];
    const std::string rel = "r" + std::to_string(p.relation);
    bool ok = true;
    for (const Delta<S>* d : {&p.fwd, &p.inv}) {
      const auto t0 = Clock::now();
      Result<QueryResult> r = sub.session->ApplyDelta(p.relation, *d);
      const double ms = MsSince(t0);
      strata->Add(rel + (d == &p.fwd ? "+" : "-"), ms);
      if (r.ok()) Record(EngineCall::kDelta, ms, *r, out);
      // The forward delta must reach its precomputed answer, and the pair
      // must restore the subscription's exact answer bytes.
      ok = ok && r.ok() &&
           SameBytes(sub.session->template Current<S>(),
                     d == &p.fwd ? p.after_fwd : sub.answer0);
      out->ledger.Count(ok);
      ++out->ops;
    }
  }

  template <CommutativeSemiring S>
  void Current(Subscription<S>& sub, ServeResults* out) {
    const auto t0 = Clock::now();
    Relation<S> cur = [&] {
      obs::Span sp(probe_ != nullptr ? probe_->session() : nullptr,
                   "ivm.current", track_);
      return sub.session->template Current<S>();
    }();
    out->current_us.Add(MsSince(t0) * 1e3);
    out->ledger.Count(SameBytes(cur, sub.answer0));
    ++out->ops;
  }

  void Record(EngineCall::Kind kind, double ms, const QueryResult& r,
              ServeResults* out) {
    if (probe_ == nullptr || !probe_->on()) return;
    out->calls.push_back({kind, ms, r.queue_ms, r.exec_ms, r.klass, r.kernel});
  }

  Engine& engine_;
  ServeWorld& world_;
  Rng rng_;
  LayerProbe* probe_;
  uint32_t track_ = 0;
  int64_t lookups_ = 0;
};

/// Warm-up pass over every delta pair of both subscriptions, in order, each
/// half checked against its oracle answer.
inline void WarmPairs(ServeWorld& w, OpLedger* ledger) {
  auto run = [ledger](auto& sub) {
    using S = typename std::decay_t<decltype(sub.base)>::Semiring;
    for (const DeltaPair<S>& p : sub.pairs) {
      ledger->Count(sub.session->ApplyDelta(p.relation, p.fwd).ok() &&
                    SameBytes(sub.session->template Current<S>(), p.after_fwd));
      ledger->Count(sub.session->ApplyDelta(p.relation, p.inv).ok() &&
                    SameBytes(sub.session->template Current<S>(), sub.answer0));
    }
  };
  run(w.ring);
  run(w.recompute);
}

/// Final state check: each subscription's Current() against a fresh direct
/// solve of its (restored) base.
inline void CheckSubscriptions(ServeWorld& w, OpLedger* ledger) {
  PlanCache plans(8);
  ledger->Count(SameBytes(w.ring.session->Current<NaturalSemiring>(),
                          DirectSolve(w.ring.base, &plans, 1)));
  ledger->Count(SameBytes(w.recompute.session->Current<MinPlusSemiring>(),
                          DirectSolve(w.recompute.base, &plans, 1)));
}

}  // namespace perfbench

#endif  // TOPOFAQ_PERFBENCH_SERVE_H_
