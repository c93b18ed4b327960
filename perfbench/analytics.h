// The analytic inputs and client: general- and heavy-class queries over
// relations larger than L2, acyclic (Natural path-4 marginal, MinPlus star
// marginal) and cyclic (triangle, Zipf-skewed triangle, small 4-cycle).
#ifndef TOPOFAQ_PERFBENCH_ANALYTICS_H_
#define TOPOFAQ_PERFBENCH_ANALYTICS_H_

#include <memory>
#include <string>
#include <vector>

#include "hypergraph/generators.h"
#include "serve.h"

namespace perfbench {

struct AnalyticQuery {
  const char* name;
  bool cyclic;
  AnyQuery query;
  AnyRelation oracle;
};

struct AnalyticWorld {
  std::vector<AnalyticQuery> queries;
  double canonicalize_ms = 0;
  size_t resident_key_bytes = 0;
};

/// Fixed query set; the seed draws the data only.
inline std::unique_ptr<AnalyticWorld> BuildAnalytics(uint64_t seed) {
  auto w = std::make_unique<AnalyticWorld>();
  Rng rng(seed ^ 0xa4a1ull);
  PlanCache plans(16);
  auto natural = [](Rng* r) { return r->NextU64(7) + 1; };
  auto add = [&](const char* name, bool cyclic, auto q) {
    for (const auto& r : q.relations)
      w->resident_key_bytes += r.ResidentKeyBytes();
    AnalyticQuery a{name, cyclic, {}, {}};
    a.oracle = DirectSolve(q, &plans, kDirectParallelism);
    a.query = std::move(q);
    w->queries.push_back(std::move(a));
  };
  auto uniform = [&](auto tag, const Hypergraph& h, size_t n, uint64_t dom,
                     auto annot) {
    using S = decltype(tag);
    std::vector<Relation<S>> rels;
    for (int e = 0; e < h.num_edges(); ++e)
      rels.push_back(RandomRelation<S>(h.edge(e), n, dom, &rng, annot,
                                       &w->canonicalize_ms));
    return rels;
  };
  {
    const Hypergraph h = PathGraph(4);
    add("path4_natural", false,
        MakeFaqSS<NaturalSemiring>(
            h, uniform(NaturalSemiring{}, h, 60000, 12000, natural), {0}));
  }
  {
    const Hypergraph h = StarGraph(3);
    add("star3_minplus", false,
        MakeFaqSS<MinPlusSemiring>(
            h,
            uniform(MinPlusSemiring{}, h, 60000, 12000,
                    [](Rng* r) { return static_cast<double>(r->NextU64(100)); }),
            {1}));
  }
  {
    const Hypergraph h = CycleGraph(3);
    add("triangle", true,
        MakeFaqSS<NaturalSemiring>(
            h, uniform(NaturalSemiring{}, h, 30000, 3000, natural), {}));
  }
  {
    // Zipf-skewed endpoints over 256 values: heavy hitters, and a leading
    // column the auto encoding policy stores dictionary-encoded.
    const Hypergraph h = CycleGraph(3);
    const Zipf skew(256, 1.1);
    std::vector<Relation<NaturalSemiring>> rels;
    for (int e = 0; e < h.num_edges(); ++e) {
      Relation<NaturalSemiring> r{Schema(h.edge(e))};
      std::vector<Value> row(2);
      for (size_t i = 0; i < 16000; ++i) {
        row[0] = skew.Draw(&rng) * 1021 % 65536;
        row[1] = skew.Draw(&rng) * 1021 % 65536;
        r.Add(row, natural(&rng));
      }
      const auto t0 = Clock::now();
      r.Canonicalize();
      w->canonicalize_ms += MsSince(t0);
      TOPOFAQ_CHECK_MSG(r.col_encoding(0) == ColumnEncoding::kDict,
                        "skewed triangle input is not dictionary-encoded");
      rels.push_back(std::move(r));
    }
    add("triangle_skew", true,
        MakeFaqSS<NaturalSemiring>(h, std::move(rels), {}));
  }
  {
    const Hypergraph h = CycleGraph(4);
    add("cycle4", true,
        MakeFaqSS<NaturalSemiring>(
            h, uniform(NaturalSemiring{}, h, 15000, 3750, natural), {}));
  }
  return w;
}

struct AnalyticResults {
  OpLedger ledger;
  int64_t ops = 0;
  double busy_ms = 0;
  double probe_ms = 0;
  Strata acyclic_ms;  ///< stratum = query name
  Strata cyclic_ms;
  Samples solve_acyclic_ms;  ///< direct solves (traced windows only)
  Samples solve_cyclic_ms;
  Samples overhead_us;
  std::vector<EngineCall> calls;
};

/// One closed-loop client streaming the analytic queries in seeded random
/// order.
class AnalyticClient {
 public:
  AnalyticClient(Engine& engine, AnalyticWorld& world, uint64_t seed,
                 LayerProbe* probe)
      : engine_(engine), world_(world), rng_(seed), probe_(probe) {
    if (probe_ != nullptr) track_ = probe_->Track("analytic client");
  }

  template <typename KeepGoing>
  AnalyticResults Run(KeepGoing&& keep_going) {
    AnalyticResults out;
    const auto t0 = Clock::now();
    while (keep_going(out.ops)) {
      const AnalyticQuery& a =
          world_.queries[rng_.NextU64(world_.queries.size())];
      const bool sampled = ++issued_ % 4 == 0;
      QueryRequest req;
      req.query = a.query;
      req.tag = a.name;
      const auto t_solve = Clock::now();
      Result<QueryResult> r = engine_.Solve(std::move(req));
      const double ms = MsSince(t_solve);
      out.ledger.Count(r.ok() && SameBytes(r->answer, a.oracle));
      ++out.ops;
      (a.cyclic ? out.cyclic_ms : out.acyclic_ms).Add(a.name, ms);
      if (probe_ == nullptr || !probe_->on()) continue;
      if (r.ok())
        out.calls.push_back({a.cyclic ? EngineCall::kCyclic : EngineCall::kAcyclic,
                             ms, r->queue_ms, r->exec_ms, r->klass, r->kernel});
      std::visit(
          [&](const auto& q) {
            const double direct = probe_->Probe(q, sampled, kDirectParallelism,
                                                track_, &out.probe_ms);
            if (!sampled) return;
            (a.cyclic ? out.solve_cyclic_ms : out.solve_acyclic_ms).Add(direct);
            out.overhead_us.Add((ms - direct) * 1e3);
          },
          a.query);
    }
    out.busy_ms = MsSince(t0) - out.probe_ms;
    return out;
  }

 private:
  Engine& engine_;
  AnalyticWorld& world_;
  Rng rng_;
  LayerProbe* probe_;
  uint32_t track_ = 0;
  int64_t issued_ = 0;
};

}  // namespace perfbench

#endif  // TOPOFAQ_PERFBENCH_ANALYTICS_H_
