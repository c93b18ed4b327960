// The protocol suite: fixed (H, G) instances, each run through the
// synchronous and event-driven core-forest and trivial protocols and
// checked bit-identical to Engine::Solve.
#ifndef TOPOFAQ_PERFBENCH_PROTOCOLS_H_
#define TOPOFAQ_PERFBENCH_PROTOCOLS_H_

#include <memory>
#include <string>
#include <vector>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "lowerbounds/bounds.h"
#include "protocols/async.h"
#include "protocols/distributed.h"
#include "serve.h"

namespace perfbench {

using NRel = Relation<NaturalSemiring>;

struct SuiteInstance {
  const char* name;
  bool cyclic;
  DistInstance<NaturalSemiring> inst;
  NRel oracle;
  BoundBreakdown bounds;
};

struct ProtocolSuite {
  std::vector<SuiteInstance> instances;
  double bounds_ms = 0;  ///< ComputeBounds wall time, summed over instances
  double canonicalize_ms = 0;
  size_t resident_key_bytes = 0;
};

/// The suite: star-4 on line-5, path-4 on grid-3x3, a 2-degenerate graph on
/// clique-6, triangle on ring-6. Shapes, topologies, sizes, owners and wire
/// widths are fixed; the seed draws the data only.
inline std::unique_ptr<ProtocolSuite> BuildSuite(uint64_t seed) {
  auto s = std::make_unique<ProtocolSuite>();
  Rng rng(seed ^ 0x9e07ull);
  PlanCache plans(16);
  constexpr uint64_t kDom = 4096;  // 12-bit attributes, pinned below
  Rng shape_rng(0x2de6);           // fixed: the 2-degenerate shape
  auto add = [&](const char* name, bool cyclic, Hypergraph h, Graph g,
                 std::vector<NodeId> owners, NodeId sink, size_t n) {
    std::vector<NRel> rels;
    for (int e = 0; e < h.num_edges(); ++e)
      rels.push_back(RandomRelation<NaturalSemiring>(
          h.edge(e), n, kDom, &rng, [](Rng* r) { return r->NextU64(7) + 1; },
          &s->canonicalize_ms, /*exact=*/true));
    SuiteInstance si{name, cyclic, {}, {}, {}};
    si.inst.query = MakeFaqSS<NaturalSemiring>(std::move(h), std::move(rels), {});
    si.inst.topology = std::move(g);
    si.inst.owners = std::move(owners);
    si.inst.sink = sink;
    si.inst.bits_per_attr = 12;
    for (const auto& r : si.inst.query.relations)
      s->resident_key_bytes += r.ResidentKeyBytes();
    si.oracle = DirectSolve(si.inst.query, &plans, 1);
    const auto t0 = Clock::now();
    si.bounds = ComputeBounds(si.inst.query.hypergraph, si.inst.topology,
                              si.inst.Players(),
                              si.inst.query.MaxRelationSize());
    s->bounds_ms += MsSince(t0);
    s->instances.push_back(std::move(si));
  };
  add("star4_line5", false, StarGraph(4), LineTopology(5), {0, 1, 2, 3}, 4,
      10000);
  add("path4_grid3x3", false, PathGraph(4), GridTopology(3, 3), {0, 2, 6, 8},
      4, 10000);
  {
    Hypergraph h = RandomDDegenerate(6, 2, &shape_rng);
    std::vector<NodeId> owners = RoundRobinOwners(h.num_edges(), 5);
    add("degen2_clique6", true, std::move(h), CliqueTopology(6),
        std::move(owners), 5, 5000);
  }
  add("triangle_ring6", true, CycleGraph(3), RingTopology(6), {0, 2, 4}, 3,
      10000);
  return s;
}

/// Protocol cost of one pass over the suite. Deterministic for a seed.
struct PassCost {
  int64_t rounds = 0;      ///< sync core-forest + sync trivial rounds
  double makespan = 0;     ///< async core-forest + async trivial makespan
  int64_t total_bits = 0;  ///< all four runs
  bool operator==(const PassCost& o) const {
    return rounds == o.rounds && makespan == o.makespan &&
           total_bits == o.total_bits;
  }
};

struct ProtocolResults {
  OpLedger ledger;
  int64_t runs = 0;  ///< protocol runs completed
  int64_t passes = 0;
  double busy_ms = 0;
  double probe_ms = 0;
  Strata acyclic_ms;  ///< Engine::Solve of each instance, stratum = name
  Strata cyclic_ms;
  Samples sync_forest_ms, async_forest_ms, sync_trivial_ms, async_trivial_ms;
  Samples solve_acyclic_ms;  ///< direct solves (traced windows only)
  Samples solve_cyclic_ms;
  Samples overhead_us;
  PassCost first;
  // Network and bound figures of the first pass.
  int64_t forest_rounds = 0;
  double forest_makespan = 0;
  int64_t lower_bound = 0;
  int64_t pages = 0;
  int64_t max_in_flight_pages = 0;
  int64_t payload_encoded = 0;
  int64_t payload_plain = 0;
  double max_edge_utilization = 0;
  std::vector<EngineCall> calls;
};

/// Loops the suite on the calling thread. Each instance: one Engine::Solve
/// (the reference), then the four protocol runs, each answer checked
/// against it. `keep_going(instances_done)` is consulted before every
/// instance; `with_protocols` false runs the Engine::Solve references only.
class ProtocolClient {
 public:
  ProtocolClient(Engine& engine, ProtocolSuite& suite, LayerProbe* probe)
      : engine_(engine), suite_(suite), probe_(probe) {
    if (probe_ != nullptr) track_ = probe_->Track("protocol client");
  }

  template <typename KeepGoing>
  ProtocolResults Run(KeepGoing&& keep_going, bool with_protocols = true) {
    ProtocolResults out;
    const auto t0 = Clock::now();
    for (size_t i = 0; keep_going(i); ++i) {
      const SuiteInstance& si = suite_.instances[i % suite_.instances.size()];
      if (i % suite_.instances.size() == 0) pass_ = PassCost{};
      RunInstance(si, with_protocols, &out);
      if (with_protocols && (i + 1) % suite_.instances.size() == 0) {
        if (out.passes++ == 0)
          out.first = pass_;
        else
          out.ledger.Count(pass_ == out.first);  // determinism across passes
      }
    }
    out.busy_ms = MsSince(t0) - out.probe_ms;
    return out;
  }

 private:
  template <typename Fn>
  auto Timed(obs::TraceSession* ts, const char* name, Samples* ms, Fn&& fn) {
    const auto t0 = Clock::now();
    obs::Span sp(ts, name, track_);
    auto r = fn();
    sp.Close();
    ms->Add(MsSince(t0));
    return r;
  }

  void RunInstance(const SuiteInstance& si, bool with_protocols,
                   ProtocolResults* out) {
    QueryRequest req;
    req.query = si.inst.query;
    req.tag = si.name;
    const auto t0 = Clock::now();
    Result<QueryResult> r = engine_.Solve(std::move(req));
    const double ms = MsSince(t0);
    const bool engine_ok = r.ok() && SameBytes(r->answer, AnyRelation(si.oracle));
    out->ledger.Count(engine_ok);
    (si.cyclic ? out->cyclic_ms : out->acyclic_ms).Add(si.name, ms);
    if (probe_ != nullptr && probe_->on()) {
      if (r.ok())
        out->calls.push_back({si.cyclic ? EngineCall::kCyclic : EngineCall::kAcyclic,
                              ms, r->queue_ms, r->exec_ms, r->klass, r->kernel});
      const bool sampled = ++solves_ % 2 == 0;
      const double direct =
          probe_->Probe(si.inst.query, sampled, 1, track_, &out->probe_ms);
      if (sampled) {
        (si.cyclic ? out->solve_cyclic_ms : out->solve_acyclic_ms).Add(direct);
        out->overhead_us.Add((ms - direct) * 1e3);
      }
    }
    if (!with_protocols) return;
    const NRel& reference = engine_ok ? r->answer_as<NaturalSemiring>() : si.oracle;

    CoreForestOptions forest;
    forest.parallelism = 1;
    TrivialOptions trivial;
    trivial.parallelism = 1;
    AsyncProtocolOptions async;
    async.parallelism = 1;
    async.stream.page_rows = 1024;
    async.stream.node_page_budget = 8;

    obs::TraceSession* ts = probe_ != nullptr ? probe_->session() : nullptr;
    auto sync_forest = Timed(ts, "protocols.sync_forest", &out->sync_forest_ms,
                             [&] { return RunCoreForestProtocol(si.inst, forest); });
    auto async_forest = Timed(ts, "protocols.async_forest", &out->async_forest_ms,
                              [&] { return RunCoreForestProtocolAsync(si.inst, async); });
    auto sync_trivial = Timed(ts, "protocols.sync_trivial", &out->sync_trivial_ms,
                              [&] { return RunTrivialProtocol(si.inst, trivial); });
    auto async_trivial = Timed(ts, "protocols.async_trivial", &out->async_trivial_ms,
                               [&] { return RunTrivialProtocolAsync(si.inst, async); });
    for (auto* run : {&sync_forest, &async_forest, &sync_trivial, &async_trivial}) {
      out->ledger.Count(run->ok() && SameBytes((*run)->answer, reference));
      ++out->runs;
      if (!run->ok()) continue;
      const ProtocolStats& st = (*run)->stats;
      pass_.total_bits += st.total_bits;
      pass_.rounds += st.rounds;
      pass_.makespan += st.makespan;
    }
    if (out->passes == 0 && sync_forest.ok() && async_forest.ok() &&
        async_trivial.ok()) {
      out->forest_rounds += sync_forest->stats.rounds;
      out->forest_makespan += async_forest->stats.makespan;
      out->lower_bound += si.bounds.lower_bound;
      for (const auto* a : {&async_forest, &async_trivial}) {
        const ProtocolStats& st = (*a)->stats;
        out->pages += st.pages;
        out->max_in_flight_pages =
            std::max(out->max_in_flight_pages, st.max_in_flight_pages);
        out->payload_encoded += st.payload_bits_encoded;
        out->payload_plain += st.payload_bits_plain;
        out->max_edge_utilization =
            std::max(out->max_edge_utilization, st.max_edge_utilization);
      }
    }
  }

  Engine& engine_;
  ProtocolSuite& suite_;
  LayerProbe* probe_;
  uint32_t track_ = 0;
  int64_t solves_ = 0;
  PassCost pass_;
};

}  // namespace perfbench

#endif  // TOPOFAQ_PERFBENCH_PROTOCOLS_H_
