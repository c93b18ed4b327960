// Sensor-network aggregation (Appendix A.4): sensors on a tree topology hold
// reading tables; the base station wants an aggregate over their join. We
// phrase it as a general FAQ with a MIN aggregate on one bound variable and
// SUM on the rest, and compare topologies.
#include <cstdio>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "protocols/distributed.h"
#include "server/engine.h"
#include "util/rng.h"

using namespace topofaq;

int main() {
  std::printf("== sensor-network aggregation ==\n\n");
  Rng rng(7);

  // Query: sensors share a region key A (variable 0); each sensor e holds
  // readings R_e(A, reading_e). We aggregate: per region, SUM over joined
  // readings of the product of calibration weights, taking MIN over sensor
  // 1's reading (e.g. "worst calibrated sample").
  const int kSensors = 4;
  Hypergraph h = StarGraph(kSensors);
  const uint64_t regions = 48, readings = 4;
  std::vector<Relation<CountingSemiring>> tables;
  for (int e = 0; e < h.num_edges(); ++e) {
    Relation<CountingSemiring> r{Schema(h.edge(e))};
    for (uint64_t a = 0; a < regions; ++a)
      for (uint64_t v = 0; v < readings; ++v)
        if (rng.NextBool(0.6))
          r.Add({a, v}, (4.0 + static_cast<double>(rng.NextU64(12))) / 4.0);
    tables.push_back(std::move(r));
  }
  auto query = MakeFaqSS<CountingSemiring>(h, std::move(tables), {0});
  query.var_ops[1] = VarOp::kMin;  // sensor 1's reading: MIN aggregate

  // The exact central answer, served by the engine.
  Engine engine;
  auto exact = engine.Solve(query);
  if (!exact.ok()) {
    std::printf("error: %s\n", exact.status().ToString().c_str());
    return 1;
  }
  std::printf("regions with data: %zu of %llu\n\n", exact->size(),
              static_cast<unsigned long long>(regions));

  // Run on three deployment topologies; the base station is node 0.
  struct Deployment {
    const char* name;
    Graph g;
  };
  Rng topo_rng(9);
  Deployment deployments[] = {
      {"chain (corridor)", LineTopology(5)},
      {"balanced tree", BalancedTreeTopology(2, 2)},
      {"mesh (random)", RandomConnectedTopology(6, 5, &topo_rng)},
  };
  for (auto& dep : deployments) {
    DistInstance<CountingSemiring> inst;
    inst.query = query;
    inst.topology = dep.g;
    inst.owners = RoundRobinOwners(h.num_edges(), dep.g.num_nodes());
    inst.sink = 0;
    auto res = RunCoreForestProtocol(inst);
    if (!res.ok()) {
      std::printf("%-18s protocol error: %s\n", dep.name,
                  res.status().ToString().c_str());
      continue;
    }
    std::printf("%-18s %5lld rounds  %7lld bits   correct=%s\n", dep.name,
                static_cast<long long>(res->stats.rounds),
                static_cast<long long>(res->stats.total_bits),
                res->answer.EqualsAsFunction(*exact) ? "yes" : "NO");
  }
  std::printf("\nBetter-connected deployments finish the same aggregation in "
              "fewer rounds,\nas predicted by min_D(N/ST(G,K,D) + D).\n");
  return 0;
}
