// PGM inference as FAQ-SS (Section 1): a tree-structured probabilistic
// graphical model whose factors live on different machines; we compute a
// *factor marginal* (F = e over the counting semiring) with the distributed
// protocol and verify it against exact centralized inference.
#include <cstdio>

#include "graphalg/topologies.h"
#include "hypergraph/generators.h"
#include "protocols/distributed.h"
#include "server/engine.h"
#include "util/rng.h"

using namespace topofaq;

int main() {
  std::printf("== PGM factor-marginal inference ==\n\n");
  Rng rng(2024);

  // A small tree-shaped PGM: 7 variables, pairwise potentials along a tree.
  Hypergraph model = RandomTree(7, &rng);
  std::printf("model (markov tree): %s\n", model.DebugString().c_str());

  // Random potentials over domain {0,1,2}: f_e(x_u, x_v) > 0.
  const uint64_t domain = 3;
  std::vector<Relation<CountingSemiring>> factors;
  for (int e = 0; e < model.num_edges(); ++e) {
    Relation<CountingSemiring> f{Schema(model.edge(e))};
    for (uint64_t a = 0; a < domain; ++a)
      for (uint64_t b = 0; b < domain; ++b)
        f.Add({a, b}, (1.0 + static_cast<double>(rng.NextU64(16))) / 4.0);
    factors.push_back(std::move(f));
  }

  // Marginalize onto factor 0 (the paper's "factor marginal in PGMs").
  auto query = MakeFactorMarginal(model, factors, /*marginal_edge=*/0);

  // Centralized exact inference, served by the engine.
  Engine engine;
  auto exact = engine.Solve(query);
  if (!exact.ok()) {
    std::printf("solver error: %s\n", exact.status().ToString().c_str());
    return 1;
  }

  // Distribute the factors over a sensor-network-like balanced tree
  // (Appendix A.4) and run the protocol.
  DistInstance<CountingSemiring> inst;
  inst.query = query;
  inst.topology = BalancedTreeTopology(2, 2);
  inst.owners = RoundRobinOwners(model.num_edges(), inst.topology.num_nodes());
  inst.sink = 0;  // the base station
  auto dist = RunCoreForestProtocol(inst);
  if (!dist.ok()) {
    std::printf("protocol error: %s\n", dist.status().ToString().c_str());
    return 1;
  }

  std::printf("\nunnormalized marginal over factor 0 (%zu entries):\n",
              exact->size());
  double z = 0;
  for (size_t i = 0; i < exact->size(); ++i) z += exact->annot(i);
  for (size_t i = 0; i < std::min<size_t>(exact->size(), 9); ++i) {
    std::printf("  (x%u=%llu, x%u=%llu)  p = %.4f\n",
                exact->schema().var(0),
                static_cast<unsigned long long>(exact->at(i, 0)),
                exact->schema().var(1),
                static_cast<unsigned long long>(exact->at(i, 1)),
                exact->annot(i) / z);
  }
  std::printf("\ndistributed == centralized: %s\n",
              dist->answer.EqualsAsFunction(*exact) ? "yes" : "NO");
  std::printf("protocol: %lld rounds, %lld bits on the wire\n",
              static_cast<long long>(dist->stats.rounds),
              static_cast<long long>(dist->stats.total_bits));
  return 0;
}
