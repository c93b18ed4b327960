// Transport primitives over SyncNetwork, all pipelined and all accounted
// round-by-round against channel capacities:
//
//  * UnicastBits      — point-to-point streaming along a shortest path
//  * BroadcastBits    — one-to-many streaming down a BFS tree
//  * ConvergecastItems— bottom-up elementwise aggregation over a Steiner
//                       tree (the engine behind the Theorem 3.11 protocol)
//  * GatherFlows      — many-to-one store-and-forward routing with
//                       congestion-aware path selection (the trivial
//                       protocol / τ_MCF engine, Definition 3.12)
//
// Every primitive takes a start round and returns the round *after* its last
// transmission, so protocol phases compose sequentially or in parallel by
// choosing start rounds.
#ifndef TOPOFAQ_NETWORK_PRIMITIVES_H_
#define TOPOFAQ_NETWORK_PRIMITIVES_H_

#include <vector>

#include "graphalg/steiner.h"
#include "network/simulator.h"

namespace topofaq {

/// Rooted view of a Steiner tree given by edge ids.
struct RootedTree {
  NodeId root = -1;
  std::vector<int> parent_edge;   ///< per node: edge toward parent (-1 if
                                  ///< root or not in tree)
  std::vector<NodeId> parent;     ///< per node: parent node id (-1 likewise)
  std::vector<std::vector<NodeId>> children;  ///< per node
  std::vector<bool> in_tree;      ///< per node
  std::vector<int> depth;         ///< per node (root = 0; -1 outside)
};

/// Orients `edges` as a tree rooted at `root` (must be a node of the tree).
RootedTree OrientTree(const Graph& g, const std::vector<int>& edges, NodeId root);

/// Streams `bits` from `from` to `to` along a shortest path, starting no
/// earlier than `start_round`. Returns the first round index at which the
/// full payload is available at `to` (== finish round).
int64_t UnicastBits(SyncNetwork* net, NodeId from, NodeId to, int64_t bits,
                    int64_t start_round);

/// Streams `bits` from `src` to every node in `targets` down a BFS tree.
/// Returns the round at which the last target is complete.
int64_t BroadcastBits(SyncNetwork* net, NodeId src,
                      const std::vector<NodeId>& targets, int64_t bits,
                      int64_t start_round);

/// Pipelined broadcast of `bits` from each tree's root to *all* its nodes,
/// restricted to tree edges. Returns the completion round.
int64_t BroadcastOnTree(SyncNetwork* net, const RootedTree& tree, int64_t bits,
                        int64_t start_round);

/// Chunked broadcast over an edge-disjoint packing (all trees rooted at the
/// payload owner): chunk i flows down tree i, so every spanned node receives
/// the full payload in ~bits/(cap·T) + Δ rounds — the gossip-style broadcast
/// that keeps Algorithm 1's step 3 within the Theorem 3.11 budget.
int64_t MultiTreeBroadcast(SyncNetwork* net,
                           const std::vector<RootedTree>& trees, int64_t bits,
                           int64_t start_round);

/// Pipelined bottom-up aggregation of `n_items` items of `item_bits` bits
/// each over the given tree: every tree node combines its children's streams
/// elementwise with its own vector and forwards the combined prefix to its
/// parent. Returns the round at which the root holds all aggregated items.
int64_t ConvergecastItems(SyncNetwork* net, const RootedTree& tree,
                          int64_t n_items, int item_bits, int64_t start_round);

/// One source→sink demand for GatherFlows.
struct FlowDemand {
  NodeId source;
  int64_t bits;
};

/// Congestion-aware routes of a gather (successive least-loaded shortest
/// paths: the biggest demand picks first, and an edge's weight grows with
/// the bits already routed over it). One node path per demand, from its
/// source to `target`; a source at `target` gets the one-node path.
std::vector<std::vector<NodeId>> GatherRoutes(
    const Graph& g, const std::vector<FlowDemand>& demands, NodeId target);

/// Routes every demand to `target` along its GatherRoutes path with
/// store-and-forward pipelining. Returns the round at which the last bit
/// arrives.
int64_t GatherFlows(SyncNetwork* net, const std::vector<FlowDemand>& demands,
                    NodeId target, int64_t start_round);

}  // namespace topofaq

#endif  // TOPOFAQ_NETWORK_PRIMITIVES_H_
