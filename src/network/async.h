// Discrete-event asynchronous network simulator — the second execution mode
// of Model 2.1, alongside the synchronous round ledger (simulator.h).
//
// Where SyncNetwork accounts whole-relation reservations round by round,
// AsyncNetwork models each channel as a FIFO link with a latency and a
// bandwidth: a packet of b bits sent over an edge occupies that direction of
// the link for b/bandwidth simulated time units (serialization), then lands
// at the far endpoint one latency later. Packets queued behind it start
// serializing when it finishes — store-and-forward per packet, pipelined
// across packets and across hops. Footnote 6 of the paper notes the bounds
// generalize to any per-edge budget B; mapping one synchronous round's
// `capacity_bits` to one time unit of bandwidth makes async makespans
// directly comparable to the ledger's round counts.
//
// The simulator is a single event heap: channel deliveries and node-local
// task callbacks are both events, ordered by (time, insertion sequence), so
// a run is fully deterministic — no wall clock, no randomness, no thread
// timing. Handlers and scheduled tasks may send further packets and schedule
// further tasks; Run() drains the heap and returns the makespan (the time of
// the last event). Exact bit accounting (total_bits, per-edge-direction busy
// time, EdgeUtilization) makes the *actual* transferred bytes of a protocol
// observable against its worst-case budget.
#ifndef TOPOFAQ_NETWORK_ASYNC_H_
#define TOPOFAQ_NETWORK_ASYNC_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "graphalg/graph.h"
#include "obs/trace.h"

namespace topofaq {

/// Simulated time. Abstract units; protocol adapters map one synchronous
/// round to one unit so makespan and rounds share a scale.
using SimTime = double;

/// Channel model of one edge (both directions): time for the last bit to
/// cross after serialization finishes, and bits serialized per time unit.
struct LinkParams {
  SimTime latency = 1.0;
  double bandwidth_bits = 1.0;
};

/// One message in flight. `payload` is opaque to the network — the streaming
/// transport (stream.h) stores typed relation pages in it; only `bits` is
/// charged against the channel.
struct Packet {
  NodeId src = -1;  ///< node sending this hop
  NodeId dst = -1;  ///< node receiving this hop
  int64_t bits = 0;
  uint64_t stream = 0;  ///< stream id (transport-level demultiplexing)
  int64_t seq = 0;      ///< page sequence number within the stream
  int hop = 0;          ///< sender's depth in the stream's tree
  bool control = false; ///< true for credit/ack packets
  std::shared_ptr<void> payload;
};

class AsyncNetwork {
 public:
  using Handler = std::function<void(Packet)>;

  /// Every edge runs with `link`.
  AsyncNetwork(Graph g, LinkParams link);

  const Graph& graph() const { return g_; }

  /// Installs the arrival callback for packets whose next hop is `node`.
  void SetHandler(NodeId node, Handler h);

  /// Current simulated time (the timestamp of the event being processed).
  SimTime now() const { return now_; }

  /// Enqueues `p` on the channel from `from` to the adjacent node `to`:
  /// serialization starts when the channel's earlier traffic (same
  /// direction) has finished, and `to`'s handler fires one latency after the
  /// last bit is serialized. Direction queues are independent (full duplex).
  void Send(NodeId from, NodeId to, Packet p);

  /// Schedules `fn` to run `delay` time units from now() — node-local work
  /// (compute tasks, stream pumps). A zero delay still goes through the heap
  /// behind events already scheduled for this instant.
  void ScheduleAfter(SimTime delay, std::function<void()> fn);

  /// Drains the event heap; returns the makespan (time of the last event; 0
  /// if nothing was ever scheduled). May be called once per simulation.
  SimTime Run();

  SimTime makespan() const { return makespan_; }
  /// Total payload bits ever serialized onto any channel.
  int64_t total_bits() const { return total_bits_; }

  /// Serialization time spent on (edge, direction) so far.
  SimTime BusyTime(int edge, bool forward) const {
    return busy_time_[edge][forward ? 0 : 1];
  }

  /// Per-edge utilization after Run(): serialization time summed over both
  /// directions, divided by 2·makespan (1.0 = both directions saturated for
  /// the whole run). Empty-makespan runs report all zeros.
  std::vector<double> EdgeUtilization() const;

  /// Installs (or clears) a span sink. Every Send then records a simulated-
  /// domain span on a per-(edge, direction) track — ts at serialization
  /// start, duration exactly the serialization time (such spans never
  /// overlap on their track by busy_until_ construction; the trailing
  /// latency is deliberately not part of the span, since deliveries pipeline
  /// behind the next packet's serialization). Protocol adapters layer node
  /// compute spans on top via trace(); null (the default) costs one branch
  /// per Send. Borrowed: the session must outlive the simulation.
  void set_trace(obs::TraceSession* t);
  obs::TraceSession* trace() const { return trace_; }

 private:
  struct Event {
    SimTime time;
    uint64_t id;  // insertion sequence: FIFO among same-time events
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  Graph g_;
  LinkParams link_;
  std::vector<std::array<SimTime, 2>> busy_until_;  // per edge, per direction
  std::vector<std::array<SimTime, 2>> busy_time_;
  std::vector<Handler> handlers_;
  std::priority_queue<Event, std::vector<Event>, EventLater> heap_;
  uint64_t next_event_id_ = 0;
  SimTime now_ = 0;
  SimTime makespan_ = 0;
  int64_t total_bits_ = 0;
  obs::TraceSession* trace_ = nullptr;
  /// Track id + 1 per (edge, direction); 0 = not yet registered (tracks are
  /// registered lazily so idle links never clutter the export).
  std::vector<std::array<uint32_t, 2>> xmit_tracks_;
};

}  // namespace topofaq

#endif  // TOPOFAQ_NETWORK_ASYNC_H_
