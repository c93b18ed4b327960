#include "network/async.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

namespace topofaq {

AsyncNetwork::AsyncNetwork(Graph g, LinkParams link)
    : g_(std::move(g)), link_(link) {
  TOPOFAQ_CHECK_MSG(link.latency >= 0, "negative link latency");
  TOPOFAQ_CHECK_MSG(link.bandwidth_bits > 0, "bandwidth must be positive");
  busy_until_.assign(g_.num_edges(), {0, 0});
  busy_time_.assign(g_.num_edges(), {0, 0});
  handlers_.resize(g_.num_nodes());
}

void AsyncNetwork::SetHandler(NodeId node, Handler h) {
  TOPOFAQ_CHECK(node >= 0 && node < g_.num_nodes());
  handlers_[node] = std::move(h);
}

void AsyncNetwork::set_trace(obs::TraceSession* t) {
  trace_ = t;
  xmit_tracks_.assign(static_cast<size_t>(g_.num_edges()), {0, 0});
}

void AsyncNetwork::Send(NodeId from, NodeId to, Packet p) {
  const int edge = g_.EdgeBetween(from, to);
  TOPOFAQ_CHECK_MSG(edge >= 0, "Send endpoints are not adjacent");
  TOPOFAQ_CHECK(p.bits >= 0);
  const int dir = g_.edge(edge).first == from ? 0 : 1;
  const SimTime serialize = static_cast<SimTime>(p.bits) / link_.bandwidth_bits;
  const SimTime start = std::max(now_, busy_until_[edge][dir]);
  busy_until_[edge][dir] = start + serialize;
  busy_time_[edge][dir] += serialize;
  total_bits_ += p.bits;
  if (trace_ != nullptr) {
    // One span per packet on the (edge, direction) track, in simulated time
    // (1 unit exported as 1 µs). Duration is the serialization interval
    // [start, start + serialize) only: consecutive packets on one direction
    // abut rather than overlap, while the latency tail would overlap the
    // next packet's serialization (transfers pipeline across hops).
    uint32_t& slot = xmit_tracks_[static_cast<size_t>(edge)][dir];
    if (slot == 0) {
      const auto& ep = g_.edge(edge);
      const NodeId a = dir == 0 ? ep.first : ep.second;
      const NodeId b = dir == 0 ? ep.second : ep.first;
      slot = trace_->RegisterTrack(
                 "link " + std::to_string(a) + "->" + std::to_string(b),
                 obs::ClockDomain::kSimulated) +
             1;
    }
    char args[128];
    std::snprintf(args, sizeof(args),
                  "{\"bits\":%lld,\"stream\":%llu,\"seq\":%lld,\"hop\":%d}",
                  static_cast<long long>(p.bits),
                  static_cast<unsigned long long>(p.stream),
                  static_cast<long long>(p.seq), p.hop);
    trace_->Emit(p.control ? "ctl" : "page", slot - 1,
                 obs::ClockDomain::kSimulated, start, serialize, args);
  }
  const SimTime arrive = start + serialize + link_.latency;
  heap_.push(Event{arrive, next_event_id_++,
                   [this, to, p = std::move(p)]() mutable {
                     TOPOFAQ_CHECK_MSG(static_cast<bool>(handlers_[to]),
                                       "packet arrived at a handler-less node");
                     handlers_[to](std::move(p));
                   }});
}

void AsyncNetwork::ScheduleAfter(SimTime delay, std::function<void()> fn) {
  TOPOFAQ_CHECK(delay >= 0);
  heap_.push(Event{now_ + delay, next_event_id_++, std::move(fn)});
}

SimTime AsyncNetwork::Run() {
  while (!heap_.empty()) {
    // Moving out of a priority_queue requires the const_cast dance; the
    // element is popped immediately after, so nothing observes the
    // moved-from state.
    Event ev = std::move(const_cast<Event&>(heap_.top()));
    heap_.pop();
    now_ = ev.time;
    makespan_ = std::max(makespan_, now_);
    ev.fn();
  }
  return makespan_;
}

std::vector<double> AsyncNetwork::EdgeUtilization() const {
  std::vector<double> out(g_.num_edges(), 0.0);
  if (makespan_ <= 0) return out;
  for (int e = 0; e < g_.num_edges(); ++e)
    out[e] = (busy_time_[e][0] + busy_time_[e][1]) / (2.0 * makespan_);
  return out;
}

}  // namespace topofaq
