#include "oracles/reference_network.h"

#include <stdexcept>
#include <utility>

#include "oracles/select_victim.h"

namespace tempriv::oracles {

using Kind = core::DisciplineSpec::Kind;

ReferenceNetwork::ReferenceNetwork(const net::Topology& topology,
                                   std::vector<core::DisciplineSpec> specs,
                                   LinkTiming timing,
                                   const sim::RandomStream& root,
                                   const std::vector<Injection>& injections)
    : nodes_(topology.node_count()), timing_(timing) {
  if (specs.size() != nodes_.size()) {
    throw std::invalid_argument("ReferenceNetwork: one spec per node");
  }
  // Routing tree: breadth-first from the sinks in registration order,
  // neighbours in ascending id, so the first node to reach another is its
  // parent.
  std::vector<net::NodeId> frontier(topology.sinks().begin(),
                                    topology.sinks().end());
  std::vector<bool> reached(nodes_.size(), false);
  for (net::NodeId sink : frontier) {
    reached[sink] = true;
    nodes_[sink].sink = true;
  }
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    for (net::NodeId nbr : topology.neighbors(frontier[head])) {
      if (reached[nbr]) continue;
      reached[nbr] = true;
      nodes_[nbr].next = frontier[head];
      frontier.push_back(nbr);
    }
  }
  for (net::NodeId id = 0; id < nodes_.size(); ++id) {
    Node& node = nodes_[id];
    node.stream = root.split(id);
    if (!forwards(id)) continue;
    node.spec = std::move(specs[id]);
  }
  for (const Injection& injection : injections) {
    if (injection.origin >= nodes_.size() || !forwards(injection.origin)) {
      throw std::invalid_argument("ReferenceNetwork: bad origin node");
    }
    Event event;
    event.time = injection.time;
    event.kind = Event::Kind::kInject;
    event.node = injection.origin;
    schedule(std::move(event));
  }
}

std::size_t ReferenceNetwork::buffered() const noexcept {
  std::size_t total = 0;
  for (const Node& node : nodes_) total += node.held.size();
  return total;
}

void ReferenceNetwork::schedule(Event event) {
  event.seq = next_seq_++;
  events_.push(std::move(event));
}

bool ReferenceNetwork::stale(const Event& event) const {
  if (event.kind != Event::Kind::kRelease) return false;
  for (const Held& h : nodes_[event.node].held) {
    if (h.packet.uid == event.packet.uid) return false;
  }
  return true;
}

std::uint64_t ReferenceNetwork::run_until(double deadline,
                                          std::uint64_t stop_after) {
  std::uint64_t count = 0;
  while (!events_.empty()) {
    if (stale(events_.top())) {
      events_.pop();
      continue;
    }
    if (events_.top().time > deadline) break;
    const Event event = events_.top();
    events_.pop();
    const std::size_t delivered_before = trace_.size();
    if (executed_ > 0 && event.time == now_) ++ties_;
    now_ = event.time;
    ++executed_;
    ++count;
    execute(event);
    if (trace_.size() != delivered_before && trace_.size() == stop_after) break;
  }
  return count;
}

void ReferenceNetwork::execute(const Event& event) {
  switch (event.kind) {
    case Event::Kind::kInject: {
      net::Packet packet;
      packet.header.origin = event.node;
      packet.header.prev_hop = event.node;
      packet.uid = next_uid_++;
      handle(event.node, packet);
      ++originated_;
      return;
    }
    case Event::Kind::kArrive:
      if (nodes_[event.node].sink) {
        const net::RoutingHeader& header = event.packet.header;
        trace_.push_back({event.packet.uid, header.origin, now_,
                          header.hop_count, header.prev_hop,
                          header.routing_seq});
      } else {
        handle(event.node, event.packet);
      }
      return;
    case Event::Kind::kRelease: {
      std::vector<Held>& held = nodes_[event.node].held;
      for (auto it = held.begin(); it != held.end(); ++it) {
        if (it->packet.uid == event.packet.uid) {
          net::Packet packet = it->packet;
          held.erase(it);
          transmit(event.node, packet);
          return;
        }
      }
      throw std::logic_error("ReferenceNetwork: release of a packet not held");
    }
  }
}

void ReferenceNetwork::handle(net::NodeId id, net::Packet packet) {
  Node& node = nodes_[id];
  ++node.handled;
  const core::DisciplineSpec& spec = node.spec;
  if (spec.kind == Kind::kImmediate) {
    transmit(id, packet);
    return;
  }
  const bool bounded = spec.kind != Kind::kUnlimited;
  if (bounded && node.held.size() >= spec.capacity) {
    if (spec.kind == Kind::kDropTail) {
      ++node.drops;  // the arrival is destroyed, no draw
      return;
    }
    const std::size_t victim =
        select_victim(node.held, spec.victim, now_, node.stream);
    const net::Packet early = node.held[victim].packet;
    node.held.erase(node.held.begin() + static_cast<std::ptrdiff_t>(victim));
    ++node.preemptions;
    transmit(id, early);
  }
  const double delay = spec.delay->sample(node.stream);
  node.held.push_back({packet, now_, now_ + delay});
  Event release;
  release.time = now_ + delay;
  release.kind = Event::Kind::kRelease;
  release.node = id;
  release.packet.uid = packet.uid;
  schedule(std::move(release));
}

void ReferenceNetwork::transmit(net::NodeId id, net::Packet packet) {
  Node& node = nodes_[id];
  packet.header.prev_hop = id;
  ++packet.header.hop_count;
  packet.header.routing_seq = node.routing_seq++;
  double link_delay = timing_.hop_tx_delay;
  if (timing_.hop_jitter > 0.0) {
    link_delay += node.stream.uniform(0.0, timing_.hop_jitter);
  }
  Event arrival;
  arrival.time = now_ + link_delay;
  arrival.kind = Event::Kind::kArrive;
  arrival.node = node.next;
  arrival.packet = packet;
  schedule(std::move(arrival));
}

}  // namespace tempriv::oracles
