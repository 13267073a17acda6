#include "sim/simulator.hpp"

namespace vmn::sim {

Simulator::Simulator(encode::NetworkModel& model, ScenarioId scenario)
    : model_(&model),
      scenario_(scenario),
      transfer_(model.network(), scenario) {
  for (const auto& box : model.middleboxes()) box->sim_reset();
}

void Simulator::inject(NodeId host, const Packet& p) {
  if (model_->network().kind(host) != net::NodeKind::host) {
    throw ModelError("packets are injected at hosts");
  }
  hop_budget_ = 4 * model_->network().node_count() + 16;
  process(host, p);
}

const std::vector<Packet>& Simulator::delivered(NodeId node) const {
  static const std::vector<Packet> none;
  auto it = deliveries_.find(node);
  return it == deliveries_.end() ? none : it->second;
}

bool Simulator::received(
    NodeId node, const std::function<bool(const Packet&)>& pred) const {
  for (const Packet& p : delivered(node)) {
    if (pred(p)) return true;
  }
  return false;
}

void Simulator::process(NodeId from_edge, const Packet& p) {
  if (hop_budget_ == 0) {
    throw ForwardingLoopError("simulator hop budget exhausted (likely a "
                              "middlebox forwarding loop)");
  }
  --hop_budget_;

  const net::Network& net = model_->network();
  auto target = transfer_.next_edge(from_edge, p.dst);

  trace_.add(Event{EventKind::send, now_++, from_edge, NodeId{}, p});
  if (!target) return;  // dropped in the fabric
  trace_.add(Event{EventKind::receive, now_++, from_edge, *target, p});

  if (net.kind(*target) == net::NodeKind::host) {
    deliveries_[*target].push_back(p);
    return;
  }

  mbox::Middlebox* box = model_->middlebox_at(*target);
  if (box == nullptr) return;

  std::vector<Packet> out;
  if (net.is_failed(*target, scenario_)) {
    if (box->failure_mode() == mbox::FailureMode::fail_open) {
      out.push_back(p);  // degenerates to a wire
    }
    // fail-closed: drop.
  } else {
    out = box->sim_process(p);
  }
  for (const Packet& q : out) process(*target, q);
}

}  // namespace vmn::sim
