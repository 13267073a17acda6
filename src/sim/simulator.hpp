// Discrete-event simulator.
//
// Executes the *concrete* semantics of a NetworkModel: packets injected at
// hosts travel through the per-scenario transfer function, middleboxes
// process them with their sim_process() implementations, and every
// send/receive is recorded as a timestamped event. The simulator plays the
// role of a testing tool (the paper contrasts VMN with Buzz): any violation
// it can concretely realize must also be reported by the verifier, which is
// the agreement property the test suite checks.
#pragma once

#include <deque>
#include <functional>

#include "core/trace.hpp"
#include "dataplane/transfer.hpp"
#include "encode/model.hpp"

namespace vmn::sim {

class Simulator {
 public:
  /// The simulator mutates middlebox state; it resets all instances on
  /// construction. Failed (fail-closed) middleboxes drop, fail-open ones
  /// pass through, per the scenario. The scenario's transfer function is
  /// built here, so the network must not change while the simulator runs.
  Simulator(encode::NetworkModel& model,
            ScenarioId scenario = net::Network::base_scenario);

  /// Injects `p` at `host` and processes the network to quiescence.
  void inject(NodeId host, const Packet& p);

  /// All events so far, in order.
  [[nodiscard]] const Trace& trace() const { return trace_; }

  /// Packets delivered to `node` so far.
  [[nodiscard]] const std::vector<Packet>& delivered(NodeId node) const;

  /// Convenience: whether any delivered packet at `node` satisfies `pred`.
  [[nodiscard]] bool received(
      NodeId node, const std::function<bool(const Packet&)>& pred) const;

  [[nodiscard]] std::int64_t now() const { return now_; }

 private:
  void process(NodeId from_edge, const Packet& p);

  encode::NetworkModel* model_;
  ScenarioId scenario_;
  dataplane::TransferFunction transfer_;
  Trace trace_;
  std::int64_t now_ = 0;
  std::unordered_map<NodeId, std::vector<Packet>> deliveries_;
  /// Guards against infinite middlebox ping-pong in one injection.
  std::size_t hop_budget_ = 0;
};

}  // namespace vmn::sim
