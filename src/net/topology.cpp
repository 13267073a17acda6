#include "net/topology.hpp"

#include <set>

namespace vmn::net {

namespace {

std::uint64_t table_key(ScenarioId scenario, NodeId switch_id) {
  return (std::uint64_t{scenario.value()} << 32) | switch_id.value();
}

}  // namespace

std::string to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::host:
      return "host";
    case NodeKind::switch_node:
      return "switch";
    case NodeKind::middlebox:
      return "middlebox";
  }
  return "?";
}

Network::Network() {
  scenarios_.push_back(FailureScenario{"base", {}});
}

NodeId Network::add_node(const std::string& name, NodeKind kind,
                         Address address) {
  if (by_name_.contains(name)) {
    throw ModelError("duplicate node name: " + name);
  }
  NodeId id(static_cast<NodeId::underlying_type>(nodes_.size()));
  nodes_.push_back(Node{id, name, kind, address});
  adjacency_.emplace_back();
  by_name_.emplace(name, id);
  return id;
}

NodeId Network::add_host(const std::string& name, Address address) {
  if (host_by_addr_.contains(address)) {
    throw ModelError("duplicate host address: " + address.to_string());
  }
  NodeId id = add_node(name, NodeKind::host, address);
  host_by_addr_.emplace(address, id);
  return id;
}

NodeId Network::add_switch(const std::string& name) {
  return add_node(name, NodeKind::switch_node, Address{});
}

NodeId Network::add_middlebox(const std::string& name) {
  return add_node(name, NodeKind::middlebox, Address{});
}

LinkId Network::add_link(NodeId a, NodeId b) {
  check_node(a);
  check_node(b);
  if (a == b) throw ModelError("self-link on " + name(a));
  LinkId id(static_cast<LinkId::underlying_type>(links_.size()));
  links_.push_back(Link{id, a, b});
  adjacency_[a.value()].push_back(b);
  adjacency_[b.value()].push_back(a);
  return id;
}

ScenarioId Network::add_failure_scenario(const std::string& name,
                                         std::vector<NodeId> failed_nodes) {
  for (NodeId n : failed_nodes) check_node(n);
  ScenarioId id(static_cast<ScenarioId::underlying_type>(scenarios_.size()));
  scenarios_.push_back(FailureScenario{name, std::move(failed_nodes)});
  return id;
}

ForwardingTable& Network::table(NodeId switch_id) {
  check_node(switch_id);
  if (kind(switch_id) != NodeKind::switch_node) {
    throw ModelError("forwarding table on non-switch " + name(switch_id));
  }
  return base_tables_[switch_id];
}

void Network::override_routes(NodeId switch_id, ScenarioId scenario,
                              const std::vector<Rule>& rules) {
  check_node(switch_id);
  if (scenario.value() >= scenarios_.size()) {
    throw ModelError("unknown failure scenario");
  }
  // A scenario's table starts as a copy of the switch's base table.
  ForwardingTable& table =
      scenario == base_scenario
          ? this->table(switch_id)
          : override_tables_
                .try_emplace(table_key(scenario, switch_id),
                             base_tables_[switch_id])
                .first->second;
  std::set<TieRank> overridden;
  for (const Rule& r : rules) overridden.insert(tie_rank(r));
  ForwardingTable kept;
  for (const Rule& r : table.rules()) {
    if (!overridden.contains(tie_rank(r))) kept.add(r);
  }
  for (const Rule& r : rules) kept.add(r);
  table = std::move(kept);
}

const Node& Network::node(NodeId id) const {
  check_node(id);
  return nodes_[id.value()];
}

const std::vector<NodeId>& Network::neighbors(NodeId id) const {
  check_node(id);
  return adjacency_[id.value()];
}

const std::string& Network::name(NodeId id) const { return node(id).name; }

NodeKind Network::kind(NodeId id) const { return node(id).kind; }

bool Network::is_edge(NodeId id) const {
  return kind(id) != NodeKind::switch_node;
}

std::optional<NodeId> Network::host_by_address(Address address) const {
  auto it = host_by_addr_.find(address);
  if (it == host_by_addr_.end()) return std::nullopt;
  return it->second;
}

NodeId Network::node_by_name(const std::string& name) const {
  auto it = by_name_.find(name);
  if (it == by_name_.end()) throw ModelError("no node named " + name);
  return it->second;
}

const ForwardingTable& Network::effective_table(NodeId switch_id,
                                                ScenarioId scenario) const {
  static const ForwardingTable empty;
  if (scenario != base_scenario) {
    auto it = override_tables_.find(table_key(scenario, switch_id));
    if (it != override_tables_.end()) return it->second;
  }
  auto it = base_tables_.find(switch_id);
  if (it == base_tables_.end()) return empty;
  return it->second;
}

const FailureScenario& Network::scenario(ScenarioId id) const {
  if (id.value() >= scenarios_.size()) {
    throw ModelError("unknown failure scenario");
  }
  return scenarios_[id.value()];
}

bool Network::is_failed(NodeId node, ScenarioId scenario_id) const {
  return scenario(scenario_id).is_failed(node);
}

std::vector<NodeId> Network::hosts() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::host) out.push_back(n.id);
  }
  return out;
}

std::vector<NodeId> Network::middleboxes() const {
  std::vector<NodeId> out;
  for (const Node& n : nodes_) {
    if (n.kind == NodeKind::middlebox) out.push_back(n.id);
  }
  return out;
}

void Network::check_node(NodeId id) const {
  if (!id.valid() || id.value() >= nodes_.size()) {
    throw ModelError("invalid node id");
  }
}

}  // namespace vmn::net
