// Network topology: hosts, switches and middlebox attachment points, links,
// per-scenario forwarding state.
//
// Hosts and middleboxes are *edge* nodes: the static datapath (switches plus
// forwarding tables) moves packets between edge nodes, and is summarized by
// a transfer function (src/dataplane). Middlebox *behavior* lives in
// src/mbox; the topology only knows their attachment points.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/address.hpp"
#include "core/error.hpp"
#include "core/ids.hpp"
#include "net/failure.hpp"
#include "net/fwd_table.hpp"

namespace vmn::net {

enum class NodeKind : std::uint8_t { host, switch_node, middlebox };

[[nodiscard]] std::string to_string(NodeKind kind);

struct Node {
  NodeId id;
  std::string name;
  NodeKind kind = NodeKind::host;
  Address address;  ///< meaningful for hosts only
};

struct Link {
  LinkId id;
  NodeId a;
  NodeId b;
};

/// A mutable network description. Scenario 0 ("base") always exists and has
/// no failed nodes; additional failure scenarios carry their own failed-node
/// sets and (optionally) replacement forwarding tables for any switch.
class Network {
 public:
  Network();

  // -- construction -----------------------------------------------------
  NodeId add_host(const std::string& name, Address address);
  NodeId add_switch(const std::string& name);
  NodeId add_middlebox(const std::string& name);
  LinkId add_link(NodeId a, NodeId b);

  /// Registers a failure scenario; returns its id (>= 1).
  ScenarioId add_failure_scenario(const std::string& name,
                                  std::vector<NodeId> failed_nodes);

  /// Base (scenario 0) forwarding table of a switch, writable.
  ForwardingTable& table(NodeId switch_id);
  /// The one writer of scenario routes - a spec `scenario` block's routes
  /// for one switch (io/spec.hpp). The scenario's table starts as a copy of
  /// the base table at the first call; each call drops every rule tied
  /// (tie_rank) with one of `rules`, then adds `rules` in order, so among
  /// themselves the first still wins a tie.
  void override_routes(NodeId switch_id, ScenarioId scenario,
                       const std::vector<Rule>& rules);

  // -- queries ------------------------------------------------------------
  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<Node>& nodes() const { return nodes_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const std::vector<NodeId>& neighbors(NodeId id) const;

  [[nodiscard]] const std::string& name(NodeId id) const;
  [[nodiscard]] NodeKind kind(NodeId id) const;
  [[nodiscard]] bool is_edge(NodeId id) const;

  /// The host owning `address`, if any.
  [[nodiscard]] std::optional<NodeId> host_by_address(Address address) const;
  /// Node lookup by unique name; throws ModelError if absent.
  [[nodiscard]] NodeId node_by_name(const std::string& name) const;

  /// Effective forwarding table of `switch_id` under `scenario` (falls back
  /// to the base table when the scenario has no override).
  [[nodiscard]] const ForwardingTable& effective_table(NodeId switch_id,
                                                       ScenarioId scenario) const;

  [[nodiscard]] const std::vector<FailureScenario>& scenarios() const {
    return scenarios_;
  }
  [[nodiscard]] const FailureScenario& scenario(ScenarioId id) const;
  [[nodiscard]] bool is_failed(NodeId node, ScenarioId scenario) const;

  /// All host nodes.
  [[nodiscard]] std::vector<NodeId> hosts() const;
  /// All middlebox nodes.
  [[nodiscard]] std::vector<NodeId> middleboxes() const;

  static constexpr ScenarioId base_scenario{0};

 private:
  NodeId add_node(const std::string& name, NodeKind kind, Address address);
  void check_node(NodeId id) const;

  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<NodeId>> adjacency_;
  std::vector<FailureScenario> scenarios_;
  std::unordered_map<NodeId, ForwardingTable> base_tables_;
  // Keyed by (scenario, switch).
  std::unordered_map<std::uint64_t, ForwardingTable> override_tables_;
  std::unordered_map<Address, NodeId> host_by_addr_;
  std::unordered_map<std::string, NodeId> by_name_;
};

}  // namespace vmn::net
