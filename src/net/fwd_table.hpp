// Per-switch forwarding tables.
//
// Rules match on the destination prefix and, optionally, on the neighbor the
// packet arrived from ("in-port" matching). In-port matching is what lets the
// scenario topologies implement service chaining - e.g. a ToR switch sends
// host traffic to the firewall first, and firewall traffic onward to the
// aggregation layer - exactly the glue the paper delegates to the static
// datapath (section 2.3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"

namespace vmn::net {

/// One forwarding rule. Longer prefixes win; among equal prefix lengths a
/// rule with an in-port constraint beats a wildcard; explicit priority
/// breaks remaining ties (higher wins).
struct Rule {
  Prefix dst;
  NodeId next_hop;
  /// If set, the rule only matches packets arriving from this neighbor.
  std::optional<NodeId> in_from;
  int priority = 0;
};

/// An ordered rule table with longest-prefix-match semantics.
///
/// add() also files each rule into a rank index: rule positions in
/// descending (prefix length, in-port, priority) order, equal ranks in
/// insertion order. match() returns the first rule in that order that
/// applies. The index is built eagerly, so a const table holds no lazily
/// built state and threads may share it; it stores positions, so a copied
/// table's index stays valid.
class ForwardingTable {
 public:
  void add(Rule rule);
  /// Convenience: wildcard in-port rule.
  void add(Prefix dst, NodeId next_hop, int priority = 0);
  /// Convenience: in-port constrained rule.
  void add_from(NodeId in_from, Prefix dst, NodeId next_hop, int priority = 0);

  /// Best-matching next hop for a packet that arrived from `came_from`
  /// with destination `dst`; nullopt when no rule matches (blackhole).
  [[nodiscard]] std::optional<NodeId> match(std::optional<NodeId> came_from,
                                            Address dst) const;

  /// The rules in insertion order (what the spec writer emits).
  [[nodiscard]] const std::vector<Rule>& rules() const { return rules_; }
  /// Positions in rules() from the highest rank down; match() answers with
  /// the first applicable one.
  [[nodiscard]] const std::vector<std::uint32_t>& ranked() const {
    return ranked_;
  }
  [[nodiscard]] bool empty() const { return rules_.empty(); }
  void clear() {
    rules_.clear();
    ranked_.clear();
  }

 private:
  std::vector<Rule> rules_;
  std::vector<std::uint32_t> ranked_;
};

}  // namespace vmn::net
