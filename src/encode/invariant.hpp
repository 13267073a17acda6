// Reachability invariants (paper, section 3.3).
//
// All invariants are safety properties of the form
//     forall n, p:  always not (rcv(d, n, p) and predicate(p, history))
// VMN negates them - asserting that a violating reception exists - and asks
// the solver for satisfiability.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"

namespace vmn::encode {

enum class InvariantKind : std::uint8_t {
  /// d never receives a packet with source address of s (simple isolation).
  node_isolation,
  /// d never receives a packet from s unless d previously initiated the
  /// matching flow (flow isolation / hole punching).
  flow_isolation,
  /// d never receives a packet whose data originated at s (data isolation,
  /// robust to caches/proxies through the origin abstraction).
  data_isolation,
  /// d never receives a packet classified malicious by the oracle.
  no_malicious_delivery,
  /// every packet d receives previously traversed a middlebox whose name
  /// starts with `type_prefix` (traversal; only meaningful across
  /// non-rewriting middleboxes, since it tracks packet identity).
  traversal,
  /// positive reachability: s can deliver some packet to d. The expected
  /// solver outcome is inverted (sat = reachable = good). Existential over
  /// failures: it holds when any in-budget scenario, the base scenario
  /// included, delivers, so a failure that cuts s off from d does not by
  /// itself violate it.
  reachable,
};

[[nodiscard]] std::string to_string(InvariantKind kind);

struct Invariant {
  InvariantKind kind = InvariantKind::node_isolation;
  NodeId target;             ///< d - the receiving host
  NodeId other;              ///< s - peer host/server (when applicable)
  std::string type_prefix;   ///< traversal: required middlebox type

  static Invariant node_isolation(NodeId d, NodeId s);
  static Invariant flow_isolation(NodeId d, NodeId s);
  static Invariant data_isolation(NodeId d, NodeId origin_server);
  static Invariant no_malicious_delivery(NodeId d);
  /// Traversal for all senders (slice needs one representative per policy
  /// class) ...
  static Invariant traversal(NodeId d, std::string type_prefix);
  /// ... or scoped to packets sent by `s` (constant-size slices).
  static Invariant traversal_from(NodeId d, NodeId s, std::string type_prefix);
  static Invariant reachable(NodeId d, NodeId s);

  /// Hosts the invariant references (used for slice computation).
  [[nodiscard]] std::vector<NodeId> referenced_hosts() const;
  /// True when a sat result means the invariant HOLDS (reachable).
  [[nodiscard]] bool sat_means_holds() const {
    return kind == InvariantKind::reachable;
  }
  [[nodiscard]] std::string describe(
      const std::function<std::string(NodeId)>& node_name) const;

  friend bool operator==(const Invariant&, const Invariant&) = default;
};

}  // namespace vmn::encode
