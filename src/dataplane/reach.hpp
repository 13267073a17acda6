// Static-datapath analyses in the style of VeriFlow / HSA:
//   - destination equivalence classes (VeriFlow's core trick): addresses
//     that no forwarding rule distinguishes,
//   - a full header-space reachability sweep from an edge node,
//   - a loop / blackhole audit across edge nodes and addresses.
//
// These are the "existing verification tools for static datapaths" the paper
// composes with (sections 1 and 2.3), built from scratch here.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "dataplane/headerspace.hpp"
#include "dataplane/transfer.hpp"
#include "net/topology.hpp"

namespace vmn::dataplane {

/// One representative address per destination equivalence class: two
/// addresses fall in the same class iff every rule of every (effective)
/// table treats them identically. Returned representatives are the lowest
/// address of each class: the classes TransferFunction memoises by.
[[nodiscard]] std::vector<Address> destination_classes(
    const net::Network& network, ScenarioId scenario);

/// Header spaces (over destination addresses) delivered to each edge node
/// when injected at `from_edge`, computed by symbolic propagation through
/// the switch graph.
[[nodiscard]] std::map<NodeId, HeaderSpace> hsa_reach(
    const net::Network& network, ScenarioId scenario, NodeId from_edge);

struct LoopFinding {
  NodeId from_edge;
  Address dst;
  std::string detail;
};

struct BlackholeFinding {
  NodeId from_edge;
  Address dst;
};

/// Exhaustive loop / blackhole audit over all edge nodes and the given
/// addresses (use destination_classes() representatives for completeness).
struct AuditReport {
  std::vector<LoopFinding> loops;
  std::vector<BlackholeFinding> blackholes;
  [[nodiscard]] bool clean() const { return loops.empty() && blackholes.empty(); }
};

[[nodiscard]] AuditReport audit(const net::Network& network, ScenarioId scenario,
                                const std::vector<Address>& addresses);

}  // namespace vmn::dataplane
