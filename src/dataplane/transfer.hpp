// Network transfer functions (paper, section 3.5).
//
// A transfer function maps a located packet - (edge node, destination
// address) - to the next edge node the static datapath delivers it to, for a
// given failure scenario. It is computed by walking the switch graph under
// the scenario's effective forwarding tables, skipping failed nodes. A
// revisited (switch, previous-hop) pair means the forwarding state loops:
// we raise ForwardingLoopError, mirroring the paper ("VMN throws an
// exception when a static forwarding loop is encountered").
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"
#include "net/topology.hpp"

namespace vmn::dataplane {

/// A run of consecutive addresses, both ends included.
struct AddressRange {
  Address first;
  Address last;
};

/// The transfer function of `network` under one failure scenario.
///
/// Construction snapshots the scenario: each switch's effective forwarding
/// table (by node id), the failed-node set, and the destination classes of
/// those tables (see destination_classes()). A walk then does no table or
/// scenario lookup per hop. The object holds pointers into the network and
/// must not outlive it; mutating the network (tables, nodes, scenarios)
/// means building a new TransferFunction.
///
/// next_edge() results are memoised in a dense [edge node x destination
/// class] array, allocated once at construction: nodes x classes cells of
/// four bytes each. Addresses of one class take the same walk, so one cell
/// answers them all. A walk that raises (a forwarding loop) is not
/// memoised.
class TransferFunction {
 public:
  TransferFunction(const net::Network& network, ScenarioId scenario);

  /// Edge node that a packet injected at `from_edge` with destination
  /// address `dst` is delivered to; nullopt if dropped (no route, failed
  /// next hop, or failed target).
  [[nodiscard]] std::optional<NodeId> next_edge(NodeId from_edge,
                                                Address dst) const;

  /// Full node path (switches included) of the same walk; empty when the
  /// packet is dropped before reaching another edge node.
  [[nodiscard]] std::vector<NodeId> path(NodeId from_edge, Address dst) const;

  /// The addresses the first hop out of `from_edge` routes, as sorted,
  /// disjoint, non-adjacent ranges. next_edge() drops every address outside
  /// them before a second hop. The first hop is walk()'s: every alive host
  /// neighbour, in any link order (its own address is delivered directly),
  /// then every prefix of the first alive neighbour switch's
  /// snapshotted table whose rule takes packets from `from_edge` (in-port
  /// wildcard or `from_edge`). A range may still hold dropped addresses:
  /// shadowed rules, failed next hops, later blackholes. Costs O(r log r)
  /// for r such rules; throws ModelError unless `from_edge` is an edge node.
  [[nodiscard]] std::vector<AddressRange> first_hop_ranges(
      NodeId from_edge) const;

  /// One representative per destination class, ascending: the lowest
  /// address of each run of addresses that no rule of the snapshotted
  /// tables and no host address tells apart.
  [[nodiscard]] std::vector<Address> destination_classes() const;

  [[nodiscard]] ScenarioId scenario() const { return scenario_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }

 private:
  /// The walk behind both: the edge node delivered to, if any, appending
  /// the node path to `path` when non-null (next_edge builds none).
  [[nodiscard]] std::optional<NodeId> walk(NodeId from_edge, Address dst,
                                           std::vector<NodeId>* path) const;
  /// The first hop out of `from_edge`, shared by walk() and
  /// first_hop_ranges(): calls `host(n)` for every alive host neighbour n,
  /// whatever the link order, stopping when it returns true, and returns
  /// the first alive neighbour switch; nullopt when none is attached or
  /// `host` stopped the scan.
  template <typename OnHost>
  [[nodiscard]] std::optional<NodeId> first_switch(NodeId from_edge,
                                                   OnHost host) const;
  /// `from_edge`'s memo row; throws ModelError unless it is an edge node.
  [[nodiscard]] std::size_t row(NodeId from_edge) const;
  /// The destination class of `dst`: its index in starts_.
  [[nodiscard]] std::size_t slot(Address dst) const;
  /// True for a switch of the snapshot (a node with a table).
  [[nodiscard]] bool is_switch(NodeId id) const;

  const net::Network* network_;
  ScenarioId scenario_;
  /// Per node id: the switch's effective table, null for edge nodes.
  std::vector<const net::ForwardingTable*> tables_;
  /// Per node id: 1 when the scenario fails the node.
  std::vector<std::uint8_t> failed_;
  /// Per node id: the edge node's memo row, kNoRow for switches.
  std::vector<std::uint32_t> row_of_;
  /// First address of each destination class, ascending; starts with 0.
  std::vector<std::uint32_t> starts_;
  /// rows x starts_.size() cells: kUnknown, kDropped or a node id.
  mutable std::vector<std::int32_t> memo_;
};

/// Memoizes one TransferFunction per failure scenario of a fixed network.
///
/// A TransferFunction snapshots its scenario and accumulates walk results
/// in its memo, so rebuilding one per use site (as slice computation and
/// canonical keys each did per invariant) repeats the snapshot and identical
/// fabric walks. A cache instance is single-threaded, like
/// the TransferFunctions it hands out; share it only within one planning
/// pass, never across worker threads.
class TransferCache {
 public:
  explicit TransferCache(const net::Network& network) : network_(&network) {}

  /// The memoized transfer function for `scenario` (built on first use).
  [[nodiscard]] const TransferFunction& at(ScenarioId scenario);

  [[nodiscard]] const net::Network& network() const { return *network_; }
  /// Distinct scenarios built / requests answered from the memo.
  [[nodiscard]] std::size_t builds() const { return entries_.size(); }
  [[nodiscard]] std::size_t reuses() const { return reuses_; }

 private:
  const net::Network* network_;
  std::unordered_map<ScenarioId::underlying_type,
                     std::unique_ptr<TransferFunction>>
      entries_;
  std::size_t reuses_ = 0;
};

/// The chain of *edge* nodes a packet visits from `src_host` toward `dst`,
/// treating middleboxes as transparent (each re-emits the packet unchanged
/// toward the same destination). The chain ends at the edge node owning
/// `dst`, or earlier if the packet is dropped ('reached' tells which).
/// Used for pipeline-invariant checking and slice closure.
struct EdgeChain {
  std::vector<NodeId> middleboxes;  ///< in traversal order
  std::optional<NodeId> final_edge;
  bool reached = false;  ///< true iff final_edge owns dst
};

[[nodiscard]] EdgeChain edge_chain(const TransferFunction& tf, NodeId src_edge,
                                   Address dst);

}  // namespace vmn::dataplane
