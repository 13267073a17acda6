#include "dataplane/reach.hpp"

#include "core/error.hpp"

namespace vmn::dataplane {

std::vector<Address> destination_classes(const net::Network& network,
                                         ScenarioId scenario) {
  return TransferFunction(network, scenario).destination_classes();
}

std::map<NodeId, HeaderSpace> hsa_reach(const net::Network& network,
                                        ScenarioId scenario, NodeId from_edge) {
  std::map<NodeId, HeaderSpace> delivered;
  if (!network.is_edge(from_edge)) {
    throw ModelError("hsa_reach requires an edge node");
  }
  // Failed edge nodes may still source packets (fail-open middleboxes keep
  // forwarding); consistent with TransferFunction::walk.

  struct Item {
    NodeId prev;
    NodeId at;
    HeaderSpace space;
    std::size_t depth;
  };
  // TransferFunction::walk's first hop: every alive host neighbour takes
  // its own address directly, whatever the link order, and the rest enters
  // the fabric through the first alive neighbour switch.
  std::vector<Item> work;
  std::optional<NodeId> first_switch;
  HeaderSpace fabric = HeaderSpace::all();
  for (NodeId n : network.neighbors(from_edge)) {
    if (network.is_failed(n, scenario)) continue;
    if (network.kind(n) == net::NodeKind::switch_node) {
      if (!first_switch) first_switch = n;
    } else if (network.kind(n) == net::NodeKind::host) {
      const HeaderSpace own =
          HeaderSpace::from_prefix(Prefix::host(network.node(n).address));
      auto& hs = delivered[n];
      hs = hs.union_with(own);
      fabric = fabric.difference(own);
    }
  }
  if (first_switch) {
    work.push_back(Item{from_edge, *first_switch, std::move(fabric), 0});
  }

  const std::size_t max_depth = network.node_count() + 1;
  while (!work.empty()) {
    Item item = std::move(work.back());
    work.pop_back();
    if (item.depth > max_depth) {
      throw ForwardingLoopError("header-space propagation exceeded diameter at " +
                                network.name(item.at));
    }
    const net::ForwardingTable& table =
        network.effective_table(item.at, scenario);
    // Rules that can apply to packets arriving from item.prev, in the order
    // ForwardingTable::match tries them.
    HeaderSpace remaining = item.space;
    for (std::uint32_t i : table.ranked()) {
      const net::Rule* r = &table.rules()[i];
      if (r->in_from && *r->in_from != item.prev) continue;
      if (remaining.is_empty()) break;
      const HeaderSpace rule_space = HeaderSpace::from_prefix(r->dst);
      HeaderSpace taken = remaining.intersect(rule_space);
      if (taken.is_empty()) continue;
      remaining = remaining.difference(rule_space);
      if (network.is_failed(r->next_hop, scenario) &&
          !network.is_edge(r->next_hop)) {
        continue;  // failed switch: dropped (failed edges still receive)
      }
      if (network.is_edge(r->next_hop)) {
        auto& hs = delivered[r->next_hop];
        hs = hs.union_with(taken);
      } else {
        work.push_back(Item{item.at, r->next_hop, std::move(taken),
                            item.depth + 1});
      }
    }
    // `remaining` is blackholed at this switch.
  }
  return delivered;
}

AuditReport audit(const net::Network& network, ScenarioId scenario,
                  const std::vector<Address>& addresses) {
  AuditReport report;
  TransferFunction tf(network, scenario);
  for (const auto& node : network.nodes()) {
    if (node.kind == net::NodeKind::switch_node) continue;
    if (network.is_failed(node.id, scenario)) continue;
    for (Address a : addresses) {
      if (node.kind == net::NodeKind::host && node.address == a) continue;
      try {
        auto path = tf.path(node.id, a);
        if (path.size() < 2) {
          report.blackholes.push_back(BlackholeFinding{node.id, a});
        }
      } catch (const ForwardingLoopError& e) {
        report.loops.push_back(LoopFinding{node.id, a, e.what()});
      }
    }
  }
  return report;
}

}  // namespace vmn::dataplane
