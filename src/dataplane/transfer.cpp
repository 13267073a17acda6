#include "dataplane/transfer.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "dataplane/headerspace.hpp"

namespace vmn::dataplane {

namespace {

constexpr std::uint32_t kNoRow = ~std::uint32_t{0};
constexpr std::int32_t kUnknown = -1;
constexpr std::int32_t kDropped = -2;

}  // namespace

TransferFunction::TransferFunction(const net::Network& network,
                                   ScenarioId scenario)
    : network_(&network), scenario_(scenario) {
  const std::size_t nodes = network.node_count();
  tables_.assign(nodes, nullptr);
  failed_.assign(nodes, 0);
  row_of_.assign(nodes, kNoRow);
  // network.scenario() validates the id.
  for (NodeId n : network.scenario(scenario).failed_nodes) {
    failed_[n.value()] = 1;
  }
  // Class boundaries: both ends of every rule prefix and of every host
  // address. 64-bit, to hold 2^32 as an end marker.
  std::vector<std::uint64_t> bounds{0};
  const auto add_prefix = [&](const Prefix& p) {
    const Wildcard w = Wildcard::from_prefix(p);
    bounds.push_back(w.bits());
    bounds.push_back(w.bits() + w.size());
  };
  std::uint32_t rows = 0;
  for (const net::Node& node : network.nodes()) {
    if (node.kind == net::NodeKind::switch_node) {
      const net::ForwardingTable& table =
          network.effective_table(node.id, scenario);
      tables_[node.id.value()] = &table;
      for (const net::Rule& r : table.rules()) add_prefix(r.dst);
      continue;
    }
    row_of_[node.id.value()] = rows++;
    if (node.kind == net::NodeKind::host) {
      add_prefix(Prefix::host(node.address));
    }
  }
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  if (bounds.back() == (std::uint64_t{1} << 32)) bounds.pop_back();
  starts_.assign(bounds.begin(), bounds.end());
  memo_.assign(std::size_t{rows} * starts_.size(), kUnknown);
}

bool TransferFunction::is_switch(NodeId id) const {
  if (id.value() >= tables_.size()) {
    throw ModelError("unknown node id " + std::to_string(id.value()));
  }
  return tables_[id.value()] != nullptr;
}

std::size_t TransferFunction::row(NodeId from_edge) const {
  if (is_switch(from_edge)) {
    throw ModelError("transfer function input must be an edge node, got " +
                     network_->name(from_edge));
  }
  return row_of_[from_edge.value()];
}

std::size_t TransferFunction::slot(Address dst) const {
  return static_cast<std::size_t>(
      std::upper_bound(starts_.begin(), starts_.end(), dst.bits()) -
      starts_.begin() - 1);
}

std::vector<Address> TransferFunction::destination_classes() const {
  return {starts_.begin(), starts_.end()};
}

template <typename OnHost>
std::optional<NodeId> TransferFunction::first_switch(NodeId from_edge,
                                                     OnHost host) const {
  const net::Network& net = *network_;
  std::optional<NodeId> sw;
  for (NodeId n : net.neighbors(from_edge)) {
    if (failed_[n.value()] != 0) continue;
    if (is_switch(n)) {
      if (!sw) sw = n;
    } else if (net.node(n).kind == net::NodeKind::host && host(n)) {
      return std::nullopt;
    }
  }
  return sw;
}

std::optional<NodeId> TransferFunction::walk(NodeId from_edge, Address dst,
                                             std::vector<NodeId>* path) const {
  const net::Network& net = *network_;
  (void)row(from_edge);  // edge nodes only
  if (path != nullptr) path->assign(1, from_edge);
  // Note: a failed *edge* node may still source packets here - whether a
  // down middlebox emits anything is decided by its own axioms (fail-open
  // boxes keep forwarding); the static datapath just carries packets.

  // Direct delivery: a neighboring host owning dst (host-host wiring).
  // Otherwise enter the switch fabric through the first alive neighbor
  // switch.
  std::optional<NodeId> direct;
  NodeId prev = from_edge;
  std::optional<NodeId> cur = first_switch(from_edge, [&](NodeId n) {
    if (net.node(n).address != dst) return false;
    direct = n;
    return true;
  });
  if (direct) {
    if (path != nullptr) path->push_back(*direct);
    return direct;
  }
  if (!cur) {  // no alive attachment: dropped
    if (path != nullptr) path->clear();
    return std::nullopt;
  }

  // (came_from, at-switch) pairs seen so far. Fabric paths are short, so a
  // linear scan of an inline buffer beats a set; longer walks spill.
  std::array<std::pair<NodeId, NodeId>, 16> seen;
  std::vector<std::pair<NodeId, NodeId>> seen_more;
  std::size_t seen_count = 0;
  while (true) {
    if (path != nullptr) path->push_back(*cur);
    if (!is_switch(*cur)) return *cur;  // delivered to an edge node
    const std::pair<NodeId, NodeId> hop{prev, *cur};
    const auto seen_end = seen.begin() + std::min(seen_count, seen.size());
    if (std::find(seen.begin(), seen_end, hop) != seen_end ||
        std::find(seen_more.begin(), seen_more.end(), hop) !=
            seen_more.end()) {
      throw ForwardingLoopError("forwarding loop at switch " + net.name(*cur) +
                                " for destination " + dst.to_string() +
                                " (scenario " +
                                net.scenario(scenario_).name + ")");
    }
    if (seen_count < seen.size()) {
      seen[seen_count] = hop;
    } else {
      seen_more.push_back(hop);
    }
    ++seen_count;
    const auto next = tables_[cur->value()]->match(prev, dst);
    // Drop on blackholes and on failed *switches*; failed edge nodes still
    // receive (their failure mode decides what happens next).
    if (!next || (is_switch(*next) && failed_[next->value()] != 0)) {
      if (path != nullptr) path->clear();
      return std::nullopt;
    }
    prev = *cur;
    cur = next;
  }
}

std::vector<AddressRange> TransferFunction::first_hop_ranges(
    NodeId from_edge) const {
  (void)row(from_edge);  // edge nodes only
  // 64-bit ends: a /0 rule ends at 2^32 - 1, and merging looks one past.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  const std::optional<NodeId> sw = first_switch(from_edge, [&](NodeId n) {
    const std::uint64_t a = network_->node(n).address.bits();
    spans.emplace_back(a, a);
    return false;
  });
  if (sw) {
    for (const net::Rule& r : tables_[sw->value()]->rules()) {
      if (r.in_from && *r.in_from != from_edge) continue;
      const Wildcard w = Wildcard::from_prefix(r.dst);
      spans.emplace_back(w.bits(), w.bits() + w.size() - 1);
    }
  }
  std::sort(spans.begin(), spans.end());
  std::vector<AddressRange> out;
  std::uint64_t last = 0;
  for (const auto& [lo, hi] : spans) {
    if (!out.empty() && lo <= last + 1) {
      last = std::max(last, hi);
    } else {
      out.push_back({Address(static_cast<std::uint32_t>(lo)), {}});
      last = hi;
    }
    out.back().last = Address(static_cast<std::uint32_t>(last));
  }
  return out;
}

std::optional<NodeId> TransferFunction::next_edge(NodeId from_edge,
                                                  Address dst) const {
  std::int32_t& cell = memo_[row(from_edge) * starts_.size() + slot(dst)];
  if (cell == kUnknown) {
    const std::optional<NodeId> to = walk(from_edge, dst, nullptr);
    cell = to ? static_cast<std::int32_t>(to->value()) : kDropped;
  }
  if (cell == kDropped) return std::nullopt;
  return NodeId(static_cast<NodeId::underlying_type>(cell));
}

std::vector<NodeId> TransferFunction::path(NodeId from_edge, Address dst) const {
  std::vector<NodeId> p;
  (void)walk(from_edge, dst, &p);
  return p;
}

const TransferFunction& TransferCache::at(ScenarioId scenario) {
  auto it = entries_.find(scenario.value());
  if (it != entries_.end()) {
    ++reuses_;
    return *it->second;
  }
  auto [pos, _] = entries_.emplace(
      scenario.value(), std::make_unique<TransferFunction>(*network_, scenario));
  return *pos->second;
}

EdgeChain edge_chain(const TransferFunction& tf, NodeId src_edge, Address dst) {
  const net::Network& net = tf.network();
  EdgeChain chain;
  NodeId at = src_edge;
  // Bound the chain by the number of edge nodes: revisiting a middlebox for
  // the same destination would recur forever (middlebox-level loop).
  const std::size_t limit = net.node_count() + 1;
  for (std::size_t steps = 0; steps < limit; ++steps) {
    auto next = tf.next_edge(at, dst);
    if (!next) return chain;  // dropped in the fabric
    chain.final_edge = *next;
    if (net.kind(*next) == net::NodeKind::host) {
      chain.reached = net.node(*next).address == dst;
      return chain;
    }
    chain.middleboxes.push_back(*next);
    at = *next;
  }
  throw ForwardingLoopError(
      "middlebox-level forwarding loop toward " + dst.to_string() +
      " starting at " + net.name(src_edge));
}

}  // namespace vmn::dataplane
