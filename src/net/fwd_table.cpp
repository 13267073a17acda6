#include "net/fwd_table.hpp"

#include <algorithm>
#include <tuple>

namespace vmn::net {

namespace {

/// Longest prefix first, then in-port specificity, then priority.
auto rank(const Rule& r) {
  return std::tuple(r.dst.length(), r.in_from.has_value() ? 1 : 0, r.priority);
}

}  // namespace

void ForwardingTable::add(Rule rule) {
  // Insert after every rule of equal or higher rank, so equal-rank ties
  // keep insertion order and the first one added wins.
  const auto at = std::partition_point(
      ranked_.begin(), ranked_.end(),
      [&](std::uint32_t i) { return rank(rules_[i]) >= rank(rule); });
  ranked_.insert(at, static_cast<std::uint32_t>(rules_.size()));
  rules_.push_back(rule);
}

void ForwardingTable::add(Prefix dst, NodeId next_hop, int priority) {
  add(Rule{dst, next_hop, std::nullopt, priority});
}

void ForwardingTable::add_from(NodeId in_from, Prefix dst, NodeId next_hop,
                               int priority) {
  add(Rule{dst, next_hop, in_from, priority});
}

std::optional<NodeId> ForwardingTable::match(std::optional<NodeId> came_from,
                                             Address dst) const {
  for (std::uint32_t i : ranked_) {
    const Rule& r = rules_[i];
    if (!r.dst.contains(dst)) continue;
    if (r.in_from && (!came_from || *r.in_from != *came_from)) continue;
    return r.next_hop;
  }
  return std::nullopt;
}

}  // namespace vmn::net
