#include "slice/policy.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>

#include "core/error.hpp"
#include "core/hash.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"
#include "slice/refine.hpp"

namespace vmn::slice {

namespace {

/// Destination addresses worth walking toward: every host address plus every
/// middlebox implicit address (VIPs, NAT externals) - aliases resolve to the
/// hosts behind them through forward_dsts rewrites during the walk.
std::vector<Address> seed_addresses(const encode::NetworkModel& model) {
  std::set<Address> out;
  const net::Network& net = model.network();
  for (NodeId h : net.hosts()) out.insert(net.node(h).address);
  for (const auto& box : model.middleboxes()) {
    for (Address a : box->implicit_addresses()) out.insert(a);
  }
  return {out.begin(), out.end()};
}

/// Deliveries of packets injected at `from` under `tf`'s scenario,
/// following middlebox rewrites and recording the traversed middleboxes
/// per reached host (union over the explored paths; monotone worklist, so
/// a state revisited with new boxes propagates them onward). This is
/// static-dataplane deliverability: a middlebox is traversed, never
/// dropped at - whether it *policy*-drops is the solver's business, and
/// folding policy into the relation would make the classes depend on what
/// is being verified. Which boxes the route *passes*, however, is routing,
/// and exactly what distinguishes a policed sender from one whose in-port
/// rules bypass the box.
std::vector<Delivery> deliveries_from(const encode::NetworkModel& model,
                                      const dataplane::TransferFunction& tf,
                                      NodeId from,
                                      const std::vector<Address>& seeds) {
  const net::Network& net = model.network();
  std::map<NodeId, std::set<NodeId>> delivered;        // target -> boxes
  std::map<std::uint64_t, std::set<NodeId>> boxes_at;  // state -> boxes seen
  std::vector<std::pair<NodeId, Address>> frontier;
  const Address own = net.node(from).address;
  const auto state_key = [](NodeId edge, Address dst) {
    return (std::uint64_t{edge.value()} << 32) | dst.bits();
  };
  for (Address a : seeds) {
    if (a == own) continue;
    boxes_at[state_key(from, a)];  // empty box set
    frontier.emplace_back(from, a);
  }
  while (!frontier.empty()) {
    const auto [edge, dst] = frontier.back();
    frontier.pop_back();
    const std::set<NodeId> boxes = boxes_at[state_key(edge, dst)];
    std::optional<NodeId> next;
    try {
      next = tf.next_edge(edge, dst);
    } catch (const ForwardingLoopError&) {
      // A static forwarding loop on this (source, destination) pair: no
      // packet is ever delivered along it, so for the class relation it is
      // a drop. Verification still surfaces the fault loudly - but only
      // for invariants whose slice actually walks the looping pair, same
      // as before inference walked the whole network.
      continue;
    }
    if (!next) continue;
    if (net.kind(*next) == net::NodeKind::host) {
      if (*next != from) delivered[*next].insert(boxes.begin(), boxes.end());
      continue;
    }
    const mbox::Middlebox* box = model.middlebox_at(*next);
    if (box == nullptr) continue;
    std::set<NodeId> onward_boxes = boxes;
    onward_boxes.insert(*next);
    for (Address onward : box->forward_dsts(dst)) {
      std::set<NodeId>& known = boxes_at[state_key(*next, onward)];
      const std::size_t before = known.size();
      known.insert(onward_boxes.begin(), onward_boxes.end());
      // (Re)visit when this path contributed boxes the state had not seen
      // (first visits always do: onward_boxes holds at least this box).
      // The set union grows monotonically, so this terminates.
      if (known.size() != before) frontier.emplace_back(*next, onward);
    }
  }
  std::vector<Delivery> out;
  out.reserve(delivered.size());
  for (auto& [target, boxes] : delivered) {
    out.push_back(Delivery{target, {boxes.begin(), boxes.end()}});
  }
  return out;
}

using ReachMap = std::unordered_map<NodeId, std::vector<std::vector<Delivery>>>;

std::vector<std::size_t> scenarios_in_budget(
    const std::vector<int>& scenario_failures, int max_failures) {
  std::vector<std::size_t> out;
  for (std::size_t s = 0; s < scenario_failures.size(); ++s) {
    if (max_failures < 0 || scenario_failures[s] <= max_failures) {
      out.push_back(s);
    }
  }
  return out;
}

/// Adds every in-budget delivery as a pair of arcs labelled with its
/// scenario, its direction and its path type. Labels name box *types*, never
/// addresses or instance names, so renamed-but-isomorphic hosts (and
/// symmetric hosts of isomorphic disconnected segments) keep merging while
/// unreachable islands and per-sender middlebox bypasses split. (Telling
/// same-type boxes apart by *configuration* is left to the fingerprint
/// colours and to representatives_for's instance-level subgrouping: a config
/// digest here would split validly symmetric hosts whose paths cross
/// corresponding-but-differently-addressed instances.)
void add_delivery_arcs(const encode::NetworkModel& model, ColourGraph& graph,
                       const std::unordered_map<NodeId, std::size_t>& vertex,
                       const ReachMap& reach,
                       const std::vector<std::size_t>& in_budget) {
  // A path type is the sorted structural fingerprints of the traversed
  // boxes (the fingerprint the canonical keys colour member boxes with).
  // Types are numbered in sorted order, so the labels depend on the types
  // alone, and two distinct types never share a number.
  std::map<std::vector<NodeId>, std::string> type_of;
  for (const auto& [h, per_scenario] : reach) {
    for (std::size_t s : in_budget) {
      for (const Delivery& d : per_scenario[s]) type_of.emplace(d.boxes, "");
    }
  }
  std::map<std::string, std::uint64_t> type_id;
  for (auto& [boxes, type] : type_of) {
    std::vector<std::string> types;
    for (NodeId b : boxes) {
      if (const mbox::Middlebox* box = model.middlebox_at(b)) {
        types.push_back(box->structural_fingerprint());
      }
    }
    std::sort(types.begin(), types.end());
    for (const std::string& t : types) type += t + ",";
    type_id.emplace(type, 0);
  }
  std::uint64_t next_id = 0;
  for (auto& [type, id] : type_id) id = next_id++;

  for (const auto& [h, per_scenario] : reach) {
    for (std::size_t s : in_budget) {
      for (const Delivery& d : per_scenario[s]) {
        // Label bits: scenario from bit 33 up, direction at bit 32 (set on
        // the target's arc back to the sender), path type in the low 32.
        const std::uint64_t label =
            (std::uint64_t{s} << 33) | type_id.at(type_of.at(d.boxes));
        const std::uint64_t inbound = std::uint64_t{1} << 32;
        graph.add_arc(vertex.at(h), label, vertex.at(d.target));
        graph.add_arc(vertex.at(d.target), label | inbound, vertex.at(h));
      }
    }
  }
}

}  // namespace

std::size_t PolicyClasses::class_of(NodeId host) const {
  if (const auto it = index_.find(host); it != index_.end()) return it->second;
  // Hand-assembled (or hand-mutated, un-reindexed) instances: linear scan.
  for (std::size_t i = 0; i < classes.size(); ++i) {
    if (std::find(classes[i].begin(), classes[i].end(), host) !=
        classes[i].end()) {
      return i;
    }
  }
  throw ModelError("host not covered by policy classes");
}

NodeId PolicyClasses::representative_of(NodeId host) const {
  return classes[class_of(host)].front();
}

std::vector<NodeId> PolicyClasses::representatives() const {
  std::vector<NodeId> out;
  out.reserve(classes.size());
  for (const auto& c : classes) out.push_back(c.front());
  return out;
}

namespace {

/// The delivery toward `target` in a target-sorted scenario slot, if any.
const Delivery* find_delivery(const std::vector<Delivery>& deliveries,
                              NodeId target) {
  const auto it = std::lower_bound(
      deliveries.begin(), deliveries.end(), target,
      [](const Delivery& d, NodeId t) { return d.target < t; });
  if (it == deliveries.end() || it->target != target) return nullptr;
  return &*it;
}

}  // namespace

int PolicyClasses::effective_budget(int query_budget) const {
  if (reach_budget_ < 0) return query_budget;
  if (query_budget < 0) return reach_budget_;
  return std::min(query_budget, reach_budget_);
}

std::vector<NodeId> PolicyClasses::representatives_for(
    NodeId target, int max_failures, bool include_unreachable) const {
  if (reach_.empty()) return representatives();
  const std::vector<std::size_t> in_budget = scenarios_in_budget(
      scenario_failures_, effective_budget(max_failures));
  std::vector<NodeId> out;
  for (const auto& c : classes) {
    // One representative per (delivered-under-which-scenarios, traversing-
    // which-instances) behavior toward the target; the signature set per
    // class is tiny, so a flat set of short strings beats anything fancier.
    std::set<std::string> seen;
    for (NodeId h : c) {
      std::string sig;
      bool delivers = false;
      const auto it = reach_.find(h);
      for (std::size_t s : in_budget) {
        const Delivery* d = it != reach_.end() && s < it->second.size()
                                ? find_delivery(it->second[s], target)
                                : nullptr;
        if (d == nullptr) {
          sig += "0;";
          continue;
        }
        delivers = true;
        sig += "(";
        for (NodeId b : d->boxes) sig += std::to_string(b.value()) + ",";
        sig += ");";
      }
      if (!delivers && !include_unreachable) continue;
      if (seen.insert(sig).second) out.push_back(h);
    }
  }
  return out;
}

bool PolicyClasses::reaches(NodeId host, NodeId target,
                            int max_failures) const {
  const auto it = reach_.find(host);
  if (it == reach_.end()) return false;
  for (std::size_t s : scenarios_in_budget(scenario_failures_,
                                           effective_budget(max_failures))) {
    if (s < it->second.size() &&
        find_delivery(it->second[s], target) != nullptr) {
      return true;
    }
  }
  return false;
}

void PolicyClasses::reindex() {
  index_.clear();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (NodeId h : classes[i]) index_[h] = i;
  }
}

void PolicyClasses::set_reach_signatures(
    std::vector<int> scenario_failures,
    std::unordered_map<NodeId, std::vector<std::vector<Delivery>>> reach,
    int budget) {
  scenario_failures_ = std::move(scenario_failures);
  reach_ = std::move(reach);
  reach_budget_ = budget;
  reindex();
}

PolicyClasses infer_policy_classes(const encode::NetworkModel& model,
                                   const PolicyClassOptions& options) {
  const net::Network& net = model.network();
  // One vertex per host, coloured by its configuration fingerprint: the
  // sorted multiset of type-tagged non-empty box fingerprints - no box
  // names, no positions - so hosts of renamed-isomorphic segments (treated
  // alike by their own boxes, not touched by each other's) start alike.
  // Sound because the class is only a symmetry-grouping hypothesis: the
  // delivery arcs split classes whose traffic actually traverses different
  // boxes, and problem keys render every member box's full encoding
  // projection before any verdict merges.
  ColourGraph graph;
  std::unordered_map<NodeId, std::size_t> vertex;
  std::unordered_map<std::uint64_t, std::string> fingerprint_of;
  for (NodeId h : net.hosts()) {
    const Address a = net.node(h).address;
    std::vector<std::string> parts;
    for (const auto& box : model.middleboxes()) {
      std::string bfp = box->policy_fingerprint(a);
      if (bfp.empty()) continue;
      parts.push_back(box->type() + "{" + std::move(bfp) + "}");
    }
    std::sort(parts.begin(), parts.end());
    std::string fp;
    for (std::string& p : parts) fp += p;
    const std::uint64_t colour = fnv1a64(fp);
    const auto [it, fresh] = fingerprint_of.emplace(colour, fp);
    if (!fresh && it->second != fp) {
      throw std::logic_error("policy classes: two fingerprints share a colour");
    }
    vertex.emplace(h, graph.add_vertex(colour));
  }

  dataplane::TransferCache local(net);
  dataplane::TransferCache& transfers =
      options.transfers != nullptr ? *options.transfers : local;
  std::vector<int> scenario_failures;
  scenario_failures.reserve(net.scenarios().size());
  for (const auto& sc : net.scenarios()) {
    scenario_failures.push_back(static_cast<int>(sc.failed_nodes.size()));
  }
  // Walk (and pay for) only the scenarios the verification budget can see;
  // out-of-budget slots stay empty and queries never read them.
  const std::vector<std::size_t> in_budget =
      scenarios_in_budget(scenario_failures, options.max_failures);
  const std::vector<Address> seeds = seed_addresses(model);
  ReachMap reach;
  for (NodeId h : net.hosts()) {
    auto& per_scenario = reach[h];
    per_scenario.resize(scenario_failures.size());
    for (std::size_t s : in_budget) {
      const dataplane::TransferFunction& tf =
          transfers.at(ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
      per_scenario[s] = deliveries_from(model, tf, h, seeds);
    }
  }
  add_delivery_arcs(model, graph, vertex, reach, in_budget);

  // Classes are the stable colours, ordered by colour value (name-blind);
  // members keep host order, so each class's first member is its
  // lowest-numbered host.
  const std::vector<std::uint64_t> colours = refine(graph);
  std::map<std::uint64_t, std::vector<NodeId>> by_colour;
  for (NodeId h : net.hosts()) by_colour[colours[vertex.at(h)]].push_back(h);
  PolicyClasses out;
  out.classes.reserve(by_colour.size());
  for (auto& [colour, hosts] : by_colour) {
    out.classes.push_back(std::move(hosts));
  }
  out.set_reach_signatures(std::move(scenario_failures), std::move(reach),
                           options.max_failures);
  return out;
}

}  // namespace vmn::slice
