#include "slice/policy.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/error.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"

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

/// Splits classes until no class holds two hosts with different delivery
/// signatures. Signatures are class- and type-aware - "which classes do my
/// packets get delivered to, traversing which middlebox *types*, and which
/// classes deliver to me, per in-budget scenario" - never addresses or
/// instance names, so renamed-but-isomorphic hosts (and symmetric hosts of
/// isomorphic disconnected segments) keep merging while hosts whose
/// packets live in structurally different worlds - unreachable islands,
/// per-sender middlebox bypasses - split. (Distinguishing same-type boxes
/// by *configuration* is deliberately left to the fingerprint grouping and
/// to representatives_for's instance-level subgrouping: a config digest
/// here would split validly symmetric hosts whose paths cross
/// corresponding-but-differently-addressed instances.)
void refine_by_reach(const encode::NetworkModel& model,
                     std::vector<std::vector<NodeId>>& classes,
                     const ReachMap& reach,
                     const std::vector<std::size_t>& in_budget) {
  // Type-level descriptor of a traversed path, shared by both directions
  // and built from the same structural fingerprint the canonical slice key
  // colors member boxes with.
  const auto path_of = [&](const std::vector<NodeId>& boxes) {
    std::vector<std::string> types;
    types.reserve(boxes.size());
    for (NodeId b : boxes) {
      const mbox::Middlebox* box = model.middlebox_at(b);
      if (box == nullptr) continue;
      types.push_back(box->structural_fingerprint());
    }
    std::sort(types.begin(), types.end());
    std::string out = "[";
    for (const std::string& t : types) out += t + ",";
    return out + "]";
  };

  // Both directions with their path strings, computed once (path_of sorts
  // and concatenates; recomputing it per refinement round would redo that
  // for every delivery every round): fwd[h][s] = (target, path) pairs,
  // rev[t][s] = (source, path) pairs.
  using Peers = std::vector<std::vector<std::pair<NodeId, std::string>>>;
  std::unordered_map<NodeId, Peers> fwd;
  std::unordered_map<NodeId, Peers> rev;
  for (const auto& [h, per_scenario] : reach) {
    fwd[h].resize(per_scenario.size());
    rev[h].resize(per_scenario.size());
  }
  for (const auto& [h, per_scenario] : reach) {
    for (std::size_t s = 0; s < per_scenario.size(); ++s) {
      for (const Delivery& d : per_scenario[s]) {
        std::string path = path_of(d.boxes);
        fwd[h][s].emplace_back(d.target, path);
        rev[d.target][s].emplace_back(h, std::move(path));
      }
    }
  }

  std::unordered_map<NodeId, std::size_t> cls;
  const auto assign = [&] {
    cls.clear();
    for (std::size_t i = 0; i < classes.size(); ++i) {
      for (NodeId h : classes[i]) cls[h] = i;
    }
  };
  assign();

  const auto side = [&](std::vector<std::string> parts) {
    std::sort(parts.begin(), parts.end());
    std::string sig;
    for (const std::string& p : parts) sig += p + ",";
    return sig;
  };
  const auto peer_parts = [&](const std::unordered_map<NodeId, Peers>& dir,
                              NodeId h, std::size_t s) {
    std::vector<std::string> parts;
    const auto it = dir.find(h);
    if (it != dir.end() && s < it->second.size()) {
      for (const auto& [peer, path] : it->second[s]) {
        parts.push_back(std::to_string(cls.at(peer)) + path);
      }
    }
    return parts;
  };
  const auto signature = [&](NodeId h) {
    std::string sig;
    for (std::size_t s : in_budget) {
      sig += "s" + std::to_string(s) + ">" + side(peer_parts(fwd, h, s)) +
             "<" + side(peer_parts(rev, h, s)) + ";";
    }
    return sig;
  };

  for (bool changed = true; changed;) {
    changed = false;
    std::vector<std::vector<NodeId>> next;
    next.reserve(classes.size());
    for (auto& c : classes) {
      if (c.size() <= 1) {
        next.push_back(std::move(c));
        continue;
      }
      std::map<std::string, std::vector<NodeId>> buckets;
      for (NodeId h : c) buckets[signature(h)].push_back(h);
      if (buckets.size() > 1) changed = true;
      for (auto& [sig, members] : buckets) next.push_back(std::move(members));
    }
    classes = std::move(next);
    assign();
  }
}

/// Computes the per-host delivery signatures, refines `out.classes` by them
/// (unless `refine_classes` is off - declared classes keep the operator's
/// grouping), installs the signatures and rebuilds the host index.
void attach_reachability(PolicyClasses& out, const encode::NetworkModel& model,
                         const PolicyClassOptions& options,
                         bool refine_classes) {
  if (!options.refine_by_reachability) {
    out.reindex();
    return;
  }
  const net::Network& net = model.network();
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

  if (refine_classes) {
    refine_by_reach(model, out.classes, reach, in_budget);
  }
  out.set_reach_signatures(std::move(scenario_failures), std::move(reach),
                           options.max_failures);
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
  std::map<std::string, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    const Address a = model.network().node(h).address;
    // A host's fingerprint is the sorted multiset of type-tagged non-empty
    // box fingerprints - no box names, no positions - so hosts of
    // renamed-isomorphic segments (treated alike by their own boxes, not
    // touched by each other's) land in one class. Sound because the class
    // is only a symmetry-grouping hypothesis: reachability refinement
    // (attach_reachability below) splits classes whose traffic actually
    // traverses different boxes, and problem keys render every member box's
    // full encoding projection before any verdict merges.
    std::vector<std::string> parts;
    for (const auto& box : model.middleboxes()) {
      std::string bfp = box->policy_fingerprint(a);
      if (bfp.empty()) continue;
      parts.push_back(box->type() + "{" + std::move(bfp) + "}");
    }
    std::sort(parts.begin(), parts.end());
    std::string fp;
    for (std::string& p : parts) fp += p;
    groups[fp].push_back(h);
  }
  PolicyClasses out;
  out.classes.reserve(groups.size());
  for (auto& [fp, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, options, /*refine_classes=*/true);
  return out;
}

PolicyClasses declared_policy_classes(const encode::NetworkModel& model,
                                      const PolicyClassOptions& options) {
  std::map<PolicyClassId, std::vector<NodeId>> groups;
  for (NodeId h : model.network().hosts()) {
    groups[model.policy_class(h)].push_back(h);
  }
  PolicyClasses out;
  out.classes.reserve(groups.size());
  for (auto& [cls, hosts] : groups) out.classes.push_back(std::move(hosts));
  attach_reachability(out, model, options, /*refine_classes=*/false);
  return out;
}

}  // namespace vmn::slice
