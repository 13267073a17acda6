#include "slice/policy.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/error.hpp"
#include "core/hash.hpp"
#include "mbox/config.hpp"
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

constexpr std::uint32_t kNone = ~std::uint32_t{0};

/// One delivery while the relation is built: a target host (its index in
/// host order) and the interned set of middleboxes traversed on the way.
struct Reached {
  std::uint32_t target;
  std::uint32_t boxes;
};

/// Interned middlebox sets: equal sets share one id, so set equality is id
/// equality and each union is computed once per id pair. Id 0 is the empty
/// set.
class BoxSets {
 public:
  BoxSets() : sets_(1) { ids_.emplace(sets_[0], 0); }

  [[nodiscard]] std::uint32_t singleton(NodeId box) { return intern({box}); }

  [[nodiscard]] std::uint32_t unite(std::uint32_t a, std::uint32_t b) {
    if (a == b || b == 0) return a;
    if (a == 0) return b;
    if (a > b) std::swap(a, b);
    const auto [it, fresh] =
        unions_.try_emplace((std::uint64_t{a} << 32) | b, 0);
    if (fresh) {
      std::vector<NodeId> both;
      std::set_union(sets_[a].begin(), sets_[a].end(), sets_[b].begin(),
                     sets_[b].end(), std::back_inserter(both));
      it->second = intern(std::move(both));
    }
    return it->second;
  }

  [[nodiscard]] std::vector<std::vector<NodeId>> release() {
    return std::move(sets_);
  }

 private:
  struct Hash {
    std::size_t operator()(const std::vector<NodeId>& set) const {
      std::uint64_t h = kFnv1a64Basis;
      for (NodeId n : set) h = (h ^ n.value()) * kFnv1a64Prime;
      return h;
    }
  };

  std::uint32_t intern(std::vector<NodeId> set) {
    const auto [it, fresh] = ids_.try_emplace(
        std::move(set), static_cast<std::uint32_t>(sets_.size()));
    if (fresh) sets_.push_back(it->first);
    return it->second;
  }

  std::vector<std::vector<NodeId>> sets_;
  std::unordered_map<std::vector<NodeId>, std::uint32_t, Hash> ids_;
  std::unordered_map<std::uint64_t, std::uint32_t> unions_;
};

/// A dense per-target accumulator, reused across sources: add() unites the
/// box sets reaching one target, drain() hands the deliveries out in target
/// order and clears the slots it touched.
class Slots {
 public:
  Slots(std::size_t targets, BoxSets& sets)
      : slot_(targets, kNone), sets_(&sets) {}

  void add(std::uint32_t target, std::uint32_t boxes) {
    std::uint32_t& slot = slot_[target];
    if (slot == kNone) {
      slot = boxes;
      touched_.push_back(target);
    } else {
      slot = sets_->unite(slot, boxes);
    }
  }

  /// Appends the accumulated deliveries except those to `skip` to `out`.
  void drain(std::uint32_t skip, std::vector<Reached>& out) {
    std::sort(touched_.begin(), touched_.end());
    for (std::uint32_t t : touched_) {
      if (t != skip) out.push_back({t, slot_[t]});
      slot_[t] = kNone;
    }
    touched_.clear();
  }

 private:
  std::vector<std::uint32_t> slot_;
  std::vector<std::uint32_t> touched_;
  BoxSets* sets_;
};

/// Where packets entering middleboxes end up under one failure scenario,
/// memoised per entry state (box, destination): the hosts they can be
/// delivered to, each with the union of the middleboxes traversed on the
/// way (the entered box included), following forward_dsts rewrites. Once a
/// packet enters a box its onward walk no longer depends on who sent it,
/// so every source shares these lists.
///
/// This is static-dataplane deliverability: a middlebox is traversed,
/// never dropped at - whether it *policy*-drops is the solver's business,
/// and folding policy into the relation would make the classes depend on
/// what is being verified. Which boxes the route *passes*, however, is
/// routing, and exactly what distinguishes a policed sender from one whose
/// in-port rules bypass the box.
///
/// Rewrites can cycle (two load balancers whose backends include each
/// other's VIP). The deliveries are the least fixpoint - the union over
/// every walk - so states of one strongly connected component share one
/// list: every member reaches every other, so each member's list holds
/// all of the component's boxes plus whatever leaves it. Tarjan's pass
/// closes components in reverse topological order, so the lists a
/// component leaves into are final when it closes.
class BoxWalks {
 public:
  BoxWalks(const encode::NetworkModel& model,
           const dataplane::TransferFunction& tf,
           const std::vector<std::uint32_t>& host_index, BoxSets& sets)
      : model_(&model),
        tf_(&tf),
        host_index_(&host_index),
        sets_(&sets),
        slots_(host_index.size(), sets) {}

  /// The deliveries of a packet entering `box` toward `dst`, by target.
  [[nodiscard]] const std::vector<Reached>& entering(NodeId box, Address dst) {
    return lists_[states_[state(box, dst)].list];
  }

 private:
  /// A walk state; its index in states_ is its Tarjan visit order.
  struct State {
    NodeId box;
    Address dst;
    std::uint32_t low;  // Tarjan low link
    std::uint32_t list;  // index into lists_ once its SCC closed, else kNone
    std::vector<std::uint32_t> hosts;   // delivered to straight from the box
    std::vector<std::uint32_t> onward;  // successor states
  };

  /// The state's index, visiting it first if it is new.
  std::uint32_t state(NodeId box, Address dst) {
    const auto [it, fresh] = state_of_.try_emplace(
        (std::uint64_t{box.value()} << 32) | dst.bits(),
        static_cast<std::uint32_t>(states_.size()));
    const std::uint32_t v = it->second;
    if (fresh) {
      states_.push_back(State{box, dst, v, kNone, {}, {}});
      stack_.push_back(v);
      visit(v);
    }
    return v;
  }

  void visit(std::uint32_t v) {
    const net::Network& net = model_->network();
    const NodeId box = states_[v].box;
    for (Address onward : model_->middlebox_at(box)->forward_dsts(
             states_[v].dst)) {
      std::optional<NodeId> next;
      try {
        next = tf_->next_edge(box, onward);
      } catch (const ForwardingLoopError&) {
        continue;  // a static forwarding loop delivers nothing
      }
      if (!next) continue;
      if (net.kind(*next) == net::NodeKind::host) {
        states_[v].hosts.push_back((*host_index_)[next->value()]);
        continue;
      }
      if (model_->middlebox_at(*next) == nullptr) continue;
      const std::uint32_t w = state(*next, onward);
      if (states_[w].list == kNone) {  // still open: on the stack
        states_[v].low = std::min(states_[v].low, states_[w].low);
      }
      states_[v].onward.push_back(w);
    }
    if (states_[v].low == v) close(v);
  }

  /// Pops the SCC rooted at `root` and gives its members one list.
  void close(std::uint32_t root) {
    const auto first = std::find(stack_.begin(), stack_.end(), root);
    const std::span<const std::uint32_t> members(first, stack_.end());
    std::uint32_t boxes = 0;
    for (std::uint32_t m : members) {
      boxes = sets_->unite(boxes, sets_->singleton(states_[m].box));
    }
    for (std::uint32_t m : members) {
      for (std::uint32_t h : states_[m].hosts) slots_.add(h, boxes);
      for (std::uint32_t w : states_[m].onward) {
        if (states_[w].list == kNone) continue;  // inside this SCC
        for (const Reached& r : lists_[states_[w].list]) {
          slots_.add(r.target, sets_->unite(boxes, r.boxes));
        }
      }
    }
    const auto list = static_cast<std::uint32_t>(lists_.size());
    slots_.drain(kNone, lists_.emplace_back());
    for (std::uint32_t m : members) states_[m].list = list;
    stack_.erase(first, stack_.end());
  }

  const encode::NetworkModel* model_;
  const dataplane::TransferFunction* tf_;
  const std::vector<std::uint32_t>* host_index_;
  BoxSets* sets_;
  Slots slots_;
  std::unordered_map<std::uint64_t, std::uint32_t> state_of_;
  std::vector<State> states_;
  std::vector<std::uint32_t> stack_;
  std::vector<std::vector<Reached>> lists_;
};

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

/// Adds every recorded delivery as a pair of arcs labelled with its
/// scenario, its direction and its path type; `begin[s * H + i]` opens host
/// i's deliveries under scenario s in `deliveries` (out-of-budget scenarios
/// hold none). Labels name box *types*, never addresses or instance names,
/// so renamed-but-isomorphic hosts (and symmetric hosts of isomorphic
/// disconnected segments) keep merging while unreachable islands and
/// per-sender middlebox bypasses split. (Telling same-type boxes apart by
/// *configuration* is left to the fingerprint colours and to
/// representatives_for's instance-level subgrouping: a config digest here
/// would split validly symmetric hosts whose paths cross
/// corresponding-but-differently-addressed instances.)
void add_delivery_arcs(const encode::NetworkModel& model, ColourGraph& graph,
                       const std::vector<std::uint32_t>& begin,
                       const std::vector<Reached>& deliveries,
                       const std::vector<std::vector<NodeId>>& box_sets) {
  // A path type is the sorted structural fingerprints of the traversed
  // boxes (the fingerprint the canonical keys colour member boxes with).
  // Types are numbered in sorted order over the box sets the deliveries
  // use, so the labels depend on the types alone, and two distinct types
  // never share a number.
  std::vector<bool> used(box_sets.size(), false);
  for (const Reached& d : deliveries) used[d.boxes] = true;
  std::vector<std::pair<std::string, std::uint32_t>> types;
  for (std::uint32_t id = 0; id < box_sets.size(); ++id) {
    if (!used[id]) continue;
    std::vector<std::string> parts;
    for (NodeId b : box_sets[id]) {
      if (const mbox::Middlebox* box = model.middlebox_at(b)) {
        parts.push_back(box->structural_fingerprint());
      }
    }
    std::sort(parts.begin(), parts.end());
    std::string type;
    for (const std::string& t : parts) type += t + ",";
    types.emplace_back(std::move(type), id);
  }
  std::sort(types.begin(), types.end());
  std::vector<std::uint64_t> type_of(box_sets.size());
  std::uint64_t next_type = 0;
  for (std::size_t i = 0; i < types.size(); ++i) {
    if (i > 0 && types[i].first != types[i - 1].first) ++next_type;
    type_of[types[i].second] = next_type;
  }

  const std::size_t hosts = graph.colours.size();
  for (std::size_t slot = 0; slot + 1 < begin.size(); ++slot) {
    const std::uint64_t s = slot / hosts;
    const std::size_t h = slot % hosts;
    for (std::uint32_t i = begin[slot]; i < begin[slot + 1]; ++i) {
      const Reached& d = deliveries[i];
      // Label bits: scenario from bit 33 up, direction at bit 32 (set on
      // the target's arc back to the sender), path type in the low 32.
      const std::uint64_t label = (s << 33) | type_of[d.boxes];
      const std::uint64_t inbound = std::uint64_t{1} << 32;
      graph.add_arc(h, label, d.target);
      graph.add_arc(d.target, label | inbound, h);
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

int PolicyClasses::effective_budget(int query_budget) const {
  if (reach_budget_ < 0) return query_budget;
  if (query_budget < 0) return reach_budget_;
  return std::min(query_budget, reach_budget_);
}

std::span<const PolicyClasses::Delivery> PolicyClasses::reach(
    NodeId host, std::size_t s) const {
  const auto it = std::lower_bound(hosts_.begin(), hosts_.end(), host);
  if (it == hosts_.end() || *it != host || s >= scenario_failures_.size()) {
    return {};
  }
  const std::size_t slot =
      s * hosts_.size() + static_cast<std::size_t>(it - hosts_.begin());
  return {deliveries_.data() + reach_begin_[slot],
          deliveries_.data() + reach_begin_[slot + 1]};
}

const PolicyClasses::Delivery* PolicyClasses::find_delivery(
    NodeId host, std::size_t s, NodeId target) const {
  const std::span<const Delivery> ds = reach(host, s);
  const auto it = std::lower_bound(
      ds.begin(), ds.end(), target,
      [](const Delivery& d, NodeId t) { return d.target < t; });
  if (it == ds.end() || it->target != target) return nullptr;
  return &*it;
}

std::vector<NodeId> PolicyClasses::representatives_for(
    NodeId target, int max_failures, bool include_unreachable) const {
  if (hosts_.empty()) return representatives();
  const std::vector<std::size_t> in_budget = scenarios_in_budget(
      scenario_failures_, effective_budget(max_failures));
  std::vector<NodeId> out;
  std::vector<std::uint32_t> sig;
  for (const auto& c : classes) {
    // One representative per (delivered-under-which-scenarios, traversing-
    // which-instances) behavior toward the target: per scenario, 0 for no
    // delivery, else 1 + the interned box-set id.
    std::set<std::vector<std::uint32_t>> seen;
    for (NodeId h : c) {
      sig.clear();
      bool delivers = false;
      for (std::size_t s : in_budget) {
        const Delivery* d = find_delivery(h, s, target);
        delivers |= d != nullptr;
        sig.push_back(d == nullptr ? 0 : d->boxes + 1);
      }
      if (!delivers && !include_unreachable) continue;
      if (!seen.contains(sig)) {
        seen.insert(sig);
        out.push_back(h);
      }
    }
  }
  return out;
}

bool PolicyClasses::reaches(NodeId host, NodeId target,
                            int max_failures) const {
  for (std::size_t s : scenarios_in_budget(scenario_failures_,
                                           effective_budget(max_failures))) {
    if (find_delivery(host, s, target) != nullptr) return true;
  }
  return false;
}

std::vector<std::pair<NodeId, std::vector<NodeId>>> PolicyClasses::deliveries(
    NodeId host, std::size_t scenario) const {
  std::vector<std::pair<NodeId, std::vector<NodeId>>> out;
  for (const Delivery& d : reach(host, scenario)) {
    out.emplace_back(d.target, box_sets_[d.boxes]);
  }
  return out;
}

void PolicyClasses::reindex() {
  index_.clear();
  for (std::size_t i = 0; i < classes.size(); ++i) {
    for (NodeId h : classes[i]) index_[h] = i;
  }
}

PolicyClasses infer_policy_classes(const encode::NetworkModel& model,
                                   const PolicyClassOptions& options) {
  const net::Network& net = model.network();
  const std::vector<NodeId> hosts = net.hosts();
  // One vertex per host, in host order (vertex i is hosts[i]), coloured by
  // its configuration fingerprint: the sorted multiset of type-tagged
  // non-empty box fingerprints - no box names, no positions - so hosts of
  // renamed-isomorphic segments (treated alike by their own boxes, not
  // touched by each other's) start alike. Sound because the class is only
  // a symmetry-grouping hypothesis: the delivery arcs split classes whose
  // traffic actually traverses different boxes, and problem keys render
  // every member box's full encoding projection before any verdict merges.
  ColourGraph graph;
  std::unordered_map<std::uint64_t, std::string> fingerprint_of;
  std::vector<std::uint32_t> host_index(net.node_count(), kNone);
  // policy_fingerprint(a) renders the box's descriptor at `a`; build each
  // descriptor once rather than once per host.
  std::vector<std::pair<std::string, mbox::ConfigRelations>> boxes;
  for (const auto& box : model.middleboxes()) {
    boxes.emplace_back(box->type(), box->config_relations());
  }
  for (NodeId h : hosts) {
    const Address a = net.node(h).address;
    std::vector<std::string> parts;
    for (const auto& [type, relations] : boxes) {
      std::string bfp = mbox::render_fingerprint(relations, a);
      if (bfp.empty()) continue;
      parts.push_back(type + "{" + std::move(bfp) + "}");
    }
    std::sort(parts.begin(), parts.end());
    std::string fp;
    for (std::string& p : parts) fp += p;
    const std::uint64_t colour = fnv1a64(fp);
    const auto [it, fresh] = fingerprint_of.try_emplace(colour, fp);
    if (!fresh && it->second != fp) {
      throw std::logic_error("policy classes: two fingerprints share a colour");
    }
    host_index[h.value()] =
        static_cast<std::uint32_t>(graph.add_vertex(colour));
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
  // out-of-budget scenarios record no deliveries and queries never read
  // them. Per source, only the first hop toward each seed address is its
  // own: a packet that enters a middlebox continues along the scenario's
  // shared BoxWalks lists, and delivery back to the source is dropped.
  // Only the seeds the source's first hop routes are walked: the first
  // switch drops every other one, so the walks cost what first hops route,
  // not |hosts| x |seeds|.
  const std::vector<std::size_t> in_budget =
      scenarios_in_budget(scenario_failures, options.max_failures);
  const std::vector<Address> seeds = seed_addresses(model);
  BoxSets sets;
  Slots slots(hosts.size(), sets);
  std::vector<Reached> deliveries;
  std::vector<std::uint32_t> begin;
  begin.reserve(scenario_failures.size() * hosts.size() + 1);
  for (std::size_t s = 0; s < scenario_failures.size(); ++s) {
    if (!std::binary_search(in_budget.begin(), in_budget.end(), s)) {
      begin.insert(begin.end(), hosts.size(),
                   static_cast<std::uint32_t>(deliveries.size()));
      continue;
    }
    const dataplane::TransferFunction& tf =
        transfers.at(ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
    BoxWalks walks(model, tf, host_index, sets);
    for (std::uint32_t i = 0; i < hosts.size(); ++i) {
      begin.push_back(static_cast<std::uint32_t>(deliveries.size()));
      const Address own = net.node(hosts[i]).address;
      for (const dataplane::AddressRange& range :
           tf.first_hop_ranges(hosts[i])) {
        for (auto a = std::lower_bound(seeds.begin(), seeds.end(), range.first);
             a != seeds.end() && *a <= range.last; ++a) {
          if (*a == own) continue;
          std::optional<NodeId> next;
          try {
            next = tf.next_edge(hosts[i], *a);
          } catch (const ForwardingLoopError&) {
            // A static forwarding loop on this (source, destination) pair:
            // no packet is ever delivered along it, so for the class
            // relation it is a drop. Verification still surfaces the fault
            // loudly - but only for invariants whose slice actually walks
            // the looping pair, same as before inference walked the whole
            // network.
            continue;
          }
          if (!next) continue;
          if (net.kind(*next) == net::NodeKind::host) {
            slots.add(host_index[next->value()], 0);
          } else if (model.middlebox_at(*next) != nullptr) {
            for (const Reached& r : walks.entering(*next, *a)) {
              slots.add(r.target, r.boxes);
            }
          }
        }
      }
      slots.drain(i, deliveries);
    }
  }
  begin.push_back(static_cast<std::uint32_t>(deliveries.size()));
  std::vector<std::vector<NodeId>> box_sets = sets.release();
  add_delivery_arcs(model, graph, begin, deliveries, box_sets);

  // Classes are the stable colours, ordered by colour value (name-blind);
  // members keep host order, so each class's first member is its
  // lowest-numbered host.
  const std::vector<std::uint64_t> colours = refine(graph);
  std::map<std::uint64_t, std::vector<NodeId>> by_colour;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    by_colour[colours[i]].push_back(hosts[i]);
  }
  PolicyClasses out;
  out.classes.reserve(by_colour.size());
  for (auto& [colour, members] : by_colour) {
    out.classes.push_back(std::move(members));
  }
  out.reindex();
  out.scenario_failures_ = std::move(scenario_failures);
  out.hosts_ = hosts;
  out.reach_begin_ = std::move(begin);
  out.deliveries_.reserve(deliveries.size());
  for (const Reached& r : deliveries) {
    out.deliveries_.push_back({hosts[r.target], r.boxes});
  }
  out.box_sets_ = std::move(box_sets);
  out.reach_budget_ = options.max_failures;
  return out;
}

}  // namespace vmn::slice
