#include "scenarios/random.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "mbox/app_firewall.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/nat.hpp"
#include "mbox/proxy.hpp"
#include "mbox/scrubber.hpp"
#include "mbox/wan_optimizer.hpp"

namespace vmn::scenarios {

namespace {

/// The zoo. `chainable` marks types whose sim/symbolic semantics pass
/// unrelated traffic through (possibly rewritten), so they can sit inline
/// on a host-to-host service chain without blackholing it; the rest (NAT,
/// load balancer, proxy) drop traffic that does not concern them and are
/// reached via their implicit addresses instead.
struct BoxKind {
  const char* prefix;
  int weight;
  bool chainable;
};

constexpr BoxKind kZoo[] = {
    {"fw", 3, true},     {"idps", 2, true},  {"scrub", 1, true},
    {"gw", 1, true},     {"afw", 1, true},   {"wopt", 1, true},
    {"cache", 1, true},  {"nat", 1, false},  {"lb", 1, false},
    {"proxy", 1, false},
};

Address host_address(int i) {
  return Address::of(10, 0, static_cast<std::uint8_t>(i), 1);
}

/// A random prefix that relates to the host address plan: a specific host,
/// its /24, or the whole host range.
Prefix random_host_prefix(Rng& rng, int hosts) {
  const int h = static_cast<int>(rng.uniform(0, hosts - 1));
  switch (rng.uniform(0, 2)) {
    case 0: return Prefix::host(host_address(h));
    case 1: return Prefix(Address::of(10, 0, static_cast<std::uint8_t>(h), 0),
                          24);
    default: return Prefix(Address::of(10, 0, 0, 0), 16);
  }
}

struct Builder {
  const RandomSpecParams& params;
  Rng rng;
  io::Spec spec;
  net::Network& net;

  std::vector<NodeId> switches;
  std::vector<NodeId> hosts;
  std::vector<NodeId> boxes;
  std::vector<bool> box_chainable;
  std::vector<std::string> box_prefixes;  ///< distinct name prefixes placed
  /// Attachment switch index per host / box.
  std::vector<int> host_switch;
  std::vector<int> box_switch;
  /// box indices chained at (switch s, destination host d); addressed as
  /// chains[s * hosts + d].
  std::vector<std::vector<int>> chains;
  /// Next-hop node from switch s toward destination attached at switch t
  /// (BFS parent maps, one per attachment switch).
  std::vector<std::vector<int>> toward;  ///< toward[t][s] = next switch, -1=t

  explicit Builder(const RandomSpecParams& p)
      : params(p), rng(p.seed), net(spec.model.network()) {}

  void topology() {
    const int s_count = static_cast<int>(rng.uniform(1, params.max_switches));
    for (int i = 0; i < s_count; ++i) {
      switches.push_back(net.add_switch("s" + std::to_string(i)));
    }
    for (int i = 1; i < s_count; ++i) {
      net.add_link(switches[static_cast<std::size_t>(i)],
                   switches[static_cast<std::size_t>(rng.uniform(0, i - 1))]);
    }
    // An occasional redundant link (BFS routing stays loop-free).
    if (s_count > 2 && rng.chance(0.3)) {
      const int a = static_cast<int>(rng.uniform(0, s_count - 1));
      int b = static_cast<int>(rng.uniform(0, s_count - 1));
      if (a != b) {
        const auto& adj = net.neighbors(switches[static_cast<std::size_t>(a)]);
        if (std::find(adj.begin(), adj.end(),
                      switches[static_cast<std::size_t>(b)]) == adj.end()) {
          net.add_link(switches[static_cast<std::size_t>(a)],
                       switches[static_cast<std::size_t>(b)]);
        }
      }
    }

    const int h_count = static_cast<int>(
        rng.uniform(params.min_hosts, std::max(params.min_hosts,
                                               params.max_hosts)));
    for (int i = 0; i < h_count; ++i) {
      NodeId h = net.add_host("h" + std::to_string(i), host_address(i));
      const int at = static_cast<int>(rng.uniform(0, s_count - 1));
      net.add_link(h, switches[static_cast<std::size_t>(at)]);
      hosts.push_back(h);
      host_switch.push_back(at);
    }
  }

  void middleboxes() {
    int total_weight = 0;
    for (const BoxKind& k : kZoo) total_weight += k.weight;
    std::map<std::string, int> per_type_index;
    const int m_count =
        static_cast<int>(rng.uniform(1, std::max(1, params.max_middleboxes)));
    for (int i = 0; i < m_count; ++i) {
      int pick = static_cast<int>(rng.uniform(0, total_weight - 1));
      const BoxKind* kind = &kZoo[0];
      for (const BoxKind& k : kZoo) {
        if (pick < k.weight) {
          kind = &k;
          break;
        }
        pick -= k.weight;
      }
      const int idx = per_type_index[kind->prefix]++;
      const std::string name = kind->prefix + std::to_string(idx);
      add_box(kind->prefix, name, i);
      box_chainable.push_back(kind->chainable);
      if (std::find(box_prefixes.begin(), box_prefixes.end(), kind->prefix) ==
          box_prefixes.end()) {
        box_prefixes.emplace_back(kind->prefix);
      }
      const int at =
          static_cast<int>(rng.uniform(0, static_cast<int>(switches.size()) - 1));
      net.add_link(boxes.back(), switches[static_cast<std::size_t>(at)]);
      box_switch.push_back(at);
    }
  }

  void add_box(const std::string& prefix, const std::string& name, int i) {
    const int h_count = static_cast<int>(hosts.size());
    encode::NetworkModel& model = spec.model;
    if (prefix == "fw") {
      std::vector<mbox::AclEntry> acl;
      const int entries = static_cast<int>(rng.uniform(0, 3));
      for (int e = 0; e < entries; ++e) {
        acl.push_back(mbox::AclEntry{
            random_host_prefix(rng, h_count), random_host_prefix(rng, h_count),
            rng.chance(0.5) ? mbox::AclAction::allow : mbox::AclAction::deny});
      }
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::LearningFirewall>(
                              name, std::move(acl),
                              rng.chance(0.6) ? mbox::AclAction::allow
                                              : mbox::AclAction::deny))
                          .node());
    } else if (prefix == "idps") {
      boxes.push_back(
          model.add_middlebox(std::make_unique<mbox::Idps>(name, rng.chance(0.7)))
              .node());
    } else if (prefix == "scrub") {
      boxes.push_back(
          model.add_middlebox(std::make_unique<mbox::Scrubber>(name)).node());
    } else if (prefix == "gw") {
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::Gateway>(
                              name, rng.chance(0.3)
                                        ? mbox::FailureMode::fail_open
                                        : mbox::FailureMode::fail_closed))
                          .node());
    } else if (prefix == "afw") {
      std::vector<std::uint16_t> blocked;
      const int classes = static_cast<int>(rng.uniform(1, 2));
      for (int c = 0; c < classes; ++c) {
        blocked.push_back(static_cast<std::uint16_t>(rng.uniform(1, 4)));
      }
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::AppFirewall>(
                              name, std::move(blocked)))
                          .node());
    } else if (prefix == "wopt") {
      boxes.push_back(
          model.add_middlebox(std::make_unique<mbox::WanOptimizer>(name))
              .node());
    } else if (prefix == "cache") {
      std::vector<mbox::CacheAclEntry> acl;
      const int entries = static_cast<int>(rng.uniform(0, 2));
      for (int e = 0; e < entries; ++e) {
        acl.push_back(mbox::CacheAclEntry{
            random_host_prefix(rng, h_count),
            host_address(static_cast<int>(rng.uniform(0, h_count - 1))),
            rng.chance(0.7)});
      }
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::ContentCache>(
                              name, std::move(acl)))
                          .node());
    } else if (prefix == "nat") {
      const Prefix internal =
          rng.chance(0.5)
              ? Prefix(Address::of(10, 0, 0, 0), 16)
              : Prefix(Address::of(
                           10, 0,
                           static_cast<std::uint8_t>(rng.uniform(0, h_count - 1)),
                           0),
                       24);
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::Nat>(
                              name,
                              Address::of(172, 16, static_cast<std::uint8_t>(i),
                                          1),
                              internal))
                          .node());
    } else if (prefix == "lb") {
      std::vector<Address> backends;
      const int n = static_cast<int>(rng.uniform(1, std::min(2, h_count)));
      for (std::size_t b : rng.sample(static_cast<std::size_t>(h_count),
                                      static_cast<std::size_t>(n))) {
        backends.push_back(host_address(static_cast<int>(b)));
      }
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::LoadBalancer>(
                              name,
                              Address::of(172, 17, static_cast<std::uint8_t>(i),
                                          1),
                              std::move(backends)))
                          .node());
    } else {  // proxy
      boxes.push_back(model
                          .add_middlebox(std::make_unique<mbox::Proxy>(
                              name, Address::of(172, 18,
                                                static_cast<std::uint8_t>(i),
                                                1)))
                          .node());
    }
  }

  /// BFS parent map over the switch graph toward attachment switch `t`:
  /// toward[t][s] is the switch index one hop closer to t (-1 at t itself).
  void bfs_maps() {
    const int s_count = static_cast<int>(switches.size());
    toward.assign(static_cast<std::size_t>(s_count),
                  std::vector<int>(static_cast<std::size_t>(s_count), -1));
    for (int t = 0; t < s_count; ++t) {
      std::vector<int>& parent = toward[static_cast<std::size_t>(t)];
      std::vector<bool> seen(static_cast<std::size_t>(s_count), false);
      std::deque<int> queue{t};
      seen[static_cast<std::size_t>(t)] = true;
      while (!queue.empty()) {
        const int cur = queue.front();
        queue.pop_front();
        for (NodeId nb : net.neighbors(switches[static_cast<std::size_t>(cur)])) {
          if (net.kind(nb) != net::NodeKind::switch_node) continue;
          const int ni = switch_index(nb);
          if (seen[static_cast<std::size_t>(ni)]) continue;
          seen[static_cast<std::size_t>(ni)] = true;
          parent[static_cast<std::size_t>(ni)] = cur;
          queue.push_back(ni);
        }
      }
    }
  }

  int switch_index(NodeId sw) const {
    for (std::size_t i = 0; i < switches.size(); ++i) {
      if (switches[i] == sw) return static_cast<int>(i);
    }
    return -1;
  }

  /// The datapath next hop from switch `s` toward the edge node `owner`
  /// attached at switch `t` (the owner itself when s == t).
  NodeId base_next(int s, int t, NodeId owner) const {
    if (s == t) return owner;
    const int p = toward[static_cast<std::size_t>(t)][static_cast<std::size_t>(s)];
    return switches[static_cast<std::size_t>(p)];
  }

  void routing() {
    const int s_count = static_cast<int>(switches.size());
    const int h_count = static_cast<int>(hosts.size());
    chains.assign(static_cast<std::size_t>(s_count * h_count), {});
    // Sample the per-(switch, destination) service chains first.
    for (int s = 0; s < s_count; ++s) {
      for (int d = 0; d < h_count; ++d) {
        std::vector<int>& chain = chains[static_cast<std::size_t>(s * h_count + d)];
        for (std::size_t b = 0; b < boxes.size(); ++b) {
          if (box_switch[b] == s && box_chainable[b] &&
              rng.chance(params.chain_probability)) {
            chain.push_back(static_cast<int>(b));
          }
        }
      }
    }
    // Host destination routes: BFS spine with the chain spliced in front
    // (plain rule into the chain head, in-port rules onward - the OneBoxNet
    // pattern every hand-written generator uses).
    for (int d = 0; d < h_count; ++d) {
      const Prefix pd = Prefix::host(host_address(d));
      const int t = host_switch[static_cast<std::size_t>(d)];
      for (int s = 0; s < s_count; ++s) {
        net::ForwardingTable& table = net.table(switches[static_cast<std::size_t>(s)]);
        const NodeId next = base_next(s, t, hosts[static_cast<std::size_t>(d)]);
        const std::vector<int>& chain =
            chains[static_cast<std::size_t>(s * h_count + d)];
        if (chain.empty()) {
          table.add(pd, next);
          continue;
        }
        table.add(pd, boxes[static_cast<std::size_t>(chain[0])], 10);
        for (std::size_t j = 0; j < chain.size(); ++j) {
          const NodeId hop = j + 1 < chain.size()
                                 ? boxes[static_cast<std::size_t>(chain[j + 1])]
                                 : next;
          table.add_from(boxes[static_cast<std::size_t>(chain[j])], pd, hop, 20);
        }
      }
    }
    // Implicit addresses (NAT external, LB VIP, proxy address) route toward
    // their owning box from everywhere; no chains on these paths.
    for (std::size_t b = 0; b < boxes.size(); ++b) {
      const mbox::Middlebox* box = spec.model.middlebox_at(boxes[b]);
      const int t = box_switch[b];
      for (Address a : box->implicit_addresses()) {
        if (net.host_by_address(a)) continue;  // backend lists name hosts
        const Prefix pa = Prefix::host(a);
        for (int s = 0; s < s_count; ++s) {
          net.table(switches[static_cast<std::size_t>(s)])
              .add(pa, base_next(s, t, boxes[b]));
        }
      }
    }
  }

  void scenarios() {
    const int h_count = static_cast<int>(hosts.size());
    const int want = static_cast<int>(rng.uniform(0, params.max_scenarios));
    // (switch, dest) pairs with a non-empty chain, for misroute overrides.
    std::vector<std::pair<int, int>> chained;
    for (int s = 0; s < static_cast<int>(switches.size()); ++s) {
      for (int d = 0; d < h_count; ++d) {
        if (!chains[static_cast<std::size_t>(s * h_count + d)].empty()) {
          chained.emplace_back(s, d);
        }
      }
    }
    for (int k = 0; k < want; ++k) {
      std::vector<NodeId> failed;
      const bool node_failure = !boxes.empty() && rng.chance(0.8);
      if (node_failure) {
        const int budget =
            std::min(params.max_failures, static_cast<int>(boxes.size()));
        if (budget >= 1) {
          const int n = static_cast<int>(rng.uniform(1, budget));
          for (std::size_t b :
               rng.sample(boxes.size(), static_cast<std::size_t>(n))) {
            failed.push_back(boxes[b]);
          }
        }
      }
      const bool misroute =
          !chained.empty() &&
          (rng.chance(params.misroute_probability) || failed.empty());
      if (failed.empty() && !misroute) continue;  // would duplicate base
      const ScenarioId sid = net.add_failure_scenario(
          "f" + std::to_string(k), std::move(failed));
      if (misroute) {
        const auto [s, d] =
            chained[static_cast<std::size_t>(rng.uniform(
                0, static_cast<int>(chained.size()) - 1))];
        // Bypass the whole chain at a higher priority than its entry rule.
        net.override_routes(
            switches[static_cast<std::size_t>(s)], sid,
            {net::Rule{Prefix::host(host_address(d)),
                       base_next(s, host_switch[static_cast<std::size_t>(d)],
                                 hosts[static_cast<std::size_t>(d)]),
                       std::nullopt, 30}});
      }
    }
  }

  void invariants() {
    const int h_count = static_cast<int>(hosts.size());
    const int want = static_cast<int>(
        rng.uniform(params.min_invariants, std::max(params.min_invariants,
                                                    params.max_invariants)));
    for (int i = 0; i < want; ++i) {
      const int d = static_cast<int>(rng.uniform(0, h_count - 1));
      int s = static_cast<int>(rng.uniform(0, h_count - 1));
      if (s == d) s = (s + 1) % h_count;
      const NodeId dn = hosts[static_cast<std::size_t>(d)];
      const NodeId sn = hosts[static_cast<std::size_t>(s)];
      encode::Invariant inv;
      switch (rng.uniform(0, 6)) {
        case 0: inv = encode::Invariant::node_isolation(dn, sn); break;
        case 1: inv = encode::Invariant::flow_isolation(dn, sn); break;
        case 2: inv = encode::Invariant::data_isolation(dn, sn); break;
        case 3: inv = encode::Invariant::no_malicious_delivery(dn); break;
        case 4:
          inv = encode::Invariant::traversal(dn, random_box_prefix());
          break;
        case 5:
          inv = encode::Invariant::traversal_from(dn, sn, random_box_prefix());
          break;
        default: inv = encode::Invariant::reachable(dn, sn); break;
      }
      spec.invariants.push_back(inv);
      spec.expectations.emplace_back();  // differential testing: no oracle
    }
  }

  std::string random_box_prefix() {
    return box_prefixes[static_cast<std::size_t>(
        rng.uniform(0, static_cast<int>(box_prefixes.size()) - 1))];
  }
};

}  // namespace

RandomSpec make_random_spec(const RandomSpecParams& params) {
  Builder b(params);
  b.topology();
  b.middleboxes();
  b.bfs_maps();
  b.routing();
  b.scenarios();
  b.invariants();
  RandomSpec out;
  out.text = io::write_spec_string(b.spec);
  out.spec = std::move(b.spec);
  out.seed = params.seed;
  return out;
}

int derived_max_failures(const encode::NetworkModel& model) {
  std::size_t worst = 0;
  for (const net::FailureScenario& sc : model.network().scenarios()) {
    worst = std::max(worst, sc.failed_nodes.size());
  }
  return static_cast<int>(worst);
}

}  // namespace vmn::scenarios
