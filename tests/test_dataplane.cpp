// Tests for the static-datapath substrate: transfer functions, loop
// detection, equivalence classes, HSA reachability, pipeline checking.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <set>
#include <string>
#include <tuple>

#include "core/rng.hpp"
#include "dataplane/pipeline.hpp"
#include "dataplane/reach.hpp"
#include "dataplane/transfer.hpp"
#include "io/spec.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"

namespace vmn::dataplane {
namespace {

/// A small fixture network:  a --- s1 --- s2 --- b, with a middlebox m on s1.
class DataplaneTest : public ::testing::Test {
 protected:
  DataplaneTest() {
    a = net.add_host("a", Address::of(10, 0, 0, 1));
    b = net.add_host("b", Address::of(10, 0, 1, 1));
    m = net.add_middlebox("fw-m");
    s1 = net.add_switch("s1");
    s2 = net.add_switch("s2");
    net.add_link(a, s1);
    net.add_link(m, s1);
    net.add_link(s1, s2);
    net.add_link(b, s2);
  }

  void route_plain() {
    net.table(s1).add(Prefix::host(Address::of(10, 0, 0, 1)), a);
    net.table(s1).add(Prefix(Address::of(10, 0, 1, 0), 24), s2);
    net.table(s2).add(Prefix::host(Address::of(10, 0, 1, 1)), b);
    net.table(s2).add(Prefix(Address::of(10, 0, 0, 0), 24), s1);
  }

  void route_through_middlebox() {
    // a-side traffic to b goes through m first.
    net.table(s1).add_from(a, Prefix(Address::of(10, 0, 1, 0), 24), m);
    net.table(s1).add_from(m, Prefix(Address::of(10, 0, 1, 0), 24), s2);
    net.table(s1).add(Prefix::host(Address::of(10, 0, 0, 1)), a);
    net.table(s2).add(Prefix::host(Address::of(10, 0, 1, 1)), b);
    net.table(s2).add(Prefix(Address::of(10, 0, 0, 0), 24), s1);
  }

  net::Network net;
  NodeId a, b, m, s1, s2;
};

TEST_F(DataplaneTest, DeliversAcrossSwitches) {
  route_plain();
  TransferFunction tf(net, net::Network::base_scenario);
  EXPECT_EQ(tf.next_edge(a, Address::of(10, 0, 1, 1)), b);
  EXPECT_EQ(tf.next_edge(b, Address::of(10, 0, 0, 1)), a);
}

TEST_F(DataplaneTest, BlackholeIsDrop) {
  route_plain();
  TransferFunction tf(net, net::Network::base_scenario);
  EXPECT_EQ(tf.next_edge(a, Address::of(172, 16, 0, 1)), std::nullopt);
}

TEST_F(DataplaneTest, PathListsSwitches) {
  route_plain();
  TransferFunction tf(net, net::Network::base_scenario);
  auto p = tf.path(a, Address::of(10, 0, 1, 1));
  ASSERT_EQ(p.size(), 4u);
  EXPECT_EQ(p[0], a);
  EXPECT_EQ(p[1], s1);
  EXPECT_EQ(p[2], s2);
  EXPECT_EQ(p[3], b);
}

TEST_F(DataplaneTest, ServiceChainingViaInPortRules) {
  route_through_middlebox();
  TransferFunction tf(net, net::Network::base_scenario);
  EXPECT_EQ(tf.next_edge(a, Address::of(10, 0, 1, 1)), m);
  EXPECT_EQ(tf.next_edge(m, Address::of(10, 0, 1, 1)), b);
}

TEST_F(DataplaneTest, EdgeChainCollectsMiddleboxes) {
  route_through_middlebox();
  TransferFunction tf(net, net::Network::base_scenario);
  EdgeChain chain = edge_chain(tf, a, Address::of(10, 0, 1, 1));
  EXPECT_TRUE(chain.reached);
  ASSERT_EQ(chain.middleboxes.size(), 1u);
  EXPECT_EQ(chain.middleboxes[0], m);
  EXPECT_EQ(chain.final_edge, b);
}

TEST_F(DataplaneTest, ForwardingLoopRaises) {
  // s1 and s2 bounce the packet: s1 -> s2 -> s1 -> ...
  net.table(s1).add(Prefix(Address::of(10, 9, 0, 0), 16), s2);
  net.table(s2).add(Prefix(Address::of(10, 9, 0, 0), 16), s1);
  TransferFunction tf(net, net::Network::base_scenario);
  EXPECT_THROW((void)tf.next_edge(a, Address::of(10, 9, 0, 1)),
               ForwardingLoopError);
}

TEST_F(DataplaneTest, FailedEdgeStillReceivesFailedSwitchDrops) {
  route_through_middlebox();
  ScenarioId down = net.add_failure_scenario("m-down", {m});
  TransferFunction tf(net, down);
  // A failed *edge* next hop still receives - its failure mode decides
  // whether anything is forwarded (fail-open boxes keep acting as wires).
  EXPECT_EQ(tf.next_edge(a, Address::of(10, 0, 1, 1)), m);
}

TEST_F(DataplaneTest, FailedAttachmentSwitchDropsWithAnEmptyPath) {
  route_plain();
  ScenarioId down = net.add_failure_scenario("s1-down", {s1});
  TransferFunction tf(net, down);
  // a's only switch is down: the packet never enters the fabric.
  EXPECT_EQ(tf.next_edge(a, Address::of(10, 0, 1, 1)), std::nullopt);
  EXPECT_TRUE(tf.path(a, Address::of(10, 0, 1, 1)).empty());
  // The audit still reports the drop as a blackhole.
  const AuditReport report = audit(net, down, {Address::of(10, 0, 1, 1)});
  EXPECT_TRUE(std::any_of(
      report.blackholes.begin(), report.blackholes.end(),
      [&](const BlackholeFinding& f) { return f.from_edge == a; }));
}

TEST_F(DataplaneTest, ScenarioReroutingIsHonored) {
  route_through_middlebox();
  ScenarioId down = net.add_failure_scenario("m-down", {m});
  // Backup routing skips the middlebox.
  net.override_routes(
      s1, down,
      {net::Rule{Prefix(Address::of(10, 0, 1, 0), 24), s2, a, /*priority=*/9}});
  TransferFunction tf(net, down);
  EXPECT_EQ(tf.next_edge(a, Address::of(10, 0, 1, 1)), b);
}

TEST_F(DataplaneTest, DestinationClassesSeparateHostsAndRules) {
  route_plain();
  auto classes = destination_classes(net, net::Network::base_scenario);
  // Representatives must distinguish a's /32, b's /32 and the rule prefixes.
  auto contains = [&](Address x) {
    return std::find(classes.begin(), classes.end(), x) != classes.end();
  };
  EXPECT_TRUE(contains(Address::of(10, 0, 0, 1)));
  EXPECT_TRUE(contains(Address::of(10, 0, 1, 1)));
  // Classes are genuine equivalence classes: every rule treats all members
  // of [rep, next-rep) identically by construction.
  EXPECT_GE(classes.size(), 4u);
}

TEST_F(DataplaneTest, HsaReachMatchesTransferFunction) {
  route_plain();
  auto delivered = hsa_reach(net, net::Network::base_scenario, a);
  ASSERT_TRUE(delivered.contains(b));
  EXPECT_TRUE(delivered[b].contains(Address::of(10, 0, 1, 1)));
  // Everything delivered to b must route to b under the scalar walk too.
  TransferFunction tf(net, net::Network::base_scenario);
  auto sample = delivered[b].sample();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(tf.next_edge(a, *sample), b);
}

TEST_F(DataplaneTest, HsaReachHonorsInPortChains) {
  route_through_middlebox();
  auto delivered = hsa_reach(net, net::Network::base_scenario, a);
  // From a, traffic to b's subnet is delivered to the middlebox first.
  ASSERT_TRUE(delivered.contains(m));
  EXPECT_TRUE(delivered[m].contains(Address::of(10, 0, 1, 1)));
  EXPECT_FALSE(delivered.contains(b));
}

TEST_F(DataplaneTest, AuditFindsLoopsAndBlackholes) {
  route_plain();
  net.table(s1).add(Prefix(Address::of(10, 9, 0, 0), 16), s2);
  net.table(s2).add(Prefix(Address::of(10, 9, 0, 0), 16), s1);
  AuditReport report = audit(net, net::Network::base_scenario,
                             {Address::of(10, 9, 0, 1),     // loops
                              Address::of(172, 16, 0, 1),   // blackholes
                              Address::of(10, 0, 1, 1)});   // fine from a
  EXPECT_FALSE(report.clean());
  EXPECT_FALSE(report.loops.empty());
  EXPECT_FALSE(report.blackholes.empty());
}

TEST_F(DataplaneTest, PipelineInvariantChecks) {
  route_through_middlebox();
  TransferFunction tf(net, net::Network::base_scenario);
  PipelineInvariant must_pass_fw{a, Address::of(10, 0, 1, 1), {{"fw"}}};
  PipelineResult r = check_pipeline(tf, must_pass_fw);
  EXPECT_TRUE(r.satisfied);
  EXPECT_TRUE(r.delivered);

  PipelineInvariant must_pass_ids{a, Address::of(10, 0, 1, 1), {{"ids"}}};
  r = check_pipeline(tf, must_pass_ids);
  EXPECT_FALSE(r.satisfied);
  ASSERT_TRUE(r.first_missing_step.has_value());
  EXPECT_EQ(*r.first_missing_step, 0u);
}

TEST_F(DataplaneTest, PipelineVacuouslySatisfiedWhenDropped) {
  route_plain();
  TransferFunction tf(net, net::Network::base_scenario);
  PipelineInvariant inv{a, Address::of(172, 16, 0, 1), {{"fw"}}};
  PipelineResult r = check_pipeline(tf, inv);
  EXPECT_TRUE(r.satisfied);
  EXPECT_FALSE(r.delivered);
}

TEST_F(DataplaneTest, TransferFunctionRequiresEdgeNode) {
  route_plain();
  TransferFunction tf(net, net::Network::base_scenario);
  EXPECT_THROW((void)tf.next_edge(s1, Address(1)), ModelError);
}

// ---------------------------------------------------------------------------
// Transfer oracle: the rank-indexed ForwardingTable::match and the memoised
// TransferFunction::next_edge against the code they replaced, kept verbatim
// below as the reference (the all-rules scan and the unmemoised walk).

std::optional<NodeId> reference_match(const net::ForwardingTable& table,
                                      std::optional<NodeId> came_from,
                                      Address dst) {
  const net::Rule* best = nullptr;
  for (const net::Rule& r : table.rules()) {
    if (!r.dst.contains(dst)) continue;
    if (r.in_from && (!came_from || *r.in_from != *came_from)) continue;
    if (best == nullptr) {
      best = &r;
      continue;
    }
    // Longest prefix first, then in-port specificity, then priority.
    const auto rank = [](const net::Rule& x) {
      return std::tuple(x.dst.length(), x.in_from.has_value() ? 1 : 0,
                        x.priority);
    };
    if (rank(r) > rank(*best)) best = &r;
  }
  if (best == nullptr) return std::nullopt;
  return best->next_hop;
}

std::optional<NodeId> reference_walk(const net::Network& net,
                                     ScenarioId scenario_, NodeId from_edge,
                                     Address dst) {
  if (!net.is_edge(from_edge)) {
    throw ModelError("transfer function input must be an edge node, got " +
                     net.name(from_edge));
  }
  NodeId prev = from_edge;
  std::optional<NodeId> cur;
  for (NodeId n : net.neighbors(from_edge)) {
    if (net.is_failed(n, scenario_)) continue;
    if (net.kind(n) == net::NodeKind::switch_node) {
      cur = n;
      break;
    }
    if (net.is_edge(n) && net.node(n).kind == net::NodeKind::host &&
        net.node(n).address == dst) {
      return n;
    }
  }
  if (!cur) return std::nullopt;  // no alive attachment: dropped

  std::array<std::pair<NodeId, NodeId>, 16> seen;
  std::vector<std::pair<NodeId, NodeId>> seen_more;
  std::size_t seen_count = 0;
  while (true) {
    if (net.is_edge(*cur)) return *cur;  // delivered to an edge node
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
    const auto next =
        reference_match(net.effective_table(*cur, scenario_), prev, dst);
    if (!next || (net.is_failed(*next, scenario_) && !net.is_edge(*next))) {
      return std::nullopt;
    }
    prev = *cur;
    cur = next;
  }
}

/// A walk's outcome as text: the node delivered to, "drop", or the loop
/// error's message.
template <typename Walk>
std::string outcome(const net::Network& net, Walk&& walk) {
  try {
    const std::optional<NodeId> to = walk();
    return to ? net.name(*to) : "drop";
  } catch (const ForwardingLoopError& e) {
    return std::string("loop: ") + e.what();
  }
}

/// Addresses to walk toward under one scenario: each destination class's
/// first and last address, every host address and every middlebox
/// implicit address (VIPs, NAT externals).
std::vector<Address> relevant_addresses(const encode::NetworkModel& model,
                                        const TransferFunction& tf) {
  std::set<Address> out;
  const std::vector<Address> reps = tf.destination_classes();
  for (std::size_t i = 0; i < reps.size(); ++i) {
    out.insert(reps[i]);
    out.insert(i + 1 < reps.size() ? Address(reps[i + 1].bits() - 1)
                                   : Address(~std::uint32_t{0}));
  }
  const net::Network& net = model.network();
  for (NodeId h : net.hosts()) out.insert(net.node(h).address);
  for (const auto& box : model.middleboxes()) {
    for (Address a : box->implicit_addresses()) out.insert(a);
  }
  return {out.begin(), out.end()};
}

/// Compares match and next_edge with the reference on every scenario of
/// `model`; returns the number of comparisons.
std::size_t expect_transfer_oracle(const encode::NetworkModel& model,
                                   const std::string& what) {
  const net::Network& net = model.network();
  std::size_t compared = 0;
  for (std::size_t si = 0; si < net.scenarios().size(); ++si) {
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
    SCOPED_TRACE(what + " scenario " + net.scenarios()[si].name);
    const TransferFunction tf(net, sid);
    EXPECT_EQ(tf.destination_classes(), destination_classes(net, sid));
    const std::vector<Address> reps = tf.destination_classes();
    for (const net::Node& sw : net.nodes()) {
      if (sw.kind != net::NodeKind::switch_node) continue;
      const net::ForwardingTable& table = net.effective_table(sw.id, sid);
      std::vector<std::optional<NodeId>> ports{std::nullopt};
      for (NodeId n : net.neighbors(sw.id)) ports.emplace_back(n);
      for (Address a : reps) {
        for (const std::optional<NodeId>& port : ports) {
          EXPECT_EQ(table.match(port, a), reference_match(table, port, a))
              << sw.name << " " << a.to_string();
          ++compared;
        }
      }
    }
    for (const net::Node& from : net.nodes()) {
      if (from.kind == net::NodeKind::switch_node) continue;
      for (Address a : relevant_addresses(model, tf)) {
        const std::string want = outcome(
            net, [&] { return reference_walk(net, sid, from.id, a); });
        const std::string miss =
            outcome(net, [&] { return tf.next_edge(from.id, a); });
        const std::string hit =
            outcome(net, [&] { return tf.next_edge(from.id, a); });
        EXPECT_EQ(miss, want) << from.name << " -> " << a.to_string();
        EXPECT_EQ(hit, want) << from.name << " -> " << a.to_string();
        // path() walks the same way, and is empty on every drop.
        if (want == "drop") {
          EXPECT_TRUE(tf.path(from.id, a).empty())
              << from.name << " -> " << a.to_string();
        } else if (want.rfind("loop: ", 0) != 0) {
          const std::vector<NodeId> p = tf.path(from.id, a);
          EXPECT_GE(p.size(), 2u);
          EXPECT_EQ(p.empty() ? "" : net.name(p.front()), from.name);
          EXPECT_EQ(p.empty() ? "" : net.name(p.back()), want);
        }
        ++compared;
      }
    }
  }
  return compared;
}

TEST(TransferOracle, GeneratorsAgreeWithTheReference) {
  std::size_t compared = 0;
  for (int subnets : {3, 6}) {
    compared += expect_transfer_oracle(
        scenarios::make_enterprise({.subnets = subnets, .hosts_per_subnet = 2})
            .model,
        "enterprise");
  }
  for (scenarios::DcMisconfig kind :
       {scenarios::DcMisconfig::none, scenarios::DcMisconfig::rules,
        scenarios::DcMisconfig::redundancy, scenarios::DcMisconfig::traversal,
        scenarios::DcMisconfig::cache_acl}) {
    for (bool storage : {false, true}) {
      if (kind == scenarios::DcMisconfig::cache_acl && !storage) continue;
      scenarios::Datacenter dc = scenarios::make_datacenter(
          {.policy_groups = 3,
           .clients_per_group = 2,
           .with_storage = storage});
      if (kind != scenarios::DcMisconfig::none) {
        Rng rng(7);
        scenarios::inject_misconfig(dc, kind, rng, 2);
      }
      compared += expect_transfer_oracle(
          dc.model, "datacenter " + std::to_string(static_cast<int>(kind)));
    }
  }
  for (bool bypass : {false, true}) {
    scenarios::IspParams p;
    p.peering_points = 2;
    p.subnets = 3;
    p.scrub_bypasses_firewalls = bypass;
    compared += expect_transfer_oracle(scenarios::make_isp(p).model, "isp");
  }
  compared += expect_transfer_oracle(
      scenarios::make_multitenant({.tenants = 3,
                                   .servers = 2,
                                   .public_vms_per_tenant = 2,
                                   .private_vms_per_tenant = 2})
          .model,
      "multitenant");
  for (const scenarios::SegmentedParams& p :
       {scenarios::SegmentedParams{},
        scenarios::SegmentedParams{.bypass_segment = 1},
        scenarios::SegmentedParams{.isolated_segment = 1},
        scenarios::SegmentedParams{.segments = 3, .bypass_segment = 2}}) {
    compared +=
        expect_transfer_oracle(scenarios::make_segmented(p).model, "segmented");
  }
  EXPECT_GT(compared, 10000u);
}

TEST(TransferOracle, ExampleSpecsAgreeWithTheReference) {
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(VMN_SOURCE_DIR) + "/examples/specs")) {
    if (entry.path().extension() != ".vmn") continue;
    const io::Spec spec = io::load_spec(entry.path().string());
    EXPECT_GT(expect_transfer_oracle(spec.model,
                                     entry.path().filename().string()),
              0u);
    ++specs;
  }
  EXPECT_GE(specs, 3u);
}

TEST(TransferOracle, RandomSpecsAgreeWithTheReference) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    scenarios::RandomSpecParams p;
    p.seed = seed;
    compared += expect_transfer_oracle(scenarios::make_random_spec(p).spec.model,
                                       "random seed " + std::to_string(seed));
  }
  EXPECT_GT(compared, 10000u);
}

/// Gives every rule of every switch table (base and scenario overrides) an
/// equal-rank twin added after it, toward another neighbor: the first
/// added must keep winning, so forwarding is unchanged, but a tie resolved
/// the other way would route through the twins. Returns the twins added.
std::size_t add_tied_twins(net::Network& net) {
  std::size_t added = 0;
  for (const net::Node& sw : net.nodes()) {
    if (sw.kind != net::NodeKind::switch_node) continue;
    const std::vector<NodeId>& ports = net.neighbors(sw.id);
    const net::ForwardingTable& base =
        net.effective_table(sw.id, net::Network::base_scenario);
    for (std::size_t si = 0; si < net.scenarios().size(); ++si) {
      const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
      if (si != 0 && &net.effective_table(sw.id, sid) == &base) continue;
      std::vector<net::Rule> rules;  // each rule, then its twin
      std::vector<net::Rule> twins;
      for (const net::Rule& r : net.effective_table(sw.id, sid).rules()) {
        rules.push_back(r);
        const auto other = std::find_if(ports.begin(), ports.end(),
                                        [&](NodeId n) { return n != r.next_hop; });
        if (other == ports.end()) continue;
        rules.push_back(net::Rule{r.dst, *other, r.in_from, r.priority});
        twins.push_back(rules.back());
        ++added;
      }
      if (si == 0) {
        for (const net::Rule& twin : twins) net.table(sw.id).add(twin);
      } else {
        // override_routes replaces the ranks its rules tie with, so the
        // scenario table gets every rule back followed by its twin: the
        // first added still leads each tie.
        net.override_routes(sw.id, sid, rules);
      }
    }
  }
  return added;
}

TEST(TransferOracle, TiedTwinsAgreeWithTheReference) {
  std::size_t twins = 0;
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    scenarios::RandomSpecParams p;
    p.seed = seed;
    scenarios::RandomSpec r = scenarios::make_random_spec(p);
    twins += add_tied_twins(r.spec.model.network());
    compared += expect_transfer_oracle(r.spec.model,
                                       "twinned seed " + std::to_string(seed));
  }
  io::Spec spec = io::load_spec(std::string(VMN_SOURCE_DIR) +
                                "/examples/specs/enterprise.vmn");
  twins += add_tied_twins(spec.model.network());
  compared += expect_transfer_oracle(spec.model, "twinned enterprise.vmn");
  EXPECT_GT(twins, 1000u);
  EXPECT_GT(compared, 10000u);
}

}  // namespace
}  // namespace vmn::dataplane
