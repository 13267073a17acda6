// Cross-cutting property tests:
//   - the symbolic header-space reachability (hsa_reach) agrees with the
//     scalar transfer-function walk on every destination equivalence class
//     of every scenario network;
//   - ForwardingTable::match agrees with a brute-force reference
//     implementation on randomized tables;
//   - proxies preserve data provenance: data isolation cannot be laundered
//     through an anonymizing proxy, and slice/full verification agree on
//     proxy networks;
//   - multi-tenant slice and full-network verification agree.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "dataplane/reach.hpp"
#include "dataplane/transfer.hpp"
#include "mbox/firewall.hpp"
#include "mbox/proxy.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "sim/simulator.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn {
namespace {

using encode::Invariant;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

// -- HSA vs scalar transfer function ----------------------------------------

void check_hsa_agrees(const encode::NetworkModel& model) {
  const net::Network& net = model.network();
  for (std::size_t si = 0; si < net.scenarios().size(); ++si) {
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
    const auto classes = dataplane::destination_classes(net, sid);
    dataplane::TransferFunction tf(net, sid);
    for (const net::Node& node : net.nodes()) {
      if (node.kind == net::NodeKind::switch_node) continue;
      std::map<NodeId, dataplane::HeaderSpace> delivered;
      try {
        delivered = dataplane::hsa_reach(net, sid, node.id);
      } catch (const ForwardingLoopError&) {
        continue;  // scalar walk would report the same loop
      }
      for (Address a : classes) {
        std::optional<NodeId> scalar;
        try {
          scalar = tf.next_edge(node.id, a);
        } catch (const ForwardingLoopError&) {
          continue;
        }
        // Where did the symbolic analysis deliver this address?
        std::optional<NodeId> symbolic;
        for (const auto& [to, hs] : delivered) {
          if (hs.contains(a)) {
            ASSERT_FALSE(symbolic.has_value())
                << "address delivered to two edges from " << node.name;
            symbolic = to;
          }
        }
        EXPECT_EQ(scalar, symbolic)
            << "from " << node.name << " dst " << a.to_string()
            << " scenario " << net.scenarios()[si].name;
      }
    }
  }
}

TEST(HsaAgreement, Enterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  check_hsa_agrees(scenarios::make_enterprise(p).model);
}

TEST(HsaAgreement, Datacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.with_storage = true;
  check_hsa_agrees(scenarios::make_datacenter(p).model);
}

TEST(HsaAgreement, Isp) {
  scenarios::IspParams p;
  p.peering_points = 3;
  p.subnets = 5;
  check_hsa_agrees(scenarios::make_isp(p).model);
}

TEST(HsaAgreement, MultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 3;
  p.servers = 3;
  check_hsa_agrees(scenarios::make_multitenant(p).model);
}

// -- ForwardingTable vs brute-force reference --------------------------------

class TableProperty : public ::testing::TestWithParam<int> {};

TEST_P(TableProperty, MatchAgreesWithReference) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  net::ForwardingTable table;
  struct RefRule {
    Prefix dst;
    NodeId hop;
    std::optional<NodeId> from;
    int priority;
  };
  std::vector<RefRule> rules;
  const int n = static_cast<int>(rng.uniform(1, 12));
  for (int i = 0; i < n; ++i) {
    const int len = static_cast<int>(rng.uniform(0, 4)) * 8;
    const Address base(static_cast<std::uint32_t>(rng.uniform(0, 3)) << 24);
    RefRule r{Prefix(base, len),
              NodeId{static_cast<std::uint32_t>(rng.uniform(0, 5))},
              rng.chance(0.5)
                  ? std::optional<NodeId>(
                        NodeId{static_cast<std::uint32_t>(rng.uniform(6, 8))})
                  : std::nullopt,
              static_cast<int>(rng.uniform(0, 3))};
    rules.push_back(r);
    table.add(net::Rule{r.dst, r.hop, r.from, r.priority});
  }
  // Reference: max by (length, in-port specificity, priority) over matches.
  auto reference = [&](std::optional<NodeId> from,
                       Address dst) -> std::optional<NodeId> {
    const RefRule* best = nullptr;
    auto rank = [](const RefRule& r) {
      return std::tuple(r.dst.length(), r.from.has_value() ? 1 : 0,
                        r.priority);
    };
    for (const RefRule& r : rules) {
      if (!r.dst.contains(dst)) continue;
      if (r.from && (!from || *r.from != *from)) continue;
      if (best == nullptr || rank(r) > rank(*best)) best = &r;
    }
    return best ? std::optional<NodeId>(best->hop) : std::nullopt;
  };
  for (int probe = 0; probe < 64; ++probe) {
    const Address dst(static_cast<std::uint32_t>(rng.uniform(0, 3)) << 24 |
                      static_cast<std::uint32_t>(rng.uniform(0, 1 << 16)));
    std::optional<NodeId> from;
    if (rng.chance(0.7)) {
      from = NodeId{static_cast<std::uint32_t>(rng.uniform(6, 8))};
    }
    EXPECT_EQ(table.match(from, dst), reference(from, dst));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TableProperty, ::testing::Range(0, 20));

// -- proxy provenance ----------------------------------------------------------

struct ProxyNet {
  encode::NetworkModel model;
  NodeId client, other, server, proxy;
};

/// client/other reach the server only through the proxy.
ProxyNet make_proxy_net() {
  ProxyNet n;
  net::Network& net = n.model.network();
  const Address ac = Address::of(10, 0, 0, 1);
  const Address ao = Address::of(10, 0, 0, 2);
  const Address as = Address::of(10, 0, 9, 1);
  const Address ap = Address::of(10, 0, 8, 1);
  n.client = net.add_host("client", ac);
  n.other = net.add_host("other", ao);
  n.server = net.add_host("server", as);
  auto& proxy = n.model.add_middlebox(std::make_unique<mbox::Proxy>("px", ap));
  n.proxy = proxy.node();
  NodeId sw = net.add_switch("sw");
  for (NodeId x : {n.client, n.other, n.server, n.proxy}) net.add_link(x, sw);
  net.table(sw).add_from(n.client, Prefix::host(as), n.proxy);
  net.table(sw).add_from(n.other, Prefix::host(as), n.proxy);
  net.table(sw).add(Prefix::host(ap), n.proxy);
  net.table(sw).add_from(n.proxy, Prefix::host(as), n.server);
  net.table(sw).add_from(n.proxy, Prefix::host(ac), n.client);
  net.table(sw).add_from(n.proxy, Prefix::host(ao), n.other);
  return n;
}

TEST(Proxy, ReoriginatesButPreservesProvenance) {
  ProxyNet n = make_proxy_net();
  Engine v(n.model);
  // The server never sees the client's address (anonymization)...
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.server, n.client)).outcome,
            Outcome::holds);
  // ...but server-origin data can reach the client through the proxy: the
  // origin abstraction survives re-origination, so data isolation is
  // correctly reported violated (no laundering).
  EXPECT_EQ(v.run_one(Invariant::data_isolation(n.client, n.server)).outcome,
            Outcome::violated);
}

TEST(Proxy, SliceIncludesRepresentativesAndAgreesWithFull) {
  ProxyNet n = make_proxy_net();
  VerifyOptions full;
  full.use_slices = false;
  Engine vs(n.model);
  Engine vf(n.model, {.verify = full});
  for (const Invariant& inv :
       {Invariant::data_isolation(n.other, n.server),
        Invariant::node_isolation(n.server, n.other),
        Invariant::reachable(n.server, n.client)}) {
    EXPECT_EQ(vs.run_one(inv).outcome, vf.run_one(inv).outcome);
  }
}

TEST(Proxy, SimulatorMatchesModel) {
  ProxyNet n = make_proxy_net();
  sim::Simulator simulator(n.model);
  const net::Network& net = n.model.network();
  Packet req{net.node(n.client).address, net.node(n.server).address, 1000, 80};
  simulator.inject(n.client, req);
  // The server received a re-originated packet.
  ASSERT_EQ(simulator.delivered(n.server).size(), 1u);
  EXPECT_EQ(simulator.delivered(n.server)[0].src, Address::of(10, 0, 8, 1));
  // The response travels back through the proxy to the requester.
  Packet resp{net.node(n.server).address, Address::of(10, 0, 8, 1), 80, 1000};
  resp.origin = net.node(n.server).address;
  simulator.inject(n.server, resp);
  ASSERT_EQ(simulator.delivered(n.client).size(), 1u);
  EXPECT_EQ(*simulator.delivered(n.client)[0].origin,
            net.node(n.server).address);
}

// -- multi-tenant slice/full agreement ----------------------------------------

class MultiTenantAgreement : public ::testing::TestWithParam<int> {};

TEST_P(MultiTenantAgreement, SliceAndFullAgree) {
  scenarios::MultiTenantParams p;
  p.tenants = 2 + GetParam() % 2;
  p.servers = p.tenants;
  p.public_vms_per_tenant = 2;
  p.private_vms_per_tenant = 2;
  auto mt = scenarios::make_multitenant(p);
  VerifyOptions full;
  full.use_slices = false;
  Engine vs(mt.model);
  Engine vf(mt.model, {.verify = full});
  for (const Invariant& inv : mt.invariants()) {
    EXPECT_EQ(vs.run_one(inv).outcome, vf.run_one(inv).outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, MultiTenantAgreement, ::testing::Range(0, 2));

}  // namespace
}  // namespace vmn
