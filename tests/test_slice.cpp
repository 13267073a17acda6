// Slicing tests (paper, section 4.1): closure under forwarding, state
// closure for origin-agnostic middleboxes, and the slice theorem itself -
// verification on the slice agrees with verification on the full network.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "dataplane/transfer.hpp"
#include "io/spec.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/nat.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"
#include "slice/refine.hpp"
#include "slice/slice.hpp"
#include "slice/symmetry.hpp"
#include "util.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn::slice {
namespace {

using encode::Invariant;
using scenarios::Datacenter;
using scenarios::DatacenterParams;
using scenarios::Enterprise;
using scenarios::EnterpriseParams;

Enterprise small_enterprise(int subnets) {
  EnterpriseParams p;
  p.subnets = subnets;
  p.hosts_per_subnet = 2;
  return scenarios::make_enterprise(p);
}

TEST(Slice, ContainsReferencedHostsAndPathMiddleboxes) {
  Enterprise ent = small_enterprise(6);
  PolicyClasses classes = infer_policy_classes(ent.model);
  Invariant inv =
      Invariant::node_isolation(ent.subnet_hosts[2][0], ent.internet);
  Slice s = compute_slice(ent.model, inv, classes);
  const net::Network& net = ent.model.network();
  auto member_names = [&] {
    std::set<std::string> names;
    for (NodeId m : s.members) names.insert(net.name(m));
    return names;
  }();
  EXPECT_TRUE(member_names.contains("internet"));
  EXPECT_TRUE(member_names.contains("h2-0"));
  EXPECT_TRUE(member_names.contains("fw"));
  EXPECT_TRUE(member_names.contains("gw"));
  EXPECT_FALSE(s.has_origin_agnostic);
}

TEST(Slice, SizeIndependentOfNetworkSize) {
  // The headline property: the slice for a fixed invariant does not grow
  // with the number of subnets (flow-parallel middleboxes only).
  std::size_t size3 = 0, size12 = 0, size24 = 0;
  for (int subnets : {3, 12, 24}) {
    Enterprise ent = small_enterprise(subnets);
    PolicyClasses classes = infer_policy_classes(ent.model);
    Invariant inv =
        Invariant::flow_isolation(ent.subnet_hosts[1][0], ent.internet);
    Slice s = compute_slice(ent.model, inv, classes);
    (subnets == 3 ? size3 : subnets == 12 ? size12 : size24) = s.size();
  }
  EXPECT_EQ(size3, size12);
  EXPECT_EQ(size12, size24);
}

TEST(Slice, LoadBalancerPullsInBackends) {
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address vip = Address::of(10, 255, 0, 1);
  const Address b1 = Address::of(10, 0, 1, 1);
  const Address b2 = Address::of(10, 0, 1, 2);
  NodeId client = net.add_host("client", Address::of(10, 0, 0, 1));
  NodeId back1 = net.add_host("back1", b1);
  NodeId back2 = net.add_host("back2", b2);
  auto& lb = model.add_middlebox(
      std::make_unique<mbox::LoadBalancer>("lb", vip, std::vector{b1, b2}));
  NodeId sw = net.add_switch("sw");
  for (NodeId x : {client, back1, back2, lb.node()}) net.add_link(x, sw);
  net.table(sw).add(Prefix::host(vip), lb.node());
  net.table(sw).add_from(lb.node(), Prefix::host(b1), back1);
  net.table(sw).add_from(lb.node(), Prefix::host(b2), back2);
  net.table(sw).add(Prefix::host(Address::of(10, 0, 0, 1)), client);

  // The invariant references the VIP only through the client; closure must
  // discover the LB and both backends (rewrite targets).
  PolicyClasses classes = infer_policy_classes(model);
  Invariant inv = Invariant::reachable(back1, client);
  Slice s = compute_slice(model, inv, classes);
  std::set<NodeId> members(s.members.begin(), s.members.end());
  EXPECT_TRUE(members.contains(lb.node()));
  EXPECT_TRUE(members.contains(back2));  // other rewrite target
}

TEST(Slice, NatExternalAddressIncluded) {
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address ext = Address::of(1, 2, 3, 4);
  NodeId in = net.add_host("in", Address::of(10, 0, 0, 1));
  NodeId out = net.add_host("out", Address::of(8, 8, 8, 8));
  auto& nat = model.add_middlebox(std::make_unique<mbox::Nat>(
      "nat", ext, Prefix(Address::of(10, 0, 0, 0), 8)));
  NodeId sw = net.add_switch("sw");
  for (NodeId x : {in, out, nat.node()}) net.add_link(x, sw);
  net.table(sw).add_from(in, Prefix::any(), nat.node());
  net.table(sw).add(Prefix::host(ext), nat.node());
  net.table(sw).add_from(nat.node(), Prefix::host(Address::of(8, 8, 8, 8)), out);
  net.table(sw).add_from(nat.node(), Prefix::host(Address::of(10, 0, 0, 1)), in);

  PolicyClasses classes = infer_policy_classes(model);
  Slice s = compute_slice(model, Invariant::node_isolation(in, out), classes);
  std::set<NodeId> members(s.members.begin(), s.members.end());
  EXPECT_TRUE(members.contains(nat.node()));
}

TEST(Slice, FailureScenariosWidenTheSlice) {
  Datacenter dc = scenarios::make_datacenter(
      DatacenterParams{.policy_groups = 3, .clients_per_group = 2});
  PolicyClasses classes = infer_policy_classes(dc.model);
  Invariant inv = dc.isolation_invariants()[0];
  Slice without = compute_slice(dc.model, inv, classes, SliceOptions{0});
  Slice with = compute_slice(dc.model, inv, classes, SliceOptions{1});
  // The failure scenarios route through the backups: more middleboxes.
  EXPECT_GT(with.size(), without.size());
}

TEST(Slice, OriginAgnosticAddsRepresentatives) {
  Datacenter dc = scenarios::make_datacenter(DatacenterParams{
      .policy_groups = 3, .clients_per_group = 2, .with_storage = true});
  PolicyClasses classes = infer_policy_classes(dc.model);
  Invariant inv = dc.data_isolation_invariants()[0];
  Slice s = compute_slice(dc.model, inv, classes);
  EXPECT_TRUE(s.has_origin_agnostic);
  // At least one representative host per policy class is present.
  std::set<NodeId> members(s.members.begin(), s.members.end());
  std::size_t covered = 0;
  for (const auto& cls : classes.classes) {
    for (NodeId h : cls) {
      if (members.contains(h)) {
        ++covered;
        break;
      }
    }
  }
  EXPECT_EQ(covered, classes.count());
}

// The slice theorem, empirically: for every invariant of a scenario, the
// outcome on the slice equals the outcome on the whole network.
class SliceAgreement : public ::testing::TestWithParam<int> {};

TEST_P(SliceAgreement, SliceAndFullNetworkAgree) {
  Enterprise ent = small_enterprise(3 + (GetParam() % 3) * 3);
  // Optionally break the configuration to also compare violated outcomes.
  if (GetParam() % 2 == 1) {
    auto* fw = dynamic_cast<mbox::LearningFirewall*>(
        ent.model.middlebox_at(ent.model.network().node_by_name("fw")));
    std::vector<mbox::AclEntry> acl = fw->acl();
    acl.insert(acl.begin(),
               mbox::AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                              Prefix(Address::of(10, 0, 0, 0), 8),
                              mbox::AclAction::allow});
    fw->replace_acl(acl);
  }
  verify::VerifyOptions sliced;
  sliced.use_slices = true;
  verify::VerifyOptions full;
  full.use_slices = false;
  verify::Engine vs(ent.model, {.verify = sliced});
  verify::Engine vf(ent.model, {.verify = full});
  for (const Invariant& inv : ent.invariants) {
    verify::VerifyResult rs = vs.run_one(inv);
    verify::VerifyResult rf = vf.run_one(inv);
    EXPECT_EQ(rs.outcome, rf.outcome)
        << inv.describe([&](NodeId n) { return ent.model.network().name(n); });
    EXPECT_LE(rs.slice_size, rf.slice_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceAgreement, ::testing::Range(0, 6));

// -- property test: slicing soundness on random topologies -------------------
//
// A randomly generated small network (random host count, random firewall
// configuration, random invariants) must produce the same verdict sliced as
// whole-network - the slice theorem should not depend on any structure the
// scenario generators happen to produce.

struct RandomNet {
  encode::NetworkModel model;
  std::vector<NodeId> hosts;
};

RandomNet make_random_net(Rng& rng) {
  RandomNet out;
  net::Network& net = out.model.network();
  const int host_count = static_cast<int>(rng.uniform(2, 4));
  std::vector<Address> addrs;
  for (int h = 0; h < host_count; ++h) {
    const Address addr = Address::of(10, 0, static_cast<std::uint8_t>(h), 1);
    addrs.push_back(addr);
    out.hosts.push_back(net.add_host("r" + std::to_string(h), addr));
  }

  // Random firewall config: each ordered host pair gets an allow entry with
  // probability 1/2, on top of a random default action.
  std::vector<mbox::AclEntry> acl;
  for (int i = 0; i < host_count; ++i) {
    for (int j = 0; j < host_count; ++j) {
      if (i != j && rng.chance(0.5)) {
        acl.push_back(mbox::AclEntry{Prefix::host(addrs[i]),
                                     Prefix::host(addrs[j]),
                                     mbox::AclAction::allow});
      }
    }
  }
  const auto default_action =
      rng.chance(0.25) ? mbox::AclAction::allow : mbox::AclAction::deny;
  auto& fw = out.model.add_middlebox(
      std::make_unique<mbox::LearningFirewall>("rfw", acl, default_action));

  // OneBoxNet-shaped fabric: hosts split across two switches, all
  // cross-host traffic chained through the firewall at sw1.
  NodeId sw1 = net.add_switch("rs1");
  NodeId sw2 = net.add_switch("rs2");
  net.add_link(sw1, sw2);
  net.add_link(fw.node(), sw1);
  for (int h = 0; h < host_count; ++h) {
    NodeId sw = (h % 2 == 0) ? sw1 : sw2;
    net.add_link(out.hosts[h], sw);
    net.table(sw).add(Prefix::host(addrs[h]), out.hosts[h]);
  }
  for (int h = 0; h < host_count; ++h) {
    const Prefix dst = Prefix::host(addrs[h]);
    NodeId home = (h % 2 == 0) ? sw1 : sw2;
    for (int o = 0; o < host_count; ++o) {
      if (o == h) continue;
      NodeId from = out.hosts[o];
      if ((o % 2 == 0) == (h % 2 == 0)) {
        // Same switch: still chain through the firewall.
        net.table(home).add_from(from, dst, fw.node());
      } else if (o % 2 == 0) {
        net.table(sw1).add_from(from, dst, fw.node());
      } else {
        net.table(sw2).add_from(from, dst, sw1);
        net.table(sw1).add_from(sw2, dst, fw.node());
      }
    }
    // Firewall output heads to the destination's home switch, then host.
    if (h % 2 == 0) {
      net.table(sw1).add_from(fw.node(), dst, out.hosts[h]);
    } else {
      net.table(sw1).add_from(fw.node(), dst, sw2);
      net.table(sw2).add_from(sw1, dst, out.hosts[h]);
    }
  }
  return out;
}

Invariant random_invariant(Rng& rng, const std::vector<NodeId>& hosts) {
  const auto d = static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(hosts.size()) - 1));
  auto s = static_cast<std::size_t>(
      rng.uniform(0, static_cast<std::int64_t>(hosts.size()) - 1));
  if (s == d) s = (s + 1) % hosts.size();
  switch (rng.uniform(0, 2)) {
    case 0:
      return Invariant::node_isolation(hosts[d], hosts[s]);
    case 1:
      return Invariant::flow_isolation(hosts[d], hosts[s]);
    default:
      return Invariant::reachable(hosts[d], hosts[s]);
  }
}

class RandomSliceSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RandomSliceSoundness, SlicedVerdictMatchesWholeNetwork) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 13);
  RandomNet n = make_random_net(rng);
  verify::VerifyOptions sliced;
  sliced.use_slices = true;
  verify::VerifyOptions full;
  full.use_slices = false;
  verify::Engine vs(n.model, {.verify = sliced});
  verify::Engine vf(n.model, {.verify = full});
  for (int k = 0; k < 2; ++k) {
    Invariant inv = random_invariant(rng, n.hosts);
    verify::VerifyResult rs = vs.run_one(inv);
    verify::VerifyResult rf = vf.run_one(inv);
    EXPECT_EQ(rs.outcome, rf.outcome)
        << "seed " << GetParam() << " "
        << inv.describe(
               [&](NodeId node) { return n.model.network().name(node); });
    EXPECT_LE(rs.slice_size, rf.slice_size);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSliceSoundness, ::testing::Range(0, 8));

// -- canonical slice keys ----------------------------------------------------

TEST(CanonicalKey, CollidesForIsomorphicSlicesWithinAModel) {
  Enterprise ent = small_enterprise(7);  // public subnets at 0, 3, 6
  PolicyClasses classes = infer_policy_classes(ent.model);
  auto key_for = [&](const Invariant& inv) {
    Slice s = compute_slice(ent.model, inv, classes);
    return canonical_slice_key(ent.model, s.members, inv, classes);
  };
  const Invariant pub0 =
      Invariant::reachable(ent.subnet_hosts[0][0], ent.internet);
  const Invariant pub3 =
      Invariant::reachable(ent.subnet_hosts[3][0], ent.internet);
  const Invariant pub0_other_host =
      Invariant::reachable(ent.subnet_hosts[0][1], ent.internet);
  // Same policy kind, different subnet / different host: isomorphic.
  EXPECT_EQ(key_for(pub0), key_for(pub3));
  EXPECT_EQ(key_for(pub0), key_for(pub0_other_host));
  // Different invariant kind on the same slice shape: not isomorphic.
  const Invariant iso0 =
      Invariant::node_isolation(ent.subnet_hosts[0][0], ent.internet);
  EXPECT_NE(key_for(pub0), key_for(iso0));
  // Same kind against a host of a different policy class: not isomorphic.
  const Invariant iso_quar =
      Invariant::node_isolation(ent.subnet_hosts[2][0], ent.internet);
  EXPECT_NE(key_for(iso0), key_for(iso_quar));
}

TEST(CanonicalKey, SplitsStraightFromCrossedAclJoins) {
  // One firewall, two deny rows joining different groups: deny(P1->Q1),
  // deny(P2->Q2). From any single address's viewpoint the role-local
  // policy fingerprints cannot tell whether the slice's OTHER host sits in
  // the group its own deny row names (x1->y1: denied) or in the other one
  // (x1->y2: admitted) - that pairwise join structure enters the key
  // through the problem graph's config-pair vertices. Without them these
  // two slices would share a key and inherit each other's verdicts
  // unsoundly.
  const Prefix p1(Address::of(10, 1, 0, 0), 24);
  const Prefix p2(Address::of(10, 2, 0, 0), 24);
  const Prefix q1(Address::of(10, 3, 0, 0), 24);
  const Prefix q2(Address::of(10, 4, 0, 0), 24);
  auto build = [&](std::vector<mbox::AclEntry> acl) {
    struct Net {
      encode::NetworkModel model;
      NodeId x1, y1, y2;
    };
    Net n;
    net::Network& net = n.model.network();
    n.x1 = net.add_host("x1", Address::of(10, 1, 0, 1));
    n.y1 = net.add_host("y1", Address::of(10, 3, 0, 1));
    n.y2 = net.add_host("y2", Address::of(10, 4, 0, 1));
    auto& fw = n.model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
        "fw", std::move(acl), mbox::AclAction::allow));
    NodeId sw = net.add_switch("sw");
    for (NodeId h : {n.x1, n.y1, n.y2}) net.add_link(h, sw);
    net.add_link(fw.node(), sw);
    // Every host-to-host path chains through the firewall, symmetrically.
    for (NodeId dst : {n.x1, n.y1, n.y2}) {
      const Prefix pd = Prefix::host(net.node(dst).address);
      net.table(sw).add_from(fw.node(), pd, dst);
      for (NodeId src : {n.x1, n.y1, n.y2}) {
        if (src != dst) net.table(sw).add_from(src, pd, fw.node());
      }
    }
    return n;
  };
  auto straight = build({{p1, q1, mbox::AclAction::deny},
                         {p2, q2, mbox::AclAction::deny}});
  PolicyClasses classes = infer_policy_classes(straight.model);
  auto key_for = [&](NodeId to, NodeId from) {
    const Invariant inv = Invariant::node_isolation(to, from);
    Slice s = compute_slice(straight.model, inv, classes);
    return canonical_slice_key(straight.model, s.members, inv, classes);
  };
  // x1->y1 is denied (isolation holds), x1->y2 is admitted (violated):
  // different problems, different keys.
  EXPECT_NE(key_for(straight.y1, straight.x1),
            key_for(straight.y2, straight.x1));

  // Control: when both groups are denied from P1, y1 and y2 really are
  // exchangeable and the keys must still collide (the pair edges refine,
  // they don't just split everything).
  auto both = build({{p1, q1, mbox::AclAction::deny},
                     {p1, q2, mbox::AclAction::deny}});
  PolicyClasses bclasses = infer_policy_classes(both.model);
  auto bkey_for = [&](NodeId to, NodeId from) {
    const Invariant inv = Invariant::node_isolation(to, from);
    Slice s = compute_slice(both.model, inv, bclasses);
    return canonical_slice_key(both.model, s.members, inv, bclasses);
  };
  EXPECT_EQ(bkey_for(both.y1, both.x1), bkey_for(both.y2, both.x1));
}

TEST(CanonicalKey, CollidesAcrossIsomorphicModelsAndNotOtherwise) {
  using test::OneBoxNet;
  // Two structurally identical one-box networks; node names differ only in
  // the middlebox (names are erased from keys).
  OneBoxNet n1 = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw-alpha", std::vector<mbox::AclEntry>{}, mbox::AclAction::deny));
  OneBoxNet n2 = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw-beta", std::vector<mbox::AclEntry>{}, mbox::AclAction::deny));
  auto key_of = [](const encode::NetworkModel& model, const Invariant& inv) {
    PolicyClasses classes = infer_policy_classes(model);
    Slice s = compute_slice(model, inv, classes);
    return canonical_slice_key(model, s.members, inv, classes);
  };
  const std::string k1 =
      key_of(n1.model, Invariant::node_isolation(n1.b, n1.a));
  const std::string k2 =
      key_of(n2.model, Invariant::node_isolation(n2.b, n2.a));
  EXPECT_EQ(k1, k2);

  // A different middlebox type breaks the isomorphism.
  OneBoxNet n3 = OneBoxNet::make(std::make_unique<mbox::Nat>(
      "nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8)));
  const std::string k3 =
      key_of(n3.model, Invariant::node_isolation(n3.b, n3.a));
  EXPECT_NE(k1, k3);
}

TEST(CanonicalKey, SplitsSameTypeBoxesWithDifferentConfigs) {
  using test::OneBoxNet;
  // Same middlebox type, different configuration: default-deny vs
  // default-allow firewalls encode different problems, so the keys must
  // split even though type, state scope and failure mode all agree.
  OneBoxNet deny = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw", std::vector<mbox::AclEntry>{}, mbox::AclAction::deny));
  OneBoxNet allow = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw", std::vector<mbox::AclEntry>{}, mbox::AclAction::allow));
  auto key_of = [](const encode::NetworkModel& model, const Invariant& inv) {
    PolicyClasses classes = infer_policy_classes(model);
    Slice s = compute_slice(model, inv, classes);
    return canonical_slice_key(model, s.members, inv, classes);
  };
  EXPECT_NE(key_of(deny.model, Invariant::node_isolation(deny.b, deny.a)),
            key_of(allow.model, Invariant::node_isolation(allow.b, allow.a)));
}

// Two disjoint OneBoxNet-shaped segments in one network, each chaining its
// host pair through its own firewall.
struct TwoSegments {
  encode::NetworkModel model;
  NodeId a1, b1, a2, b2;
};

TwoSegments two_firewall_segments(mbox::AclAction first,
                                  mbox::AclAction second) {
  TwoSegments n;
  net::Network& net = n.model.network();
  n.a1 = net.add_host("a1", Address::of(10, 0, 0, 1));
  n.b1 = net.add_host("b1", Address::of(10, 0, 1, 1));
  n.a2 = net.add_host("a2", Address::of(10, 0, 2, 1));
  n.b2 = net.add_host("b2", Address::of(10, 0, 3, 1));
  NodeId fw1 = n.model
                   .add_middlebox(std::make_unique<mbox::LearningFirewall>(
                       "fw1", std::vector<mbox::AclEntry>{}, first))
                   .node();
  NodeId fw2 = n.model
                   .add_middlebox(std::make_unique<mbox::LearningFirewall>(
                       "fw2", std::vector<mbox::AclEntry>{}, second))
                   .node();
  int sw = 0;
  auto wire = [&](NodeId a, NodeId b, NodeId fw) {
    NodeId s1 = net.add_switch("sw" + std::to_string(sw++));
    NodeId s2 = net.add_switch("sw" + std::to_string(sw++));
    net.add_link(a, s1);
    net.add_link(fw, s1);
    net.add_link(s1, s2);
    net.add_link(b, s2);
    const Prefix pa = Prefix::host(net.node(a).address);
    const Prefix pb = Prefix::host(net.node(b).address);
    net.table(s1).add(pa, a);
    net.table(s1).add_from(a, pb, fw);
    net.table(s1).add_from(fw, pb, s2);
    net.table(s1).add_from(s2, pa, fw);
    net.table(s1).add_from(fw, pa, a);
    net.table(s2).add(pb, b);
    net.table(s2).add(pa, s1);
  };
  wire(n.a1, n.b1, fw1);
  wire(n.a2, n.b2, fw2);
  return n;
}

TEST(CanonicalKey, SplitsAddressIndependentConfigs) {
  using test::OneBoxNet;
  // Idps config (drop vs monitor) never touches an address, so it can only
  // enter the key through the policy_fingerprint contract; a key that
  // missed it would merge a dropping IDPS with a pure monitor.
  OneBoxNet drop = OneBoxNet::make(
      std::make_unique<mbox::Idps>("idps", /*drop_malicious=*/true));
  OneBoxNet monitor = OneBoxNet::make(
      std::make_unique<mbox::Idps>("idps", /*drop_malicious=*/false));
  auto key_of = [](const encode::NetworkModel& model, const Invariant& inv) {
    PolicyClasses classes = infer_policy_classes(model);
    Slice s = compute_slice(model, inv, classes);
    return canonical_slice_key(model, s.members, inv, classes);
  };
  EXPECT_NE(
      key_of(drop.model, Invariant::no_malicious_delivery(drop.b)),
      key_of(monitor.model, Invariant::no_malicious_delivery(monitor.b)));
}

TEST(CanonicalKey, BatchNeverInheritsAcrossDifferentIdpsModes) {
  // One shared sender `a`, two isomorphic segments: b1 behind a dropping
  // IDPS, b2 behind a pure monitor. The two no-malicious-delivery slices
  // differ only in that address-independent mode; merging them would let
  // the monitor segment inherit "holds" from the dropping one.
  encode::NetworkModel model;
  net::Network& net = model.network();
  NodeId a = net.add_host("a", Address::of(10, 0, 0, 1));
  NodeId b1 = net.add_host("b1", Address::of(10, 0, 1, 1));
  NodeId b2 = net.add_host("b2", Address::of(10, 0, 2, 1));
  NodeId i1 = model
                  .add_middlebox(std::make_unique<mbox::Idps>(
                      "idps1", /*drop_malicious=*/true))
                  .node();
  NodeId i2 = model
                  .add_middlebox(std::make_unique<mbox::Idps>(
                      "idps2", /*drop_malicious=*/false))
                  .node();
  NodeId s0 = net.add_switch("s0");
  NodeId s1 = net.add_switch("s1");
  NodeId s2 = net.add_switch("s2");
  net.add_link(a, s0);
  net.add_link(s0, s1);
  net.add_link(s0, s2);
  net.add_link(i1, s1);
  net.add_link(b1, s1);
  net.add_link(i2, s2);
  net.add_link(b2, s2);
  const Prefix pa = Prefix::host(net.node(a).address);
  const Prefix pb1 = Prefix::host(net.node(b1).address);
  const Prefix pb2 = Prefix::host(net.node(b2).address);
  net.table(s0).add(pa, a);
  net.table(s0).add(pb1, s1);
  net.table(s0).add(pb2, s2);
  net.table(s1).add_from(s0, pb1, i1);
  net.table(s1).add_from(i1, pb1, b1);
  net.table(s1).add(pa, s0);
  net.table(s2).add_from(s0, pb2, i2);
  net.table(s2).add_from(i2, pb2, b2);
  net.table(s2).add(pa, s0);

  verify::Engine v(model);
  const std::vector<Invariant> batch = {Invariant::no_malicious_delivery(b1),
                                        Invariant::no_malicious_delivery(b2)};
  verify::BatchResult r = v.run_batch(batch);
  EXPECT_EQ(r.results[0].outcome, verify::Outcome::holds);
  EXPECT_EQ(r.results[1].outcome, verify::Outcome::violated);
  EXPECT_FALSE(r.results[1].by_symmetry);
}

TEST(CanonicalKey, BatchNeverInheritsAcrossDifferentConfigs) {
  // Regression: with empty ACLs every host fingerprints identically against
  // both firewalls, so all four land in one inferred policy class and the
  // two slices are isomorphic up to the firewalls' default actions. A key
  // that ignores configuration would merge the two checks and the allow
  // segment would unsoundly inherit "holds" from the deny segment.
  TwoSegments n =
      two_firewall_segments(mbox::AclAction::deny, mbox::AclAction::allow);
  verify::Engine v(n.model);
  const std::vector<Invariant> batch = {Invariant::node_isolation(n.b1, n.a1),
                                        Invariant::node_isolation(n.b2, n.a2)};
  verify::BatchResult r = v.run_batch(batch);
  EXPECT_EQ(r.results[0].outcome, verify::Outcome::holds);
  EXPECT_EQ(r.results[1].outcome, verify::Outcome::violated);
  EXPECT_FALSE(r.results[1].by_symmetry);
}

// -- all-senders slice soundness ---------------------------------------------
//
// The representative-sender regression (CHANGES.md, the PR 4 entry,
// "Topology-aware policy classes"): all-senders invariants
// (no-malicious-delivery, unconstrained traversal) seed their slice with
// representative senders per policy class.
// Configuration-only classes merge hosts of disconnected segments, and the
// seed behavior's fixed first-member representative could not even reach
// the target - the sliced verdict silently disagreed with the whole
// network. These property tests pin sliced == unsliced for all-senders
// invariants across every scenario generator, the segmented one (built to
// reproduce the bug) above all.

void expect_all_senders_sound(const encode::NetworkModel& model,
                              const std::vector<Invariant>& invariants,
                              const std::string& label) {
  verify::VerifyOptions sliced;
  sliced.use_slices = true;
  sliced.solver.seed = 7;
  verify::VerifyOptions full;
  full.use_slices = false;
  full.solver.seed = 7;
  verify::Engine vs(model, {.verify = sliced});
  verify::Engine vf(model, {.verify = full});
  for (const Invariant& inv : invariants) {
    verify::VerifyResult rs = vs.run_one(inv);
    verify::VerifyResult rf = vf.run_one(inv);
    EXPECT_EQ(rs.outcome, rf.outcome)
        << label << " "
        << inv.describe([&](NodeId n) { return model.network().name(n); });
    EXPECT_LE(rs.slice_size, rf.slice_size);
  }
}

TEST(AllSendersSoundness, SegmentedSymmetric) {
  scenarios::Segmented s = scenarios::make_segmented({});
  expect_all_senders_sound(s.model, s.invariants, "segmented");
}

TEST(AllSendersSoundness, SegmentedWithBypassedIdps) {
  // The bug reproducer: only a segment-1 sender witnesses the bypass, and
  // the seed behavior's slice contained no such sender.
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_all_senders_sound(s.model, s.invariants, "segmented-bypass");
}

TEST(AllSendersSoundness, SegmentedWithIsolatedIsland) {
  scenarios::SegmentedParams p;
  p.isolated_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_all_senders_sound(s.model, s.invariants, "segmented-isolated");
}

TEST(AllSendersSoundness, SegmentedThreeSegmentsBypassLast) {
  scenarios::SegmentedParams p;
  p.segments = 3;
  p.bypass_segment = 2;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_all_senders_sound(s.model, s.invariants, "segmented-3");
}

TEST(AllSendersSoundness, Enterprise) {
  Enterprise ent = small_enterprise(3);
  std::vector<Invariant> invs;
  for (const auto& hosts : ent.subnet_hosts) {
    invs.push_back(Invariant::no_malicious_delivery(hosts[0]));
    invs.push_back(Invariant::traversal(hosts[0], "gw"));
  }
  expect_all_senders_sound(ent.model, invs, "enterprise");
}

TEST(AllSendersSoundness, Datacenter) {
  scenarios::Datacenter dc = scenarios::make_datacenter(DatacenterParams{
      .policy_groups = 2, .clients_per_group = 1, .redundancy = false});
  std::vector<Invariant> invs = dc.traversal_invariants();
  invs.push_back(Invariant::no_malicious_delivery(dc.group_clients[0][0]));
  expect_all_senders_sound(dc.model, invs, "datacenter");
}

TEST(AllSendersSoundness, Isp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 2;
  p.with_scrub_reroute = false;
  scenarios::Isp isp = scenarios::make_isp(p);
  std::vector<Invariant> invs = {
      Invariant::no_malicious_delivery(isp.subnet_hosts[0][0]),
      Invariant::no_malicious_delivery(isp.subnet_hosts[1][0])};
  expect_all_senders_sound(isp.model, invs, "isp");
}

TEST(AllSendersSoundness, MultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  std::vector<Invariant> invs = {
      Invariant::no_malicious_delivery(mt.private_vms[0][0]),
      Invariant::no_malicious_delivery(mt.public_vms[1][0])};
  expect_all_senders_sound(mt.model, invs, "multitenant");
}

// -- the colour-refinement kernel --------------------------------------------

/// A graph of `n` vertices: vertex v starts with colour v % kinds, and
/// edge e = (u, v) carries label e % labels both ways.
ColourGraph graph_of(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& edges,
    std::uint64_t kinds = 1, std::uint64_t labels = 1) {
  ColourGraph g;
  for (std::size_t v = 0; v < n; ++v) g.add_vertex(v % kinds);
  for (std::size_t e = 0; e < edges.size(); ++e) {
    g.add_edge(edges[e].first, e % labels, edges[e].second);
  }
  return g;
}

/// A deterministic random graph on 24 vertices, 3 initial colours and 2
/// edge labels.
ColourGraph random_graph(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (int e = 0; e < 30; ++e) {
    edges.emplace_back(static_cast<std::size_t>(rng.uniform(0, 23)),
                       static_cast<std::size_t>(rng.uniform(0, 23)));
  }
  return graph_of(24, edges, 3, 2);
}

std::vector<std::uint64_t> palette(std::vector<std::uint64_t> colours) {
  std::sort(colours.begin(), colours.end());
  return colours;
}

TEST(Refine, ColoursAreInvariantUnderVertexPermutation) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ColourGraph g = random_graph(seed);
    const std::size_t n = g.colours.size();
    // Vertex v of g is vertex perm[v] of h; arcs are added in reverse.
    std::vector<std::size_t> perm(n);
    for (std::size_t v = 0; v < n; ++v) perm[v] = (7 * v + 3) % n;
    ColourGraph h;
    h.colours.resize(n);
    h.arcs.resize(n);
    for (std::size_t v = 0; v < n; ++v) h.colours[perm[v]] = g.colours[v];
    for (std::size_t v = n; v-- > 0;) {
      for (auto it = g.arcs[v].rbegin(); it != g.arcs[v].rend(); ++it) {
        h.add_arc(perm[v], it->first, perm[it->second]);
      }
    }
    const std::vector<std::uint64_t> cg = refine(g);
    const std::vector<std::uint64_t> ch = refine(h);
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(cg[v], ch[perm[v]]) << "seed " << seed << " vertex " << v;
    }
  }
}

TEST(Refine, OneMoreRoundChangesNothing) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ColourGraph g = random_graph(seed);
    g.colours = refine(g);
    EXPECT_EQ(refine(g), g.colours) << "seed " << seed;
  }
  // A path 0-1-2-3-4 refines from one colour to three (ends, inner, middle)
  // and stays there.
  ColourGraph path = graph_of(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  path.colours = refine(path);
  EXPECT_EQ(path.colours[0], path.colours[4]);
  EXPECT_EQ(path.colours[1], path.colours[3]);
  EXPECT_NE(path.colours[0], path.colours[1]);
  EXPECT_NE(path.colours[1], path.colours[2]);
  EXPECT_NE(path.colours[0], path.colours[2]);
  EXPECT_EQ(refine(path), path.colours);
}

TEST(Refine, DistinctSignaturesNeverShareAColour) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ColourGraph g = random_graph(seed);
    const std::vector<std::uint64_t> colours = refine(g);
    // Each vertex's signature under the stable colouring: own colour plus
    // the sorted (label, neighbour colour) multiset.
    using Signature =
        std::pair<std::uint64_t,
                  std::vector<std::pair<std::uint64_t, std::uint64_t>>>;
    std::vector<Signature> sig(colours.size());
    for (std::size_t v = 0; v < colours.size(); ++v) {
      sig[v].first = colours[v];
      for (const auto& [label, u] : g.arcs[v]) {
        sig[v].second.emplace_back(label, colours[u]);
      }
      std::sort(sig[v].second.begin(), sig[v].second.end());
    }
    for (std::size_t u = 0; u < colours.size(); ++u) {
      for (std::size_t v = 0; v < colours.size(); ++v) {
        EXPECT_EQ(colours[u] == colours[v], sig[u] == sig[v])
            << "seed " << seed << " vertices " << u << ", " << v;
      }
    }
    // Initial colours and labels both separate vertices.
    EXPECT_GT(std::set<std::uint64_t>(colours.begin(), colours.end()).size(),
              3u);
  }
}

TEST(Refine, TwoTrianglesAndASixCycleColourAlike) {
  // The known blind spot of colour refinement: every vertex of both graphs
  // has two neighbours of its own colour, so the palettes coincide though
  // the graphs are not isomorphic (one is connected, the other is not).
  // This is why equal shape keys only nominate a pairing that
  // shape_bijection then checks exactly.
  const ColourGraph triangles =
      graph_of(6, {{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}});
  const ColourGraph cycle =
      graph_of(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}});
  EXPECT_EQ(palette(refine(triangles)), palette(refine(cycle)));
}

// -- reachability-refined policy classes -------------------------------------

/// The configuration-only relation of a segmented network, built by hand:
/// every host there fingerprints identically, so it is one class holding
/// every host, with no recorded delivery signatures.
PolicyClasses configuration_only(const encode::NetworkModel& model) {
  PolicyClasses out;
  out.classes.push_back(model.network().hosts());
  out.reindex();
  return out;
}

TEST(PolicyClasses, RefinementSplitsDisjointReachabilityAndMergesSymmetric) {
  // Truly symmetric disconnected segments (identical configs, isomorphic
  // reachability) must keep sharing classes...
  scenarios::Segmented sym = scenarios::make_segmented({});
  PolicyClasses merged = infer_policy_classes(sym.model);
  EXPECT_EQ(merged.class_of(sym.segment_senders[0][0]),
            merged.class_of(sym.segment_senders[1][0]));

  // ...while an isolated island (identical configs, *disjoint and
  // asymmetric* reachability: its hosts deliver to nobody) must split off.
  scenarios::SegmentedParams p;
  p.isolated_segment = 1;
  scenarios::Segmented iso = scenarios::make_segmented(p);
  PolicyClasses split = infer_policy_classes(iso.model);
  EXPECT_NE(split.class_of(iso.segment_senders[0][0]),
            split.class_of(iso.segment_senders[1][0]));

  // The configuration-only relation (the seed behavior) cannot tell the
  // island apart: every host fingerprints identically, so it is one class.
  PolicyClasses coarse = configuration_only(iso.model);
  EXPECT_EQ(coarse.class_of(iso.segment_senders[0][0]),
            coarse.class_of(iso.segment_senders[1][0]));
}

TEST(PolicyClasses, RefinementLeavesConnectedGeneratorsUntouched) {
  // Every enterprise host can (dataplane-)deliver to every other - policy
  // drops live in the solver, not the relation - so the refined classes
  // must equal the generator's declared classes exactly (it declares the
  // subnet hosts' classes; the internet host is a class of its own).
  Enterprise ent = small_enterprise(6);
  PolicyClasses refined = infer_policy_classes(ent.model);
  std::map<PolicyClassId, std::vector<NodeId>> declared;
  for (const std::vector<NodeId>& subnet : ent.subnet_hosts) {
    for (NodeId h : subnet) declared[ent.model.policy_class(h)].push_back(h);
  }
  PolicyClasses coarse;
  coarse.classes.push_back({ent.internet});
  for (auto& [cls, hosts] : declared) coarse.classes.push_back(hosts);
  coarse.reindex();
  EXPECT_EQ(refined.count(), coarse.count());
  for (const std::vector<NodeId>& c : coarse.classes) {
    for (NodeId h : c) {
      EXPECT_EQ(refined.class_of(h), refined.class_of(c.front()));
    }
  }
  EXPECT_TRUE(refined.has_reach_signatures());
  EXPECT_FALSE(coarse.has_reach_signatures());
}

TEST(PolicyClasses, TargetAwareRepresentativesReachTheTarget) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  PolicyClasses classes = infer_policy_classes(s.model);
  const NodeId srv1 = s.segment_servers[1];

  // The configuration-only relation merges every host into one class whose
  // first-member representative is a segment-0 host that cannot deliver to
  // srv1 (checked against the refined instance's recorded signatures - the
  // coarse one records none).
  PolicyClasses seed_classes = configuration_only(s.model);
  ASSERT_EQ(seed_classes.count(), 1u);
  EXPECT_FALSE(classes.reaches(seed_classes.representatives().front(), srv1, 0));
  // Target-aware selection includes a segment-1 sender that can.
  bool any_reaching = false;
  for (NodeId r :
       classes.representatives_for(srv1, 0, /*include_unreachable=*/false)) {
    EXPECT_TRUE(classes.reaches(r, srv1, 0));
    any_reaching = true;
  }
  EXPECT_TRUE(any_reaching);

  // And the computed slice for the all-senders invariant carries it.
  Invariant inv = Invariant::no_malicious_delivery(srv1);
  Slice sliced = compute_slice(s.model, inv, classes);
  bool has_segment1_sender = false;
  for (NodeId m : sliced.members) {
    for (NodeId h : s.segment_senders[1]) has_segment1_sender |= m == h;
  }
  EXPECT_TRUE(has_segment1_sender);

  // The seed behavior, replayed: with the configuration-only relation the
  // slice has no sender that can reach srv1, and verifying on it reports
  // the silently-wrong "holds" the whole network contradicts. This is the
  // exact unsoundness the refinement retires.
  PolicyClasses coarse = configuration_only(s.model);
  Slice unsound = compute_slice(s.model, inv, coarse);
  dataplane::TransferCache transfers(s.model.network());
  verify::SolverSession session{smt::SolverOptions{}, /*warm=*/true,
                                transfers};
  verify::VerifyResult wrong = verify::verify_members(
      s.model, inv, unsound.members, /*max_failures=*/0, session);
  EXPECT_EQ(wrong.outcome, verify::Outcome::holds);
  verify::VerifyOptions full;
  full.use_slices = false;
  verify::VerifyResult truth =
      verify::Engine(s.model, {.verify = full}).run_one(inv);
  EXPECT_EQ(truth.outcome, verify::Outcome::violated);
}

TEST(PolicyClasses, PathAwareSignaturesCatchWithinSegmentBypass) {
  // The residual hole of a reach-only relation: one *connected* segment
  // where h0's route to the server is chained through the IDPS but h1's
  // in-port rule skips it. Both deliver to the server, so a who-is-reached
  // signature merges them and a reach-only representative (h0, the policed
  // one) would hide h1's unpoliced path - sliced "holds" vs whole-network
  // "violated". Delivery signatures carry the traversed middlebox types,
  // so the refinement splits the two senders, and the sliced verdicts
  // match the whole network.
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address asrv = Address::of(10, 0, 0, 100);
  const Address a0 = Address::of(10, 0, 0, 1);
  const Address a1 = Address::of(10, 0, 0, 2);
  NodeId srv = net.add_host("srv", asrv);
  NodeId h0 = net.add_host("h0", a0);
  NodeId h1 = net.add_host("h1", a1);
  NodeId idps = model
                    .add_middlebox(std::make_unique<mbox::Idps>(
                        "idps0", /*drop_malicious=*/true))
                    .node();
  NodeId sa = net.add_switch("sa");
  NodeId sb = net.add_switch("sb");
  net.add_link(idps, sa);
  net.add_link(sa, sb);
  net.add_link(srv, sb);
  net.add_link(h0, sa);
  net.add_link(h1, sa);
  net.table(sa).add(Prefix::host(a0), h0);
  net.table(sa).add(Prefix::host(a1), h1);
  net.table(sa).add_from(h0, Prefix::host(asrv), idps);
  net.table(sa).add_from(h1, Prefix::host(asrv), sb);  // the bypass
  net.table(sa).add_from(idps, Prefix::host(asrv), sb);
  net.table(sb).add(Prefix::host(asrv), srv);
  net.table(sb).add(Prefix::host(a0), sa);
  net.table(sb).add(Prefix::host(a1), sa);

  PolicyClasses classes = infer_policy_classes(model);
  EXPECT_NE(classes.class_of(h0), classes.class_of(h1));

  expect_all_senders_sound(model,
                           {Invariant::no_malicious_delivery(srv),
                            Invariant::traversal(srv, "idps")},
                           "within-segment-bypass");
  verify::VerifyOptions full;
  full.use_slices = false;
  verify::Engine truth(model, {.verify = full});
  EXPECT_EQ(truth.run_one(Invariant::no_malicious_delivery(srv)).outcome,
            verify::Outcome::violated);
}

TEST(PolicyClasses, InferenceToleratesForwardingLoopsOutsideTheSlice) {
  // Class inference walks the whole dataplane at Engine construction; a
  // static forwarding loop confined to one island must not make every
  // unrelated invariant unverifiable (it counts as undeliverable for the
  // relation), while an invariant whose slice actually walks the looping
  // pair still surfaces the fault loudly - the pre-refinement behavior on
  // both counts.
  encode::NetworkModel model;
  net::Network& net = model.network();
  NodeId a = net.add_host("a", Address::of(10, 0, 0, 1));
  NodeId b = net.add_host("b", Address::of(10, 0, 0, 2));
  NodeId s = net.add_switch("s");
  net.add_link(a, s);
  net.add_link(b, s);
  net.table(s).add(Prefix::host(Address::of(10, 0, 0, 1)), a);
  net.table(s).add(Prefix::host(Address::of(10, 0, 0, 2)), b);
  // Disconnected island whose switches bounce c->d traffic forever.
  NodeId c = net.add_host("c", Address::of(10, 9, 0, 1));
  NodeId d = net.add_host("d", Address::of(10, 9, 0, 2));
  NodeId l1 = net.add_switch("l1");
  NodeId l2 = net.add_switch("l2");
  net.add_link(c, l1);
  net.add_link(d, l2);
  net.add_link(l1, l2);
  net.table(l1).add(Prefix::host(Address::of(10, 9, 0, 2)), l2);
  net.table(l2).add(Prefix::host(Address::of(10, 9, 0, 2)), l1);

  verify::Engine v(model);  // must not throw
  verify::VerifyResult healthy = v.run_one(Invariant::reachable(b, a));
  EXPECT_EQ(healthy.outcome, verify::Outcome::holds);
  EXPECT_THROW((void)v.run_one(Invariant::node_isolation(d, c)),
               ForwardingLoopError);
}

TEST(CanonicalKey, SymmetricSegmentsStillDedupUnderRefinedClasses) {
  // Refinement must not over-split: the two segments' all-senders checks
  // are genuinely isomorphic, so the batch still merges them.
  scenarios::Segmented s = scenarios::make_segmented({});
  verify::Engine v(s.model);
  verify::BatchResult r = v.run_batch(s.invariants);
  EXPECT_EQ(r.solver_calls, 2u);  // one no-malicious job + one traversal job
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, verify::Outcome::holds) << i;
  }
}

TEST(CanonicalKey, BatchNeverInheritsAcrossSegmentsWithDifferentRouting) {
  // Segment 1's senders bypass its IDPS; the slices differ only in
  // routing, which the canonical key must see - merging would let the
  // bypassed segment inherit "holds" from the protected one.
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  verify::Engine v(s.model);
  verify::BatchResult r = v.run_batch(s.invariants);
  ASSERT_EQ(r.results.size(), s.invariants.size());
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    const verify::Outcome expected = s.expected_holds[i]
                                         ? verify::Outcome::holds
                                         : verify::Outcome::violated;
    EXPECT_EQ(r.results[i].outcome, expected) << i;
    if (!s.expected_holds[i]) {
      EXPECT_FALSE(r.results[i].by_symmetry) << i;
    }
  }
}

// -- exactness oracle: the per-source delivery worklist ----------------------

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

using Deliveries = std::vector<std::pair<NodeId, std::vector<NodeId>>>;

/// The reference: the per-source worklist policy inference ran before it
/// memoised middlebox walk states, kept verbatim (only its result type
/// differs). Deliveries of packets injected at `from` under `tf`'s
/// scenario, following middlebox rewrites and recording the traversed
/// middleboxes per reached host (union over the explored paths; monotone
/// worklist, so a state revisited with new boxes propagates them onward).
Deliveries deliveries_from(const encode::NetworkModel& model,
                           const dataplane::TransferFunction& tf, NodeId from,
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
      if (known.size() != before) frontier.emplace_back(*next, onward);
    }
  }
  Deliveries out;
  out.reserve(delivered.size());
  for (auto& [target, boxes] : delivered) {
    out.emplace_back(target, std::vector<NodeId>(boxes.begin(), boxes.end()));
  }
  return out;
}

/// Checks that inference at `budget` records exactly the reference
/// deliveries - same targets, same box sets - for every host under every
/// in-budget scenario, and none beyond the budget. Returns the number of
/// deliveries compared.
std::size_t expect_oracle_agrees(const encode::NetworkModel& model,
                                 int budget, const std::string& what) {
  const net::Network& net = model.network();
  const PolicyClasses classes =
      infer_policy_classes(model, {.max_failures = budget});
  dataplane::TransferCache transfers(net);
  const std::vector<Address> seeds = seed_addresses(model);
  std::size_t compared = 0;
  for (std::size_t s = 0; s < net.scenarios().size(); ++s) {
    const bool in_budget =
        budget < 0 ||
        static_cast<int>(net.scenarios()[s].failed_nodes.size()) <= budget;
    const dataplane::TransferFunction& tf =
        transfers.at(ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
    for (NodeId h : net.hosts()) {
      const Deliveries expected =
          in_budget ? deliveries_from(model, tf, h, seeds) : Deliveries{};
      EXPECT_EQ(classes.deliveries(h, s), expected)
          << what << " budget " << budget << " scenario " << s << " host "
          << net.name(h);
      compared += expected.size();
    }
  }
  return compared;
}

std::size_t expect_oracle_agrees_at_every_budget(
    const encode::NetworkModel& model, const std::string& what) {
  std::size_t compared = 0;
  for (int budget : {0, 1, -1}) {
    compared += expect_oracle_agrees(model, budget, what);
  }
  return compared;
}

TEST(DeliveryOracle, GeneratorsAgreeWithThePerSourceWorklist) {
  std::size_t compared = 0;
  for (int subnets : {3, 6}) {
    compared += expect_oracle_agrees_at_every_budget(
        small_enterprise(subnets).model, "enterprise");
  }
  for (scenarios::DcMisconfig kind :
       {scenarios::DcMisconfig::none, scenarios::DcMisconfig::rules,
        scenarios::DcMisconfig::redundancy, scenarios::DcMisconfig::traversal,
        scenarios::DcMisconfig::cache_acl}) {
    for (bool storage : {false, true}) {
      if (kind == scenarios::DcMisconfig::cache_acl && !storage) continue;
      Datacenter dc = scenarios::make_datacenter(
          {.policy_groups = 3,
           .clients_per_group = 2,
           .with_storage = storage});
      if (kind != scenarios::DcMisconfig::none) {
        Rng rng(7);
        scenarios::inject_misconfig(dc, kind, rng, 2);
      }
      compared += expect_oracle_agrees_at_every_budget(
          dc.model, "datacenter " + std::to_string(static_cast<int>(kind)));
    }
  }
  for (bool bypass : {false, true}) {
    scenarios::IspParams p;
    p.peering_points = 2;
    p.subnets = 3;
    p.scrub_bypasses_firewalls = bypass;
    compared += expect_oracle_agrees_at_every_budget(
        scenarios::make_isp(p).model, "isp");
  }
  compared += expect_oracle_agrees_at_every_budget(
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
    compared += expect_oracle_agrees_at_every_budget(
        scenarios::make_segmented(p).model, "segmented");
  }
  EXPECT_GT(compared, 1000u);
}

TEST(DeliveryOracle, ExampleSpecsAgreeWithThePerSourceWorklist) {
  std::size_t specs = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(VMN_SOURCE_DIR) + "/examples/specs")) {
    if (entry.path().extension() != ".vmn") continue;
    const io::Spec spec = io::load_spec(entry.path().string());
    EXPECT_GT(expect_oracle_agrees_at_every_budget(
                  spec.model, entry.path().filename().string()),
              0u);
    ++specs;
  }
  EXPECT_GE(specs, 3u);
}

TEST(DeliveryOracle, RandomSpecsAgreeWithThePerSourceWorklist) {
  std::size_t compared = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    scenarios::RandomSpecParams p;
    p.seed = seed;
    const scenarios::RandomSpec r = scenarios::make_random_spec(p);
    compared += expect_oracle_agrees_at_every_budget(
        r.spec.model, "random seed " + std::to_string(seed));
  }
  EXPECT_GT(compared, 0u);
}

/// The inferred partition as host names, class by class.
std::vector<std::vector<std::string>> named_classes(
    const encode::NetworkModel& model, const PolicyClasses& classes) {
  std::vector<std::vector<std::string>> out;
  for (const std::vector<NodeId>& c : classes.classes) {
    out.emplace_back();
    for (NodeId h : c) out.back().push_back(model.network().name(h));
  }
  return out;
}

TEST(DeliveryOracle, MiddleboxRewriteCycleSharesOneFixpoint) {
  // Two load balancers whose backends include each other's VIP: a packet
  // for v1 enters lb1, may be rewritten to v2, enters lb2, may be
  // rewritten back to v1 - a cycle of walk states. b2's backend route
  // additionally passes an IDPS, so the cycle has two exits with different
  // box sets, and c3's in-port rule enters the cycle through lb2.
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address v1 = Address::of(10, 255, 0, 1);
  const Address v2 = Address::of(10, 255, 0, 2);
  const Address ab1 = Address::of(10, 0, 1, 1);
  const Address ab2 = Address::of(10, 0, 1, 2);
  NodeId c1 = net.add_host("c1", Address::of(10, 0, 0, 1));
  NodeId c2 = net.add_host("c2", Address::of(10, 0, 0, 2));
  NodeId c3 = net.add_host("c3", Address::of(10, 0, 0, 3));
  NodeId b1 = net.add_host("b1", ab1);
  NodeId b2 = net.add_host("b2", ab2);
  NodeId lb1 = model
                   .add_middlebox(std::make_unique<mbox::LoadBalancer>(
                       "lb1", v1, std::vector{v2, ab1}))
                   .node();
  NodeId lb2 = model
                   .add_middlebox(std::make_unique<mbox::LoadBalancer>(
                       "lb2", v2, std::vector{v1, ab2}))
                   .node();
  NodeId idps = model
                    .add_middlebox(std::make_unique<mbox::Idps>(
                        "idps", /*drop_malicious=*/true))
                    .node();
  NodeId sw = net.add_switch("sw");
  for (NodeId x : {c1, c2, c3, b1, b2, lb1, lb2, idps}) net.add_link(x, sw);
  net.table(sw).add(Prefix::host(v1), lb1);
  net.table(sw).add(Prefix::host(v2), lb2);
  net.table(sw).add_from(c3, Prefix::host(v1), lb2);
  net.table(sw).add(Prefix::host(ab1), b1);
  net.table(sw).add(Prefix::host(ab2), b2);
  net.table(sw).add_from(lb2, Prefix::host(ab2), idps);
  for (NodeId c : {c1, c2, c3}) {
    net.table(sw).add(Prefix::host(net.node(c).address), c);
  }

  EXPECT_GT(expect_oracle_agrees_at_every_budget(model, "rewrite cycle"), 0u);
  const PolicyClasses classes = infer_policy_classes(model);
  // Through the cycle, every client reaches both backends via both load
  // balancers; b2's deliveries also carry the IDPS.
  const Deliveries c1_sends = classes.deliveries(c1, 0);
  ASSERT_EQ(c1_sends.size(), 4u);
  const std::vector<NodeId> both = {lb1, lb2};
  const std::vector<NodeId> both_and_idps = {lb1, lb2, idps};
  EXPECT_EQ(c1_sends[2], (std::pair{b1, both}));
  EXPECT_EQ(c1_sends[3], (std::pair{b2, both_and_idps}));
  // c3 enters the cycle elsewhere but ends with the same box sets, so it
  // stays with the other clients; the IDPS on b2's route splits b1 and b2.
  EXPECT_EQ(named_classes(model, classes),
            (std::vector<std::vector<std::string>>{
                {"b2"}, {"c1", "c2", "c3"}, {"b1"}}));
}

TEST(DeliveryOracle, ForwardingLoopReachedFromABoxState) {
  // A load balancer forwards v toward backends b and x; x's route out of
  // the balancer's switch bounces between two switches forever. The walk
  // state (lb, x) hits the loop, which delivers nothing, while (lb, b)
  // still delivers - and senders whose own first hop toward x loops are
  // treated alike.
  encode::NetworkModel model;
  net::Network& net = model.network();
  const Address v = Address::of(10, 255, 0, 1);
  const Address ab = Address::of(10, 0, 1, 1);
  const Address ax = Address::of(10, 0, 1, 2);
  NodeId c1 = net.add_host("c1", Address::of(10, 0, 0, 1));
  NodeId c2 = net.add_host("c2", Address::of(10, 0, 0, 2));
  NodeId b = net.add_host("b", ab);
  NodeId x = net.add_host("x", ax);
  NodeId lb = model
                  .add_middlebox(std::make_unique<mbox::LoadBalancer>(
                      "lb", v, std::vector{ab, ax}))
                  .node();
  NodeId s1 = net.add_switch("s1");
  NodeId s2 = net.add_switch("s2");
  for (NodeId h : {c1, c2, b, lb}) net.add_link(h, s1);
  net.add_link(x, s2);
  net.add_link(s1, s2);
  net.table(s1).add(Prefix::host(v), lb);
  net.table(s1).add(Prefix::host(ab), b);
  net.table(s1).add(Prefix::host(ax), s2);
  net.table(s2).add(Prefix::host(ax), s1);  // the loop
  for (NodeId c : {c1, c2}) {
    net.table(s1).add(Prefix::host(net.node(c).address), c);
  }

  EXPECT_GT(expect_oracle_agrees_at_every_budget(model, "box-state loop"), 0u);
  const PolicyClasses classes = infer_policy_classes(model);
  EXPECT_EQ(classes.deliveries(c1, 0),
            (Deliveries{{c2, {}}, {b, {lb}}}));
  // x receives nothing, b receives through the balancer.
  EXPECT_EQ(named_classes(model, classes),
            (std::vector<std::vector<std::string>>{
                {"b"}, {"x"}, {"c1", "c2"}}));
  verify::Engine engine(model);  // inference tolerates the loop
  (void)engine;
}

/// `node`'s first-hop ranges under scenario `s`, as "first-last" words.
std::string first_hop_text(const encode::NetworkModel& model,
                           const std::string& node, std::size_t s) {
  const net::Network& net = model.network();
  const dataplane::TransferFunction tf(
      net, ScenarioId(static_cast<ScenarioId::underlying_type>(s)));
  std::string out;
  for (const dataplane::AddressRange& r :
       tf.first_hop_ranges(net.node_by_name(node))) {
    if (!out.empty()) out += ' ';
    out += r.first.to_string() + "-" + r.last.to_string();
  }
  return out;
}

/// The boxes of `host`'s recorded delivery to `target` under scenario `s`;
/// nullopt when none is recorded.
using Boxes = std::optional<std::vector<NodeId>>;
Boxes delivered(const PolicyClasses& classes, NodeId host, std::size_t s,
                NodeId target) {
  for (const auto& [to, boxes] : classes.deliveries(host, s)) {
    if (to == target) return boxes;
  }
  return std::nullopt;
}

TEST(DeliveryOracle, FirstHopShapesAgreeWithThePerSourceWorklist) {
  // Inference walks only the seeds a host's first hop routes. These are
  // the first hops the generators never build; each is checked against the
  // all-seeds worklist at budgets 0, 1 and -1, and its ranges are pinned.
  //
  // Segment a: a1 alone reaches segment b, through the IDPS (an in-port
  // rule), and scenario `bypass` replaces that rule with one past it. The
  // VIP is routed for a2 only, so it is a seed a1's first hop never
  // routes. Segment b leaves through a 0.0.0.0/0 route.
  const io::Spec routed = io::parse_spec_string(R"(
host a1 10.0.1.1
host a2 10.0.1.2
host b1 10.0.2.1
host b2 10.0.2.2
load-balancer lb 10.255.0.1 10.0.2.1 10.0.2.2
idps ids
switch s1
switch s2
switch core
link a1 s1
link a2 s1
link lb s1
link ids s1
link s1 core
link s2 core
link b1 s2
link b2 s2
route s1 10.0.1.1/32 a1
route s1 10.0.1.2/32 a2
route s1 from a1 10.0.2.0/24 ids
route s1 from ids 10.0.2.0/24 core
route s1 from a2 10.255.0.1/32 lb
route s1 from lb 10.0.2.0/24 core
route core 10.0.1.0/24 s1
route core 10.0.2.0/24 s2
route s2 10.0.2.1/32 b1
route s2 10.0.2.2/32 b2
route s2 0.0.0.0/0 core
scenario bypass fail b2
  route s1 from a1 10.0.2.0/24 core
end
)");
  EXPECT_GT(expect_oracle_agrees_at_every_budget(routed.model, "routed"), 0u);
  EXPECT_EQ(first_hop_text(routed.model, "a1", 0),
            "10.0.1.1-10.0.1.2 10.0.2.0-10.0.2.255");
  EXPECT_EQ(first_hop_text(routed.model, "a2", 0),
            "10.0.1.1-10.0.1.2 10.255.0.1-10.255.0.1");
  EXPECT_EQ(first_hop_text(routed.model, "a1", 1),
            "10.0.1.1-10.0.1.2 10.0.2.0-10.0.2.255");
  EXPECT_EQ(first_hop_text(routed.model, "b1", 0), "0.0.0.0-255.255.255.255");
  {
    const net::Network& net = routed.model.network();
    const NodeId a1 = net.node_by_name("a1");
    const NodeId a2 = net.node_by_name("a2");
    const NodeId b1 = net.node_by_name("b1");
    const NodeId lb = net.node_by_name("lb");
    const NodeId ids = net.node_by_name("ids");
    const PolicyClasses classes = infer_policy_classes(routed.model);
    // a1 is policed in the base scenario and bypasses the IDPS in
    // `bypass`; a2 reaches segment b only through the VIP.
    EXPECT_EQ(delivered(classes, a1, 0, b1), Boxes{{ids}});
    EXPECT_EQ(delivered(classes, a1, 1, b1), Boxes{std::vector<NodeId>{}});
    EXPECT_EQ(delivered(classes, a2, 0, b1), Boxes{{lb}});
  }

  // h1's first switch sa fails in `sa-down`, so it enters through sb. h2
  // reaches h3 only over their direct link, which h2 lists before its
  // switch. h4 delivers to h5 directly, though it lists h5 after its only
  // switch sc: every alive host neighbour is checked before the fabric,
  // with sc up or down. h5 has no switch at all.
  const io::Spec wired = io::parse_spec_string(R"(
host h1 10.0.0.1
host h2 10.0.0.2
host h3 10.0.9.3
host h4 10.0.0.4
host h5 10.0.8.5
switch sa
switch sb
switch sc
link h1 sa
link h1 sb
link h2 h3
link h2 sb
link h3 sb
link h4 sc
link h5 h4
link sa sb
link sc sb
route sa 10.0.0.2/32 sb
route sb 10.0.0.1/32 h1
route sb 10.0.0.2/32 h2
route sb 10.0.0.4/32 sc
route sc 10.0.0.0/29 sb
route sc 10.0.0.4/32 h4
scenario sa-down fail sa
end
scenario sc-down fail sc
end
)");
  EXPECT_GT(expect_oracle_agrees_at_every_budget(wired.model, "wired"), 0u);
  EXPECT_EQ(first_hop_text(wired.model, "h1", 0), "10.0.0.2-10.0.0.2");
  EXPECT_EQ(first_hop_text(wired.model, "h1", 1),
            "10.0.0.1-10.0.0.2 10.0.0.4-10.0.0.4");
  EXPECT_EQ(first_hop_text(wired.model, "h2", 0),
            "10.0.0.1-10.0.0.2 10.0.0.4-10.0.0.4 10.0.9.3-10.0.9.3");
  EXPECT_EQ(first_hop_text(wired.model, "h4", 0),
            "10.0.0.0-10.0.0.7 10.0.8.5-10.0.8.5");
  EXPECT_EQ(first_hop_text(wired.model, "h4", 2), "10.0.8.5-10.0.8.5");
  EXPECT_EQ(first_hop_text(wired.model, "h5", 0), "10.0.0.4-10.0.0.4");
  {
    const net::Network& net = wired.model.network();
    const NodeId h2 = net.node_by_name("h2");
    const NodeId h3 = net.node_by_name("h3");
    const NodeId h4 = net.node_by_name("h4");
    const NodeId h5 = net.node_by_name("h5");
    const PolicyClasses classes = infer_policy_classes(wired.model);
    EXPECT_EQ(delivered(classes, h2, 0, h3), Boxes{std::vector<NodeId>{}});
    EXPECT_TRUE(classes.reaches(h4, h5, 0));
    EXPECT_TRUE(classes.reaches(h4, h5, 1));
  }
}

}  // namespace
}  // namespace vmn::slice
