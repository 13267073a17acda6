// Scenario ground-truth tests: each evaluation scenario (sections 5.1-5.3)
// verifies clean when correctly configured and reports exactly the injected
// misconfigurations otherwise.
#include <gtest/gtest.h>

#include "dataplane/transfer.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn::scenarios {
namespace {

using encode::Invariant;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

VerifyOptions with_failures(int k) {
  VerifyOptions opts;
  opts.max_failures = k;
  return opts;
}

// -- enterprise (5.3.1) -------------------------------------------------------

TEST(EnterpriseScenario, AllInvariantsHoldWhenCorrect) {
  EnterpriseParams p;
  p.subnets = 6;
  Enterprise ent = make_enterprise(p);
  Engine v(ent.model);
  for (std::size_t i = 0; i < ent.invariants.size(); ++i) {
    EXPECT_EQ(v.run_one(ent.invariants[i]).outcome, Outcome::holds)
        << "invariant " << i;
  }
}

TEST(EnterpriseScenario, SubnetKindsCycle) {
  EXPECT_EQ(subnet_kind_of(0), SubnetKind::public_net);
  EXPECT_EQ(subnet_kind_of(1), SubnetKind::private_net);
  EXPECT_EQ(subnet_kind_of(2), SubnetKind::quarantined);
  EXPECT_EQ(subnet_kind_of(3), SubnetKind::public_net);
}

TEST(EnterpriseScenario, InterSubnetTrafficCrossesGateway) {
  // Sanity of the generated routing: subnet-to-subnet paths exist.
  EnterpriseParams p;
  p.subnets = 3;
  Enterprise ent = make_enterprise(p);
  dataplane::TransferFunction tf(ent.model.network(),
                                 net::Network::base_scenario);
  auto chain = dataplane::edge_chain(
      tf, ent.subnet_hosts[0][0],
      ent.model.network().node(ent.subnet_hosts[1][0]).address);
  EXPECT_TRUE(chain.reached);
}

// -- datacenter (5.1) ----------------------------------------------------------

DatacenterParams small_dc(bool storage = false) {
  DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 2;
  p.with_storage = storage;
  return p;
}

TEST(DatacenterScenario, CleanConfigHolds) {
  Datacenter dc = make_datacenter(small_dc());
  Engine v(dc.model, {.verify = with_failures(1)});
  for (const Invariant& inv : dc.isolation_invariants()) {
    EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
  }
  for (const Invariant& inv : dc.traversal_invariants()) {
    EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
  }
}

TEST(DatacenterScenario, RulesMisconfigurationDetected) {
  Datacenter dc = make_datacenter(small_dc());
  Rng rng(7);
  inject_misconfig(dc, DcMisconfig::rules, rng, /*strength=*/1);
  ASSERT_FALSE(dc.broken_pairs.empty());
  Engine v(dc.model);
  auto invs = dc.isolation_invariants();
  for (std::size_t g = 0; g < invs.size(); ++g) {
    const bool broken = dc.pair_broken(static_cast<int>(g),
                                       (static_cast<int>(g) + 1) % 3);
    EXPECT_EQ(v.run_one(invs[g]).outcome,
              broken ? Outcome::violated : Outcome::holds)
        << "group " << g;
  }
}

TEST(DatacenterScenario, RedundancyMisconfigurationNeedsFailure) {
  Datacenter dc = make_datacenter(small_dc());
  Rng rng(11);
  inject_misconfig(dc, DcMisconfig::redundancy, rng, 1);
  ASSERT_FALSE(dc.broken_pairs.empty());
  const int g = dc.broken_pairs[0].first;
  Invariant inv = dc.isolation_invariants()[static_cast<std::size_t>(g)];
  // Invisible without failures...
  Engine v0(dc.model, {.verify = with_failures(0)});
  EXPECT_EQ(v0.run_one(inv).outcome, Outcome::holds);
  // ...but caught under a single-failure budget.
  Engine v1(dc.model, {.verify = with_failures(1)});
  EXPECT_EQ(v1.run_one(inv).outcome, Outcome::violated);
}

TEST(DatacenterScenario, TraversalMisconfigurationNeedsFailure) {
  Datacenter dc = make_datacenter(small_dc());
  Rng rng(13);
  inject_misconfig(dc, DcMisconfig::traversal, rng);
  Invariant inv = dc.traversal_invariants()[0];
  Engine v0(dc.model, {.verify = with_failures(0)});
  EXPECT_EQ(v0.run_one(inv).outcome, Outcome::holds);
  Engine v1(dc.model, {.verify = with_failures(1)});
  EXPECT_EQ(v1.run_one(inv).outcome, Outcome::violated);
}

// -- data isolation (5.2) --------------------------------------------------------

TEST(DataIsolationScenario, CleanConfigHolds) {
  Datacenter dc = make_datacenter(small_dc(/*storage=*/true));
  Engine v(dc.model);
  for (const Invariant& inv : dc.data_isolation_invariants()) {
    EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
  }
}

TEST(DataIsolationScenario, PublicDataIsReachableAcrossGroups) {
  Datacenter dc = make_datacenter(small_dc(/*storage=*/true));
  Engine v(dc.model);
  // Group 1's client can fetch group 0's *public* server data.
  Invariant inv =
      Invariant::reachable(dc.group_clients[1][0], dc.public_servers[0]);
  EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
}

TEST(DataIsolationScenario, CacheAclDeletionViolatesIsolation) {
  Datacenter dc = make_datacenter(small_dc(/*storage=*/true));
  Rng rng(17);
  inject_misconfig(dc, DcMisconfig::cache_acl, rng, 1);
  ASSERT_FALSE(dc.broken_pairs.empty());
  const auto [g, d] = dc.broken_pairs[0];
  Engine v(dc.model);
  Invariant broken = dc.data_isolation_invariants()[static_cast<std::size_t>(g)];
  EXPECT_EQ(v.run_one(broken).outcome, Outcome::violated);
  // Unaffected groups stay isolated.
  const int other = (g + 1) % 3;
  if (!dc.pair_broken(other, (other + 1) % 3)) {
    Invariant ok =
        dc.data_isolation_invariants()[static_cast<std::size_t>(other)];
    EXPECT_EQ(v.run_one(ok).outcome, Outcome::holds);
  }
}

// -- multi-tenant datacenter (5.3.2) ----------------------------------------------

TEST(MultiTenantScenario, SecurityGroupInvariants) {
  MultiTenantParams p;
  p.tenants = 3;
  p.servers = 3;
  p.public_vms_per_tenant = 2;
  p.private_vms_per_tenant = 2;
  MultiTenant mt = make_multitenant(p);
  Engine v(mt.model);
  EXPECT_EQ(v.run_one(mt.priv_priv()).outcome, Outcome::holds);
  EXPECT_EQ(v.run_one(mt.pub_priv()).outcome, Outcome::holds);
  EXPECT_EQ(v.run_one(mt.priv_pub()).outcome, Outcome::holds);
}

TEST(MultiTenantScenario, SameTenantReachesItsPrivateVm) {
  MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 2;
  p.private_vms_per_tenant = 2;
  MultiTenant mt = make_multitenant(p);
  Engine v(mt.model);
  Invariant inv =
      Invariant::reachable(mt.private_vms[0][0], mt.public_vms[0][1]);
  EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
}

TEST(MultiTenantScenario, CrossTenantReachableOnlyAsReply) {
  MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  MultiTenant mt = make_multitenant(p);
  Engine v(mt.model);
  // A cross-tenant packet CAN arrive at the private VM - but only as the
  // reply to a flow the private VM initiated (hole punching): positive
  // reachability holds while flow isolation also holds.
  Invariant reach =
      Invariant::reachable(mt.private_vms[1][0], mt.public_vms[0][0]);
  EXPECT_EQ(v.run_one(reach).outcome, Outcome::holds);
  Invariant iso = Invariant::flow_isolation(mt.private_vms[1][1],
                                            mt.public_vms[0][1]);
  EXPECT_EQ(v.run_one(iso).outcome, Outcome::holds);
}

// -- ISP with intrusion detection (5.3.3) -------------------------------------------

TEST(IspScenario, CleanConfigHolds) {
  IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  Isp isp = make_isp(p);
  Engine v(isp.model);
  for (const Invariant& inv : isp.invariants()) {
    EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds);
  }
}

TEST(IspScenario, CorrectScrubRerouteKeepsIsolation) {
  IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = false;
  Isp isp = make_isp(p);
  Engine v(isp.model);
  EXPECT_EQ(v.run_one(isp.attacked_subnet_isolation()).outcome, Outcome::holds);
}

TEST(IspScenario, MisconfiguredScrubRerouteViolatesIsolation) {
  IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  Isp isp = make_isp(p);
  Engine v(isp.model);
  verify::VerifyResult r = v.run_one(isp.attacked_subnet_isolation());
  EXPECT_EQ(r.outcome, Outcome::violated);
  ASSERT_TRUE(r.counterexample.has_value());
}

TEST(IspScenario, ParameterValidation) {
  IspParams p;
  p.peering_points = 0;
  EXPECT_THROW((void)make_isp(p), ModelError);
}

}  // namespace
}  // namespace vmn::scenarios
