// Scenario x invariant verification matrices: parameterized sweeps that
// check every scenario family's ground truth across sizes, seeds and
// failure budgets. Each instance builds a distinct network.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn {
namespace {

using encode::Invariant;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

// -- enterprise sizes ---------------------------------------------------------

class EnterpriseMatrix : public ::testing::TestWithParam<int> {};

TEST_P(EnterpriseMatrix, AllPoliciesHoldAtEverySize) {
  scenarios::EnterpriseParams p;
  p.subnets = 3 * (1 + GetParam());
  p.hosts_per_subnet = 1 + GetParam() % 2;
  auto ent = scenarios::make_enterprise(p);
  Engine v(ent.model);
  auto batch = v.run_batch(ent.invariants, true);
  for (std::size_t i = 0; i < ent.invariants.size(); ++i) {
    EXPECT_EQ(batch.results[i].outcome, Outcome::holds) << "invariant " << i;
  }
  // Symmetry keeps solver calls at the number of policy kinds.
  EXPECT_EQ(batch.solver_calls, 3u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EnterpriseMatrix, ::testing::Range(0, 4));

// -- datacenter misconfiguration seeds -----------------------------------------

class RulesSeeds : public ::testing::TestWithParam<int> {};

TEST_P(RulesSeeds, ExactlyBrokenPairsAreViolated) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  auto dc = scenarios::make_datacenter(p);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng,
                   1 + GetParam() % 3);
  Engine v(dc.model);
  auto invs = dc.isolation_invariants();
  for (std::size_t g = 0; g < invs.size(); ++g) {
    const bool broken =
        dc.pair_broken(static_cast<int>(g), (static_cast<int>(g) + 1) % 4);
    EXPECT_EQ(v.run_one(invs[g]).outcome,
              broken ? Outcome::violated : Outcome::holds)
        << "seed " << GetParam() << " group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RulesSeeds, ::testing::Range(0, 5));

class RedundancySeeds : public ::testing::TestWithParam<int> {};

TEST_P(RedundancySeeds, ViolationOnlyUnderFailureBudget) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 2;
  auto dc = scenarios::make_datacenter(p);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  inject_misconfig(dc, scenarios::DcMisconfig::redundancy, rng, 1);
  ASSERT_FALSE(dc.broken_pairs.empty());
  const int g = dc.broken_pairs[0].first;
  Invariant inv = dc.isolation_invariants()[static_cast<std::size_t>(g)];
  VerifyOptions f0;
  VerifyOptions f1;
  f1.max_failures = 1;
  EXPECT_EQ(Engine(dc.model, {.verify = f0}).run_one(inv).outcome,
            Outcome::holds);
  EXPECT_EQ(Engine(dc.model, {.verify = f1}).run_one(inv).outcome,
            Outcome::violated);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RedundancySeeds, ::testing::Range(0, 4));

// -- ISP grid -----------------------------------------------------------------

struct IspPoint {
  int peering;
  int subnets;
};

class IspMatrix : public ::testing::TestWithParam<IspPoint> {};

TEST_P(IspMatrix, PoliciesHoldAcrossTopologies) {
  scenarios::IspParams p;
  p.peering_points = GetParam().peering;
  p.subnets = GetParam().subnets;
  auto isp = scenarios::make_isp(p);
  Engine v(isp.model);
  auto invs = isp.invariants();
  for (std::size_t i = 0; i < invs.size(); ++i) {
    EXPECT_EQ(v.run_one(invs[i]).outcome, Outcome::holds)
        << "peering=" << GetParam().peering
        << " subnets=" << GetParam().subnets << " invariant " << i;
  }
  if (GetParam().peering >= 2) {
    EXPECT_EQ(v.run_one(isp.attacked_subnet_isolation()).outcome,
              Outcome::holds);
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, IspMatrix,
                         ::testing::Values(IspPoint{1, 3}, IspPoint{2, 4},
                                           IspPoint{3, 6}, IspPoint{4, 5},
                                           IspPoint{2, 9}));

// -- multi-tenant grid -----------------------------------------------------------

class TenantMatrix : public ::testing::TestWithParam<int> {};

TEST_P(TenantMatrix, SecurityGroupsHoldAcrossPlacements) {
  scenarios::MultiTenantParams p;
  p.tenants = 2 + GetParam() % 3;
  p.servers = 2 + (GetParam() * 2) % 3;  // varies VM co-location
  p.public_vms_per_tenant = 1 + GetParam() % 3;
  p.private_vms_per_tenant = 1 + (GetParam() + 1) % 3;
  auto mt = scenarios::make_multitenant(p);
  Engine v(mt.model);
  for (const Invariant& inv : mt.invariants()) {
    EXPECT_EQ(v.run_one(inv).outcome, Outcome::holds)
        << "config " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Placements, TenantMatrix, ::testing::Range(0, 5));

// -- slice sizes stay bounded across the board ---------------------------------

TEST(SliceBounds, FlowParallelScenariosHaveConstantSlices) {
  // For flow-parallel-only scenarios, the slice for a pair invariant never
  // exceeds a small constant regardless of network size.
  for (int scale : {1, 2, 4}) {
    scenarios::EnterpriseParams ep;
    ep.subnets = 3 * scale;
    auto ent = scenarios::make_enterprise(ep);
    Engine v(ent.model);
    auto r = v.run_one(ent.invariants[1]);
    EXPECT_LE(r.slice_size, 4u) << "enterprise scale " << scale;

    scenarios::MultiTenantParams mp;
    mp.tenants = 2 * scale;
    mp.servers = 2 * scale;
    auto mt = scenarios::make_multitenant(mp);
    Engine vm(mt.model);
    EXPECT_LE(vm.run_one(mt.priv_priv()).slice_size, 4u)
        << "tenants " << mp.tenants;
  }
}

}  // namespace
}  // namespace vmn
