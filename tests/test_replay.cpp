// Witness replay across every scenario generator: each violated verdict's
// counterexample (and each reachable invariant's delivery witness) must be
// realizable concretely in the simulator - the replay oracle the fuzzer
// (src/verify/fuzz.cpp) applies to random specs, here pinned against the
// paper's hand-shaped topologies and their known misconfigurations.
#include <gtest/gtest.h>

#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/segmented.hpp"
#include "sim/replay.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn {
namespace {

using encode::Invariant;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

/// Verifies `invariants` (symmetry off, so every result carries its own
/// witness), replays every witnessed verdict, and asserts each realizes
/// concretely. Returns how many witnesses were replayed.
int replay_all(encode::NetworkModel& model,
               const std::vector<Invariant>& invariants, int max_failures) {
  VerifyOptions opts;
  opts.max_failures = max_failures;
  const auto batch =
      Engine(model, {.verify = opts}).run_batch(invariants, false);
  const net::Network& net = model.network();
  int replayed = 0;
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    const verify::VerifyResult& r = batch.results[i];
    if (!r.counterexample) continue;
    const Outcome witnessed = invariants[i].sat_means_holds()
                                  ? Outcome::holds
                                  : Outcome::violated;
    if (r.outcome != witnessed) continue;
    const auto rr = sim::replay_witness(model, invariants[i],
                                        *r.counterexample, max_failures);
    EXPECT_TRUE(rr.realized)
        << "witness not realized for "
        << invariants[i].describe([&](NodeId n) { return net.name(n); });
    ++replayed;
  }
  return replayed;
}

TEST(Replay, EnterpriseWitnessesRealize) {
  auto ent = scenarios::make_enterprise({});
  // Quarantined subnets violate reachability, public subnets hold it: both
  // polarities produce witnesses here (violations and deliveries).
  EXPECT_GE(replay_all(ent.model, ent.invariants, 0), 1);
}

TEST(Replay, DatacenterRulesMisconfigWitnessesRealize) {
  auto dc = scenarios::make_datacenter({});
  Rng rng(7);
  scenarios::inject_misconfig(dc, scenarios::DcMisconfig::rules, rng);
  ASSERT_FALSE(dc.broken_isolation_pairs.empty());
  EXPECT_GE(replay_all(dc.model, dc.isolation_invariants(), 0), 1);
}

TEST(Replay, DatacenterRedundancyMisconfigRealizesInFailureScenario) {
  auto dc = scenarios::make_datacenter({});
  Rng rng(11);
  scenarios::inject_misconfig(dc, scenarios::DcMisconfig::redundancy, rng);
  // The backup firewall's missing rules only matter once the primary is
  // down: witnesses must carry (and replay must find) a failure scenario.
  VerifyOptions opts;
  opts.max_failures = 1;
  const auto invariants = dc.isolation_invariants();
  const auto batch =
      Engine(dc.model, {.verify = opts}).run_batch(invariants, false);
  int realized_in_failure = 0;
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    const verify::VerifyResult& r = batch.results[i];
    if (r.outcome != Outcome::violated || !r.counterexample) continue;
    const auto rr =
        sim::replay_witness(dc.model, invariants[i], *r.counterexample, 1);
    ASSERT_TRUE(rr.realized);
    if (rr.scenario != net::Network::base_scenario) ++realized_in_failure;
  }
  EXPECT_GE(realized_in_failure, 1);
}

TEST(Replay, DatacenterTraversalMisconfigWitnessesRealize) {
  auto dc = scenarios::make_datacenter({});
  Rng rng(13);
  scenarios::inject_misconfig(dc, scenarios::DcMisconfig::traversal, rng);
  EXPECT_GE(replay_all(dc.model, dc.traversal_invariants(), 1), 1);
}

TEST(Replay, DatacenterCacheAclMisconfigWitnessesRealize) {
  scenarios::DatacenterParams params;
  params.with_storage = true;
  auto dc = scenarios::make_datacenter(params);
  Rng rng(17);
  scenarios::inject_misconfig(dc, scenarios::DcMisconfig::cache_acl, rng);
  // Cache-served data isolation needs the request/response/re-request
  // ordering; the replay probe battery supplies it (see sim/replay.hpp).
  EXPECT_GE(replay_all(dc.model, dc.data_isolation_invariants(), 0), 1);
}

TEST(Replay, IspScrubBypassWitnessRealizes) {
  scenarios::IspParams params;
  params.scrub_bypasses_firewalls = true;
  auto isp = scenarios::make_isp(params);
  // The attack reroute is a routing-only scenario (no failed nodes), so
  // the misconfigured path is in budget even at zero failures.
  EXPECT_EQ(replay_all(isp.model, {isp.attacked_subnet_isolation()}, 0), 1);
}

TEST(Replay, SegmentedBypassWitnessesRealize) {
  scenarios::SegmentedParams params;
  params.bypass_segment = 1;
  auto seg = scenarios::make_segmented(params);
  // The bypassed segment violates both its no-malicious and traversal
  // invariants; both witness kinds must replay.
  EXPECT_GE(replay_all(seg.model, seg.invariants, 0), 2);
}

TEST(Replay, MultiTenantReachabilityWitnessRealizes) {
  scenarios::MultiTenantParams params;
  params.tenants = 2;
  params.servers = 2;
  params.public_vms_per_tenant = 2;
  params.private_vms_per_tenant = 2;
  auto mt = scenarios::make_multitenant(params);
  // All three invariants hold; only priv_pub (reachable) yields a witness.
  EXPECT_EQ(replay_all(mt.model, mt.invariants(), 0), 1);
}

TEST(Replay, StrictnessClassification) {
  auto seg = scenarios::make_segmented({});
  EXPECT_TRUE(sim::replay_is_strict(seg.model));  // IDPS only
  scenarios::DatacenterParams params;
  params.with_storage = true;  // adds the cache and load balancer
  auto dc = scenarios::make_datacenter(params);
  EXPECT_FALSE(sim::replay_is_strict(dc.model));
}

}  // namespace
}  // namespace vmn
