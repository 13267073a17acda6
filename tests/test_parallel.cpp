// Engine tests: the process executor agrees with the inline one on every
// scenario generator and both obey the per-solve counter identities (under
// lost result frames too), determinism under a fixed solver seed
// regardless of worker count, counterexample validity under concurrency,
// job planning, the SolverSession context bound, and the process
// executor's crash handling - requeue on a killed worker, and the bounded
// no-survivors path ending in unknown verdicts rather than silent drops.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <string_view>
#include <tuple>

#include "mbox/firewall.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/segmented.hpp"
#include "sim/replay.hpp"
#include "smt/solver.hpp"
#include "util.hpp"
#include "verify/engine.hpp"
#include "verify/solver_pool.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;
using scenarios::Batch;
using test::OneBoxNet;

EngineOptions with_jobs(std::size_t jobs) {
  return test::executor_options("process", jobs);
}

/// Builds the named scenario generator's network and hands its model and
/// batch to `fn`.
void with_generator(
    std::string_view name,
    const std::function<void(const encode::NetworkModel&, const Batch&)>& fn) {
  if (name == "OneBoxNet") {
    OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
        "fw",
        std::vector<AclEntry>{AclEntry{Prefix::host(OneBoxNet::addr_a()),
                                       Prefix::host(OneBoxNet::addr_b()),
                                       AclAction::allow}},
        AclAction::deny));
    Batch batch;
    batch.name = "oneboxnet";
    batch.invariants = {Invariant::node_isolation(n.a, n.b),
                        Invariant::flow_isolation(n.a, n.b),
                        Invariant::reachable(n.b, n.a)};
    fn(n.model, batch);
  } else if (name == "Enterprise") {
    scenarios::EnterpriseParams p;
    p.subnets = 4;
    p.hosts_per_subnet = 1;
    scenarios::Enterprise e = scenarios::make_enterprise(p);
    fn(e.model, e.batch());
  } else if (name == "Datacenter" || name == "MisconfiguredDatacenter") {
    scenarios::DatacenterParams p;
    p.policy_groups = 3;
    p.clients_per_group = 1;
    scenarios::Datacenter dc = scenarios::make_datacenter(p);
    if (name == "MisconfiguredDatacenter") {
      Rng rng(7);
      inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
    }
    fn(dc.model, dc.batch());
  } else if (name == "Isp" || name == "MisconfiguredIsp") {
    // Misconfigured: peer hosts share a policy class, so the coarse class
    // signature of the attacked subnet's isolation invariant matches the
    // clean peering point's - but the attack-scenario reroute makes their
    // slices differ, and the violated invariant must NOT inherit "holds"
    // from the clean representative. Their problem keys differ, so the two
    // checks stay separate.
    scenarios::IspParams p;
    p.peering_points = 2;
    p.subnets = 3;
    p.scrub_bypasses_firewalls = name == "MisconfiguredIsp";
    scenarios::Isp isp = scenarios::make_isp(p);
    fn(isp.model, isp.batch());
  } else if (name == "MultiTenant") {
    scenarios::MultiTenantParams p;
    p.tenants = 2;
    p.servers = 2;
    p.public_vms_per_tenant = 1;
    p.private_vms_per_tenant = 1;
    scenarios::MultiTenant mt = scenarios::make_multitenant(p);
    fn(mt.model, mt.batch());
  } else if (name == "Segmented" || name == "BypassedSegmented") {
    // Bypassed: only a segment-1 sender witnesses the bypassed IDPS, and
    // expected_holds encodes the whole-network truth; disconnected
    // segments also stress the process executor's wire jobs, which must
    // carry the reachability-selected representative sender.
    scenarios::SegmentedParams p;
    if (name == "BypassedSegmented") p.bypass_segment = 1;
    scenarios::Segmented s = scenarios::make_segmented(p);
    fn(s.model, s.batch());
  } else {
    FAIL() << "unknown generator " << name;
  }
}

/// The identities solver-traffic counters obey on every executor, because
/// each is a fact of exactly one counted solve: every solve made one
/// warm_bind (built or reused), iso reuses are warm reuses of rebound
/// classes, and rescues are escalations, which happen at most once a solve.
void expect_counter_identities(const BatchResult& r, const std::string& what) {
  EXPECT_EQ(r.warm_binds + r.warm_reuses, r.solver_calls) << what;
  EXPECT_LE(r.iso_reuses, std::min(r.warm_reuses, r.iso_mapped)) << what;
  EXPECT_LE(r.degradation.escalations_rescued, r.degradation.escalations)
      << what;
  EXPECT_LE(r.degradation.escalations, r.solver_calls) << what;
}

// Both executors must reproduce the inline executor's verdicts, raw
// statuses and statistics invariant-for-invariant on every scenario
// generator (and the generator's own expected verdicts); the process
// executor must get there without losing a worker or a job.
class ExecutorAgreement
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {};

TEST_P(ExecutorAgreement, MatchesInline) {
  const auto [generator, executor] = GetParam();
  with_generator(generator, [&](const encode::NetworkModel& model,
                                const Batch& batch) {
    const BatchResult expected =
        Engine(model, test::executor_options("inline"))
            .run_batch(batch.invariants);
    const BatchResult got =
        Engine(model, test::executor_options(executor))
            .run_batch(batch.invariants);
    if (std::string_view(executor) == "process") {
      EXPECT_GT(got.pool.workers_spawned, 0u);
      EXPECT_EQ(got.pool.workers_crashed, 0u);
      EXPECT_EQ(got.degradation.abandoned(), 0u);
    }
    EXPECT_EQ(got.pool.jobs_executed, expected.pool.jobs_executed);
    // Both executors encode from the planner's transfer memo (a forked
    // worker inherits it), so neither builds a transfer function.
    EXPECT_EQ(expected.encode_transfer_builds, 0u);
    EXPECT_EQ(got.encode_transfer_builds, expected.encode_transfer_builds);
    expect_counter_identities(got, batch.name + " on " + executor);
    ASSERT_EQ(got.results.size(), expected.results.size());
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const VerifyResult& g = got.results[i];
      const VerifyResult& x = expected.results[i];
      EXPECT_EQ(g.outcome, x.outcome) << batch.name << " invariant " << i;
      EXPECT_EQ(g.raw_status, x.raw_status) << batch.name << " invariant " << i;
      EXPECT_EQ(g.slice_size, x.slice_size) << batch.name << " invariant " << i;
      EXPECT_EQ(g.assertion_count, x.assertion_count)
          << batch.name << " invariant " << i;
      EXPECT_EQ(g.by_symmetry, x.by_symmetry)
          << batch.name << " invariant " << i;
      if (i < batch.expected_holds.size()) {
        const Outcome scenario_expected =
            batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
        EXPECT_EQ(g.outcome, scenario_expected)
            << batch.name << " invariant " << i;
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(
    Generators, ExecutorAgreement,
    ::testing::Combine(
        ::testing::Values("OneBoxNet", "Enterprise", "Datacenter",
                          "MisconfiguredDatacenter", "Isp",
                          "MisconfiguredIsp", "MultiTenant", "Segmented",
                          "BypassedSegmented"),
        ::testing::Values("inline", "process")),
    [](const auto& info) {
      return std::string(std::get<0>(info.param)) + "_" +
             std::get<1>(info.param);
    });

TEST(CounterIdentities, HoldWhenResultFramesAreLost) {
  // Corrupted RESULT frames kill their workers after the solve ran: the
  // dispatcher never reads that solve's facts, so it must not count, and
  // the requeued re-solve must count exactly once - the identities above
  // hold although more solves ran than arrived.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  EngineOptions corrupting = test::executor_options("process");
  corrupting.verify.faults = FaultPlan::parse("seed=3,frame-corrupt=0.3");
  const BatchResult r = Engine(e.model, corrupting).run_batch(e.invariants);
  ASSERT_GT(r.pool.workers_crashed, 0u);  // some solves were lost
  EXPECT_GE(r.pool.jobs_requeued, 1u);
  EXPECT_EQ(r.solver_calls + r.degradation.abandoned(), r.pool.jobs_executed);
  expect_counter_identities(r, "enterprise under frame-corrupt=0.3");
}

TEST(Parallel, DeterministicAcrossFourWorkerRuns) {
  scenarios::EnterpriseParams p;
  p.subnets = 5;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);

  Engine v(e.model, with_jobs(4));
  BatchResult first = v.run_batch(e.invariants);
  BatchResult second = v.run_batch(e.invariants);
  ASSERT_EQ(first.results.size(), second.results.size());
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_EQ(first.results[i].outcome, second.results[i].outcome) << i;
    EXPECT_EQ(first.results[i].raw_status, second.results[i].raw_status) << i;
    EXPECT_EQ(first.results[i].slice_size, second.results[i].slice_size) << i;
    EXPECT_EQ(first.results[i].assertion_count,
              second.results[i].assertion_count)
        << i;
    EXPECT_EQ(first.results[i].by_symmetry, second.results[i].by_symmetry)
        << i;
  }
  EXPECT_EQ(first.pool.jobs_executed, second.pool.jobs_executed);
  EXPECT_EQ(first.iso_verdict_reuses, second.iso_verdict_reuses);
}

TEST(Parallel, ViolatedSlicesYieldCounterexamplesConcurrently) {
  // Break the enterprise firewall wide open: the private and quarantined
  // subnets' isolation invariants all become violated, and each violated
  // invariant - the replayed bindings of a merged class included - must
  // surface a coherent counterexample naming its own target while other
  // jobs run on sibling workers.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);

  Engine v(e.model, with_jobs(4));
  BatchResult r = v.run_batch(e.invariants);
  std::size_t violated = 0;
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    const VerifyResult& res = r.results[i];
    if (res.outcome != Outcome::violated) continue;
    ++violated;
    ASSERT_TRUE(res.counterexample.has_value()) << "invariant " << i;
    // The trace must deliver a packet to the invariant's target host.
    bool target_received = false;
    for (const Event& ev : res.counterexample->events()) {
      if (ev.kind == EventKind::receive && ev.to == e.invariants[i].target) {
        target_received = true;
      }
    }
    EXPECT_TRUE(target_received) << "invariant " << i;
  }
  EXPECT_GT(violated, 0u);
}

TEST(Parallel, PlanPartitionsTheBatch) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 2;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  Engine v(e.model, with_jobs(2));
  JobPlan plan = v.plan(e.invariants);

  // Every invariant is answered exactly once, as the binding of one class;
  // every binding of a class carries the class's problem key.
  std::set<std::size_t> covered;
  for (const Job& job : plan.jobs) {
    EXPECT_FALSE(job.problem_key.key.empty());
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      EXPECT_TRUE(covered.insert(b.invariant_index).second);
      EXPECT_FALSE(b.members->empty());
      EXPECT_EQ(b.problem_key->key, job.problem_key.key);
      EXPECT_TRUE(b.inheritors->empty());
    }
  }
  EXPECT_EQ(covered.size(), e.invariants.size());
  // Six subnets cycle through three policy kinds -> two subnets per kind
  // collapse into one class each.
  EXPECT_EQ(plan.jobs.size(), 3u);
  EXPECT_EQ(plan.planned_jobs(), 3u);
  EXPECT_DOUBLE_EQ(plan.dedup_hit_rate(), 0.5);

  // Without symmetry, one job per invariant and no keys.
  EngineOptions no_sym = with_jobs(2);
  no_sym.use_symmetry = false;
  JobPlan flat = Engine(e.model, no_sym).plan(e.invariants);
  EXPECT_EQ(flat.jobs.size(), e.invariants.size());
  for (const Job& job : flat.jobs) {
    EXPECT_EQ(job.fan_out(), 1u);
    EXPECT_TRUE(job.problem_key.key.empty());
  }
}

// --- warm solving ----------------------------------------------------------

// Warm runs (base axioms asserted once per slice shape, invariant negation
// pushed/popped on a live context; cross-isomorphic rebinding included,
// the binding shipped inside the job frames) must be verdict-identical to
// cold runs (fresh encoding + context per job) on every scenario
// generator, across mixed holds/violated batches.
void expect_warm_matches_cold(const encode::NetworkModel& model,
                              const Batch& batch) {
  EngineOptions warm = with_jobs(2);
  ASSERT_TRUE(warm.verify.warm_solving);  // the default
  EngineOptions cold = with_jobs(2);
  cold.verify.warm_solving = false;

  BatchResult warm_r =
      Engine(model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(model, cold).run_batch(batch.invariants);
  EXPECT_EQ(warm_r.degradation.abandoned(), 0u);
  EXPECT_EQ(cold_r.degradation.abandoned(), 0u);
  ASSERT_EQ(warm_r.results.size(), cold_r.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status)
        << batch.name << " invariant " << i;
    EXPECT_EQ(warm_r.results[i].assertion_count,
              cold_r.results[i].assertion_count)
        << batch.name << " invariant " << i;
    if (i < batch.expected_holds.size()) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      EXPECT_EQ(warm_r.results[i].outcome, expected)
          << batch.name << " invariant " << i;
    }
  }
  // Cold runs never reuse a context.
  EXPECT_EQ(cold_r.warm_reuses, 0u);
  EXPECT_EQ(cold_r.iso_reuses, 0u);
}

TEST(WarmSolving, MatchesColdOnEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  expect_warm_matches_cold(e.model, e.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredEnterprise) {
  // Mixed sat/unsat batch: the opened firewall flips the private and
  // quarantined subnets to violated while the public ones keep holding.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);
  Batch batch;
  batch.name = "enterprise-open-fw";
  batch.invariants = e.invariants;  // expectations recomputed by the solver
  expect_warm_matches_cold(e.model, batch);
}

TEST(WarmSolving, MatchesColdOnDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  expect_warm_matches_cold(dc.model, dc.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  expect_warm_matches_cold(dc.model, dc.batch());
}

TEST(WarmSolving, MatchesColdOnIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_warm_matches_cold(isp.model, isp.batch());
}

TEST(WarmSolving, MatchesColdOnMisconfiguredIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_warm_matches_cold(isp.model, isp.batch());
}

TEST(WarmSolving, MatchesColdOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_warm_matches_cold(mt.model, mt.batch());
}

TEST(WarmSolving, MatchesColdOnBypassedSegmented) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_warm_matches_cold(s.model, s.batch());
}

TEST(WarmSolving, MatchesColdWhenOutcomesGoUnknown) {
  // Whole-network checks whose every solve is forced to a persistent
  // timeout (a seeded fault, independent of machine speed): both paths
  // must report unknown. All jobs share the full-network shape and
  // verdict merging is off, so the warm run builds one context and
  // answers the other two jobs on it - warm reuse across a run of
  // unknowns.
  scenarios::DatacenterParams p;
  p.policy_groups = 3;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();

  EngineOptions warm = with_jobs(1);
  warm.verify.use_slices = false;
  warm.verify.merge_isomorphic = false;
  warm.verify.faults = FaultPlan::parse("seed=1,solver-timeout=1");
  EngineOptions cold = warm;
  cold.verify.warm_solving = false;

  BatchResult warm_r =
      Engine(dc.model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(dc.model, cold).run_batch(batch.invariants);
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, Outcome::unknown) << i;
    EXPECT_EQ(cold_r.results[i].outcome, Outcome::unknown) << i;
  }
  EXPECT_EQ(warm_r.warm_binds, 1u);  // one full-network shape...
  EXPECT_EQ(warm_r.warm_reuses, 2u);  // ...answering all three jobs
  EXPECT_EQ(cold_r.warm_reuses, 0u);
}

TEST(WarmSolving, SequentialBatchReusesOneSessionAcrossSameShapeJobs) {
  // Three invariants over the same three-node slice: the sequential engine
  // must build the base encoding once and answer the remaining jobs on the
  // reused context (seed behavior: a fresh session per representative).
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw",
      std::vector<AclEntry>{AclEntry{Prefix::host(OneBoxNet::addr_a()),
                                     Prefix::host(OneBoxNet::addr_b()),
                                     AclAction::allow}},
      AclAction::deny));
  std::vector<Invariant> invariants = {Invariant::node_isolation(n.a, n.b),
                                       Invariant::flow_isolation(n.a, n.b),
                                       Invariant::reachable(n.b, n.a)};
  VerifyOptions opts;
  opts.solver.seed = 7;
  Engine v(n.model, {.verify = opts});
  BatchResult batch = v.run_batch(invariants);
  EXPECT_EQ(batch.warm_binds, 1u);
  EXPECT_EQ(batch.warm_reuses, 2u);

  // A 1-worker parallel run hands the whole shape-run to one warm session;
  // with more workers than shape-runs the run is split to restore fan-out
  // (warm reuse traded for concurrency), so every job gets its own context.
  BatchResult pr =
      Engine(n.model, with_jobs(1)).run_batch(invariants);
  EXPECT_EQ(pr.warm_binds, 1u);
  EXPECT_EQ(pr.warm_reuses, 2u);
  BatchResult split =
      Engine(n.model, with_jobs(4)).run_batch(invariants);
  EXPECT_EQ(split.warm_binds, 3u);
  EXPECT_EQ(split.warm_reuses, 0u);
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    EXPECT_EQ(pr.results[i].outcome, batch.results[i].outcome) << i;
    EXPECT_EQ(split.results[i].outcome, batch.results[i].outcome) << i;
  }
}

TEST(Planner, SharesTransferFunctionsAcrossTheWholePlan) {
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 2;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  Engine v(e.model, with_jobs(2));
  JobPlan plan = v.plan(e.invariants);
  // One TransferFunction per in-budget scenario for the whole pass; every
  // further request - across compute_slice, canonical keys and all six
  // invariants - comes from the memo. Seed behavior rebuilt one per
  // (invariant, scenario) use site.
  EXPECT_GT(plan.transfer_reuses, 0u);
  EXPECT_LE(plan.transfer_builds,
            e.model.network().scenarios().size());
  EXPECT_GT(plan.transfer_reuses, plan.transfer_builds);
}

TEST(Planner, OrdersSameShapeJobsAdjacently) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  EngineOptions no_sym = with_jobs(2);
  no_sym.use_symmetry = false;  // keep every invariant: more shape repeats
  JobPlan plan = Engine(dc.model, no_sym).plan(dc.batch().invariants);
  // Equal member sets must form contiguous runs (what the engines turn
  // into warm reuse), and ids must stay positional after the reorder.
  std::set<std::vector<NodeId>> seen_shapes;
  const std::vector<NodeId>* prev = nullptr;
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    EXPECT_EQ(plan.jobs[j].id, j);
    const std::vector<NodeId>& members = plan.jobs[j].members;
    if (prev == nullptr || *prev != members) {
      EXPECT_TRUE(seen_shapes.insert(members).second)
          << "shape of job " << j << " reappeared after a different shape";
    }
    prev = &members;
  }
}

// --- cross-isomorphic warm solving ------------------------------------------

/// Two classes whose problem keys differ (node- vs flow-isolation) over two
/// renamed-isomorphic group-pair slices: the second class's representative
/// is rebound onto the first's base encoding (Job::iso_image).
std::vector<Invariant> mixed_kind_pair(const scenarios::Datacenter& dc) {
  const std::vector<Invariant> isolation = dc.isolation_invariants();
  return {isolation[0],
          Invariant::flow_isolation(isolation[1].target, isolation[1].other)};
}

// The datacenter's per-group isolation jobs: every group pair's slice is a
// renamed copy of the first. Verdict-level merging must fold equal problems
// onto one representative's solver call (iso_verdict_reuses > 0, strictly
// fewer solver calls), problems that differ only in kind must still share
// one base encoding (iso_mapped), neither may change a single verdict, and
// the no-reuse baseline must stay the historical encode-everything path.
TEST(IsoWarm, DatacenterBatchRebindsIsomorphicSlices) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();

  EngineOptions warm = with_jobs(2);
  EngineOptions cold = with_jobs(2);
  cold.verify.warm_solving = false;
  cold.verify.merge_isomorphic = false;
  BatchResult warm_r =
      Engine(dc.model, warm).run_batch(batch.invariants);
  BatchResult cold_r =
      Engine(dc.model, cold).run_batch(batch.invariants);

  EXPECT_GT(warm_r.iso_verdict_reuses, 0u);
  EXPECT_EQ(cold_r.iso_mapped, 0u);
  EXPECT_EQ(cold_r.iso_reuses, 0u);
  EXPECT_EQ(cold_r.iso_verdict_reuses, 0u);
  // Merging folds invariants into fewer solver classes: the cold run solves
  // every invariant itself, warm answers them with fewer solves.
  EXPECT_EQ(cold_r.pool.jobs_executed, batch.invariants.size());
  EXPECT_LT(warm_r.pool.jobs_executed, cold_r.pool.jobs_executed);
  EXPECT_LT(warm_r.solver_calls, cold_r.solver_calls);
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome) << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status) << i;
    EXPECT_EQ(warm_r.results[i].assertion_count,
              cold_r.results[i].assertion_count)
        << i;
    const Outcome expected =
        batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
    EXPECT_EQ(warm_r.results[i].outcome, expected) << i;
  }

  const std::vector<Invariant> mixed = mixed_kind_pair(dc);
  Engine rebinding(dc.model, with_jobs(1));
  EXPECT_EQ(rebinding.plan(mixed).iso_mapped, 1u);
  const BatchResult mixed_warm = rebinding.run_batch(mixed);
  const BatchResult mixed_cold = Engine(dc.model, cold).run_batch(mixed);
  EXPECT_EQ(mixed_warm.solver_calls, 2u);
  EXPECT_EQ(mixed_warm.warm_binds, 1u);  // one base encoding, two solves
  EXPECT_EQ(mixed_warm.iso_reuses, 1u);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    EXPECT_EQ(mixed_warm.results[i].outcome, Outcome::holds) << i;
    EXPECT_EQ(mixed_warm.results[i].raw_status,
              mixed_cold.results[i].raw_status)
        << i;
  }
}

// The acceptance bar for verdict-level merging: the fig-4 style isolation
// batch (one invariant per policy group, all the same direction) is ONE
// equivalence class - 8 invariants, exactly 1 solver call, the other 7
// replayed as verdict bindings. The no-reuse baseline keeps solving all 8.
TEST(IsoWarm, EightGroupIsolationBatchSolvesOnce) {
  scenarios::DatacenterParams p;
  p.policy_groups = 8;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const std::vector<Invariant> isolation = dc.isolation_invariants();
  ASSERT_GE(isolation.size(), 8u);

  Engine warm(dc.model, with_jobs(2));
  JobPlan plan = warm.plan(isolation);
  EXPECT_EQ(plan.planned_jobs(), 1u);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_EQ(plan.jobs[0].fan_out(), isolation.size());
  BatchResult warm_r = warm.run_batch(isolation);
  EXPECT_EQ(warm_r.pool.jobs_executed, 1u);
  EXPECT_EQ(warm_r.solver_calls, 1u);
  EXPECT_EQ(warm_r.iso_verdict_reuses, isolation.size() - 1);

  EngineOptions cold_opts = with_jobs(2);
  cold_opts.verify.warm_solving = false;
  cold_opts.verify.merge_isomorphic = false;
  BatchResult cold_r = Engine(dc.model, cold_opts).run_batch(isolation);
  EXPECT_EQ(cold_r.solver_calls, isolation.size());
  EXPECT_EQ(cold_r.iso_verdict_reuses, 0u);
  ASSERT_EQ(warm_r.results.size(), cold_r.results.size());
  for (std::size_t i = 0; i < warm_r.results.size(); ++i) {
    EXPECT_EQ(warm_r.results[i].outcome, Outcome::holds) << i;
    EXPECT_EQ(warm_r.results[i].outcome, cold_r.results[i].outcome) << i;
    EXPECT_EQ(warm_r.results[i].raw_status, cold_r.results[i].raw_status) << i;
  }

  // The inline executor shares the planner, so the same batch collapses
  // to one solve there too.
  VerifyOptions seq;
  seq.solver.seed = 7;
  BatchResult seq_r = Engine(dc.model, {.verify = seq})
                          .run_batch(isolation);
  EXPECT_EQ(seq_r.solver_calls, 1u);
  EXPECT_EQ(seq_r.pool.jobs_executed, 1u);
  for (std::size_t i = 0; i < seq_r.results.size(); ++i) {
    EXPECT_EQ(seq_r.results[i].outcome, warm_r.results[i].outcome) << i;
  }
}

TEST(IsoWarm, SequentialEngineEncodesWithZeroTransferBuilds) {
  // The sequential engine lends its PlanContext transfer memo to the solver
  // session: by encode time the planner has walked every in-budget
  // scenario, so the encoder builds NOTHING - the acceptance bar for
  // "zero duplicate TransferFunction builds during encoding". The
  // datacenter's per-group jobs merge into shared solver calls, so their
  // replayed bindings surface as verdict-level reuses.
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  const Batch batch = dc.batch();
  VerifyOptions opts;
  opts.solver.seed = 7;
  Engine v(dc.model, {.verify = opts});
  BatchResult r = v.run_batch(batch.invariants);
  EXPECT_EQ(r.encode_transfer_builds, 0u);
  EXPECT_GT(r.encode_transfer_reuses, 0u);
  EXPECT_GT(r.iso_verdict_reuses, 0u);
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    const Outcome expected =
        batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
    EXPECT_EQ(r.results[i].outcome, expected) << i;
  }
}

// A violated invariant answered through an isomorphic representative's
// solver call must surface a witness naming the ACTUAL slice's hosts - the
// engine relabels nodes and packet addresses back through the inverse
// bijection per binding (verify::bind_result). This is the
// soundness-critical half of verdict-level reuse.
TEST(IsoWarm, RelabeledWitnessNamesTheActualSlicesHosts) {
  // Two rule-deletion breakages in distinct group pairs: two violated
  // isolation bindings with isomorphic slices and different canonical keys -
  // the planner merges them into one solver call (or rebinds the second
  // onto the first's encoding) and the second's witness is a relabel.
  scenarios::Datacenter dc;
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 32 && !found; ++seed) {
    scenarios::DatacenterParams p;
    p.policy_groups = 4;
    p.clients_per_group = 1;
    dc = scenarios::make_datacenter(p);
    Rng rng(seed);
    inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 2);
    std::set<std::pair<int, int>> distinct(dc.broken_isolation_pairs.begin(),
                                           dc.broken_isolation_pairs.end());
    found = distinct.size() >= 2;
  }
  ASSERT_TRUE(found) << "no seed produced two distinct broken pairs";
  const Batch batch = dc.batch();

  Engine v(dc.model, with_jobs(1));
  JobPlan plan = v.plan(batch.invariants);
  BatchResult r = v.run_batch(batch.invariants);

  const net::Network& net = dc.model.network();
  std::size_t violated_bindings = 0;
  std::size_t violated_via_iso = 0;
  for (const Job& job : plan.jobs) {
    for (std::size_t k = 0; k < job.fan_out(); ++k) {
      const BindingRef b = job.binding(k);
      const std::size_t i = b.invariant_index;
      if (r.results[i].outcome != Outcome::violated) continue;
      ++violated_bindings;
      // Replayed bindings (k > 0) and iso-rebound representatives both go
      // through the inverse bijection before the witness surfaces.
      if (k > 0 || !b.iso_image->empty()) ++violated_via_iso;
      ASSERT_TRUE(r.results[i].counterexample.has_value()) << "invariant " << i;
      const Invariant& inv = batch.invariants[i];
      bool target_received = false;
      for (const Event& ev : r.results[i].counterexample->events()) {
        // Every node the relabeled trace names must belong to the binding's
        // OWN slice (or Omega) - never to the representative's.
        if (ev.from.valid()) {
          EXPECT_TRUE(std::binary_search(b.members->begin(), b.members->end(),
                                         ev.from))
              << "trace names " << net.name(ev.from)
              << ", outside the slice of invariant " << i;
        }
        if (ev.to.valid()) {
          EXPECT_TRUE(std::binary_search(b.members->begin(), b.members->end(),
                                         ev.to))
              << "trace names " << net.name(ev.to)
              << ", outside the slice of invariant " << i;
        }
        if (ev.kind == EventKind::receive && ev.to == inv.target &&
            ev.packet.src == net.node(inv.other).address) {
          target_received = true;
        }
      }
      // The delivery the invariant forbids, with the ACTUAL slice's sender
      // address on the packet (the representative's sender address would
      // betray an unrelabeled witness).
      EXPECT_TRUE(target_received)
          << "no forbidden delivery to " << net.name(inv.target)
          << " from " << net.name(inv.other) << " in the witness";
    }
  }
  EXPECT_GE(violated_bindings, 2u);
  // At least one of the violated bindings must have been answered through
  // another's solver call or base encoding - otherwise this test exercised
  // nothing.
  EXPECT_GE(violated_via_iso, 1u);
}

// --- verdict transfer property ----------------------------------------------

// The merge property, generator by generator: the default engine (verdict-
// level merging on) must match a no-reuse cold run - verdict and raw
// solver status exactly - and every transferred violated result must carry
// a witness that concretely violates its OWN invariant under the symbolic
// replay semantics (a structurally valid relabel, not the representative's
// trace leaking through).
BatchResult expect_transfer_matches_cold(const encode::NetworkModel& model,
                                         const Batch& batch) {
  EngineOptions merged = with_jobs(2);
  EngineOptions cold = with_jobs(2);
  EXPECT_TRUE(merged.verify.merge_isomorphic);  // the default
  cold.verify.warm_solving = false;
  cold.verify.merge_isomorphic = false;

  BatchResult m = Engine(model, merged).run_batch(batch.invariants);
  BatchResult c = Engine(model, cold).run_batch(batch.invariants);
  EXPECT_EQ(c.iso_verdict_reuses, 0u);
  EXPECT_EQ(c.pool.jobs_executed, batch.invariants.size());
  EXPECT_EQ(m.results.size(), c.results.size());
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    EXPECT_EQ(m.results[i].outcome, c.results[i].outcome)
        << batch.name << " invariant " << i;
    EXPECT_EQ(m.results[i].raw_status, c.results[i].raw_status)
        << batch.name << " invariant " << i;
    // Equal raw status implies equal witness *presence* (sat extracts a
    // trace, unsat cannot); validity is checked on the merged side.
    EXPECT_EQ(m.results[i].counterexample.has_value(),
              c.results[i].counterexample.has_value())
        << batch.name << " invariant " << i;
    if (m.results[i].counterexample.has_value()) {
      EXPECT_FALSE(m.results[i].counterexample->empty()) << i;
      EXPECT_TRUE(sim::trace_violates(*m.results[i].counterexample, model,
                                      batch.invariants[i]))
          << batch.name << " invariant " << i
          << ": transferred witness does not violate its own invariant";
    }
  }
  return m;
}

TEST(IsoVerdictTransfer, MatchesColdOnOpenFirewallEnterprise) {
  scenarios::EnterpriseParams p;
  p.subnets = 5;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      e.model.middlebox_at(e.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<AclEntry> acl = fw->acl();
  acl.insert(acl.begin(),
             AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                      Prefix(Address::of(10, 0, 0, 0), 8), AclAction::allow});
  fw->replace_acl(acl);
  Batch batch;
  batch.name = "enterprise-open-fw";
  batch.invariants = e.invariants;
  expect_transfer_matches_cold(e.model, batch);
}

TEST(IsoVerdictTransfer, MatchesColdOnMisconfiguredDatacenter) {
  scenarios::DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 1;
  scenarios::Datacenter dc = scenarios::make_datacenter(p);
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 2);
  BatchResult m = expect_transfer_matches_cold(dc.model, dc.batch());
  // The datacenter is the generator whose batches actually merge; a zero
  // here would mean the property ran against an empty mechanism.
  EXPECT_GT(m.iso_verdict_reuses, 0u);
}

TEST(IsoVerdictTransfer, MatchesColdOnBypassedIsp) {
  scenarios::IspParams p;
  p.peering_points = 2;
  p.subnets = 3;
  p.scrub_bypasses_firewalls = true;
  scenarios::Isp isp = scenarios::make_isp(p);
  expect_transfer_matches_cold(isp.model, isp.batch());
}

TEST(IsoVerdictTransfer, MatchesColdOnMultiTenant) {
  scenarios::MultiTenantParams p;
  p.tenants = 2;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  expect_transfer_matches_cold(mt.model, mt.batch());
}

TEST(IsoVerdictTransfer, MatchesColdOnBypassedSegmented) {
  scenarios::SegmentedParams p;
  p.bypass_segment = 1;
  scenarios::Segmented s = scenarios::make_segmented(p);
  expect_transfer_matches_cold(s.model, s.batch());
}

// --- crash handling -------------------------------------------------------

TEST(ProcessBackend, SurvivesAKilledWorkerMidBatch) {
  // Worker 0 SIGKILLs itself on its first job: the dispatcher must observe
  // the crash, requeue the in-flight job, respawn a replacement into the
  // slot (respawned workers take fresh ordinals, so the replacement is
  // immune to kill=0), and deliver every verdict - matching a fault-free
  // run exactly.
  scenarios::EnterpriseParams p;
  p.subnets = 6;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  BatchResult reference =
      Engine(e.model, with_jobs(2)).run_batch(e.invariants);

  EngineOptions killing = with_jobs(2);
  killing.verify.faults = FaultPlan::parse("kill=0");
  BatchResult r = Engine(e.model, killing).run_batch(e.invariants);
  EXPECT_EQ(r.pool.workers_spawned, 3u);  // initial fleet of 2 + 1 respawn
  EXPECT_EQ(r.pool.workers_crashed, 1u);
  EXPECT_EQ(r.degradation.workers_respawned, 1u);
  EXPECT_GE(r.pool.jobs_requeued, 1u);
  EXPECT_EQ(r.degradation.abandoned(), 0u);
  EXPECT_FALSE(r.degradation.degraded());
  ASSERT_EQ(r.results.size(), reference.results.size());
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, reference.results[i].outcome) << i;
    EXPECT_NE(r.results[i].outcome, Outcome::unknown) << i;
  }
}

TEST(ProcessBackend, BoundedRetriesEndInUnknownWhenEveryWorkerDies) {
  // Every worker dies on its first job: no survivors, so after the retry
  // budget the remaining jobs must surface as unknown verdicts with the
  // abandonment counted - never as silently missing results.
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);

  EngineOptions killing = with_jobs(2);
  killing.verify.faults = FaultPlan::parse("kill=all");
  BatchResult r = Engine(e.model, killing).run_batch(e.invariants);
  EXPECT_EQ(r.pool.workers_crashed, r.pool.workers_spawned);
  EXPECT_EQ(r.degradation.abandoned(), r.pool.jobs_executed);
  EXPECT_EQ(r.solver_calls, 0u);
  ASSERT_EQ(r.results.size(), e.invariants.size());
  for (std::size_t i = 0; i < e.invariants.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, Outcome::unknown) << i;
  }
}

/// Three distinct member sets the planner gives a four-subnet enterprise,
/// for tests that bind a session to different shapes.
std::vector<std::vector<NodeId>> three_shapes(
    const encode::NetworkModel& model,
    const std::vector<Invariant>& invariants) {
  const JobPlan plan = Engine(model).plan(invariants);
  std::vector<std::vector<NodeId>> shapes;
  for (const Job& job : plan.jobs) {
    if (shapes.size() < 3 &&
        std::find(shapes.begin(), shapes.end(), job.encode_members()) ==
            shapes.end()) {
      shapes.push_back(job.encode_members());
    }
  }
  return shapes;
}

TEST(SolverSessionTest, HoldsOneWarmContextAndOneMoreDuringAnEscalation) {
  // A Z3 context touches 16.8 MB of tables: a session frees its old warm
  // context before it builds the next, so rebinding never holds two, and
  // an escalation retry is the only context beside the warm one.
  scenarios::EnterpriseParams p;
  p.subnets = 4;
  p.hosts_per_subnet = 1;
  scenarios::Enterprise e = scenarios::make_enterprise(p);
  const std::vector<std::vector<NodeId>> shapes =
      three_shapes(e.model, e.invariants);
  ASSERT_EQ(shapes.size(), 3u);
  ASSERT_EQ(smt::live_solvers(), 0u);
  (void)smt::take_live_solver_peak();
  dataplane::TransferCache transfers(e.model.network());
  SolverSession session(smt::SolverOptions{}, /*warm=*/true, transfers);

  for (std::size_t k = 0; k < 2; ++k) {
    EXPECT_FALSE(session.warm_bind(e.model, shapes[k], 0).reused);
    EXPECT_EQ(smt::take_live_solver_peak(), 1u) << "bind to shape " << k;
  }
  EXPECT_TRUE(session.warm_bind(e.model, shapes[1], 0).reused);
  EXPECT_EQ(smt::take_live_solver_peak(), 1u);

  (void)session.escalate_bind();
  EXPECT_EQ(smt::take_live_solver_peak(), 2u);
  (void)session.escalate_bind();
  EXPECT_EQ(smt::take_live_solver_peak(), 2u) << "second escalation";

  // Rebinding ends the escalation: its context goes with the old warm one.
  EXPECT_FALSE(session.warm_bind(e.model, shapes[2], 0).reused);
  EXPECT_LE(smt::take_live_solver_peak(), 2u);
  EXPECT_EQ(smt::live_solvers(), 1u);
  session.reset_warm();
  EXPECT_EQ(smt::live_solvers(), 0u);
}

}  // namespace
}  // namespace vmn::verify
