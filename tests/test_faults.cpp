// Fault-injection harness tests: deterministic FaultPlan decisions, the
// hardened result cache under torn tails and bit flips (unit-level, and a
// torn flush through the batch pipeline on every in-process executor),
// crash-loop quarantine with fleet survival, respawn-backoff determinism,
// deadline degradation with accurate counters on every in-process
// executor, and unknown-escalation rescue accounting. The cross-cutting
// contract under every plan: verdicts never flip - faults may only widen
// outcomes to unknown.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "util.hpp"
#include "verify/engine.hpp"
#include "verify/faults.hpp"
#include "verify/result_cache.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

/// mkdtemp-backed cache directory, removed on scope exit.
struct TempCacheDir {
  std::string path;
  TempCacheDir() {
    char tmpl[] = "/tmp/vmn-test-faults-XXXXXX";
    if (mkdtemp(tmpl) == nullptr) {
      ADD_FAILURE() << "mkdtemp failed";
    } else {
      path = tmpl;
    }
  }
  ~TempCacheDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

scenarios::Enterprise small_enterprise(int subnets = 6) {
  scenarios::EnterpriseParams p;
  p.subnets = subnets;
  p.hosts_per_subnet = 1;
  return scenarios::make_enterprise(p);
}

EngineOptions thread_opts() { return test::executor_options("thread"); }
EngineOptions process_opts() { return test::executor_options("process"); }

/// Suites run once per executor that solves in this process.
class InProcess : public ::testing::TestWithParam<const char*> {};

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(FaultPlanUnit, ParseRoundTripsAndRejectsGarbage) {
  const std::string spec =
      "seed=7,worker-crash=0.25,job-crash=0.5,frame-corrupt=0.1,"
      "solver-unknown=0.2,cache-torn-tail=1,kill=all,crash-job=3";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_DOUBLE_EQ(plan.worker_crash, 0.25);
  EXPECT_DOUBLE_EQ(plan.job_crash, 0.5);
  EXPECT_TRUE(plan.kill_all);
  EXPECT_EQ(plan.crash_job, 3);
  EXPECT_TRUE(plan.enabled());
  EXPECT_TRUE(plan.has_worker_faults());

  // to_string is a canonical spec: parse o to_string is the identity.
  const FaultPlan again = FaultPlan::parse(plan.to_string());
  EXPECT_EQ(again.to_string(), plan.to_string());

  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_EQ(FaultPlan::parse("").to_string(), "");
  EXPECT_THROW(FaultPlan::parse("bogus-knob=1"), Error);
  EXPECT_THROW(FaultPlan::parse("worker-crash=2.5"), Error);
  EXPECT_THROW(FaultPlan::parse("seed"), Error);
}

TEST(FaultPlanUnit, DecisionsAreDeterministicPerSeed) {
  FaultPlan plan;
  plan.seed = 42;
  plan.worker_crash = 0.5;
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  bool any_fired = false;
  bool any_spared = false;
  for (std::uint32_t w = 0; w < 8; ++w) {
    for (std::uint64_t k = 0; k < 8; ++k) {
      EXPECT_EQ(a.crash_worker(w, k), b.crash_worker(w, k));
      any_fired = any_fired || a.crash_worker(w, k);
      any_spared = any_spared || !a.crash_worker(w, k);
    }
  }
  EXPECT_TRUE(any_fired);   // p=0.5 over 64 sites: both outcomes occur
  EXPECT_TRUE(any_spared);
}

TEST(FaultPlanUnit, ParsesTargetedKillKeys) {
  EXPECT_EQ(FaultPlan::parse("kill=2").kill_worker, 2);
  EXPECT_TRUE(FaultPlan::parse("kill=all").kill_all);
  EXPECT_THROW((void)FaultPlan::parse("kill=explode"), Error);
  EXPECT_FALSE(FaultPlan::parse("").enabled());
}

TEST(RespawnBackoff, DeterministicCappedAndJittered) {
  using std::chrono::milliseconds;
  const milliseconds base{25};
  const milliseconds cap{400};
  for (std::size_t slot = 0; slot < 3; ++slot) {
    for (std::size_t attempt = 0; attempt < 12; ++attempt) {
      const milliseconds d = respawn_backoff(9, slot, attempt, base, cap);
      // Same inputs, same delay - the property the fixed-seed smoke and
      // any replayed fault schedule rely on.
      EXPECT_EQ(d, respawn_backoff(9, slot, attempt, base, cap));
      // min(cap, base << attempt) <= d < that + base.
      const auto shifted = attempt < 20 ? base.count() << attempt : cap.count();
      const auto floor = std::min(cap.count(), shifted);
      EXPECT_GE(d.count(), floor);
      EXPECT_LT(d.count(), floor + base.count());
    }
  }
  // The jitter is seeded: different seeds disagree somewhere.
  bool differs = false;
  for (std::size_t attempt = 0; attempt < 8 && !differs; ++attempt) {
    differs = respawn_backoff(1, 0, attempt, base, cap) !=
              respawn_backoff(2, 0, attempt, base, cap);
  }
  EXPECT_TRUE(differs);
}

TEST(CacheHardening, TornTailDropsOnlyTheTailRecord) {
  TempCacheDir dir;
  const std::string key_a = "slice-a/#x;";
  const std::string key_b = "slice-b/#y;";
  const std::string key_c = "slice-c/#z;";
  {
    // First flush is clean: key_a is durable.
    ResultCache cache(dir.path);
    cache.store(key_a, ResultCache::Entry{smt::CheckStatus::unsat, 4, 11});
    cache.flush();
  }
  {
    // Second flush is torn mid-final-record, as if the process crashed in
    // write(2): key_b (first record of the block) survives, key_c is cut.
    FaultPlan plan;
    plan.seed = 3;
    plan.cache_torn_tail = 1.0;
    const FaultInjector injector(plan);
    ResultCache cache(dir.path);
    cache.set_fault_injector(&injector);
    cache.store(key_b, ResultCache::Entry{smt::CheckStatus::sat, 5, 13});
    cache.store(key_c, ResultCache::Entry{smt::CheckStatus::unsat, 6, 17});
    cache.flush();
  }
  ResultCache reloaded(dir.path);
  EXPECT_EQ(reloaded.records_dropped(), 1u);  // the torn tail, nothing else
  EXPECT_TRUE(reloaded.lookup(key_a).has_value());
  ASSERT_TRUE(reloaded.lookup(key_b).has_value());
  EXPECT_EQ(reloaded.lookup(key_b)->status, smt::CheckStatus::sat);
  EXPECT_FALSE(reloaded.lookup(key_c).has_value());
  // The drop triggered compaction: the torn bytes are pruned from disk,
  // so the next load is clean.
  ResultCache compacted(dir.path);
  EXPECT_EQ(compacted.records_dropped(), 0u);
  EXPECT_EQ(compacted.size(), 2u);
  EXPECT_EQ(read_lines(compacted.file_path()).size(), 3u);  // header + 2
}

TEST(CacheHardening, BitFlippedRecordIsSkippedAndCompactedAway) {
  TempCacheDir dir;
  const std::string key_good = "slice-good/#g;";
  const std::string key_bad = "slice-bad/#b;";
  {
    ResultCache cache(dir.path);
    cache.store(key_good, ResultCache::Entry{smt::CheckStatus::unsat, 3, 9});
    cache.flush();
  }
  {
    FaultPlan plan;
    plan.seed = 5;
    plan.cache_bit_flip = 1.0;
    const FaultInjector injector(plan);
    ResultCache cache(dir.path);
    cache.set_fault_injector(&injector);
    cache.store(key_bad, ResultCache::Entry{smt::CheckStatus::sat, 7, 21});
    cache.flush();
  }
  ResultCache reloaded(dir.path);
  EXPECT_EQ(reloaded.records_dropped(), 1u);
  EXPECT_TRUE(reloaded.lookup(key_good).has_value());
  EXPECT_FALSE(reloaded.lookup(key_bad).has_value());  // skipped, not misread
  ResultCache compacted(dir.path);
  EXPECT_EQ(compacted.records_dropped(), 0u);
  EXPECT_EQ(compacted.size(), 1u);
}

TEST(CrashLoop, DeterministicCrasherIsQuarantinedAndFleetSurvives) {
  // Job 0 kills whichever worker it lands on. Respawn alone would feed it
  // the whole fleet; crash attribution must quarantine it after
  // quarantine_kills (2) worker deaths while every other job completes on
  // the surviving/respawned workers with verdicts equal to the fault-free
  // run.
  scenarios::Enterprise e = small_enterprise();
  BatchResult reference =
      Engine(e.model, thread_opts()).run_batch(e.invariants);

  EngineOptions opts = process_opts();
  opts.verify.faults = FaultPlan::parse("crash-job=0");
  BatchResult r =
      Engine(e.model, opts).run_batch(e.invariants);

  EXPECT_EQ(r.degradation.quarantined, 1u);
  EXPECT_EQ(r.degradation.abandoned(), 1u);  // quarantined subset of abandoned
  EXPECT_EQ(r.pool.workers_crashed, 2u);  // the two kills that convicted it
  EXPECT_GE(r.degradation.workers_respawned, 1u);
  EXPECT_TRUE(r.degradation.degraded());
  EXPECT_FALSE(r.degradation.reasons.empty());
  EXPECT_EQ(r.degradation.completed, r.pool.jobs_executed - 1);

  // Never-flip: every verdict the faulted run answered matches the
  // fault-free run; only the quarantined class (all of its bindings) may
  // widen to unknown.
  ASSERT_EQ(r.results.size(), reference.results.size());
  std::size_t unknowns = 0;
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    if (r.results[i].outcome == Outcome::unknown) {
      ++unknowns;
      continue;
    }
    EXPECT_EQ(r.results[i].outcome, reference.results[i].outcome) << i;
  }
  EXPECT_GE(unknowns, 1u);
}

TEST_P(InProcess, DeadlineExpiryYieldsPartialResultsWithAccurateCounters) {
  // A 1ms deadline expires during planning: the executor must drain the
  // queue without solving, account every job as deadline-abandoned, and
  // surface the unanswered invariants as unknown - a partial result,
  // never a hang or a silent drop.
  scenarios::Enterprise e = small_enterprise();
  EngineOptions opts = test::executor_options(GetParam());
  opts.deadline = std::chrono::milliseconds(1);
  BatchResult r =
      Engine(e.model, opts).run_batch(e.invariants);

  EXPECT_TRUE(r.degradation.deadline_expired);
  EXPECT_TRUE(r.degradation.degraded());
  EXPECT_GE(r.degradation.deadline_abandoned, 1u);
  EXPECT_EQ(r.degradation.completed + r.degradation.deadline_abandoned,
            r.pool.jobs_executed);
  EXPECT_EQ(r.degradation.abandoned(), r.degradation.deadline_abandoned);
  EXPECT_FALSE(r.degradation.reasons.empty());
  ASSERT_EQ(r.results.size(), e.invariants.size());
  std::size_t unknowns = 0;
  for (const VerifyResult& res : r.results) {
    if (res.outcome == Outcome::unknown) ++unknowns;
  }
  EXPECT_GE(unknowns, r.degradation.deadline_abandoned);
  const std::string summary = r.degradation.summary();
  EXPECT_NE(summary.find("deadline expired"), std::string::npos);
}

TEST_P(InProcess, DeadlineCountsMergedClassesInOneUnit) {
  // The 8-group datacenter with one rules misconfiguration: its 16
  // isolation and traversal invariants fold into a handful of solver
  // classes. An expired deadline abandons every class, and the degradation
  // report must count completed and abandoned work in that same unit - no
  // "completed" classes while every verdict is unknown.
  scenarios::Datacenter dc = scenarios::make_datacenter({8, 2});
  Rng rng(7);
  inject_misconfig(dc, scenarios::DcMisconfig::rules, rng, 1);
  std::vector<encode::Invariant> invariants = dc.isolation_invariants();
  for (const encode::Invariant& inv : dc.traversal_invariants()) {
    invariants.push_back(inv);
  }
  EngineOptions opts = test::executor_options(GetParam());
  opts.verify.max_failures = 1;
  opts.deadline = std::chrono::milliseconds(1);
  BatchResult r = Engine(dc.model, opts).run_batch(invariants);

  ASSERT_EQ(invariants.size(), 16u);
  EXPECT_LT(r.pool.jobs_executed, invariants.size());  // merged
  EXPECT_TRUE(r.degradation.deadline_expired);
  EXPECT_EQ(r.degradation.completed + r.degradation.abandoned(),
            r.pool.jobs_executed);
  EXPECT_EQ(r.degradation.completed, 0u);
  EXPECT_EQ(r.solver_calls, 0u);
  for (const VerifyResult& res : r.results) {
    EXPECT_EQ(res.outcome, Outcome::unknown);
  }
}

TEST_P(InProcess, TornCacheFlushCostsOnlyTheTailRecordOnRerun) {
  // cache-torn-tail=1 tears the batch's one flush mid-final-record: a
  // fault-free rerun must drop exactly that record, re-solve what it
  // answered, and take everything else from the cache.
  scenarios::Enterprise e = small_enterprise();
  TempCacheDir dir;
  EngineOptions torn = test::executor_options(GetParam());
  torn.verify.cache_dir = dir.path;
  torn.verify.faults = FaultPlan::parse("seed=1,cache-torn-tail=1");
  const BatchResult first = Engine(e.model, torn).run_batch(e.invariants);
  ASSERT_GT(first.solver_calls, 1u);  // more than one record to keep

  EngineOptions clean = test::executor_options(GetParam());
  clean.verify.cache_dir = dir.path;
  const BatchResult rerun = Engine(e.model, clean).run_batch(e.invariants);
  EXPECT_EQ(rerun.degradation.cache_records_dropped, 1u);
  EXPECT_GT(rerun.cache_hits, 0u);
  EXPECT_GE(rerun.solver_calls, 1u);
  EXPECT_LT(rerun.solver_calls, first.solver_calls);
  ASSERT_EQ(rerun.results.size(), first.results.size());
  for (std::size_t i = 0; i < rerun.results.size(); ++i) {
    EXPECT_EQ(rerun.results[i].outcome, first.results[i].outcome) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Executors, InProcess,
                         ::testing::Values("inline", "thread"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(Escalation, TransientUnknownsAreRetriedAndRescued) {
  // solver-unknown forces every *initial* check to unknown; the
  // escalation retry (bumped timeout, perturbed seed) runs fault-free and
  // must rescue every one of them - counters tell the story exactly.
  scenarios::Enterprise e = small_enterprise(4);
  BatchResult reference =
      Engine(e.model, thread_opts()).run_batch(e.invariants);

  EngineOptions faulted = thread_opts();
  faulted.verify.faults = FaultPlan::parse("seed=11,solver-unknown=1");
  BatchResult r =
      Engine(e.model, faulted).run_batch(e.invariants);
  EXPECT_EQ(r.degradation.escalations, r.pool.jobs_executed);
  EXPECT_EQ(r.degradation.escalations_rescued, r.degradation.escalations);
  EXPECT_FALSE(r.degradation.degraded());  // every verdict recovered
  ASSERT_EQ(r.results.size(), reference.results.size());
  for (std::size_t i = 0; i < r.results.size(); ++i) {
    EXPECT_EQ(r.results[i].outcome, reference.results[i].outcome) << i;
    EXPECT_NE(r.results[i].outcome, Outcome::unknown) << i;
  }
  // Persistent faults are counted but not rescued: solver-timeout holds
  // at every attempt, so escalation fires and fails, and every verdict
  // stays unknown.
  EngineOptions timeouts = thread_opts();
  timeouts.verify.faults = FaultPlan::parse("seed=11,solver-timeout=1");
  BatchResult t =
      Engine(e.model, timeouts).run_batch(e.invariants);
  EXPECT_EQ(t.degradation.escalations, t.pool.jobs_executed);
  EXPECT_EQ(t.degradation.escalations_rescued, 0u);
  for (const VerifyResult& res : t.results) {
    EXPECT_EQ(res.outcome, Outcome::unknown);
  }

  // With escalation disabled the transient faults stick: no retries, all
  // unknown.
  EngineOptions off = thread_opts();
  off.verify.faults = FaultPlan::parse("seed=11,solver-unknown=1");
  off.verify.escalate_unknown = false;
  BatchResult n =
      Engine(e.model, off).run_batch(e.invariants);
  EXPECT_EQ(n.degradation.escalations, 0u);
  for (const VerifyResult& res : n.results) {
    EXPECT_EQ(res.outcome, Outcome::unknown);
  }
}

TEST(Escalation, SequentialEngineCountsEscalationsToo) {
  // The escalation path lives in verify_members, so the inline executor
  // shares it verbatim - same rescue, same counters on BatchResult.
  scenarios::Enterprise e = small_enterprise(4);
  VerifyOptions opts;
  opts.solver.seed = 7;
  opts.faults = FaultPlan::parse("seed=11,solver-unknown=1");
  BatchResult r =
      Engine(e.model, {.verify = opts}).run_batch(e.invariants, true);
  EXPECT_GT(r.degradation.escalations, 0u);
  EXPECT_EQ(r.degradation.escalations_rescued, r.degradation.escalations);
  for (const VerifyResult& res : r.results) {
    EXPECT_NE(res.outcome, Outcome::unknown);
  }
}

}  // namespace
}  // namespace vmn::verify
