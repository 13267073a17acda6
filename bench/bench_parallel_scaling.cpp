// Parallel scaling of the policy-scaling experiment (Fig 3 workload): the
// datacenter isolation batch is verified by the Engine's process executor
// (workers forked from this binary) at 1/2/4/8 workers. Per-slice checks share no state, so on k cores the
// batch should approach k-fold speedup; the `speedup_vs_1` counter reports
// the measured ratio against the 1-worker wall time of the same batch
// (expect >= 1.5x at 4 workers on >= 4 physical cores; on fewer cores the
// ratio degrades toward 1 - check `hw_threads`).
//
// Symmetry is disabled inside the measurement so every invariant becomes an
// independent job (the honest worker-scaling shape); a separate family
// keeps symmetry on to show how dedup shrinks the queue first.
//
// The BM_BatchFastPath family measures the batch fast path itself: the same
// batch cold (fresh context per invariant, no class merging, no cache), warm
// (problem-key classes, live contexts reused across same-shape jobs) and
// cached (warm + pre-populated persistent
// result cache, i.e. the repeated-batch case). `speedup_vs_cold` is the
// headline number; every run also lands in BENCH_parallel.json with the
// batch's whole metrics schema (verify::BatchResult::metrics()).
#include "bench_common.hpp"

#include <unistd.h>

#include <filesystem>
#include <map>
#include <thread>

#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/multitenant.hpp"
#include "verify/faults.hpp"
#include "verify/engine.hpp"

namespace {

using namespace vmn;
using scenarios::Datacenter;
using scenarios::DatacenterParams;
using scenarios::DcMisconfig;
using verify::Outcome;
using verify::EngineOptions;
using verify::Engine;

constexpr int kClasses = 8;

Datacenter make() {
  DatacenterParams p;
  p.policy_groups = kClasses;
  p.clients_per_group = 2;
  return make_datacenter(p);
}

// 1-worker wall time per (symmetry) config, measured on first use so the
// speedup counter can be derived without a separate manual run.
std::map<bool, double> baseline_us;

verify::BatchResult run_batch(const Datacenter& dc, std::size_t workers,
                              bool use_symmetry, benchmark::State& state) {
  EngineOptions opts{.batch = true, .jobs = workers};
  opts.use_symmetry = use_symmetry;
  opts.verify.solver.seed = 1;
  Engine v(dc.model, opts);
  const scenarios::Batch batch = dc.batch();
  verify::BatchResult r = v.run_batch(batch.invariants);
  for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
    const Outcome expected =
        batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
    if (r.results[i].outcome != expected) {
      state.SkipWithError("unexpected outcome in parallel batch");
      return {};
    }
  }
  state.counters["jobs_executed"] =
      benchmark::Counter(static_cast<double>(r.pool.jobs_executed));
  state.counters["dedup_hit_rate"] = benchmark::Counter(r.dedup_hit_rate());
  return r;
}

void scaling_bench(benchmark::State& state, bool use_symmetry) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  Datacenter dc = make();
  verify::BatchResult last;
  for (auto _ : state) {
    last = run_batch(dc, workers, use_symmetry, state);
    benchmark::DoNotOptimize(last);
  }
  const auto wall_us = static_cast<double>(last.total_time.count());
  if (workers == 1) baseline_us[use_symmetry] = wall_us;
  const double base = baseline_us[use_symmetry];
  const double speedup = base > 0 && wall_us > 0 ? base / wall_us : 0.0;
  state.counters["speedup_vs_1"] = benchmark::Counter(speedup);
  state.counters["hw_threads"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()));
  std::map<std::string, double> values = bench::batch_values(last);
  values["speedup_vs_1"] = speedup;
  bench::BenchJson::instance().record(
      std::string("scaling/") + (use_symmetry ? "dedup" : "independent") +
          "/workers=" + std::to_string(workers),
      values);
}

void BM_ParallelScaling_Independent(benchmark::State& state) {
  scaling_bench(state, /*use_symmetry=*/false);
}
BENCHMARK(BM_ParallelScaling_Independent)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgNames({"workers"})->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_ParallelScaling_WithDedup(benchmark::State& state) {
  scaling_bench(state, /*use_symmetry=*/true);
}
BENCHMARK(BM_ParallelScaling_WithDedup)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->ArgNames({"workers"})->Unit(benchmark::kMillisecond)->Iterations(1);

// --- batch fast path: cold vs warm vs warm+cached --------------------------

enum FastPathMode { kCold = 0, kWarm = 1, kCached = 2 };

const char* mode_name(int mode) {
  switch (mode) {
    case kCold: return "cold";
    case kWarm: return "warm";
    default: return "cached";
  }
}

double cold_wall_us = 0;  // measured by the kCold run (registered first)

void BM_BatchFastPath(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  Datacenter dc = make();
  // The audit workload that exercises every fast-path layer: each group
  // pair is checked under TWO properties. The two invariants of a pair
  // slice to the same member set (one warm base encoding, two scoped
  // solves) while their problem keys differ (two classes, two cache
  // lines).
  scenarios::Batch batch;
  batch.name = "datacenter-audit";
  for (const encode::Invariant& iso : dc.isolation_invariants()) {
    batch.invariants.push_back(iso);
    batch.invariants.push_back(
        encode::Invariant::flow_isolation(iso.target, iso.other));
    // Clean datacenter: nothing is delivered across groups, so both the
    // node- and the stricter flow-isolation form hold.
    batch.expected_holds.push_back(true);
    batch.expected_holds.push_back(true);
  }

  EngineOptions opts{.batch = true, .jobs = 2};
  opts.use_symmetry = true;
  opts.verify.solver.seed = 1;
  opts.verify.warm_solving = mode != kCold;
  opts.verify.merge_isomorphic = mode != kCold;  // cold: no reuse at all
  // Scope-guarded so the temp dir disappears on every exit path, the
  // SkipWithError early returns included.
  struct TempDirGuard {
    std::string path;
    ~TempDirGuard() {
      if (path.empty()) return;
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cache_dir;
  if (mode == kCached) {
    char cache_template[] = "/tmp/vmn-bench-cache-XXXXXX";
    if (mkdtemp(cache_template) == nullptr) {
      state.SkipWithError("mkdtemp failed");
      return;
    }
    cache_dir.path = cache_template;
    opts.verify.cache_dir = cache_template;
    // Populate outside the timing loop: the measured run is the *repeated*
    // batch, the incremental re-verification case.
    Engine warmup(dc.model, opts);
    benchmark::DoNotOptimize(warmup.run_batch(batch.invariants));
  }

  Engine v(dc.model, opts);
  verify::BatchResult last;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("unexpected outcome in fast-path batch");
        return;
      }
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  const auto wall_us = static_cast<double>(last.total_time.count());
  if (mode == kCold) cold_wall_us = wall_us;
  const double speedup =
      cold_wall_us > 0 && wall_us > 0 ? cold_wall_us / wall_us : 0.0;
  state.counters["cache_hits"] =
      benchmark::Counter(static_cast<double>(last.cache_hits));
  state.counters["solver_calls"] =
      benchmark::Counter(static_cast<double>(last.solver_calls));
  state.counters["speedup_vs_cold"] = benchmark::Counter(speedup);
  std::map<std::string, double> values = bench::batch_values(last);
  values["speedup_vs_cold"] = speedup;
  bench::BenchJson::instance().record(
      std::string("fastpath/") + mode_name(mode), values);
}
BENCHMARK(BM_BatchFastPath)
    ->Arg(kCold)->Arg(kWarm)->Arg(kCached)
    ->ArgNames({"mode"})->Unit(benchmark::kMillisecond)->Iterations(1);

// --- cross-isomorphic verdict reuse -----------------------------------------
//
// The datacenter's per-group jobs are the canonical cross-isomorphic
// workload: every group pair's slice is a renamed copy of the first. The
// planner folds each problem-key class of isomorphic invariants onto ONE
// solver call and replays the verdict per binding (iso_verdict_reuses > 0,
// planned_jobs counting classes); a class representative isomorphic to
// another class's shape is rebound onto that encoding
// (iso_mapped/iso_reuses). Cold - no warm solving, no class merging - is
// the all-cold baseline the speedup is measured against. All counters land
// in BENCH_parallel.json, and ci.sh's bench smoke asserts the reuse
// actually happened.

void BM_IsoWarm(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Datacenter dc = make();
  scenarios::Batch batch;
  batch.name = "datacenter-isowarm";
  for (const encode::Invariant& iso : dc.isolation_invariants()) {
    batch.invariants.push_back(iso);
    batch.expected_holds.push_back(true);
  }

  EngineOptions opts{.batch = true, .jobs = 2};
  opts.use_symmetry = true;
  opts.verify.solver.seed = 1;
  opts.verify.warm_solving = warm;
  opts.verify.merge_isomorphic = warm;
  Engine v(dc.model, opts);
  verify::BatchResult last;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("unexpected outcome in iso-warm batch");
        return;
      }
    }
    if (warm && r.iso_verdict_reuses == 0 && r.iso_reuses == 0) {
      state.SkipWithError("iso-warm batch reported no cross-isomorphic reuse");
      return;
    }
    if (!warm &&
        (r.iso_mapped != 0 || r.iso_reuses != 0 || r.iso_verdict_reuses != 0)) {
      state.SkipWithError("cold baseline performed iso rebinding");
      return;
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  static double iso_cold_wall_us = 0;  // Arg(0) registers (and runs) first
  const auto wall_us = static_cast<double>(last.total_time.count());
  if (!warm) iso_cold_wall_us = wall_us;
  const double speedup =
      iso_cold_wall_us > 0 && wall_us > 0 ? iso_cold_wall_us / wall_us : 0.0;
  state.counters["iso_verdict_reuses"] =
      benchmark::Counter(static_cast<double>(last.iso_verdict_reuses));
  state.counters["solver_calls"] =
      benchmark::Counter(static_cast<double>(last.solver_calls));
  state.counters["speedup_vs_cold"] = benchmark::Counter(speedup);
  std::map<std::string, double> values = bench::batch_values(last);
  values["speedup_vs_cold"] = speedup;
  bench::BenchJson::instance().record(
      std::string("isowarm/") + (warm ? "warm" : "cold"), values);
}
BENCHMARK(BM_IsoWarm)
    ->Arg(0)->Arg(1)
    ->ArgNames({"warm"})->Unit(benchmark::kMillisecond)->Iterations(1);

// --- fig8 batch under verdict merging ---------------------------------------
//
// The multitenant audit (Fig 8 workload) pins the *other* side of verdict
// merging: its problem-key classes are distinct problems whose candidate
// encoding merges the planner refuses (firewall projection mismatch - the
// blockers `vmn verify --dedup-report` lists). The record pins solver
// classes (planned_jobs), solver calls, verdict replays AND the
// refused-merge count, so a projection
// migration that unlocks these merges shows up in the trajectory as a
// counter step, not a silent timing shift.

void BM_Fig8Batch(benchmark::State& state) {
  scenarios::MultiTenantParams p;
  p.tenants = 4;
  p.servers = 2;
  p.public_vms_per_tenant = 1;
  p.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(p);
  const scenarios::Batch batch = mt.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  Engine v(mt.model, opts);
  verify::BatchResult last;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("unexpected outcome in fig8 batch");
        return;
      }
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  std::map<std::string, double> values = bench::batch_values(last);
  values["dedup_rate"] = last.dedup_hit_rate();
  double blocked_merges = 0;
  for (const verify::MergeBlocker& b : verify::merge_blockers(
           mt.model, v.plan(batch.invariants), opts.verify.max_failures)) {
    blocked_merges += static_cast<double>(b.count);
    // Per-box breakdown: structural refusals (no box type) land in
    // "structural" so the blocked_merges_* keys always sum to the total.
    const std::string box = b.box_type.empty() ? "structural" : b.box_type;
    values["blocked_merges_" + box] += static_cast<double>(b.count);
  }
  values["blocked_merges"] = blocked_merges;
  state.counters["solver_calls"] =
      benchmark::Counter(static_cast<double>(last.solver_calls));
  state.counters["blocked_merges"] = benchmark::Counter(blocked_merges);
  bench::BenchJson::instance().record("fig8/batch", values);
}
BENCHMARK(BM_Fig8Batch)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- a healthy process-executor batch ---------------------------------------
//
// The process executor pays fork + projected-spec re-parse + frame traffic
// per batch. A healthy run must lose no worker and abandon no job; its
// counters pin the executor's fan-out on the datacenter batch.

void BM_BatchBackend(benchmark::State& state) {
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  Engine v(dc.model, opts);
  verify::BatchResult last;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("unexpected outcome in backend batch");
        return;
      }
    }
    if (r.pool.workers_crashed != 0 || r.degradation.abandoned() != 0) {
      state.SkipWithError("process executor lost workers on a healthy run");
      return;
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  bench::BenchJson::instance().record("backend/process",
                                      bench::batch_values(last));
}
BENCHMARK(BM_BatchBackend)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- fault resilience: crash-loop quarantine, unknown escalation ------------
//
// The self-healing counters the trajectory pins. faults/quarantine runs the
// process executor under a deterministic crash-job=0 plan: job 0 kills two
// workers, is quarantined by crash-loop attribution (its invariants - and
// only those - come back unknown), and every other verdict matches the
// fault-free expectation. faults/escalation runs the process executor
// with every first solve forced unknown: each job escalates once (perturbed
// seed, longer timeout), every escalation is rescued, and the batch ends
// with zero unknowns. All counters here are fixed by (spec, plan, jobs=2)
// except the ones bench_diff.py lists as scheduling-dependent (a crash
// only respawns while work remains), which it lower-bounds instead of
// pinning.

void BM_FaultQuarantine(benchmark::State& state) {
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  opts.verify.faults = verify::FaultPlan::parse("crash-job=0");
  Engine v(dc.model, opts);
  verify::BatchResult last;
  double unknowns = 0;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    unknowns = 0;
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      if (r.results[i].outcome == Outcome::unknown) {
        ++unknowns;
        continue;
      }
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("verdict flipped under fault injection");
        return;
      }
    }
    if (r.degradation.quarantined != 1) {
      state.SkipWithError("crash-looping job was not quarantined");
      return;
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  state.counters["quarantined"] =
      benchmark::Counter(static_cast<double>(last.degradation.quarantined));
  state.counters["workers_respawned"] = benchmark::Counter(
      static_cast<double>(last.degradation.workers_respawned));
  state.counters["unknown_verdicts"] = benchmark::Counter(unknowns);
  std::map<std::string, double> values = bench::batch_values(last);
  values["unknown_verdicts"] = unknowns;
  bench::BenchJson::instance().record("faults/quarantine", values);
}
BENCHMARK(BM_FaultQuarantine)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_FaultEscalation(benchmark::State& state) {
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  opts.verify.faults = verify::FaultPlan::parse("solver-unknown=1");
  Engine v(dc.model, opts);
  verify::BatchResult last;
  double unknowns = 0;
  for (auto _ : state) {
    verify::BatchResult r = v.run_batch(batch.invariants);
    unknowns = 0;
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      if (r.results[i].outcome == Outcome::unknown) {
        ++unknowns;
        continue;
      }
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("verdict flipped under forced solver unknowns");
        return;
      }
    }
    benchmark::DoNotOptimize(r);
    last = std::move(r);
  }
  state.counters["escalations"] =
      benchmark::Counter(static_cast<double>(last.degradation.escalations));
  state.counters["unknown_verdicts"] = benchmark::Counter(unknowns);
  std::map<std::string, double> values = bench::batch_values(last);
  values["unknown_verdicts"] = unknowns;
  bench::BenchJson::instance().record("faults/escalation", values);
}
BENCHMARK(BM_FaultEscalation)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

VMN_BENCH_JSON_MAIN("bench_parallel_scaling", "BENCH_parallel.json")
