// Parallel scaling of the policy-scaling experiment (Fig 3 workload): the
// datacenter isolation batch is verified by the Engine at
// 1/2/4/8 workers. Per-slice checks share no state, so on k cores the
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
// headline number; every run also lands in BENCH_parallel.json with
// cold/warm wall times, cache hit counts and plan time.
#include "bench_common.hpp"

#include <unistd.h>

#include <chrono>
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
std::map<bool, double> baseline_ms;

double run_batch(const Datacenter& dc, std::size_t workers,
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
      return 0.0;
    }
  }
  state.counters["jobs_executed"] =
      benchmark::Counter(static_cast<double>(r.pool.jobs_executed));
  state.counters["dedup_hit_rate"] = benchmark::Counter(r.dedup_hit_rate());
  return static_cast<double>(r.total_time.count());
}

void scaling_bench(benchmark::State& state, bool use_symmetry) {
  const auto workers = static_cast<std::size_t>(state.range(0));
  Datacenter dc = make();
  double wall_ms = 0;
  for (auto _ : state) {
    wall_ms = run_batch(dc, workers, use_symmetry, state);
    benchmark::DoNotOptimize(wall_ms);
  }
  if (workers == 1) baseline_ms[use_symmetry] = wall_ms;
  const double base = baseline_ms[use_symmetry];
  const double speedup = base > 0 && wall_ms > 0 ? base / wall_ms : 0.0;
  state.counters["speedup_vs_1"] = benchmark::Counter(speedup);
  state.counters["hw_threads"] = benchmark::Counter(
      static_cast<double>(std::thread::hardware_concurrency()));
  bench::BenchJson::instance().record(
      std::string("scaling/") + (use_symmetry ? "dedup" : "independent") +
          "/workers=" + std::to_string(workers),
      {{"wall_ms", wall_ms}, {"speedup_vs_1", speedup}});
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

double cold_wall_ms = 0;  // measured by the kCold run (registered first)

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
  double wall_ms = 0, plan_ms = 0, cache_hits = 0, warm_reuses = 0,
         solver_calls = 0;
  std::map<std::string, double> solve_tail;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    verify::BatchResult r = v.run_batch(batch.invariants);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
    for (std::size_t i = 0; i < batch.invariants.size(); ++i) {
      const Outcome expected =
          batch.expected_holds[i] ? Outcome::holds : Outcome::violated;
      if (r.results[i].outcome != expected) {
        state.SkipWithError("unexpected outcome in fast-path batch");
        return;
      }
    }
    plan_ms = static_cast<double>(r.plan_time.count());
    cache_hits = static_cast<double>(r.cache_hits);
    warm_reuses = static_cast<double>(r.warm_reuses);
    solver_calls = static_cast<double>(r.solver_calls);
    bench::add_solve_percentiles(solve_tail, r.pool.solve_histogram);
    benchmark::DoNotOptimize(r);
  }
  if (mode == kCold) cold_wall_ms = wall_ms;
  const double speedup =
      cold_wall_ms > 0 && wall_ms > 0 ? cold_wall_ms / wall_ms : 0.0;
  state.counters["plan_ms"] = benchmark::Counter(plan_ms);
  state.counters["cache_hits"] = benchmark::Counter(cache_hits);
  state.counters["warm_reuses"] = benchmark::Counter(warm_reuses);
  state.counters["solver_calls"] = benchmark::Counter(solver_calls);
  state.counters["speedup_vs_cold"] = benchmark::Counter(speedup);
  std::map<std::string, double> values = {{"wall_ms", wall_ms},
                                          {"plan_ms", plan_ms},
                                          {"cache_hits", cache_hits},
                                          {"warm_reuses", warm_reuses},
                                          {"solver_calls", solver_calls},
                                          {"speedup_vs_cold", speedup}};
  values.insert(solve_tail.begin(), solve_tail.end());
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
  double wall_ms = 0, plan_ms = 0, iso_mapped = 0, iso_reuses = 0,
         iso_verdicts = 0, solver_calls = 0, planned_jobs = 0, warm_binds = 0,
         enc_builds = 0, enc_reuses = 0;
  std::map<std::string, double> solve_tail;
  for (auto _ : state) {
    const auto wall_start = std::chrono::steady_clock::now();
    verify::BatchResult r = v.run_batch(batch.invariants);
    wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
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
    plan_ms = static_cast<double>(r.plan_time.count());
    iso_mapped = static_cast<double>(r.iso_mapped);
    iso_reuses = static_cast<double>(r.iso_reuses);
    iso_verdicts = static_cast<double>(r.iso_verdict_reuses);
    solver_calls = static_cast<double>(r.solver_calls);
    planned_jobs = static_cast<double>(r.pool.jobs_executed);
    warm_binds = static_cast<double>(r.warm_binds);
    enc_builds = static_cast<double>(r.encode_transfer_builds);
    enc_reuses = static_cast<double>(r.encode_transfer_reuses);
    bench::add_solve_percentiles(solve_tail, r.pool.solve_histogram);
    benchmark::DoNotOptimize(r);
  }
  static double iso_cold_wall_ms = 0;  // Arg(0) registers (and runs) first
  if (!warm) iso_cold_wall_ms = wall_ms;
  const double speedup =
      iso_cold_wall_ms > 0 && wall_ms > 0 ? iso_cold_wall_ms / wall_ms : 0.0;
  state.counters["iso_mapped"] = benchmark::Counter(iso_mapped);
  state.counters["iso_reuses"] = benchmark::Counter(iso_reuses);
  state.counters["iso_verdict_reuses"] = benchmark::Counter(iso_verdicts);
  state.counters["solver_calls"] = benchmark::Counter(solver_calls);
  state.counters["warm_binds"] = benchmark::Counter(warm_binds);
  state.counters["encode_transfer_builds"] = benchmark::Counter(enc_builds);
  state.counters["speedup_vs_cold"] = benchmark::Counter(speedup);
  std::map<std::string, double> values = {
      {"wall_ms", wall_ms},
      {"plan_ms", plan_ms},
      {"iso_mapped", iso_mapped},
      {"iso_reuses", iso_reuses},
      {"iso_verdict_reuses", iso_verdicts},
      {"solver_calls", solver_calls},
      {"planned_jobs", planned_jobs},
      {"warm_binds", warm_binds},
      {"encode_transfer_builds", enc_builds},
      {"encode_transfer_reuses", enc_reuses},
      {"speedup_vs_cold", speedup}};
  values.insert(solve_tail.begin(), solve_tail.end());
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
  double wall_ms = 0, planned_jobs = 0, solver_calls = 0, iso_verdicts = 0,
         blocked_merges = 0, dedup_rate = 0;
  std::map<std::string, double> per_box_blocked;
  std::map<std::string, double> solve_tail;
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
    wall_ms = static_cast<double>(r.total_time.count());
    planned_jobs = static_cast<double>(r.pool.jobs_executed);
    solver_calls = static_cast<double>(r.solver_calls);
    iso_verdicts = static_cast<double>(r.iso_verdict_reuses);
    dedup_rate = r.dedup_hit_rate();
    blocked_merges = 0;
    per_box_blocked.clear();
    for (const verify::MergeBlocker& b : r.pool.merge_blockers) {
      blocked_merges += static_cast<double>(b.count);
      // Per-box breakdown: structural refusals (no box type) land in
      // "structural" so the blocked_merges_* keys always sum to the total.
      const std::string box = b.box_type.empty() ? "structural" : b.box_type;
      per_box_blocked["blocked_merges_" + box] +=
          static_cast<double>(b.count);
    }
    bench::add_solve_percentiles(solve_tail, r.pool.solve_histogram);
    benchmark::DoNotOptimize(r);
  }
  state.counters["planned_jobs"] = benchmark::Counter(planned_jobs);
  state.counters["solver_calls"] = benchmark::Counter(solver_calls);
  state.counters["iso_verdict_reuses"] = benchmark::Counter(iso_verdicts);
  state.counters["blocked_merges"] = benchmark::Counter(blocked_merges);
  std::map<std::string, double> values = {
      {"wall_ms", wall_ms},
      {"planned_jobs", planned_jobs},
      {"solver_calls", solver_calls},
      {"iso_verdict_reuses", iso_verdicts},
      {"blocked_merges", blocked_merges},
      {"dedup_rate", dedup_rate}};
  values.insert(per_box_blocked.begin(), per_box_blocked.end());
  values.insert(solve_tail.begin(), solve_tail.end());
  bench::BenchJson::instance().record("fig8/batch", values);
}
BENCHMARK(BM_Fig8Batch)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- backend comparison: threads vs forked worker processes -----------------
//
// The process backend pays fork + projected-spec re-parse + frame traffic
// per batch; `overhead_vs_thread` prices that isolation (and crash
// tolerance) against the in-process pool on the same workload. Expect a
// modest constant factor - the solver dominates per-job cost - which is
// the number the ROADMAP's multi-host dispatch builds on.

void BM_BatchBackend(benchmark::State& state) {
  const bool use_process = state.range(0) != 0;
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  opts.backend =
      use_process ? verify::Backend::process : verify::Backend::thread;
  Engine v(dc.model, opts);
  double wall_ms = 0;
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
      state.SkipWithError("process backend lost workers on a healthy run");
      return;
    }
    wall_ms = static_cast<double>(r.total_time.count());
    benchmark::DoNotOptimize(r);
  }
  static double thread_wall_ms = 0;  // Arg(0) is registered (and runs) first
  if (!use_process) thread_wall_ms = wall_ms;
  // 0 marks "baseline not measured" (e.g. --benchmark_filter ran only the
  // process arm); recording a fake 1.0 would hide real overhead in the
  // CI-uploaded perf trajectory.
  const double overhead = !use_process          ? 1.0
                          : thread_wall_ms > 0 ? wall_ms / thread_wall_ms
                                               : 0.0;
  state.counters["overhead_vs_thread"] = benchmark::Counter(overhead);
  bench::BenchJson::instance().record(
      std::string("backend/") + (use_process ? "process" : "thread"),
      {{"wall_ms", wall_ms}, {"overhead_vs_thread", overhead}});
}
BENCHMARK(BM_BatchBackend)
    ->Arg(0)->Arg(1)
    ->ArgNames({"process"})->Unit(benchmark::kMillisecond)->Iterations(1);

// --- fault resilience: crash-loop quarantine, unknown escalation ------------
//
// The self-healing counters the trajectory pins. faults/quarantine runs the
// process backend under a deterministic crash-job=0 plan: job 0 kills two
// workers, is quarantined by crash-loop attribution (its invariants - and
// only those - come back unknown), and every other verdict matches the
// fault-free expectation. faults/escalation runs the thread backend with
// every first solve forced unknown: each job escalates once (perturbed
// seed, longer timeout), every escalation is rescued, and the batch ends
// with zero unknowns. All counters here are fixed by (spec, plan, jobs=2)
// except workers_respawned, which is scheduling-dependent (a crash only
// respawns while work remains) - bench_diff treats it as a lower-bounded
// signal, not an exact counter.

void BM_FaultQuarantine(benchmark::State& state) {
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  opts.backend = verify::Backend::process;
  opts.verify.faults = verify::FaultPlan::parse("crash-job=0");
  Engine v(dc.model, opts);
  double wall_ms = 0, quarantined = 0, abandoned = 0, crashed = 0,
         respawned = 0, unknowns = 0, dropped = 0;
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
    wall_ms = static_cast<double>(r.total_time.count());
    quarantined = static_cast<double>(r.degradation.quarantined);
    abandoned = static_cast<double>(r.degradation.abandoned());
    crashed = static_cast<double>(r.pool.workers_crashed);
    respawned = static_cast<double>(r.degradation.workers_respawned);
    dropped = static_cast<double>(r.degradation.cache_records_dropped);
    benchmark::DoNotOptimize(r);
  }
  state.counters["quarantined"] = benchmark::Counter(quarantined);
  state.counters["workers_crashed"] = benchmark::Counter(crashed);
  state.counters["workers_respawned"] = benchmark::Counter(respawned);
  state.counters["unknown_verdicts"] = benchmark::Counter(unknowns);
  bench::BenchJson::instance().record(
      "faults/quarantine",
      {{"wall_ms", wall_ms},
       {"quarantined", quarantined},
       {"jobs_abandoned", abandoned},
       {"workers_crashed", crashed},
       {"workers_respawned", respawned},
       {"unknown_verdicts", unknowns},
       {"cache_records_dropped", dropped}});
}
BENCHMARK(BM_FaultQuarantine)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_FaultEscalation(benchmark::State& state) {
  Datacenter dc = make();
  const scenarios::Batch batch = dc.batch();
  EngineOptions opts{.batch = true, .jobs = 2};
  opts.verify.solver.seed = 1;
  opts.verify.faults = verify::FaultPlan::parse("solver-unknown=1");
  Engine v(dc.model, opts);
  double wall_ms = 0, escalations = 0, rescued = 0, unknowns = 0;
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
    wall_ms = static_cast<double>(r.total_time.count());
    escalations = static_cast<double>(r.degradation.escalations);
    rescued = static_cast<double>(r.degradation.escalations_rescued);
    benchmark::DoNotOptimize(r);
  }
  state.counters["escalations"] = benchmark::Counter(escalations);
  state.counters["escalations_rescued"] = benchmark::Counter(rescued);
  state.counters["unknown_verdicts"] = benchmark::Counter(unknowns);
  bench::BenchJson::instance().record(
      "faults/escalation",
      {{"wall_ms", wall_ms},
       {"escalations", escalations},
       {"escalations_rescued", rescued},
       {"unknown_verdicts", unknowns}});
}
BENCHMARK(BM_FaultEscalation)->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

VMN_BENCH_JSON_MAIN("bench_parallel_scaling", "BENCH_parallel.json")
