// The process executor: the one way a batch fans out (EngineOptions::batch).
//
// ProcessPool forks one worker process per slot and streams wire-framed
// jobs to them over pipes (see verify/wire.hpp for the protocol). The unit
// of dispatch is a shape group - a run of jobs sharing one slice member
// set - so each group's jobs execute back-to-back on one worker's warm
// solver session, and each worker process holds one warm Z3 context at a
// time.
//
// Crash tolerance is the point of the exercise: a worker that exits, is
// killed, or stops answering within the hang timeout is reaped, and every
// job it had not answered is requeued onto the surviving workers. Requeues
// are bounded (kMaxAttempts dispatches per job); a job that exhausts its
// budget - or outlives every worker - is *abandoned*: it surfaces as an
// unknown verdict with the abandonment counted, never as a silently missing
// result.
//
// Self-healing: a slot whose worker dies respawns a replacement (capped
// exponential backoff with seeded jitter, at most kMaxRespawns per slot),
// so one bad worker - or a chaos plan killing several - does not shrink the
// fleet for the rest of the batch. Respawning alone would let a
// *deterministic* crasher (a job that kills whichever worker runs it) eat
// every respawn budget in turn, so crashes are attributed to the job that
// was in flight: a job that has killed kQuarantineKills workers is
// quarantined - abandoned to an unknown verdict, counted and named in the
// dispatch report - and the fleet keeps going. The no-survivors path stays
// reachable (respawn budgets are finite), so the bounded-retry guarantee
// still means what it said.
//
// Graceful degradation: the batch deadline (EngineOptions::deadline,
// measured from Engine::run_batch like the inline executor's) stops
// dispatching when it expires - jobs never attempted are abandoned with a
// deadline cause, in-flight jobs finish, and the caller gets a partial
// result set plus accurate counters instead of an open-ended wait.
//
// Spawning: with an empty worker_command the child runs
// wire::worker_process directly after fork() (no exec - used by in-process
// callers like tests and benchmarks); a non-empty command fork+execs it
// (the CLI passes {/proc/self/exe, "worker"}, so dispatcher and workers
// are always the same build of the same binary). The initial fleet forks
// before any dispatcher thread starts; respawns fork mid-batch from
// dispatcher threads, which is safe here because those threads only ever
// move bytes over pipes - all solving happens in the workers, so no Z3 (or
// other lock-holding) work races the fork, and the shared fd registry is
// mutex-held across it so children see a consistent snapshot to close.
#pragma once

#include <chrono>
#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "smt/solver.hpp"
#include "verify/verifier.hpp"
#include "verify/wire.hpp"

namespace vmn::verify {

/// The process executor's own knobs. Everything else - worker count,
/// deadline, solver, warm solving, fault plan, escalation - comes from the
/// EngineOptions/VerifyOptions the Engine already holds; the retry, respawn
/// and quarantine budgets are fixed constants (see process_pool.cpp).
struct ProcessPoolOptions {
  /// argv of the worker to fork+exec; empty runs wire::worker_main in a
  /// forked child of this process.
  std::vector<std::string> worker_command;
  /// How long the dispatcher waits for one job's result before declaring
  /// the worker hung and killing it. 0 derives a budget from the solver
  /// timeout (2x + 30s) so a wedged worker can never stall the batch.
  std::chrono::milliseconds hang_timeout{0};
};

/// One unit of dispatch: the projected model its jobs execute in, plus the
/// indices (into the job vector handed to run) of a same-shape job run.
struct ProcessGroup {
  std::string spec_text;
  std::vector<std::size_t> jobs;
};

/// What run() hands back besides the counters it adds to the batch.
struct ProcessDispatch {
  /// Aligned with the job vector; nullopt marks an abandoned job.
  std::vector<std::optional<wire::WireResult>> results;
  std::vector<WorkerStats> workers;
};

class ProcessPool {
 public:
  /// `workers` == 0 picks std::thread::hardware_concurrency(). `verify`
  /// supplies the solver options, warm solving, fault plan (shipped to
  /// workers in the MODEL frame; its seed also drives the respawn-backoff
  /// jitter) and escalation policy.
  ProcessPool(std::size_t workers, const VerifyOptions& verify,
              ProcessPoolOptions options);

  /// The resolved worker-slot count (at least 1). run() spawns at most one
  /// worker per group, so the Engine splits its shape groups to this width.
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Dispatches every group, blocking until each job is answered or
  /// abandoned; past `deadline` no further job starts. Fleet and
  /// abandonment counters (spawned, crashed, requeued / respawned,
  /// abandoned by cause, deadline expiry, reasons) are added to `pool` and
  /// `degradation`. Thread-safe against nothing: call from one thread,
  /// before spawning unrelated threads (fork() is involved).
  [[nodiscard]] ProcessDispatch run(
      const std::vector<wire::WireJob>& jobs, std::vector<ProcessGroup> groups,
      std::optional<std::chrono::steady_clock::time_point> deadline,
      PoolStats& pool, DegradationReport& degradation) const;

 private:
  std::size_t workers_;
  VerifyOptions verify_;
  ProcessPoolOptions options_;
};

}  // namespace vmn::verify
