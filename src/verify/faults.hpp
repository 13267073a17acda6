// Seeded, deterministic fault injection for the verification pipeline.
//
// A FaultPlan is a small declarative description of which infrastructure
// faults to inject — worker crashes/hangs, wire-frame corruption, forced
// solver unknowns/timeouts, result-cache torn tails and bit flips — and a
// FaultInjector turns the plan into *pure* decisions: every decision is a
// hash of (plan seed, fault site, stable identifiers), never of call order
// or wall clock. Two runs with the same plan and the same work inject the
// same faults at the same places, which is what makes fault runs
// replayable, shrinkable, and usable as a fuzzing oracle (vmn fuzz
// --faults).
//
// The plan travels everywhere the work does: the CLI parses it from
// --faults, verify::Engine installs it on its result cache and solver
// sessions (whichever executor runs) and copies it into the process-pool
// options, and the pool ships it to workers inside the MODEL frame; every
// site consults it through a FaultInjector. A default-constructed plan
// injects nothing and costs nothing.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace vmn::verify {

/// Declarative fault schedule. Probabilities are per-opportunity (e.g.
/// frame_corrupt is evaluated once per result frame written); targeted
/// knobs (kill_worker / kill_all / crash_job) fire deterministically at
/// their target. Parse format is a comma-separated key=value list, e.g.
///   seed=7,job-crash=0.2,frame-corrupt=0.1,cache-torn-tail=1
/// and `to_string` round-trips through `parse`.
struct FaultPlan {
  /// Seed mixed into every decision hash. Two plans with equal knobs but
  /// different seeds inject at different (but each deterministic) sites.
  std::uint64_t seed = 0;

  // -- worker faults (process backend; evaluated worker-side) --
  /// P(worker SIGKILLs itself) per received job.
  double worker_crash = 0.0;
  /// P(worker hangs forever) per received job; the dispatcher's hang
  /// timeout fires, kills it, and requeues.
  double worker_hang = 0.0;
  /// P(worker SIGKILLs itself on *this specific job id*) — unlike
  /// worker_crash the decision ignores which worker holds the job, so a
  /// doomed job kills every worker it lands on: the crash-loop case.
  double job_crash = 0.0;

  // -- wire faults (worker-side, on result-frame write) --
  /// P(flip one payload bit before writing; digest check catches it).
  double frame_corrupt = 0.0;
  /// P(write a truncated frame, then exit — a mid-write crash).
  double frame_truncate = 0.0;

  // -- solver faults (any backend; evaluated per solver check) --
  /// P(report unknown instead of the real answer) on the *initial*
  /// attempt only — a transient fault, cleared by unknown-escalation.
  double solver_unknown = 0.0;
  /// P(report unknown on every attempt, charging the full timeout) — a
  /// persistent fault that escalation cannot rescue.
  double solver_timeout = 0.0;

  // -- result-cache faults (evaluated in ResultCache::flush) --
  /// P(truncate the appended block mid-record) per flush: simulates a
  /// crash mid-append leaving a torn tail.
  double cache_torn_tail = 0.0;
  /// P(flip one payload bit in a record line) per stored record.
  double cache_bit_flip = 0.0;

  // -- targeted worker faults (kill=<i> / kill=all / crash-job=<n>) --
  /// Worker ordinal that SIGKILLs itself on its first job (-1 = none).
  /// Respawned workers get fresh ordinals, so kill_worker=0 kills only
  /// the original incarnation.
  std::int64_t kill_worker = -1;
  /// Every worker SIGKILLs itself on its first job.
  bool kill_all = false;
  /// Job id whose worker SIGKILLs itself before solving (-1 = none); the
  /// deterministic crash-loop used by tests and the ci.sh fault smoke.
  std::int64_t crash_job = -1;

  /// True when any knob would ever inject anything.
  [[nodiscard]] bool enabled() const;
  /// True when any *worker-side* knob is set (worker/job/frame faults):
  /// these require the plan to travel over the wire.
  [[nodiscard]] bool has_worker_faults() const;

  /// Parse `spec` (comma-separated key=value; empty string = empty plan).
  /// Throws vmn::Error on unknown keys or malformed values.
  static FaultPlan parse(const std::string& spec);

  /// Canonical spec string; `parse(to_string())` reproduces the plan.
  [[nodiscard]] std::string to_string() const;
};

/// Pure decision oracle over a FaultPlan. Stateless: every method is
/// const and derives its answer from (seed, site tag, ids) alone, so call
/// sites may consult it from any thread in any order and still see the
/// same schedule run-to-run.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] bool enabled() const { return plan_.enabled(); }

  // -- worker-side --
  /// Should worker `worker_ordinal` kill itself upon receiving its
  /// `dispatch_k`-th job (0-based)? Covers worker_crash and the targeted
  /// kill_worker / kill_all knobs (which fire at dispatch 0).
  [[nodiscard]] bool crash_worker(std::uint32_t worker_ordinal,
                                  std::uint64_t dispatch_k) const;
  /// Should the worker hang (stop reading/writing) on this job?
  [[nodiscard]] bool hang_worker(std::uint32_t worker_ordinal,
                                 std::uint64_t dispatch_k) const;
  /// Should the worker holding job `job_id` kill itself? Independent of
  /// the worker, so the same job keeps killing until quarantined.
  [[nodiscard]] bool crash_on_job(std::uint64_t job_id) const;

  enum class FrameFault : std::uint8_t { none, corrupt, truncate };
  /// Fault to apply to the `frame_ordinal`-th result frame this worker
  /// writes (corrupt wins over truncate when both trigger).
  [[nodiscard]] FrameFault frame_fault(std::uint32_t worker_ordinal,
                                       std::uint64_t frame_ordinal) const;

  // -- solver-side --
  enum class SolverFault : std::uint8_t { none, forced_unknown, forced_timeout };
  /// Fault for the `solve_ordinal`-th check of a session. `attempt` is 0
  /// for the initial solve and grows with escalation retries:
  /// forced_unknown applies only at attempt 0 (transient), forced_timeout
  /// at every attempt (persistent).
  [[nodiscard]] SolverFault solver_fault(std::uint64_t solve_ordinal,
                                         std::uint32_t attempt) const;

  // -- cache-side --
  /// Tear the `flush_ordinal`-th flush mid-record?
  [[nodiscard]] bool tear_cache_flush(std::uint64_t flush_ordinal) const;
  /// Flip a bit in the `record_ordinal`-th record written?
  [[nodiscard]] bool flip_cache_record(std::uint64_t record_ordinal) const;

 private:
  [[nodiscard]] bool decide(double p, std::uint64_t site, std::uint64_t a,
                            std::uint64_t b) const;

  FaultPlan plan_;
};

/// Deterministic capped exponential backoff before respawning the worker
/// in `slot` for the `attempt`-th time (0-based): min(cap, base << attempt)
/// plus a seeded jitter in [0, base) so simultaneous crashers do not
/// thundering-herd. Pure — exposed so tests can pin the schedule.
[[nodiscard]] std::chrono::milliseconds respawn_backoff(
    std::uint64_t seed, std::size_t slot, std::size_t attempt,
    std::chrono::milliseconds base, std::chrono::milliseconds cap);

/// How a batch degraded, if it did. Aggregated by the Engine and carried
/// on BatchResult; `vmn verify` prints it and exit code 2 signals
/// "incomplete" whenever `degraded()` is true or any verdict is unknown.
struct DegradationReport {
  /// Planned jobs answered definitively (solver or cache).
  std::size_t completed = 0;
  /// Jobs given up after bounded retries / every worker dying.
  std::size_t abandoned_retries = 0;
  /// Jobs quarantined by crash-loop attribution (killed >= 2 workers).
  std::size_t quarantined = 0;
  /// Jobs never attempted because the --deadline expired.
  std::size_t deadline_abandoned = 0;
  /// Unknown verdicts retried with escalated timeout + perturbed seed.
  std::size_t escalations = 0;
  /// Escalated retries that came back definitive.
  std::size_t escalations_rescued = 0;
  /// Workers respawned after a crash or hang.
  std::size_t workers_respawned = 0;
  /// Cache records dropped: corrupt/torn lines refused on load (rest of
  /// file served) plus stale records retired at flush (minted by an
  /// edited-away model, untouched by this run's lookups).
  std::size_t cache_records_dropped = 0;
  /// The batch deadline expired before the queue drained.
  bool deadline_expired = false;
  /// Human-readable reasons, one per degradation event.
  std::vector<std::string> reasons;

  /// Jobs abandoned to an unknown verdict, whatever the cause.
  [[nodiscard]] std::size_t abandoned() const {
    return abandoned_retries + quarantined + deadline_abandoned;
  }
  /// Any verdict widened to unknown for infrastructure (not solver
  /// hardness) reasons, or the deadline expired.
  [[nodiscard]] bool degraded() const {
    return deadline_expired || abandoned() > 0;
  }
  /// One-line summary for CLI output and logs.
  [[nodiscard]] std::string summary() const;
};

}  // namespace vmn::verify
