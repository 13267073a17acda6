// The VMN verification procedure (paper, section 3.1), piece by piece.
//
// A check computes the slice (unless disabled), encodes network +
// middleboxes + oracles + negated invariant, hands the axioms to Z3,
// interprets the result and - on violation - extracts a counterexample
// trace from the model. This header holds the pieces every run is built
// from: the batch planner (plan_jobs: slices, problem-key classes, iso
// rebinding, shape ordering), the single-check core (verify_members), the
// per-binding fan-out (bind_result, result_from_cache) and the result
// types. verify::Engine (verify/engine.hpp) strings them
// together into the one batch pipeline.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace.hpp"
#include "encode/encoder.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "slice/policy.hpp"
#include "slice/slice.hpp"
#include "slice/symmetry.hpp"
#include "smt/solver.hpp"
#include "verify/job.hpp"
#include "verify/result_cache.hpp"
#include "verify/solver_pool.hpp"

namespace vmn::verify {

enum class Outcome : std::uint8_t {
  holds,     ///< invariant proven for all schedules and oracle behaviors
  violated,  ///< counterexample schedule found
  unknown,   ///< solver timeout / incompleteness
};

[[nodiscard]] std::string to_string(Outcome outcome);

struct VerifyOptions {
  /// Verify on a computed slice instead of the whole network.
  bool use_slices = true;
  /// Failure budget: how many nodes may fail simultaneously.
  int max_failures = 0;
  /// Keep each solver session's base encoding and Z3 context alive across
  /// consecutive jobs sharing a slice shape (base axioms asserted once,
  /// per-invariant negation pushed/popped), and rebind class
  /// representatives onto the encoding of an earlier member set with the
  /// same base key (slice::canonical_base_key). Verdict-identical to cold
  /// solving; off is the benchmark/debug baseline. Class merging is
  /// merge_isomorphic's.
  bool warm_solving = true;
  /// Under symmetry planning, collapse invariants whose problem keys are
  /// equal (slice::canonical_problem_key) into ONE solver call fanned out
  /// to per-binding verdicts, witnesses relabeled per binding through the
  /// keys' rank correspondence. Verdict-identical to solving each
  /// invariant separately (the `iso-verdict` fuzz oracle pins this); off,
  /// together with warm_solving off, is the full no-reuse cold baseline.
  bool merge_isomorphic = true;
  /// Directory of the persistent cross-batch result cache (see
  /// verify/result_cache.hpp); empty disables caching. Cache hits restore
  /// outcome and statistics but never a counterexample trace.
  std::string cache_dir;
  smt::SolverOptions solver;
  /// Seeded deterministic fault injection (verify/faults.hpp); a default
  /// plan injects nothing. Worker/frame faults only bite on the process
  /// backend; solver and cache faults bite everywhere.
  FaultPlan faults;
  /// Retry unknown verdicts once on a fresh context with the timeout
  /// doubled and the solver seed perturbed, before accepting unknown.
  /// Widening-only: a definitive escalated answer replaces unknown, never
  /// the other way around.
  bool escalate_unknown = true;
};

/// What one solve - one verify_members call - did to its session: whether
/// its warm_bind was answered by the live context or built a new one,
/// whether an unknown verdict was escalated and the escalated retry
/// answered it, and how many per-scenario transfer functions its encodings
/// built vs drew from a memo. Every unit of solver traffic belongs to
/// exactly one solve, so Engine::run_batch counts these once per solved
/// class into BatchResult; nothing else sums them.
struct SolveFacts {
  bool warm_reused = false;
  bool escalated = false;
  bool escalation_rescued = false;
  std::size_t transfer_builds = 0;
  std::size_t transfer_reuses = 0;
};

struct VerifyResult {
  Outcome outcome = Outcome::unknown;
  smt::CheckStatus raw_status = smt::CheckStatus::unknown;
  /// Time inside the solver's check() calls (escalated retry included).
  std::chrono::microseconds solve_time{0};
  std::size_t slice_size = 0;       ///< encoded edge nodes
  std::size_t assertion_count = 0;  ///< axioms handed to the solver
  std::optional<Trace> counterexample;
  /// Set on every binding past its solver class's representative: the
  /// verdict (and relabeled witness) replays the representative's solve or
  /// cache record.
  bool by_symmetry = false;
  /// Set when the outcome was restored from the persistent result cache;
  /// such results carry no counterexample.
  bool from_cache = false;
  /// The solve that answered this verdict (shared by every binding of its
  /// class); all-default for cache hits and abandoned classes.
  SolveFacts solve;
};

/// Per-job solve times, one raw sample per solver call (bounded by the
/// batch's job count), so the tail is reportable exactly: the metrics
/// schema surfaces p50/p95/max, not just the mean.
struct TimingHistogram {
  /// Every recorded sample, in record order.
  std::vector<std::chrono::microseconds> raw;

  void record(std::chrono::microseconds us) { raw.push_back(us); }
  /// Nearest-rank percentile (p in [0, 100]) of the raw samples; 0us when
  /// empty. percentile(100) is the max.
  [[nodiscard]] std::chrono::microseconds percentile(double p) const;
};

/// One named counter or timer of a batch (see BatchResult::metrics()).
/// `name` views a string literal, so a Metric may outlive its batch.
struct Metric {
  std::string_view name;
  std::uint64_t value = 0;
};

/// Renders `metrics` as one flat JSON object in list order, e.g.
/// {"a":1,"b":2}.
[[nodiscard]] std::string metrics_json(const std::vector<Metric>& metrics);

/// One process-executor worker slot's counters: jobs it answered and the
/// dispatcher's wall time waiting on them.
struct WorkerStats {
  std::size_t jobs = 0;
  std::chrono::microseconds busy{0};
};

/// Plan- and pool-level diagnostics nested inside BatchResult: how the
/// batch deduplicated and fanned out. Every executor fills the plan half
/// (classes); the worker half is empty under the inline executor (no
/// pool).
struct PoolStats {
  /// Planned solver classes (JobPlan::planned_jobs): cache hits answer
  /// some without scheduling them, and abandonment leaves others unsolved
  /// - see BatchResult::solver_calls for actual solves.
  std::size_t jobs_executed = 0;
  /// Crash accounting: worker processes spawned/lost and jobs
  /// re-dispatched after a crash or hang. Abandoned jobs are counted by
  /// cause in BatchResult::degradation.
  std::size_t workers_spawned = 0;
  std::size_t workers_crashed = 0;
  std::size_t jobs_requeued = 0;
  TimingHistogram solve_histogram;
  std::vector<WorkerStats> workers;
  /// Equivalence-class fan-out: one entry per solver class, its value the
  /// number of invariants the class's single solve answers (1 =
  /// unmerged). Sum == BatchResult::results.size().
  std::vector<std::size_t> iso_class_sizes;
};

/// The one batch-verification result Engine::run_batch returns, whichever
/// executor ran it: per-invariant verdicts plus the counters metrics()
/// renders, with plan/pool diagnostics nested in `pool` and failure
/// accounting in `degradation`.
struct BatchResult {
  std::vector<VerifyResult> results;  ///< aligned with the invariant list
  /// Actual solver invocations: solver classes minus cache hits, static
  /// decisions (and abandoned classes).
  std::size_t solver_calls = 0;
  /// Solver classes without a middlebox that decide_statically answered
  /// from the planner's transfer memo, before any executor ran: no Z3
  /// context, no worker. They count in no solver counter (solver_calls,
  /// warm_binds, the solve histogram), though their fan-out still counts
  /// in iso_verdict_reuses.
  std::size_t static_decisions = 0;
  /// Wall time of the whole run_batch call.
  std::chrono::microseconds total_time{0};
  /// This process's CPU time over the run_batch call, split into user and
  /// kernel time (getrusage(RUSAGE_SELF) deltas). Every thread of the
  /// process counts; the process executor's worker processes do not.
  std::chrono::microseconds cpu_user_time{0};
  std::chrono::microseconds cpu_sys_time{0};
  /// Serial planning wall time (slices + canonical keys + classes), the
  /// Amdahl term ahead of the fan-out.
  std::chrono::microseconds plan_time{0};
  /// Solver classes answered by the persistent result cache / stored into
  /// it after a solve (one lookup per class - its bindings share the
  /// problem key - so hits + misses == jobs_executed when caching is on,
  /// 0 + 0 when off). Keys are shape-canonical problem digests
  /// (slice::canonical_problem_key): a renamed-but-isomorphic spec hits
  /// cold, cross-run.
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  /// Warm-solving effectiveness: base encodings built cold vs jobs
  /// answered on a reused live context.
  std::size_t warm_binds = 0;
  std::size_t warm_reuses = 0;
  /// Class representatives the planner rebound onto an isomorphic
  /// representative's base encoding (Job::iso_image) and, of those, the
  /// ones a live context answered warm - the cross-isomorphic reuse the
  /// problem-key classes cannot reach because the verdicts differ.
  std::size_t iso_mapped = 0;
  std::size_t iso_reuses = 0;
  /// Verdicts answered by replaying another binding's solve through the
  /// problem keys' rank correspondence (equivalence-class merging): for
  /// every solver call with fan-out N, N-1 of the N verdicts count here
  /// (the by_symmetry results). The datacenter batch's "8 invariants, 1
  /// solver call" shows up as iso_verdict_reuses == 7.
  std::size_t iso_verdict_reuses = 0;
  /// Transfer functions built by encoders vs served from a warm memo
  /// during encoding (see SolveFacts::transfer_builds): with the
  /// borrowed/per-session caches in place, no scenario's fabric walks ever
  /// run twice for the same session - the inline executor, lending the
  /// planner's own memo, encodes with zero builds at all.
  std::size_t encode_transfer_builds = 0;
  std::size_t encode_transfer_reuses = 0;
  /// How (and whether) the batch degraded: respawns, quarantines,
  /// escalation traffic (escalations / escalations_rescued), dropped
  /// cache records, deadline expiry, and one human-readable reason per
  /// event. `degradation.degraded()` drives the CLI's "incomplete" exit
  /// code.
  DegradationReport degradation;
  /// Plan and fan-out diagnostics (see PoolStats).
  PoolStats pool;

  /// Fraction of the batch answered without a solver class of its own:
  /// (invariants - solver classes) / invariants.
  [[nodiscard]] double dedup_hit_rate() const {
    if (results.empty()) return 0.0;
    return static_cast<double>(results.size() - pool.jobs_executed) /
           static_cast<double>(results.size());
  }

  /// Every counter and timer of the batch, in print order: the one metrics
  /// schema. The CLI summary, the serve STATS `batch` object and the bench
  /// JSON records all render this list, so they cannot drift apart, and
  /// this is the only place a metric is named. Durations are microseconds
  /// and their names end in `_us`; the fields above are the plain data
  /// behind it.
  [[nodiscard]] std::vector<Metric> metrics() const;
};

/// Reads a counterexample schedule out of a satisfying model.
[[nodiscard]] Trace extract_trace(const encode::Encoding& encoding,
                                  const smt::SmtModel& model);

/// The session-level robustness policy `options` asks for (fault injector
/// + escalation switch), applied to every SolverSession an executor - or a
/// wire worker - solves with.
[[nodiscard]] SessionResilience session_resilience(
    const VerifyOptions& options);

/// The result a persistent-cache hit restores: the cached raw status mapped
/// back through the invariant's sat_means_holds() polarity, cached slice /
/// assertion statistics, from_cache set, no counterexample, so cached and
/// solved runs disagree in nothing but the trace.
[[nodiscard]] VerifyResult result_from_cache(const ResultCache::Entry& entry,
                                             const encode::Invariant& invariant);

/// The policy classes a verification run plans with: configuration
/// fingerprints refined by per-scenario reachability signatures, budgeted
/// by options.max_failures. The Engine builds its classes through
/// this one function, on its own PlanContext, so the refinement's
/// dataplane walks land in the same per-scenario memo every later plan
/// pass draws from (planning re-walks nothing the refinement already
/// walked).
[[nodiscard]] slice::PolicyClasses build_policy_classes(
    const encode::NetworkModel& model, const VerifyOptions& options,
    PlanContext& ctx);

/// Pinned fingerprint (FNV-1a 64 over the serialized full-network spec) of
/// everything the model contributes to verification problems: topology,
/// configurations, routes and failure scenarios - invariants excluded, so
/// merely adding checks never invalidates. The Engine stamps it into
/// every persistent ResultCache record (v5): records minted from a
/// different model would otherwise linger as dead weight after a spec
/// edit (canonical keys self-invalidate lookups, but never the file), so
/// a stale-stamped record no lookup touches is retired at the next flush
/// - record by record, leaving the rest of the file live.
[[nodiscard]] std::uint64_t model_fingerprint(const encode::NetworkModel& model);

/// Human-readable rendering of a problem key's canonical member order
/// ("a,b,c"): the concrete binding stored alongside every v6 cache record
/// so a record names the nodes that minted it (diagnostics only - lookups
/// compare keys, never bindings).
[[nodiscard]] std::string binding_signature(const encode::NetworkModel& model,
                                            const std::vector<NodeId>& order);

/// The edge nodes `invariant` is encoded over: the computed slice, or the
/// whole network when slicing is off. Shared by the planner and
/// Engine::run_one. `transfers`, when non-null, is the plan-wide
/// per-scenario transfer memo (see PlanContext).
[[nodiscard]] std::vector<NodeId> slice_members(
    const encode::NetworkModel& model, const encode::Invariant& invariant,
    const slice::PolicyClasses& classes, bool use_slices, int max_failures,
    dataplane::TransferCache* transfers = nullptr);

/// The shared batch planner: one slice, shape key and problem key per
/// invariant; when `use_symmetry` and merge_isomorphic are set, invariants
/// with equal problem keys (slice::canonical_problem_key - exact by
/// construction) become one job whose extra bindings carry rank-aligned
/// images, and with warm solving each class representative whose base key
/// (slice::canonical_base_key) an earlier member set already rendered is
/// rebound onto that set's encoding through the rank correspondence. One
/// PlanContext memoizes per-scenario transfer functions across every slice
/// and canonical key of the pass, and the finished queue is stably
/// reordered so jobs sharing a slice shape are adjacent (fueling warm
/// solver reuse). Engine::run_batch executes this plan on whichever
/// executor it is configured with, so every executor solves the same
/// representatives.
/// `ctx`, when non-null, is the caller's long-lived planning context (the
/// Engine passes its own, already warm from class inference); null plans
/// on a private one. JobPlan::transfer_builds/reuses report the
/// context's cumulative counters.
[[nodiscard]] JobPlan plan_jobs(const encode::NetworkModel& model,
                                const std::vector<encode::Invariant>& invariants,
                                const slice::PolicyClasses& classes,
                                bool use_symmetry, const VerifyOptions& options,
                                PlanContext* ctx = nullptr);

/// Why encode reuse was refused within `plan`, computed on demand (`vmn
/// verify --dedup-report`, the fig8 bench): for each distinct member set in
/// planning order, one refusal against every different base key that
/// appeared earlier under its shape key, named by slice::shape_bijection.
/// Meaningful for plans made with warm solving, the only ones that rebind.
[[nodiscard]] std::vector<MergeBlocker> merge_blockers(
    const encode::NetworkModel& model, const JobPlan& plan, int max_failures);

/// A planner-certified isomorphism binding one invariant-job onto a
/// representative member set's base encoding (see Job::iso_image and
/// slice::canonical_base_key). `members` is the job's own sorted slice;
/// `image[i]` is the representative node playing members[i]'s part. The
/// bijection carries the soundness argument: the base encodings are
/// isomorphic under it (node-for-node, address-for-address,
/// scenario-permuted), so the planner maps the invariant into the
/// representative's namespace (Job::solve_invariant), the executors solve
/// the mapped problem once, and bind_result relabels any counterexample
/// back - nodes through the inverse bijection, packet addresses through
/// the induced inverse address map - before each binding's result
/// surfaces. The relabeled witness therefore names the actual slice's
/// hosts, exactly as a cold solve of the original problem would.
struct IsoBinding {
  std::vector<NodeId> members;
  std::vector<NodeId> image;
};

/// The shared single-check core: warm-binds `session` to the base problem
/// (model, members, failure budget) - reusing the live encoding + solver
/// when the previous call had the same shape - then push()es the negated
/// invariant, checks, extracts any counterexample and pop()s back to the
/// base. Both executors - inline and the process executor's wire worker -
/// funnel through this function, which is what guarantees they agree
/// check-for-check. `invariant` and `members` are the encode-space problem
/// verbatim (for iso-rebound jobs the planner already mapped both); the
/// returned result - witness included - stays in encode space, and callers
/// fan it out through bind_result per verdict binding. The result's SolveFacts
/// record this call's session traffic (one warm_bind, at most one
/// escalate_bind); the session itself counts nothing.
[[nodiscard]] VerifyResult verify_members(const encode::NetworkModel& model,
                                          const encode::Invariant& invariant,
                                          std::vector<NodeId> members,
                                          int max_failures,
                                          SolverSession& session);

/// The verdict verify_members would reach on a member set without
/// middleboxes, read off the static dataplane instead of Z3. Such a set has
/// no mutable state: what encode::Encoding asserts for it reduces to "some
/// member host h sends, to Omega, a packet with src = origin = addr(h) and
/// a destination a != addr(h) in encode::relevant_addresses(model,
/// members), and the in-budget scenario's transfer function delivers (h, a)
/// to the target". Every invariant kind is satisfiable exactly when such a
/// delivery exists, with addr(h) == addr(other) where the kind names a
/// sender or origin (traversal's `visited` set is empty, malice and ports
/// are unconstrained, and the target need not initiate a flow). sat/unsat
/// maps through sat_means_holds() as a solve does; a sat answer carries a
/// four-event witness (h -> Omega -> target) plus `fail` events for the
/// members its scenario fails. Walks exactly the (scenario, member,
/// relevant address) cells the encoder's Omega axiom walks, through
/// `transfers` (the planner's memo). Returns nullopt - leaving the job to
/// Z3 - when a member is not a host, the target is not a member, the
/// invariant lacks a peer it names, or a walked cell loops (the encoder
/// raises on that cell, and the solve path keeps reporting it). The result
/// is in encode space, like verify_members', with no solve time, no
/// assertions and all-default SolveFacts.
[[nodiscard]] std::optional<VerifyResult> decide_statically(
    const encode::NetworkModel& model, const encode::Invariant& invariant,
    const std::vector<NodeId>& members, int max_failures,
    dataplane::TransferCache& transfers);

/// The result one verdict binding surfaces from its class's single
/// encode-space solve: verdict, status and statistics verbatim, the
/// witness relabeled from encode space into the binding's own namespace
/// through the inverse bijection (members[i] <- iso_image[i]); an empty
/// iso_image is the identity binding and passes the witness through
/// untouched. Equisatisfiability is the planner's contract (equal problem
/// keys, composed with a rebinding between equal base keys), which is why
/// the verdict itself never changes hands here.
[[nodiscard]] VerifyResult bind_result(const encode::NetworkModel& model,
                                       const VerifyResult& solved,
                                       const std::vector<NodeId>& members,
                                       const std::vector<NodeId>& iso_image);

}  // namespace vmn::verify
