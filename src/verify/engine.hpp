// The one verification entry point.
//
// Engine runs every batch through one pipeline, written once:
//
//   plan_jobs ------> shape-ordered queue of problem-key solver classes
//   cache pass -----> classes the persistent ResultCache already answers
//   static pass ----> box-free classes decided from the planner's transfer
//                     memo (decide_statically): no Z3, no worker
//   execute --------> shape groups of the remaining jobs -> encode-space
//                     VerifyResults (or abandoned jobs), each carrying its
//                     solve's SolveFacts
//   bind -----------> per-binding verdicts (bind_result), cache stores,
//                     solver-traffic counters (once per solve)
//   flush ----------> durable cache records, degradation accounting
//
// Only the execute step differs between configurations, and
// EngineOptions::batch chooses it. Neither executor counts solver traffic:
// it hands back results, and the bind step reads the counters off them.
//  - inline (batch = false): one warm SolverSession on the calling thread,
//    kept across run_batch calls until rebind();
//  - process (batch = true): a ProcessPool of workers forked from this
//    process, speaking the wire protocol (verify/wire.hpp) - crash-
//    tolerant, each shape group solved back to back on one worker's
//    session, and the batch deadline handed over.
// Both solve this Engine's own model with verify_members, on a session that
// borrows the Engine's PlanContext transfer memo (a forked worker inherits
// both copy-on-write), so encoding walks nothing planning walked and no
// executor builds a transfer function.
// Shape groups are the planner's shape-adjacent runs; the process executor
// splits the largest runs until there are as many groups as workers, so
// warm reuse never costs fan-out. Groups are formed over every cache miss
// before the static pass's jobs leave them, so group composition is a pure
// function of (plan, worker count), and verdicts agree across both
// executors and every worker count (which counterexample witnesses a
// violation may differ: a warm context carries learned state from earlier
// jobs of its group).
//
// An Engine owns the warm state worth keeping between calls: the
// persistent ResultCache (opened once, or memory-only, and kept across
// rebind()s, where its record-granular invalidation retires exactly the
// records a spec edit orphaned), one PlanContext with the policy classes
// inferred through it (transfer memos, shape representatives), and the
// inline executor's session. rebind() swaps in an edited model while
// keeping the cache, which is what makes the serve daemon's incremental
// re-verification cheap: unchanged slices' canonical keys still hit.
//
// Thread contract: an Engine is single-caller - run one call at a time;
// fan-out happens inside.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "verify/process_pool.hpp"
#include "verify/result_cache.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {

/// Kept only because the benchmark harness (bench/e2e) sets
/// EngineOptions::backend; nothing in src/ or tools/ reads it, and ROADMAP
/// item 8 deletes it. A pooled batch always runs the process executor.
enum class Backend : std::uint8_t { process };

/// How an Engine runs its batches. An aggregate:
///   EngineOptions{.batch = true, .jobs = 2, .verify = vo}
struct EngineOptions {
  /// Fan the batch out over forked worker processes (the process
  /// executor); false = the inline executor's single warm session.
  bool batch = false;
  /// Worker count; 0 picks hardware concurrency. Process executor only.
  std::size_t jobs = 0;
  /// Unread (see Backend).
  Backend backend = Backend::process;
  /// Process-executor knob: the hang timeout. Worker count, deadline,
  /// solver and fault/escalation policy come from `jobs`, `deadline` and
  /// `verify`, like the inline executor's.
  ProcessPoolOptions process{};
  /// Batch budget measured from run_batch entry; 0 = none. On expiry no
  /// further job starts: jobs never attempted surface as unknown verdicts
  /// with the abandonment counted in `degradation`, in-flight jobs finish,
  /// and `vmn verify` exits 2 (incomplete). Every executor honors it,
  /// with planning and the cache pass counted against it.
  std::chrono::milliseconds deadline{0};
  /// Compute every invariant's problem key and fold invariants with equal
  /// keys into one solver class (section 4.2's symmetry argument, made
  /// exact; see VerifyOptions::merge_isomorphic). Off is the exhaustive
  /// one-solve-per-invariant baseline, which the cache cannot serve.
  bool use_symmetry = true;
  /// Keep a live in-memory result cache even without verify.cache_dir:
  /// lookups hit across run_batch calls (and rebinds) within this Engine,
  /// nothing touches disk. The serve daemon's default.
  bool memory_cache = false;
  /// Options of the verification procedure itself (slices, failure budget,
  /// solver seed/timeout, cache_dir, faults, escalation).
  VerifyOptions verify{};
};

class Engine {
 public:
  explicit Engine(const encode::NetworkModel& model, EngineOptions options = {});

  /// Verifies the batch under options().use_symmetry.
  [[nodiscard]] BatchResult run_batch(
      const std::vector<encode::Invariant>& invariants);

  /// Verifies a single invariant on a fresh session over the Engine's
  /// planning context (no batch, no cache, whatever the executor).
  [[nodiscard]] VerifyResult run_one(const encode::Invariant& invariant);

  /// Plans the solver-class queue without solving (exposed for tests
  /// and diagnostics; run_batch executes exactly this plan).
  [[nodiscard]] JobPlan plan(const std::vector<encode::Invariant>& invariants);

  /// Swaps in an edited model. Policy classes, the plan context and the
  /// inline session are rebuilt lazily for the new model; the result cache
  /// survives with its stamping generation switched to the new model's
  /// fingerprint, so unchanged slices' canonical keys still hit and the
  /// edit's orphaned records are retired at the next flush.
  void rebind(const encode::NetworkModel& model);
  /// rebind(model) with the model's cache stamp already computed:
  /// `fingerprint` must equal model_fingerprint(model). The serve daemon
  /// takes it from the rendering it compares (io::SpecRendering), so a
  /// reload renders the spec once.
  void rebind(const encode::NetworkModel& model, std::uint64_t fingerprint);

  [[nodiscard]] ResultCache& cache() { return cache_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }
  [[nodiscard]] const encode::NetworkModel& model() const { return *model_; }

 private:
  /// The planning state of one model: a PlanContext and the policy classes
  /// inferred through it (so class inference warms the transfer memo every
  /// plan pass and the inline session draw from).
  struct Planning {
    Planning(const encode::NetworkModel& model, const VerifyOptions& options);
    PlanContext ctx;
    slice::PolicyClasses classes;
  };
  using Deadline = std::optional<std::chrono::steady_clock::time_point>;

  [[nodiscard]] Planning& planning();
  /// The executor step: solves plan.jobs[j] for every cache miss j in
  /// `misses` that `decided` (the static pass, one slot per plan job)
  /// left empty, grouped by shape, on the configured executor. Returns one
  /// slot per plan job, empty for jobs not solved (cache-answered,
  /// decided or abandoned); worker and abandonment accounting go into
  /// `out`.
  [[nodiscard]] std::vector<std::optional<VerifyResult>> execute(
      const JobPlan& plan, const std::vector<std::size_t>& misses,
      const std::vector<std::optional<VerifyResult>>& decided,
      Deadline deadline, BatchResult& out);

  const encode::NetworkModel* model_;
  EngineOptions options_;
  ResultCache cache_;
  std::unique_ptr<Planning> planning_;
  /// The inline executor's session; borrows planning_->ctx.transfers, so it
  /// is declared (and destroyed) after it.
  std::unique_ptr<SolverSession> session_;
};

/// One-shot convenience: verify `invariants` against `model` under
/// `options`. Constructs a throwaway Engine; callers wanting warm state or
/// cache reuse across calls hold an Engine instead.
[[nodiscard]] BatchResult run_batch(
    const encode::NetworkModel& model,
    const std::vector<encode::Invariant>& invariants,
    const EngineOptions& options = {});

}  // namespace vmn::verify
