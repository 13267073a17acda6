// A pool of solver-owning workers.
//
// Z3 contexts are not thread-safe, so parallel verification gives every
// worker its own SolverSession: the session owns the backend solver plus the
// per-session options, and is only ever touched from the worker thread that
// owns it. Because every Encoding carries its own logic::Vocab (sorts and
// declarations are interned per encoding, never shared), a session is
// (re)bound to the vocabulary of each problem it executes.
//
// Warm binding: rebuilding the encoding and a cold Z3 context per job is
// the dominant fixed cost of small checks, and consecutive jobs often share
// a slice shape (the planner sorts the queue to make them adjacent). A
// session therefore keeps its last base encoding AND the live solver bound
// to it; warm_bind() hands both back untouched when the next job's (model,
// members, failure budget) triple matches, and the caller brackets the
// per-invariant negation in push()/pop() so the base axioms - and Z3's
// learned state - survive from job to job.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/ids.hpp"
#include "dataplane/transfer.hpp"
#include "encode/encoder.hpp"
#include "logic/builder.hpp"
#include "smt/solver.hpp"
#include "verify/faults.hpp"

namespace vmn::verify {

/// Session-level robustness policy: which faults to inject into solver
/// checks (FaultInjector; default injects nothing) and whether to escalate
/// unknown verdicts - retry once on a fresh context with the timeout
/// doubled and the solver seed perturbed - before accepting unknown.
/// The Engine derives this from VerifyOptions; a default-constructed value is
/// the historical behavior.
struct SessionResilience {
  FaultInjector faults;
  bool escalate_unknown = false;
};

/// A single worker's solver state. Never shared between threads.
class SolverSession {
 public:
  /// `warm` == false disables context reuse: every warm_bind() builds a
  /// fresh encoding and solver (the cold baseline the warm path is tested
  /// and benchmarked against). `transfers`, when non-null, is a borrowed
  /// per-scenario transfer memo every encoding built by this session draws
  /// from (the Engine's inline executor lends its PlanContext cache, so
  /// encoding re-walks nothing the planner walked). TransferFunction memos
  /// are not thread-safe: a borrowed cache must only ever be touched from
  /// the thread running this session, so pool workers leave it null and
  /// the session builds a private per-model cache instead.
  explicit SolverSession(smt::SolverOptions options, bool warm = true,
                         dataplane::TransferCache* transfers = nullptr)
      : options_(options), warm_(warm), borrowed_transfers_(transfers) {}

  /// What warm_bind hands out: the session-owned base encoding (base axioms
  /// already asserted on `solver` at scope level 0) and whether it was
  /// reused from the previous job.
  struct WarmBound {
    encode::Encoding& encoding;
    smt::Solver& solver;
    bool reused = false;
  };

  /// Returns a solver pre-loaded with the base axioms of (model, members,
  /// failure budget): reuses the live context when the triple matches the
  /// previous warm_bind (and warm reuse is enabled), otherwise encodes and
  /// asserts from scratch. Callers must leave the solver at scope level 0
  /// (every push popped) before the next warm_bind.
  WarmBound warm_bind(const encode::NetworkModel& model,
                      std::vector<NodeId> members, int max_failures);

  /// A fresh context over the *current* warm shape with escalated options
  /// (timeout doubled, perturbed seed), for retrying an unknown verdict.
  /// Kept separate from the warm context so escalation never leaks its
  /// options into later jobs; freed by reset_warm. Must follow a warm_bind
  /// (asserts on the warm shape being set).
  WarmBound escalate_bind();

  /// Drops the warm encoding + solver. The thread executor calls this at
  /// every task boundary so warm reuse is confined to within one task:
  /// which tasks land on which worker is a scheduling
  /// race, and cross-task reuse would make solver state - and with it
  /// witness traces - depend on that race instead of only on the plan.
  ///
  /// The session-owned transfer memo is dropped too by default: it is
  /// keyed by the network's address, and a session that outlives one model
  /// and binds another allocated at the same address (the wire worker
  /// re-emplacing its parsed Spec per shape group) would otherwise serve
  /// the dead network's memoized walks. Callers that keep binding the same
  /// model object (the thread backend: one batch, one model, many tasks)
  /// pass keep_transfers=true - transfer functions are deterministic
  /// routing data, so keeping them across tasks cannot make results
  /// scheduling-dependent the way solver state would.
  void reset_warm(bool keep_transfers = false);

  [[nodiscard]] const smt::SolverOptions& options() const { return options_; }

  /// Robustness policy (fault injection + unknown escalation). Set once
  /// before the session solves; decisions are pure functions of the plan,
  /// so this never makes results depend on scheduling.
  void set_resilience(SessionResilience resilience) {
    resilience_ = std::move(resilience);
  }
  [[nodiscard]] const SessionResilience& resilience() const {
    return resilience_;
  }

 private:
  smt::SolverOptions options_;
  bool warm_ = true;
  dataplane::TransferCache* borrowed_transfers_ = nullptr;
  /// Session-owned fallback memo, rebuilt when the model changes.
  std::unique_ptr<dataplane::TransferCache> owned_transfers_;
  std::unique_ptr<smt::Solver> solver_;
  SessionResilience resilience_;
  /// Escalation context (escalate_bind): separate from the warm pair so
  /// the escalated options die with the retry.
  std::unique_ptr<encode::Encoding> esc_encoding_;
  std::unique_ptr<smt::Solver> esc_solver_;

  /// Warm state: the base encoding the solver is bound to plus the shape
  /// key (model identity, normalized members, failure budget) that must
  /// match for reuse.
  std::unique_ptr<encode::Encoding> encoding_;
  const encode::NetworkModel* warm_model_ = nullptr;
  std::vector<NodeId> warm_members_;
  int warm_failures_ = -1;
};

/// Per-worker execution counters, reported in batch results. A "task" is
/// one unit handed to SolverPool::run - the thread executor passes groups
/// of same-shape jobs as single tasks so warm reuse happens within one
/// session.
struct WorkerStats {
  std::size_t jobs = 0;
  std::chrono::microseconds busy{0};
};

/// Fixed-size worker pool. Jobs are pulled from a shared atomic cursor, so
/// scheduling is work-stealing-free but naturally load balanced; results
/// must be written to per-job slots by the callback, which makes aggregation
/// independent of the (nondeterministic) job-to-worker assignment.
class SolverPool {
 public:
  /// `workers` == 0 picks std::thread::hardware_concurrency(). `warm`
  /// configures every session's context reuse (see SolverSession).
  explicit SolverPool(std::size_t workers, smt::SolverOptions options,
                      bool warm = true);

  [[nodiscard]] std::size_t size() const { return sessions_.size(); }
  [[nodiscard]] const std::vector<WorkerStats>& stats() const {
    return stats_;
  }
  /// Applies one robustness policy to every session (before run()).
  void set_resilience(const SessionResilience& resilience) {
    for (auto& s : sessions_) s->set_resilience(resilience);
  }

  /// Executes `fn(task_index, session)` for every index in [0, count).
  /// Each invocation runs on exactly one worker thread with that worker's
  /// session; blocks until all tasks finish. The first exception thrown by
  /// a task is rethrown here after the pool drains. With a single worker
  /// the tasks run in index order on the calling thread (no thread is
  /// spawned), so `--jobs 1` solves in plan order like the inline executor.
  void run(std::size_t count,
           const std::function<void(std::size_t, SolverSession&)>& fn);

 private:
  std::vector<std::unique_ptr<SolverSession>> sessions_;
  std::vector<WorkerStats> stats_;
};

}  // namespace vmn::verify
