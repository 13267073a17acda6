// A solver session: the Z3 state one solving thread keeps between jobs.
//
// Two callers run one: the Engine's inline executor (on the calling
// thread) and the wire worker behind the process executor (one per forked
// worker process, verify/wire.hpp). Z3 contexts are not thread-safe, so a
// session is only ever touched from the thread that owns it. Because every
// Encoding carries its own logic::Vocab (sorts and declarations are
// interned per encoding, never shared), a session is (re)bound to the
// vocabulary of each problem it executes.
//
// Warm binding: rebuilding the encoding and a cold Z3 context per job is
// the dominant fixed cost of small checks, and consecutive jobs often share
// a slice shape (the planner sorts the queue to make them adjacent). A
// session therefore keeps its last base encoding AND the live solver bound
// to it; warm_bind() hands both back untouched when the next job's (model,
// members, failure budget) triple matches, and the caller brackets the
// per-invariant negation in push()/pop() so the base axioms - and Z3's
// learned state - survive from job to job.
//
// At most one warm context per session: a Z3 context touches 16.8 MB of
// tables when it is built, so a session frees its old warm state (solver,
// then encoding, then shape key) before it builds the next, and the new
// tables land in the pages the old ones freed. The only second context a
// session ever holds is an escalation retry's, from escalate_bind() to the
// next bind or reset. A worker process exits without freeing its last
// context (wire::worker_process), so no dispatcher waits on a teardown.
// The first context's tables still fault in once per process. The vmn
// binary (not this library) keeps freed heap pages and, where the kernel
// offers transparent huge pages, faults its heap in 2 MiB pages: an
// enterprise run takes ~0.6k minor faults instead of 5.0k, for 1-1.5 MB
// more peak memory. With THP set to `never` the 4 KB faults remain.
#pragma once

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

/// One solving thread's solver state. Never shared between threads.
class SolverSession {
 public:
  /// `warm` == false disables context reuse: every warm_bind() builds a
  /// fresh encoding and solver (the cold baseline the warm path is tested
  /// and benchmarked against). `transfers`, when non-null, is a borrowed
  /// per-scenario transfer memo every encoding built by this session draws
  /// from (the Engine's inline executor lends its PlanContext cache, so
  /// encoding re-walks nothing the planner walked). TransferFunction memos
  /// are not thread-safe: a borrowed cache must only ever be touched from
  /// the thread running this session. The wire worker leaves it null, and
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
  /// previous warm_bind (and warm reuse is enabled), otherwise frees the
  /// old warm state and then encodes and asserts from scratch. Either way
  /// a previous escalation context is freed. Callers must leave the solver
  /// at scope level 0 (every push popped) before the next warm_bind.
  WarmBound warm_bind(const encode::NetworkModel& model,
                      std::vector<NodeId> members, int max_failures);

  /// A fresh context over the *current* warm shape with escalated options
  /// (timeout doubled, perturbed seed), for retrying an unknown verdict.
  /// Kept separate from the warm context so escalation never leaks its
  /// options into later jobs; freed by the next warm_bind, escalate_bind or
  /// reset_warm. Must follow a warm_bind (asserts on the warm shape being
  /// set).
  WarmBound escalate_bind();

  /// Drops the warm encoding + solver and the session-owned transfer memo.
  /// The memo is keyed by the network's address, and the wire worker
  /// re-emplaces its parsed Spec per shape group, so a later model may be
  /// allocated at a dead one's address; dropping the memo keeps it from
  /// serving the dead network's memoized walks.
  void reset_warm();

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
  /// Frees the escalation context, solver before encoding.
  void drop_escalation();
  /// Frees every context and the warm shape key, keeping the transfer memo.
  void drop_warm();

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

}  // namespace vmn::verify
