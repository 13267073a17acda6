// Solver-backend interface.
//
// VMN asserts the network axioms plus the negated invariant and asks for
// satisfiability (paper, section 3.1): a satisfying assignment is a schedule
// and oracle behavior violating the invariant; unsat proves the invariant
// holds for all schedules and oracle behaviors.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "logic/builder.hpp"
#include "logic/term.hpp"
#include "smt/model.hpp"

namespace vmn::smt {

enum class CheckStatus : std::uint8_t {
  sat,      ///< counterexample found (invariant violated)
  unsat,    ///< no counterexample exists (invariant holds)
  unknown,  ///< solver gave up (timeout / incomplete heuristics)
};

[[nodiscard]] std::string to_string(CheckStatus status);

struct SolverOptions {
  /// Per-check wall-clock budget handed to the backend.
  std::uint32_t timeout_ms = 120000;
  /// Random seed forwarded to the backend (SMT search is randomized;
  /// the paper reports distributions over 100 runs).
  std::uint32_t seed = 0;
};

/// Abstract solver session. Axioms accumulate; check() may be called
/// repeatedly. push()/pop() bracket retractable assertions, which is what
/// the warm verification path builds on: the base network axioms stay
/// asserted at level 0 while each invariant's negation is pushed, checked
/// and popped, so one live context (and its learned state) serves a whole
/// run of jobs sharing a slice shape.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Asserts a closed boolean term.
  virtual void add(const logic::TermPtr& axiom) = 0;
  /// Opens a backtracking scope: assertions added after push() are
  /// retracted by the matching pop().
  virtual void push() = 0;
  /// Closes the innermost scope; assertion_count() reverts with it.
  virtual void pop() = 0;
  /// Runs the satisfiability check.
  virtual CheckStatus check() = 0;
  /// Extracts the event/packet model after a sat result.
  [[nodiscard]] virtual SmtModel model() const = 0;
  /// Time spent inside the last check().
  [[nodiscard]] virtual std::chrono::microseconds last_check_time() const = 0;
  /// Number of currently asserted axioms (diagnostics).
  [[nodiscard]] virtual std::size_t assertion_count() const = 0;
};

/// Creates the Z3-backed solver (the only production backend; the paper
/// builds directly on Z3).
[[nodiscard]] std::unique_ptr<Solver> make_z3_solver(const logic::Vocab& vocab,
                                                     SolverOptions options = {});

}  // namespace vmn::smt
