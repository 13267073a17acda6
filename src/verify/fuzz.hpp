// Differential fuzzing driver: random specifications through a battery of
// executable oracles.
//
// Every generated spec (scenarios/random.hpp) is serialized, re-parsed and
// pushed through checks that need no hand-written expectations:
//
//   engines    inline == process executor verdicts
//   warm-cold  warm solving == cold solving (inline and process executors;
//              the warm path includes iso-rebinding, so this doubles as
//              iso-rebound == plain)
//   iso-verdict  verdict-level equivalence-class merging (one solver call
//              per problem-key class, replayed to every binding) == the
//              merge-free run solving each planned job itself, inline
//              and on the process executor
//   symmetry   symmetry planning == --no-symmetry verdicts
//   slices     sliced == whole-network verdicts
//   static     every box-free planned job, and every invariant over the
//              spec's hosts alone: decide_statically == a fresh Z3 solve
//              (verify_members), and each static witness is realized by
//              replay and violates the invariant concretely
//   replay     every violated verdict's witness replayed concretely in the
//              simulator (strict when every middlebox is deterministic;
//              advisory otherwise - see sim/replay.hpp)
//   sim-cross  random concrete schedules: any simulated violation must be
//              reported by the verifier
//   faults     (opt-in, FuzzOptions::fault_oracle) the spec re-verified
//              under a seeded fault plan - worker crashes, crash-looping
//              jobs, frame corruption, forced solver unknowns - must never
//              *flip* a verdict against the fault-free baseline; verdicts
//              may only widen to unknown (which the comparison skips)
//   injected   a deliberately-broken oracle hook (shrinker self-test)
//
// Every spec runs the battery at its derived failure budget
// (scenarios::derived_max_failures, the largest failure set of any of its
// scenarios, so every scenario is in budget). When that is positive, the
// battery runs again at budget 0, where every failure scenario is out of
// budget: that pass fuzzes budget filtering (encoder, policy inference,
// decide_statically, replay).
//
// On any oracle failure a delta-debugging shrinker removes spec text chunks
// (hosts, middleboxes, links, routes, scenarios, invariants) while the same
// oracle still fails, and the minimal reproducer is emitted as .vmn text -
// committable as a regression spec and re-checkable standalone with
// `vmn fuzz --replay <file>`.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "io/spec.hpp"
#include "scenarios/random.hpp"
#include "smt/solver.hpp"

namespace vmn::verify {

struct FuzzOptions {
  /// Sweep seed; spec i of the sweep gets a seed mixed from (seed, i).
  std::uint64_t seed = 0;
  /// Number of specs to generate and check.
  int count = 10;
  /// Size knobs for the generator (its `seed` field is overridden).
  scenarios::RandomSpecParams size;
  /// Workers for the pooled-executor oracles.
  std::size_t jobs = 2;
  /// Directory reproducer .vmn files are written to; empty keeps them in
  /// the report only.
  std::string reproducer_dir;
  smt::SolverOptions solver;
  /// Enables the "faults" oracle (vmn fuzz --faults): each spec is
  /// re-verified under a seeded chaos plan on both backends and compared
  /// against the fault-free baseline. Off by default - it runs the whole
  /// battery's most expensive member (a process-backend sweep with
  /// crashes and respawns) per spec.
  bool fault_oracle = false;
  /// Deliberately-broken oracle for shrinker tests: specs for which the
  /// hook returns true fail the "injected" oracle.
  std::function<bool(const io::Spec&)> injected_fault;
  /// Cap on oracle evaluations per shrink (the shrinker is greedy and
  /// quadratic in the worst case).
  std::size_t max_shrink_checks = 400;
};

struct FuzzFailure {
  std::uint64_t seed = 0;
  std::string oracle;
  std::string detail;
  /// Shrunk reproducer spec text (with a provenance comment header).
  std::string reproducer;
  /// Where it was written, when FuzzOptions::reproducer_dir is set.
  std::string reproducer_path;
  std::size_t original_lines = 0;
  std::size_t shrunk_lines = 0;
  /// The failure budget the oracle failed at, which the shrinker keeps;
  /// -1 for the budget-blind injected oracle.
  int budget = -1;
};

struct FuzzReport {
  int specs = 0;
  std::size_t invariants = 0;
  std::size_t replays = 0;           ///< witnesses replayed in the simulator
  std::size_t replays_realized = 0;  ///< concretely confirmed
  std::size_t replays_advisory = 0;  ///< unrealized but model nondeterministic
  std::size_t sim_schedules = 0;     ///< concrete cross-check schedules run
  std::size_t static_checks = 0;     ///< static decisions checked against Z3
  std::vector<FuzzFailure> failures;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the sweep: generate, check, shrink failures, emit reproducers.
[[nodiscard]] FuzzReport fuzz(const FuzzOptions& options);

/// Runs the oracle battery on one spec text (reproducer replay; also the
/// shrinker's reproduction check). Failures are appended to `report`
/// (unshrunk); returns the number found.
std::size_t check_spec_text(const std::string& text, std::uint64_t seed,
                            const FuzzOptions& options, FuzzReport& report);

/// Shrinks `text` while oracle `oracle` still fails on it; returns the
/// minimal failing text (== `text` when nothing could be removed). `seed`
/// keeps seed-dependent oracles (sim-cross schedules) on the failing
/// schedule across candidates. The oracle runs at `budget`, or at each
/// candidate's derived budget when it is nullopt.
[[nodiscard]] std::string shrink_reproducer(
    const std::string& text, const std::string& oracle, std::uint64_t seed,
    const FuzzOptions& options, std::optional<int> budget = std::nullopt);

}  // namespace vmn::verify
