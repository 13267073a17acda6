// The four bench_e2e workloads, generated from a seed.
//
// Every workload is a list of spec files plus the verdict each invariant
// must get. Expected verdicts come from the generator where it knows them
// (enterprise, datacenter, segmented). zoo-random draws its specs from a
// checked-in corpus of random-generator seeds whose verdicts an in-process
// reference run (no warm solving, no symmetry, sequential) decided when the
// corpus was written. The golden files under bench/e2e/golden/ hold, per
// spec, a digest of its text and its reference verdicts: the zoo-random
// corpus, and for the other workloads the first specs of seed 1, which
// every seed-1 run compares its generator's expectations against.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "verify/engine.hpp"

namespace vmn::bench {

/// One spec file and the verdicts its invariants must get.
struct SpecCase {
  std::string name;  ///< file stem, unique within the workload
  std::string text;  ///< .vmn text
  int max_failures = 0;
  std::vector<verify::Outcome> expected;
};

/// One serve-edit cycle: the spec the daemon must pick up, and the
/// invariants the client then asks about.
struct ServeCycle {
  std::size_t spec = 0;  ///< into Workload::specs
  std::vector<std::size_t> queries;
};

struct Workload {
  std::string name;
  /// Engine configuration, the same for `vmn verify` and in-process runs.
  bool batch = false;
  bool process_backend = false;
  std::size_t jobs = 0;
  bool serve = false;
  /// One-shot: the specs verified round-robin (zoo-random has more than a
  /// run gets through); specs[0] is the set-up probe. serve-edit:
  /// specs[s] has segment s's IDPS bypassed.
  std::vector<SpecCase> specs;
  /// serve-edit only: the edit schedule, replayed cyclically; the daemon
  /// starts on specs[initial_spec].
  std::vector<ServeCycle> cycles;
  std::size_t initial_spec = 0;

  /// `vmn verify` / `vmn serve` flags for this engine configuration.
  [[nodiscard]] std::vector<std::string> engine_args() const;
  /// The same configuration for an in-process verify::Engine.
  [[nodiscard]] verify::EngineOptions engine_options(
      const std::string& vmn, int max_failures) const;
};

/// One golden line: a spec, the FNV-1a 64 digest of its text, and its
/// verdicts.
struct GoldenEntry {
  std::string name;
  std::uint64_t digest = 0;
  std::vector<verify::Outcome> verdicts;
};

/// Builds workload `name` from `seed` (throws vmn::Error on an unknown
/// name, or when zoo-random's `corpus` is empty or no longer matches the
/// generator). `smoke` shrinks the inputs for the smoke test.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed, bool smoke,
                                     const std::vector<GoldenEntry>& corpus);

/// The specs a golden file covers, with verdicts from the reference run:
/// for zoo-random a freshly screened corpus (random specs, content caches
/// left out, that the reference and the engine both decide quickly and
/// alike), otherwise the first specs of `seed`. Slow: minutes for the
/// corpus.
[[nodiscard]] Workload golden_workload(const std::string& name,
                                       std::uint64_t seed);

/// Golden lines ("<spec> <digest> <H|V per invariant>") for `workload`.
[[nodiscard]] std::string golden_listing(const Workload& workload);
[[nodiscard]] std::vector<GoldenEntry> parse_golden(std::istream& in);

/// The per-invariant verdicts a `vmn verify` run printed, in order.
[[nodiscard]] std::vector<verify::Outcome> parse_verify_output(
    const std::string& out);
/// The per-invariant verdicts of an in-process batch.
[[nodiscard]] std::vector<verify::Outcome> verdicts_of(
    const verify::BatchResult& batch);

/// Verdicts checked and verdicts wrong over a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Counts every expected verdict as attempted, and every wrong, unknown,
  /// missing or extra verdict of `got` as failed.
  void verdicts(const std::vector<verify::Outcome>& expected,
                const std::vector<verify::Outcome>& got);
};

}  // namespace vmn::bench
