// Deterministic random number generation for scenario generators and
// property tests. All randomness in the library flows through Rng so that
// every experiment is reproducible from a seed.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace vmn {

/// Seeded pseudo-random generator (thin wrapper over std::mt19937_64).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi);
  /// Bernoulli trial.
  [[nodiscard]] bool chance(double p);
  /// Picks k distinct indices from [0, n).
  [[nodiscard]] std::vector<std::size_t> sample(std::size_t n, std::size_t k);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace vmn
