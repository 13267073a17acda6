// Machine-speed calibration for the end-to-end timings.
//
// On a shared machine the speed available to one process drifts by tens of
// percent over minutes, far more than any useful regression bound. The
// benchmark runs this fixed kernel between requests - an 8 MB table built,
// walked at random and hashed, a memory-bound mix like the solver's - and
// scales every end-to-end timing by kReferenceMs / (median kernel time), so
// timings read as if the kernel took kReferenceMs. Measured on a 4-vCPU
// shared VM over 25 minutes: medians of 100 consecutive `vmn verify` runs
// of the enterprise spec ranged over 39% of their median, their ratios to
// this kernel's medians over 20%. The kernel does not depend on vmn, so a
// change to vmn cannot move the scale.
#pragma once

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vmn::bench {

/// Kernel time the scaled timings are expressed against.
inline constexpr double kReferenceMs = 20.0;

/// Where the kernel leaves its result, so the work cannot be optimized away.
inline volatile std::uint64_t calibration_sink = 0;

/// Runs the calibration kernel once and returns its wall time in ms.
inline double calibration_ms() {
  const auto start = std::chrono::steady_clock::now();
  constexpr std::size_t kSize = 1u << 20;  // 8 MB of 64-bit words
  std::uint64_t x = 88172645463325252ull;
  std::vector<std::uint64_t> table(kSize);
  for (std::uint64_t& v : table) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    v = x;
  }
  std::uint64_t walk = 0;
  for (std::size_t i = 0, j = 0; i < (1u << 18); ++i) {
    j = (table[j] ^ i) & (kSize - 1);
    walk += j;
  }
  std::unordered_map<std::uint64_t, std::uint32_t> counts;
  for (std::size_t i = 0; i < (1u << 16); ++i) ++counts[table[i] & 0xffffff];
  calibration_sink = walk + counts.size();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace vmn::bench
