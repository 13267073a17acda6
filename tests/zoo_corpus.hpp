// The zoo-random corpus of bench/e2e, for the suites that pin behaviour on
// it: its generator parameters, its specs by name, and its golden listing
// (bench/e2e/golden/zoo-random.txt: one "zoo<seed> <digest> <verdicts>"
// line per spec, one H (holds) or V (violated) per invariant).
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "io/spec.hpp"
#include "scenarios/random.hpp"

namespace vmn::test {

/// The corpus generator parameters for generator seed `seed`.
inline scenarios::RandomSpecParams zoo_params(std::uint64_t seed) {
  scenarios::RandomSpecParams p;
  p.seed = seed;
  p.min_hosts = 3;
  p.max_hosts = 6;
  p.max_switches = 4;
  p.max_middleboxes = 3;
  p.max_scenarios = 2;
  p.min_invariants = 4;
  p.max_invariants = 8;
  return p;
}

/// The corpus spec `name` ("zoo<seed>"), regenerated from its seed.
inline io::Spec zoo_spec(const std::string& name) {
  return io::parse_spec_string(
      scenarios::make_random_spec(zoo_params(std::stoull(name.substr(3))))
          .text);
}

/// One line of the golden listing.
struct ZooGolden {
  std::string name;
  std::string verdicts;  ///< H/V per invariant, in spec order
};

/// The first `count` entries of the golden listing (fewer if it is
/// shorter; none if it cannot be read).
inline std::vector<ZooGolden> zoo_golden(std::size_t count) {
  std::ifstream in(std::string(VMN_SOURCE_DIR) +
                   "/bench/e2e/golden/zoo-random.txt");
  std::vector<ZooGolden> out;
  std::string name, digest, verdicts;
  while (out.size() < count && in >> name >> digest >> verdicts) {
    out.push_back({name, verdicts});
  }
  return out;
}

}  // namespace vmn::test
