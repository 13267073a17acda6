// The uniform invariant-batch shape every scenario generator exports.
//
// verify::Engine's batch runs, the CLI --batch mode, the executor tests
// and the scaling benchmark all consume scenarios through this one
// interface instead of each scenario's bespoke accessors.
#pragma once

#include <string>
#include <vector>

#include "encode/invariant.hpp"

namespace vmn::scenarios {

struct Batch {
  std::string name;
  std::vector<encode::Invariant> invariants;
  /// Aligned expected outcome for the as-generated configuration: true
  /// means the invariant holds (for reachability: the path exists).
  std::vector<bool> expected_holds;

  [[nodiscard]] std::size_t size() const { return invariants.size(); }
};

}  // namespace vmn::scenarios
