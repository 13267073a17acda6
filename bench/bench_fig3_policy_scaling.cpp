// Figure 3: time to verify ALL datacenter invariants as a function of
// policy complexity (number of policy equivalence classes), for the three
// §5.1 scenario classes. One invariant per policy class is verified
// (symmetry removes the rest); slices keep the per-invariant cost flat, so
// total time grows linearly in the class count - the paper reports a slope
// of about three invariants per second on its hardware.
//
// The paper sweeps 25..1000 classes; the sweep here is scaled down so the
// whole suite finishes in CI-scale time (the linear shape is unaffected).
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"

namespace {

using namespace vmn;
using bench::verify_all_expecting;
using scenarios::Datacenter;
using scenarios::DatacenterParams;
using scenarios::DcMisconfig;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

Datacenter make(int classes) {
  DatacenterParams p;
  p.policy_groups = classes;
  p.clients_per_group = 2;
  return make_datacenter(p);
}

std::vector<Outcome> expected_isolation(const Datacenter& dc) {
  auto invs = dc.isolation_invariants();
  std::vector<Outcome> out;
  const int groups = static_cast<int>(invs.size());
  for (int g = 0; g < groups; ++g) {
    out.push_back(dc.pair_broken(g, (g + 1) % groups) ? Outcome::violated
                                                      : Outcome::holds);
  }
  return out;
}

void BM_Fig3_Rules(benchmark::State& state) {
  const int classes = static_cast<int>(state.range(0));
  Datacenter dc = make(classes);
  Rng rng(7);
  inject_misconfig(dc, DcMisconfig::rules, rng, classes / 4 + 1);
  Engine v(dc.model);
  // Misconfigured groups fall into their own policy classes (rule removal
  // breaks symmetry), so symmetric batching stays sound.
  verify_all_expecting(state, v, dc.isolation_invariants(),
                       expected_isolation(dc), /*use_symmetry=*/true);
}
BENCHMARK(BM_Fig3_Rules)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->ArgNames({"classes"})->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_Fig3_Redundancy(benchmark::State& state) {
  const int classes = static_cast<int>(state.range(0));
  Datacenter dc = make(classes);
  Rng rng(8);
  inject_misconfig(dc, DcMisconfig::redundancy, rng, classes / 4 + 1);
  VerifyOptions opts;
  opts.max_failures = 1;
  Engine v(dc.model, {.verify = opts});
  verify_all_expecting(state, v, dc.isolation_invariants(),
                       expected_isolation(dc), true);
}
BENCHMARK(BM_Fig3_Redundancy)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->ArgNames({"classes"})->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_Fig3_Traversal(benchmark::State& state) {
  const int classes = static_cast<int>(state.range(0));
  Datacenter dc = make(classes);
  Rng rng(9);
  inject_misconfig(dc, DcMisconfig::traversal, rng);
  VerifyOptions opts;
  opts.max_failures = 1;
  Engine v(dc.model, {.verify = opts});
  auto invs = dc.traversal_invariants();
  std::vector<Outcome> expected(invs.size(), Outcome::violated);
  verify_all_expecting(state, v, invs, expected, true);
}
BENCHMARK(BM_Fig3_Traversal)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->ArgNames({"classes"})->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace
