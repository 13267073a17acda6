// Ablations for the design choices DESIGN.md calls out:
//   - slicing on/off on a fixed invariant (the core scaling mechanism),
//   - symmetry on/off for whole-network verification (solver-call count),
//   - failure budget 0 vs 1 (the cost of verifying fault tolerance),
//   - encoding size versus slice size (axiom count as the work proxy).
#include "bench_common.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"

namespace {

using namespace vmn;
using bench::verify_all_expecting;
using bench::verify_expecting;
using scenarios::DatacenterParams;
using scenarios::EnterpriseParams;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

void BM_Slicing(benchmark::State& state) {
  const bool use_slices = state.range(0) != 0;
  DatacenterParams p;
  p.policy_groups = 6;
  p.clients_per_group = 2;
  auto dc = make_datacenter(p);
  VerifyOptions opts;
  opts.use_slices = use_slices;
  Engine v(dc.model, {.verify = opts});
  verify_expecting(state, v, dc.isolation_invariants()[0], Outcome::holds);
}
BENCHMARK(BM_Slicing)->Arg(1)->Arg(0)->ArgNames({"slices"})
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_Symmetry(benchmark::State& state) {
  const bool use_symmetry = state.range(0) != 0;
  EnterpriseParams p;
  p.subnets = 15;
  p.hosts_per_subnet = 2;
  auto ent = make_enterprise(p);
  Engine v(ent.model);
  std::vector<Outcome> expected(ent.invariants.size(), Outcome::holds);
  verify_all_expecting(state, v, ent.invariants, expected, use_symmetry);
}
BENCHMARK(BM_Symmetry)->Arg(1)->Arg(0)->ArgNames({"symmetry"})
    ->Unit(benchmark::kMillisecond)->Iterations(2);

void BM_FailureBudget(benchmark::State& state) {
  const int budget = static_cast<int>(state.range(0));
  DatacenterParams p;
  p.policy_groups = 4;
  p.clients_per_group = 2;
  auto dc = make_datacenter(p);
  VerifyOptions opts;
  opts.max_failures = budget;
  Engine v(dc.model, {.verify = opts});
  verify_expecting(state, v, dc.isolation_invariants()[0], Outcome::holds);
}
BENCHMARK(BM_FailureBudget)->Arg(0)->Arg(1)->ArgNames({"max_failures"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
