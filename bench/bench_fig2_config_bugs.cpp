// Figure 2: time to verify one invariant for the three datacenter
// configuration-bug classes of section 5.1 - incorrect firewall rules
// (Rules), misconfigured redundant firewalls (Redundancy), and
// misconfigured redundant routing (Traversal) - in both the violated and
// the holds case.
//
// Topology: Fig 1 datacenter (firewalls, load balancer, IDPSes with
// redundant instances). The paper ran 1000 hosts; sizes here are scaled
// (slice-based verification makes the invariant time independent of network
// size, which bench_fig7/fig9 demonstrate explicitly).
#include "bench_common.hpp"
#include "core/rng.hpp"
#include "scenarios/datacenter.hpp"

namespace {

using namespace vmn;
using bench::verify_expecting;
using scenarios::Datacenter;
using scenarios::DatacenterParams;
using scenarios::DcMisconfig;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

DatacenterParams params() {
  DatacenterParams p;
  p.policy_groups = 5;
  p.clients_per_group = 2;
  return p;
}

VerifyOptions failures(int k) {
  VerifyOptions o;
  o.max_failures = k;
  return o;
}

/// Finds a group whose isolation invariant is (not) broken.
encode::Invariant pick_invariant(const Datacenter& dc, bool broken) {
  auto invs = dc.isolation_invariants();
  const int groups = static_cast<int>(invs.size());
  for (int g = 0; g < groups; ++g) {
    if (dc.pair_broken(g, (g + 1) % groups) == broken) {
      return invs[static_cast<std::size_t>(g)];
    }
  }
  std::abort();  // generator guarantees both kinds exist
}

void BM_Rules(benchmark::State& state) {
  const bool violated = state.range(0) != 0;
  Datacenter dc = make_datacenter(params());
  Rng rng(42);
  inject_misconfig(dc, DcMisconfig::rules, rng, /*strength=*/2);
  Engine v(dc.model);
  verify_expecting(state, v, pick_invariant(dc, violated),
                   violated ? Outcome::violated : Outcome::holds);
}
BENCHMARK(BM_Rules)->Arg(1)->Arg(0)->ArgNames({"violated"})
    ->Unit(benchmark::kMillisecond);

void BM_Redundancy(benchmark::State& state) {
  const bool violated = state.range(0) != 0;
  Datacenter dc = make_datacenter(params());
  Rng rng(43);
  inject_misconfig(dc, DcMisconfig::redundancy, rng, /*strength=*/2);
  Engine v(dc.model, {.verify = failures(1)});
  verify_expecting(state, v, pick_invariant(dc, violated),
                   violated ? Outcome::violated : Outcome::holds);
}
BENCHMARK(BM_Redundancy)->Arg(1)->Arg(0)->ArgNames({"violated"})
    ->Unit(benchmark::kMillisecond);

void BM_Traversal(benchmark::State& state) {
  const bool violated = state.range(0) != 0;
  Datacenter dc = make_datacenter(params());
  if (violated) {
    Rng rng(44);
    inject_misconfig(dc, DcMisconfig::traversal, rng);
  }
  Engine v(dc.model, {.verify = failures(1)});
  verify_expecting(state, v, dc.traversal_invariants()[0],
                   violated ? Outcome::violated : Outcome::holds);
}
BENCHMARK(BM_Traversal)->Arg(1)->Arg(0)->ArgNames({"violated"})
    ->Unit(benchmark::kMillisecond);

}  // namespace
