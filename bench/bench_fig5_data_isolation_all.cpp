// Figure 5: time to verify ALL data-isolation invariants in the storage
// datacenter as a function of policy complexity (section 5.2). Because the
// cache is origin-agnostic, per-invariant slices grow with the class count,
// making the total grow superlinearly - the paper reports up to ~14000 s at
// 100 classes; the sweep here is scaled down accordingly.
#include "bench_common.hpp"
#include "scenarios/datacenter.hpp"

namespace {

using namespace vmn;
using bench::verify_all_expecting;
using scenarios::Datacenter;
using scenarios::DatacenterParams;
using verify::Outcome;
using verify::Engine;

void BM_Fig5_AllDataIsolation(benchmark::State& state) {
  DatacenterParams p;
  p.policy_groups = static_cast<int>(state.range(0));
  p.clients_per_group = 2;
  p.with_storage = true;
  Datacenter dc = make_datacenter(p);
  Engine v(dc.model);
  auto invs = dc.data_isolation_invariants();
  std::vector<Outcome> expected(invs.size(), Outcome::holds);
  verify_all_expecting(state, v, invs, expected);
}
BENCHMARK(BM_Fig5_AllDataIsolation)->Arg(3)->Arg(5)->Arg(8)
    ->ArgNames({"classes"})->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
