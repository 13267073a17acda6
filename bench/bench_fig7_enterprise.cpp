// Figure 7: enterprise network (Fig 6) - per-invariant verification time
// for the three subnet policies (public / private / quarantined), comparing
// slice-based verification (independent of network size) against
// whole-network verification at growing sizes.
//
// The paper plots network sizes 17/47/77 (hosts + middleboxes); subnets are
// swept here to produce a comparable size axis.
#include "bench_common.hpp"
#include "scenarios/enterprise.hpp"

namespace {

using namespace vmn;
using bench::verify_expecting;
using scenarios::Enterprise;
using scenarios::EnterpriseParams;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

Enterprise make(int subnets) {
  EnterpriseParams p;
  p.subnets = subnets;
  p.hosts_per_subnet = 2;
  return make_enterprise(p);
}

// Invariant index per policy: 0 = public (reachable), 1 = private
// (flow isolation), 2 = quarantined (node isolation).
void run(benchmark::State& state, int invariant_index, bool use_slices) {
  const int subnets = static_cast<int>(state.range(0));
  Enterprise ent = make(subnets);
  VerifyOptions opts;
  opts.use_slices = use_slices;
  Engine v(ent.model, {.verify = opts});
  const double mean_us = verify_expecting(
      state, v, ent.invariants[static_cast<std::size_t>(invariant_index)],
      Outcome::holds);
  const double edge_nodes =
      static_cast<double>(encode::all_edge_nodes(ent.model).size());
  state.counters["edge_nodes"] = benchmark::Counter(edge_nodes);
  static const char* const kPolicy[] = {"public", "private", "quarantined"};
  bench::BenchJson::instance().record(
      std::string(kPolicy[invariant_index]) +
          (use_slices ? "/slice" : "/full") +
          "/subnets=" + std::to_string(subnets),
      {{"verify_us", mean_us}, {"edge_nodes", edge_nodes}});
}

void BM_Public_Slice(benchmark::State& s) { run(s, 0, true); }
void BM_Private_Slice(benchmark::State& s) { run(s, 1, true); }
void BM_Quarantined_Slice(benchmark::State& s) { run(s, 2, true); }
void BM_Public_Full(benchmark::State& s) { run(s, 0, false); }
void BM_Private_Full(benchmark::State& s) { run(s, 1, false); }
void BM_Quarantined_Full(benchmark::State& s) { run(s, 2, false); }

// Slice time is independent of size: a single size suffices (left of the
// vertical line in the paper's Fig 7), but we sweep anyway to demonstrate.
BENCHMARK(BM_Public_Slice)->Arg(6)->Arg(18)->Arg(30)->ArgNames({"subnets"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Private_Slice)->Arg(6)->Arg(18)->Arg(30)->ArgNames({"subnets"})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Quarantined_Slice)->Arg(6)->Arg(18)->Arg(30)
    ->ArgNames({"subnets"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Public_Full)->Arg(6)->Arg(18)->Arg(30)->ArgNames({"subnets"})
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Private_Full)->Arg(6)->Arg(18)->Arg(30)->ArgNames({"subnets"})
    ->Unit(benchmark::kMillisecond)->Iterations(2);
BENCHMARK(BM_Quarantined_Full)->Arg(6)->Arg(18)->Arg(30)
    ->ArgNames({"subnets"})->Unit(benchmark::kMillisecond)->Iterations(2);

}  // namespace

VMN_BENCH_JSON_MAIN("bench_fig7_enterprise", "BENCH_fig7.json")
