// Figure 9: ISP with intrusion detection (section 5.3.3). (b) verification
// time per invariant versus subnet count at a fixed number of peering
// points; (c) versus peering-point count at a fixed subnet count. Slice
// verification stays flat on both axes; whole-network verification grows,
// faster on the peering axis (every peering point adds an IDS+firewall
// pipeline to the encoding - "the IDS model is more complex leading to a
// larger increase in problem size").
#include "bench_common.hpp"
#include "scenarios/isp.hpp"

namespace {

using namespace vmn;
using bench::verify_expecting;
using scenarios::Isp;
using scenarios::IspParams;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

Isp make(int peering, int subnets) {
  IspParams p;
  p.peering_points = peering;
  p.subnets = subnets;
  p.hosts_per_subnet = 1;
  p.with_scrub_reroute = peering >= 2;
  return make_isp(p);
}

void run(benchmark::State& state, int peering, int subnets, bool use_slices) {
  Isp isp = make(peering, subnets);
  VerifyOptions opts;
  opts.use_slices = use_slices;
  opts.solver.timeout_ms = 600000;
  Engine v(isp.model, {.verify = opts});
  // A private subnet's flow-isolation invariant (subnet 1 exists for every
  // generated size and is private).
  verify_expecting(state, v, isp.invariants()[1], Outcome::holds);
  state.counters["edge_nodes"] = benchmark::Counter(
      static_cast<double>(encode::all_edge_nodes(isp.model).size()));
}

// --- (b): sweep subnets at 3 peering points (paper: 5) ---------------------
void BM_Fig9b_Slice(benchmark::State& s) {
  run(s, 3, static_cast<int>(s.range(0)), true);
}
void BM_Fig9b_Full(benchmark::State& s) {
  run(s, 3, static_cast<int>(s.range(0)), false);
}
BENCHMARK(BM_Fig9b_Slice)->Arg(3)->Arg(9)->Arg(15)->Arg(24)
    ->ArgNames({"subnets"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig9b_Full)->Arg(3)->Arg(9)->Arg(15)->Arg(24)
    ->ArgNames({"subnets"})->Unit(benchmark::kMillisecond)->Iterations(1);

// --- (c): sweep peering points at 9 subnets (paper: 75) --------------------
void BM_Fig9c_Slice(benchmark::State& s) {
  run(s, static_cast<int>(s.range(0)), 9, true);
}
void BM_Fig9c_Full(benchmark::State& s) {
  run(s, static_cast<int>(s.range(0)), 9, false);
}
BENCHMARK(BM_Fig9c_Slice)->Arg(1)->Arg(2)->Arg(3)->Arg(5)
    ->ArgNames({"peering"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig9c_Full)->Arg(1)->Arg(2)->Arg(3)->Arg(5)
    ->ArgNames({"peering"})->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
