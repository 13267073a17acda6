// Figure 8: multi-tenant datacenter (EC2 security-group model,
// section 5.3.2) - per-invariant verification time versus tenant count for
// the three invariant families (Priv-Priv, Pub-Priv, Priv-Pub), slice-based
// versus whole-network.
//
// The vswitch firewalls are flow-parallel, so slices are fixed-size and the
// slice series is flat; whole-network encoding grows with every VM, so the
// full series climbs quickly (the paper reports 4+ orders of magnitude at
// 20 tenants). The full-network sweep is capped where single runs would
// dominate the suite.
#include "bench_common.hpp"
#include "scenarios/multitenant.hpp"

namespace {

using namespace vmn;
using bench::verify_expecting;
using scenarios::MultiTenant;
using scenarios::MultiTenantParams;
using verify::Outcome;
using verify::Engine;
using verify::VerifyOptions;

MultiTenant make(int tenants) {
  MultiTenantParams p;
  p.tenants = tenants;
  p.servers = tenants;
  p.public_vms_per_tenant = 5;
  p.private_vms_per_tenant = 5;
  return make_multitenant(p);
}

void run(benchmark::State& state, int which, bool use_slices) {
  MultiTenant mt = make(static_cast<int>(state.range(0)));
  VerifyOptions opts;
  opts.use_slices = use_slices;
  opts.solver.timeout_ms = 600000;
  Engine v(mt.model, {.verify = opts});
  encode::Invariant inv = which == 0   ? mt.priv_priv()
                          : which == 1 ? mt.pub_priv()
                                       : mt.priv_pub();
  verify_expecting(state, v, inv, Outcome::holds);
  state.counters["edge_nodes"] = benchmark::Counter(
      static_cast<double>(encode::all_edge_nodes(mt.model).size()));
}

void BM_PrivPriv_Slice(benchmark::State& s) { run(s, 0, true); }
void BM_PubPriv_Slice(benchmark::State& s) { run(s, 1, true); }
void BM_PrivPub_Slice(benchmark::State& s) { run(s, 2, true); }
void BM_PrivPriv_Full(benchmark::State& s) { run(s, 0, false); }
void BM_PubPriv_Full(benchmark::State& s) { run(s, 1, false); }
void BM_PrivPub_Full(benchmark::State& s) { run(s, 2, false); }

BENCHMARK(BM_PrivPriv_Slice)->Arg(5)->Arg(10)->Arg(15)->Arg(20)
    ->ArgNames({"tenants"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PubPriv_Slice)->Arg(5)->Arg(10)->Arg(15)->Arg(20)
    ->ArgNames({"tenants"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrivPub_Slice)->Arg(5)->Arg(10)->Arg(15)->Arg(20)
    ->ArgNames({"tenants"})->Unit(benchmark::kMillisecond);
BENCHMARK(BM_PrivPriv_Full)->Arg(2)->Arg(3)->Arg(4)->ArgNames({"tenants"})
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_PubPriv_Full)->Arg(2)->Arg(3)->Arg(4)->ArgNames({"tenants"})
    ->Unit(benchmark::kMillisecond)->Iterations(1);
BENCHMARK(BM_PrivPub_Full)->Arg(2)->Arg(3)->Arg(4)->ArgNames({"tenants"})
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace
