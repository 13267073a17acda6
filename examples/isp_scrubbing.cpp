// ISP attack scrubbing (paper, section 5.3.3, Fig 9a).
//
// An ISP (modeled on the SWITCHlan backbone) runs an IDS and a stateful
// firewall at each peering point, plus one shared scrubbing box. When an
// IDS detects an attack on a customer prefix it reroutes that prefix's
// traffic to the scrubber. In the *correct* configuration the scrubbed
// traffic re-enters the network through a stateful firewall; the reported
// misconfiguration sends it directly to the subnet - so any rerouted
// traffic the scrubber does not discard bypasses every firewall and
// violates the subnet's (flow-)isolation.
//
//   $ ./examples/isp_scrubbing
#include <cstdio>

#include "vmn.hpp"

namespace {

void check(const vmn::scenarios::Isp& isp, const char* label) {
  using namespace vmn;
  const net::Network& net = isp.model.network();
  auto name = [&](NodeId n) {
    return n.valid() ? net.name(n) : std::string("OMEGA");
  };
  verify::Engine verifier(isp.model);
  auto inv = isp.attacked_subnet_isolation();
  auto r = verifier.run_one(inv);
  std::printf("%-48s %-9s (slice %zu nodes, %lld us)\n", label,
              verify::to_string(r.outcome).c_str(), r.slice_size,
              static_cast<long long>(r.solve_time.count()));
  if (r.counterexample) {
    std::printf("  schedule (peer traffic slips past the firewalls):\n%s",
                r.counterexample->to_string(name).c_str());
  }
}

}  // namespace

int main() {
  using namespace vmn;
  using scenarios::IspParams;

  IspParams params;
  params.peering_points = 3;
  params.subnets = 6;

  std::printf("== baseline policies at every peering point ==\n");
  {
    auto isp = scenarios::make_isp(params);
    verify::Engine verifier(isp.model);
    const net::Network& net = isp.model.network();
    for (const auto& inv : isp.invariants()) {
      auto r = verifier.run_one(inv);
      std::printf("  %-40s %-9s\n",
                  inv.describe([&](NodeId n) { return net.name(n); }).c_str(),
                  verify::to_string(r.outcome).c_str());
    }
  }

  std::printf("\n== scrubbed traffic re-enters through a firewall ==\n");
  {
    params.scrub_bypasses_firewalls = false;
    auto isp = scenarios::make_isp(params);
    check(isp, "attacked subnet flow isolation");
  }

  std::printf("\n== misconfigured: scrubbed traffic bypasses firewalls ==\n");
  {
    params.scrub_bypasses_firewalls = true;
    auto isp = scenarios::make_isp(params);
    check(isp, "attacked subnet flow isolation");
  }
  return 0;
}
