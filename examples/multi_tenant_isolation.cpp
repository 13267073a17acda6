// Multi-tenant datacenter isolation (paper, section 5.3.2).
//
// A cloud provider implementing the EC2 Security Groups model: every
// physical server's virtual switch is a stateful firewall, tenants organize
// VMs into public and private security groups. The three Fig 8 invariant
// families are verified, and the effect of slicing is shown directly:
// per-invariant slices stay a handful of nodes while the network grows.
//
//   $ ./examples/multi_tenant_isolation
#include <cstdio>

#include "vmn.hpp"

int main() {
  using namespace vmn;
  using scenarios::MultiTenantParams;

  for (int tenants : {2, 4, 8}) {
    MultiTenantParams params;
    params.tenants = tenants;
    params.servers = tenants;
    auto mt = scenarios::make_multitenant(params);
    const net::Network& net = mt.model.network();
    const std::size_t edges = encode::all_edge_nodes(mt.model).size();

    std::printf("== %d tenants (%zu VMs + vswitches) ==\n", tenants, edges);
    verify::Engine verifier(mt.model);
    struct Case {
      const char* label;
      encode::Invariant inv;
    } cases[] = {
        {"Priv-Priv: B-private flow-isolated from A-private", mt.priv_priv()},
        {"Pub-Priv:  B-private flow-isolated from A-public ", mt.pub_priv()},
        {"Priv-Pub:  A-private can reach B-public          ", mt.priv_pub()},
    };
    for (const Case& c : cases) {
      auto r = verifier.run_one(c.inv);
      std::printf("  %s  -> %-8s (slice %zu of %zu nodes, %lld us)\n",
                  c.label, verify::to_string(r.outcome).c_str(), r.slice_size,
                  edges, static_cast<long long>(r.solve_time.count()));
    }
    (void)net;
  }

  std::printf("\nSlices stay constant-size as the datacenter grows: that is\n"
              "the paper's key scaling result (section 4.1).\n");
  return 0;
}
