// Datacenter configuration audit (paper, section 5.1).
//
// Builds the Fig 1 datacenter (stateful firewalls, load balancer, IDPSes,
// redundant instances), then walks through the three most common classes of
// middlebox misconfiguration reported by the Potharaju-Jain field study and
// shows VMN detecting each one:
//
//   1. Rules      - deny rules deleted from the firewalls,
//   2. Redundancy - deny rules deleted from the *backup* firewall only
//                   (visible only under a failure budget),
//   3. Traversal  - failover routing that bypasses the backup IDPS.
//
//   $ ./examples/datacenter_audit
#include <cstdio>

#include "vmn.hpp"

namespace {

using namespace vmn;

void audit(const char* title, const scenarios::Datacenter& dc,
           const std::vector<encode::Invariant>& invariants, int max_failures,
           bool print_first_trace) {
  std::printf("\n== %s (failure budget: %d) ==\n", title, max_failures);
  verify::VerifyOptions opts;
  opts.max_failures = max_failures;
  verify::Engine verifier(dc.model, {.verify = opts});
  const net::Network& net = dc.model.network();
  verify::BatchResult batch = verifier.run_batch(invariants);
  bool printed = false;
  for (std::size_t i = 0; i < invariants.size(); ++i) {
    const verify::VerifyResult& r = batch.results[i];
    std::printf("  %-38s %-9s %s(%lld us, slice %zu)\n",
                invariants[i]
                    .describe([&](NodeId n) { return net.name(n); })
                    .c_str(),
                verify::to_string(r.outcome).c_str(),
                r.by_symmetry ? "[by symmetry] " : "",
                static_cast<long long>(r.solve_time.count()), r.slice_size);
    if (print_first_trace && !printed && r.counterexample) {
      printed = true;
      std::printf("  counterexample schedule:\n%s",
                  r.counterexample
                      ->to_string([&](NodeId n) {
                        return n.valid() ? net.name(n) : std::string("OMEGA");
                      })
                      .c_str());
    }
  }
  std::printf("  (%zu invariants, %zu solver calls, %lld us total)\n",
              invariants.size(), batch.solver_calls,
              static_cast<long long>(batch.total_time.count()));
}

}  // namespace

int main() {
  using scenarios::DatacenterParams;
  using scenarios::DcMisconfig;

  DatacenterParams params;
  params.policy_groups = 4;
  params.clients_per_group = 2;

  {
    auto dc = scenarios::make_datacenter(params);
    audit("correct configuration", dc, dc.isolation_invariants(), 1, false);
  }
  {
    auto dc = scenarios::make_datacenter(params);
    Rng rng(1);
    inject_misconfig(dc, DcMisconfig::rules, rng, 1);
    audit("incorrect firewall rules", dc, dc.isolation_invariants(), 0, true);
  }
  {
    auto dc = scenarios::make_datacenter(params);
    Rng rng(2);
    inject_misconfig(dc, DcMisconfig::redundancy, rng, 1);
    audit("misconfigured redundant firewall", dc, dc.isolation_invariants(),
          1, false);
  }
  {
    auto dc = scenarios::make_datacenter(params);
    Rng rng(3);
    inject_misconfig(dc, DcMisconfig::traversal, rng);
    audit("misconfigured redundant routing", dc, dc.traversal_invariants(), 1,
          false);
  }
  return 0;
}
