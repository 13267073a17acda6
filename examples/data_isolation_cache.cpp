// Data isolation with content caches (paper, section 5.2).
//
// Storage services hold private per-group data; caches are inserted to
// reduce server load. Caches are *origin-agnostic*: content fetched for one
// client is served to others, so a deleted cache ACL entry leaks one
// group's private data to another - even though the firewall still blocks
// the direct path. VMN's data-isolation invariant (over the origin(p)
// abstraction) catches exactly this, and the counterexample schedule shows
// the leak: the owner fetches its data (populating the cache), then the
// other group's client is served from the cache.
//
//   $ ./examples/data_isolation_cache
#include <cstdio>

#include "vmn.hpp"

int main() {
  using namespace vmn;
  using scenarios::DatacenterParams;

  DatacenterParams params;
  params.policy_groups = 3;
  params.clients_per_group = 2;
  params.with_storage = true;

  auto dc = scenarios::make_datacenter(params);
  const net::Network& net = dc.model.network();
  auto name = [&](NodeId n) {
    return n.valid() ? net.name(n) : std::string("OMEGA");
  };

  std::printf("== correct configuration: private data stays in-group ==\n");
  {
    verify::Engine verifier(dc.model);
    for (const auto& inv : dc.data_isolation_invariants()) {
      auto r = verifier.run_one(inv);
      std::printf("  %-40s %-9s (slice %zu nodes, %lld us)\n",
                  inv.describe(name).c_str(),
                  verify::to_string(r.outcome).c_str(), r.slice_size,
                  static_cast<long long>(r.solve_time.count()));
    }
  }

  std::printf("\n== after deleting one cache ACL entry (and the matching "
              "firewall rule) ==\n");
  Rng rng(5);
  inject_misconfig(dc, scenarios::DcMisconfig::cache_acl, rng, 1);
  const auto [g, d] = dc.broken_pairs[0];
  std::printf("  leaked: group %d's private data to group %d's clients\n", g,
              d);
  {
    verify::Engine verifier(dc.model);
    auto inv = dc.data_isolation_invariants()[static_cast<std::size_t>(g)];
    auto r = verifier.run_one(inv);
    std::printf("  %-40s %-9s\n", inv.describe(name).c_str(),
                verify::to_string(r.outcome).c_str());
    if (r.counterexample) {
      std::printf("  leak schedule (note the cache serving the thief):\n%s",
                  r.counterexample->to_string(name).c_str());
    }
  }

  std::printf("\n== cross-check with the concrete simulator ==\n");
  {
    sim::Simulator sim(dc.model);
    NodeId owner = dc.group_clients[static_cast<std::size_t>(g)][0];
    NodeId thief = dc.group_clients[static_cast<std::size_t>(d)][0];
    NodeId server = dc.private_servers[static_cast<std::size_t>(g)];
    const Address srv = net.node(server).address;
    sim.inject(owner, Packet{net.node(owner).address, srv, 1000, 80});
    Packet resp{srv, net.node(owner).address, 80, 1000};
    resp.origin = srv;
    sim.inject(server, resp);
    sim.inject(thief, Packet{net.node(thief).address, srv, 2000, 80});
    const bool leaked = sim.received(thief, [&](const Packet& p) {
      return p.origin && *p.origin == srv;
    });
    std::printf("  simulator reproduces the leak: %s\n",
                leaked ? "yes" : "no");
  }
  return 0;
}
