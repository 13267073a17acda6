// Quickstart: build a small enterprise network (Fig 6 of the paper), verify
// its isolation invariants, then break the firewall configuration and watch
// VMN produce a counterexample trace.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "vmn.hpp"

namespace {

std::string name_or_omega(const vmn::net::Network& net, vmn::NodeId id) {
  return id.valid() ? net.name(id) : "OMEGA";
}

void report(const vmn::net::Network& net, const std::string& label,
            const vmn::encode::Invariant& inv,
            const vmn::verify::VerifyResult& r) {
  std::printf("%-42s -> %-8s  [slice=%zu nodes, %lld us]\n",
              inv.describe([&](vmn::NodeId n) { return net.name(n); }).c_str(),
              vmn::verify::to_string(r.outcome).c_str(), r.slice_size,
              static_cast<long long>(r.solve_time.count()));
  if (r.counterexample && !label.empty()) {
    std::printf("  counterexample (%s):\n", label.c_str());
    std::string trace = r.counterexample->to_string(
        [&](vmn::NodeId n) { return name_or_omega(net, n); });
    std::printf("%s", trace.c_str());
  }
}

}  // namespace

int main() {
  using namespace vmn;

  // A 3-subnet enterprise: one public, one private, one quarantined subnet
  // behind a stateful firewall and a gateway.
  scenarios::EnterpriseParams params;
  params.subnets = 3;
  params.hosts_per_subnet = 2;
  scenarios::Enterprise ent = scenarios::make_enterprise(params);
  const net::Network& net = ent.model.network();

  std::printf("== correctly configured network: all invariants hold ==\n");
  verify::Engine verifier(ent.model);
  for (std::size_t i = 0; i < ent.invariants.size(); ++i) {
    report(net, "", ent.invariants[i], verifier.run_one(ent.invariants[i]));
  }

  // Break the firewall: allow the internet to reach the quarantined subnet.
  std::printf("\n== after adding a bad allow rule for the quarantined subnet ==\n");
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      ent.model.middlebox_at(net.node_by_name("fw")));
  std::vector<mbox::AclEntry> acl = fw->acl();
  acl.push_back(mbox::AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                               Prefix(Address::of(10, 0, 2, 0), 24),
                               mbox::AclAction::allow});
  fw->replace_acl(acl);

  verify::Engine verifier2(ent.model);
  const NodeId quarantined = ent.subnet_hosts[2].front();
  auto inv = encode::Invariant::node_isolation(quarantined, ent.internet);
  report(net, "internet reaches the quarantined host", inv,
         verifier2.run_one(inv));
  return 0;
}
