#include "scenarios/isp.hpp"

#include "mbox/firewall.hpp"
#include "mbox/idps.hpp"
#include "mbox/scrubber.hpp"

namespace vmn::scenarios {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;

namespace {

Prefix subnet_prefix(int s) {
  return Prefix(Address::of(10, static_cast<std::uint8_t>(s >> 8),
                            static_cast<std::uint8_t>(s & 0xff), 0),
                24);
}

Prefix peer_prefix(int i) {
  return Prefix(Address::of(172, 16, static_cast<std::uint8_t>(i), 0), 24);
}

Address peer_address(int i) {
  return Address::of(172, 16, static_cast<std::uint8_t>(i), 1);
}

const Prefix internal{Address::of(10, 0, 0, 0), 8};
const Prefix external{Address::of(172, 16, 0, 0), 12};

}  // namespace

Isp make_isp(const IspParams& params) {
  if (params.peering_points < 1 || params.subnets < 2) {
    throw ModelError("ISP scenario needs >= 1 peering point and >= 2 subnets");
  }
  Isp out;
  net::Network& net = out.model.network();
  const int P = params.peering_points;

  // Shared firewall policy, per subnet kind (section 5.3.1 semantics).
  std::vector<AclEntry> acl;
  for (int s = 0; s < params.subnets; ++s) {
    switch (subnet_kind_of(s)) {
      case SubnetKind::public_net:
        acl.push_back(AclEntry{external, subnet_prefix(s), AclAction::allow});
        acl.push_back(AclEntry{subnet_prefix(s), external, AclAction::allow});
        break;
      case SubnetKind::private_net:
        acl.push_back(AclEntry{subnet_prefix(s), external, AclAction::allow});
        break;
      case SubnetKind::quarantined:
        break;
    }
  }

  // Backbone line.
  std::vector<NodeId> bb;
  for (int i = 0; i < P; ++i) {
    bb.push_back(net.add_switch("bb" + std::to_string(i)));
    if (i > 0) net.add_link(bb[static_cast<std::size_t>(i)], bb[i - 1u]);
  }

  // Peering points: peer_i and ids_i on sw_pp_i; fw_i on sw_fw_i.
  std::vector<NodeId> sw_pp(static_cast<std::size_t>(P));
  std::vector<NodeId> sw_fw(static_cast<std::size_t>(P));
  std::vector<NodeId> ids(static_cast<std::size_t>(P));
  std::vector<NodeId> fw(static_cast<std::size_t>(P));
  for (int i = 0; i < P; ++i) {
    const auto si = static_cast<std::size_t>(i);
    sw_pp[si] = net.add_switch("sw-pp" + std::to_string(i));
    sw_fw[si] = net.add_switch("sw-fw" + std::to_string(i));
    NodeId peer = net.add_host("peer" + std::to_string(i), peer_address(i));
    out.peers.push_back(peer);
    auto& ids_box = out.model.add_middlebox(
        std::make_unique<mbox::Idps>("ids" + std::to_string(i)));
    auto& fw_box = out.model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
        "fw" + std::to_string(i), acl, AclAction::deny));
    ids[si] = ids_box.node();
    fw[si] = fw_box.node();
    net.add_link(peer, sw_pp[si]);
    net.add_link(ids[si], sw_pp[si]);
    net.add_link(fw[si], sw_fw[si]);
    net.add_link(sw_pp[si], sw_fw[si]);
    net.add_link(sw_fw[si], bb[si]);

    // Inbound: peer -> IDS -> FW -> backbone.
    net.table(sw_pp[si]).add_from(peer, internal, ids[si]);
    net.table(sw_pp[si]).add_from(ids[si], internal, sw_fw[si]);
    net.table(sw_pp[si]).add_from(sw_fw[si], peer_prefix(i), peer);
    net.table(sw_fw[si]).add_from(sw_pp[si], internal, fw[si]);
    net.table(sw_fw[si]).add_from(fw[si], internal, bb[si]);
    // Outbound: backbone -> FW -> peer (stateful firewalls must see both
    // directions for hole punching).
    net.table(sw_fw[si]).add_from(bb[si], peer_prefix(i), fw[si]);
    net.table(sw_fw[si]).add_from(fw[si], peer_prefix(i), sw_pp[si]);
  }

  // Subnets, round-robin across backbone switches.
  std::vector<NodeId> sw_net(static_cast<std::size_t>(params.subnets));
  for (int s = 0; s < params.subnets; ++s) {
    const auto ss = static_cast<std::size_t>(s);
    out.subnet_kind.push_back(subnet_kind_of(s));
    sw_net[ss] = net.add_switch("sw-net" + std::to_string(s));
    net.add_link(sw_net[ss], bb[static_cast<std::size_t>(s % P)]);
    std::vector<NodeId> hosts;
    for (int h = 0; h < params.hosts_per_subnet; ++h) {
      const Address addr(subnet_prefix(s).base().bits() +
                         static_cast<std::uint32_t>(h) + 1);
      NodeId host = net.add_host(
          "n" + std::to_string(s) + "-" + std::to_string(h), addr);
      net.add_link(host, sw_net[ss]);
      net.table(sw_net[ss]).add(Prefix::host(addr), host);
      out.model.set_policy_class(
          host, PolicyClassId{static_cast<std::uint32_t>(s % 3)});
      hosts.push_back(host);
    }
    net.table(sw_net[ss]).add(Prefix::any(),
                              bb[static_cast<std::size_t>(s % P)]);
    out.subnet_hosts.push_back(std::move(hosts));
  }

  // Backbone line routing.
  auto toward = [&](int at, int target) {
    return target > at ? bb[static_cast<std::size_t>(at + 1)]
                       : bb[static_cast<std::size_t>(at - 1)];
  };
  for (int i = 0; i < P; ++i) {
    for (int s = 0; s < params.subnets; ++s) {
      const int home = s % P;
      net.table(bb[static_cast<std::size_t>(i)])
          .add(subnet_prefix(s), home == i ? sw_net[static_cast<std::size_t>(s)]
                                           : toward(i, home));
    }
    for (int j = 0; j < P; ++j) {
      net.table(bb[static_cast<std::size_t>(i)])
          .add(peer_prefix(j),
               j == i ? sw_fw[static_cast<std::size_t>(i)] : toward(i, j));
    }
  }

  // Scrubbing box, attached near peering point 1 (or 0 when P == 1).
  const int a = P >= 2 ? 1 : 0;
  const auto sa = static_cast<std::size_t>(a);
  NodeId sw_sb = net.add_switch("sw-sb");
  auto& sb = out.model.add_middlebox(std::make_unique<mbox::Scrubber>("sb"));
  net.add_link(sb.node(), sw_sb);
  net.add_link(sw_sb, bb[sa]);
  net.table(sw_sb).add_from(bb[sa], internal, sb.node());
  net.table(sw_sb).add_from(sb.node(), internal, bb[sa]);

  // Attack-reroute scenario: the IDS at peering `a` detects an attack on
  // subnet 1's prefix and diverts it to the scrubber before the firewall.
  if (params.with_scrub_reroute && P >= 2) {
    out.has_attack_scenario = true;
    out.scrub_misconfigured = params.scrub_bypasses_firewalls;
    const Prefix attacked = subnet_prefix(1);
    out.attack_scenario = net.add_failure_scenario("scrub-reroute", {});
    auto reroute = [&](NodeId sw, NodeId from, const Prefix& dst, NodeId hop,
                       int priority) {
      net.override_routes(sw, out.attack_scenario,
                          {net::Rule{dst, hop, from, priority}});
    };

    // Divert: post-IDS traffic for the attacked prefix skips fw_a...
    reroute(sw_fw[sa], sw_pp[sa], attacked, bb[sa], /*priority=*/9);
    // ... and bb_a hands it to the scrubber.
    reroute(bb[sa], sw_fw[sa], attacked, sw_sb, /*priority=*/9);

    if (params.scrub_bypasses_firewalls) {
      // Misconfiguration: scrubbed traffic goes straight to the subnet.
      const int home = 1 % P;
      reroute(bb[sa], sw_sb, attacked, home == a ? sw_net[1] : toward(a, home),
              /*priority=*/9);
      if (home != a) {
        // No further special-casing needed: downstream backbone switches
        // already route the attacked prefix to its home subnet.
      }
    } else {
      // Correct configuration: scrubbed traffic re-enters through peering
      // point 0's firewall, then follows normal routing to the subnet.
      reroute(bb[sa], sw_sb, attacked, toward(a, 0), /*priority=*/9);
      reroute(bb[0], bb[1], attacked, sw_fw[0], /*priority=*/9);
      reroute(sw_fw[0], bb[0], attacked, fw[0], /*priority=*/9);
      // fw_0's output follows the base rule (from fw_0, internal -> bb_0);
      // at bb_0 the packet arrives from sw_fw0, which the divert rule above
      // does not match, so it proceeds to the subnet normally.
    }
  }

  return out;
}

std::vector<Invariant> Isp::invariants() const {
  std::vector<Invariant> out;
  for (std::size_t s = 0; s < subnet_hosts.size(); ++s) {
    NodeId h = subnet_hosts[s].front();
    switch (subnet_kind[s]) {
      case SubnetKind::public_net:
        out.push_back(Invariant::reachable(h, peers.front()));
        break;
      case SubnetKind::private_net:
        out.push_back(Invariant::flow_isolation(h, peers.front()));
        break;
      case SubnetKind::quarantined:
        out.push_back(Invariant::node_isolation(h, peers.front()));
        break;
    }
  }
  return out;
}

Invariant Isp::attacked_subnet_isolation() const {
  const NodeId peer = peers.size() > 1 ? peers[1] : peers[0];
  return Invariant::flow_isolation(subnet_hosts[1].front(), peer);
}

Batch Isp::batch() const {
  Batch out;
  out.name = "isp";
  out.invariants = invariants();
  out.expected_holds.assign(out.invariants.size(), true);
  if (has_attack_scenario) {
    out.invariants.push_back(attacked_subnet_isolation());
    out.expected_holds.push_back(!scrub_misconfigured);
  }
  return out;
}

}  // namespace vmn::scenarios
