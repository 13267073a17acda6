#include "scenarios/datacenter.hpp"

#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"

namespace vmn::scenarios {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;
using mbox::CacheAclEntry;

namespace {

// Clients of group g live in 10.<g>.0/24; all servers live in the dedicated
// 10.200.0.0/15 block (private in 10.200/16, public in 10.201/16) so that
// "server-bound" is expressible as a single prefix in forwarding rules.
Prefix group_prefix(int g) {
  return Prefix(Address::of(10, static_cast<std::uint8_t>(g >> 8),
                            static_cast<std::uint8_t>(g & 0xff), 0),
                24);
}

Address client_address(int g, int i) {
  return Address(group_prefix(g).base().bits() + static_cast<std::uint32_t>(i) +
                 1);
}

Address private_server_address(int g) {
  return Address::of(10, 200, static_cast<std::uint8_t>(g >> 8),
                     static_cast<std::uint8_t>(g & 0xff));
}

Address public_server_address(int g) {
  return Address::of(10, 201, static_cast<std::uint8_t>(g >> 8),
                     static_cast<std::uint8_t>(g & 0xff));
}

Prefix all_servers_prefix() {
  return Prefix(Address::of(10, 200, 0, 0), 15);
}

}  // namespace

Datacenter make_datacenter(const DatacenterParams& params) {
  Datacenter out;
  net::Network& net = out.model.network();
  const int groups = params.policy_groups;

  NodeId agg = net.add_switch("agg");

  // -- middlebox stack -----------------------------------------------------
  // Firewall policy: deny cross-group traffic pairwise, then allow all
  // (the §5.1 configuration: rules that *prevent* inter-group traffic).
  std::vector<AclEntry> deny_rules;
  if (params.with_storage) {
    // Public servers accept from anyone: allow entries precede the denies.
    for (int g = 0; g < groups; ++g) {
      deny_rules.push_back(AclEntry{Prefix::any(),
                                    Prefix::host(public_server_address(g)),
                                    AclAction::allow});
      deny_rules.push_back(AclEntry{Prefix::host(public_server_address(g)),
                                    Prefix::any(), AclAction::allow});
    }
  }
  for (int a = 0; a < groups; ++a) {
    for (int b = 0; b < groups; ++b) {
      if (a == b) continue;
      deny_rules.push_back(
          AclEntry{group_prefix(a), group_prefix(b), AclAction::deny});
      if (params.with_storage) {
        // Cross-group access to private servers is denied in both
        // directions: requests in, data out.
        deny_rules.push_back(AclEntry{group_prefix(a),
                                      Prefix::host(private_server_address(b)),
                                      AclAction::deny});
        deny_rules.push_back(AclEntry{Prefix::host(private_server_address(b)),
                                      group_prefix(a), AclAction::deny});
      }
    }
  }

  out.fw_primary = &out.model.add_middlebox(
      std::make_unique<mbox::LearningFirewall>("fw-0", deny_rules,
                                               AclAction::allow));
  auto& idps0 = out.model.add_middlebox(std::make_unique<mbox::Idps>("idps-0"));
  net.add_link(out.fw_primary->node(), agg);
  net.add_link(idps0.node(), agg);

  mbox::Idps* idps1 = nullptr;
  if (params.redundancy) {
    out.fw_backup = &out.model.add_middlebox(
        std::make_unique<mbox::LearningFirewall>("fw-1", deny_rules,
                                                 AclAction::allow));
    idps1 = &out.model.add_middlebox(std::make_unique<mbox::Idps>("idps-1"));
    net.add_link(out.fw_backup->node(), agg);
    net.add_link(idps1->node(), agg);
  }

  // -- racks ---------------------------------------------------------------
  std::vector<NodeId> client_tors;
  std::vector<NodeId> server_tors;
  for (int g = 0; g < groups; ++g) {
    NodeId tor = net.add_switch("tor" + std::to_string(g));
    net.add_link(tor, agg);
    client_tors.push_back(tor);
    std::vector<NodeId> clients;
    for (int i = 0; i < params.clients_per_group; ++i) {
      const Address a = client_address(g, i);
      NodeId h = net.add_host(
          "c" + std::to_string(g) + "-" + std::to_string(i), a);
      net.add_link(h, tor);
      // Local delivery only for traffic returning from the aggregation
      // layer: same-rack traffic hairpins through the service chain too.
      net.table(tor).add_from(agg, Prefix::host(a), h);
      out.model.set_policy_class(h, PolicyClassId{static_cast<std::uint32_t>(g)});
      clients.push_back(h);
    }
    net.table(tor).add(Prefix::any(), agg);
    out.group_clients.push_back(std::move(clients));

    if (params.with_storage) {
      NodeId stor = net.add_switch("stor" + std::to_string(g));
      net.add_link(stor, agg);
      server_tors.push_back(stor);
      NodeId priv = net.add_host("srv-priv" + std::to_string(g),
                                 private_server_address(g));
      NodeId pub = net.add_host("srv-pub" + std::to_string(g),
                                public_server_address(g));
      net.add_link(priv, stor);
      net.add_link(pub, stor);
      net.table(stor).add_from(agg, Prefix::host(private_server_address(g)),
                               priv);
      net.table(stor).add_from(agg, Prefix::host(public_server_address(g)),
                               pub);
      net.table(stor).add(Prefix::any(), agg);
      out.model.set_policy_class(priv,
                                 PolicyClassId{static_cast<std::uint32_t>(g)});
      out.model.set_policy_class(pub,
                                 PolicyClassId{static_cast<std::uint32_t>(g)});
      out.private_servers.push_back(priv);
      out.public_servers.push_back(pub);
    }
  }

  // -- storage-path middleboxes ----------------------------------------------
  std::vector<Address> all_server_addrs;
  if (params.with_storage) {
    // Cache policy: group g's private data only to group g (deny entries for
    // every other group), public data unrestricted (default allow).
    std::vector<CacheAclEntry> cache_acl;
    for (int g = 0; g < groups; ++g) {
      for (int other = 0; other < groups; ++other) {
        if (other == g) continue;
        cache_acl.push_back(CacheAclEntry{group_prefix(other),
                                          private_server_address(g), true});
      }
    }
    out.cache = &out.model.add_middlebox(
        std::make_unique<mbox::ContentCache>("cache", cache_acl));
    net.add_link(out.cache->node(), agg);

    std::vector<Address> backends;
    for (int g = 0; g < groups; ++g) {
      backends.push_back(public_server_address(g));
      all_server_addrs.push_back(private_server_address(g));
      all_server_addrs.push_back(public_server_address(g));
    }
    auto& lb = out.model.add_middlebox(std::make_unique<mbox::LoadBalancer>(
        "lb", Address::of(10, 255, 0, 1), backends));
    net.add_link(lb.node(), agg);
    net.table(agg).add_from(out.fw_primary->node(),
                            Prefix::host(Address::of(10, 255, 0, 1)),
                            lb.node());
    net.table(agg).add_from(lb.node(), Prefix(Address::of(10, 0, 0, 0), 8),
                            idps0.node());
  }

  // -- aggregation switch: the service chains --------------------------------
  // Base chain for client traffic: ToR -> fw-0 -> idps-0 -> target rack.
  net.table(agg).add(Prefix::any(), out.fw_primary->node());
  net.table(agg).add_from(out.fw_primary->node(),
                          Prefix(Address::of(10, 0, 0, 0), 8), idps0.node());
  for (int g = 0; g < groups; ++g) {
    net.table(agg).add_from(idps0.node(), group_prefix(g), client_tors[g]);
    if (params.with_storage) {
      net.table(agg).add_from(idps0.node(),
                              Prefix::host(private_server_address(g)),
                              server_tors[g]);
      net.table(agg).add_from(idps0.node(),
                              Prefix::host(public_server_address(g)),
                              server_tors[g]);
    }
  }
  if (params.with_storage) {
    // Requests (dst in the server block) divert from client racks through
    // the cache before the FW; responses from server racks likewise pass
    // the cache (getting recorded). Everything the cache emits - forwarded
    // requests, forwarded responses and cache-hit responses - continues
    // through the firewall, which polices both directions.
    for (NodeId tor : client_tors) {
      net.table(agg).add_from(tor, all_servers_prefix(), out.cache->node());
    }
    for (NodeId stor : server_tors) {
      net.table(agg).add_from(stor, Prefix(Address::of(10, 0, 0, 0), 8),
                              out.cache->node());
    }
    net.table(agg).add_from(out.cache->node(),
                            Prefix(Address::of(10, 0, 0, 0), 8),
                            out.fw_primary->node());
  }

  // -- failure scenarios ------------------------------------------------------
  if (params.redundancy) {
    out.fw_down = net.add_failure_scenario("fw-0-down",
                                           {out.fw_primary->node()});
    out.idps_down = net.add_failure_scenario("idps-0-down", {idps0.node()});

    // fw-0-down: the chain enters at fw-1 instead; fw-1's output follows
    // the same paths fw-0's did.
    const Prefix internal(Address::of(10, 0, 0, 0), 8);
    std::vector<net::Rule> fw_rules{
        {Prefix::any(), out.fw_backup->node(), std::nullopt, 9},
        {internal, idps0.node(), out.fw_backup->node(), 9}};
    if (params.with_storage) {
      fw_rules.push_back(
          {internal, out.fw_backup->node(), out.cache->node(), 9});
    }
    net.override_routes(agg, out.fw_down, fw_rules);

    // idps-0-down: fw output and cache responses go to idps-1, which then
    // delivers to the racks.
    std::vector<net::Rule> idps_rules{
        {internal, idps1->node(), out.fw_primary->node(), 9}};
    for (int g = 0; g < groups; ++g) {
      idps_rules.push_back(
          {group_prefix(g), client_tors[g], idps1->node(), 9});
      if (params.with_storage) {
        idps_rules.push_back({Prefix::host(private_server_address(g)),
                              server_tors[g], idps1->node(), 9});
        idps_rules.push_back({Prefix::host(public_server_address(g)),
                              server_tors[g], idps1->node(), 9});
      }
    }
    if (params.with_storage) {
      // Cache output still goes to fw-0 (alive in this scenario); only the
      // load balancer's direct path needs redirecting.
      idps_rules.push_back(
          {internal, idps1->node(), net.node_by_name("lb"), 8});
    }
    net.override_routes(agg, out.idps_down, idps_rules);
  }

  return out;
}

std::vector<Invariant> Datacenter::isolation_invariants() const {
  std::vector<Invariant> out;
  const int groups = static_cast<int>(group_clients.size());
  for (int g = 0; g < groups; ++g) {
    const int next = (g + 1) % groups;
    out.push_back(Invariant::node_isolation(group_clients[next].front(),
                                            group_clients[g].front()));
  }
  return out;
}

std::vector<Invariant> Datacenter::traversal_invariants() const {
  // Scoped to a same-group sender (cross-group traffic is denied by the
  // firewall anyway), which keeps the slice constant-size.
  std::vector<Invariant> out;
  for (const auto& clients : group_clients) {
    NodeId sender = clients.size() > 1 ? clients[1] : clients.front();
    out.push_back(
        Invariant::traversal_from(clients.front(), sender, "idps"));
  }
  return out;
}

std::vector<Invariant> Datacenter::data_isolation_invariants() const {
  std::vector<Invariant> out;
  const int groups = static_cast<int>(group_clients.size());
  for (int g = 0; g < groups; ++g) {
    const int next = (g + 1) % groups;
    out.push_back(Invariant::data_isolation(group_clients[next].front(),
                                            private_servers[g]));
  }
  return out;
}

bool Datacenter::pair_broken(int src_group, int dst_group) const {
  for (auto [s, d] : broken_pairs) {
    if (s == src_group && d == dst_group) return true;
  }
  return false;
}

Batch Datacenter::batch() const {
  Batch out;
  out.name = "datacenter";
  out.invariants = isolation_invariants();
  const int groups = static_cast<int>(out.invariants.size());
  for (int g = 0; g < groups; ++g) {
    const int next = (g + 1) % groups;
    bool broken = false;
    for (auto [s, d] : broken_isolation_pairs) {
      if (s == g && d == next) broken = true;
    }
    out.expected_holds.push_back(!broken);
  }
  return out;
}

void inject_misconfig(Datacenter& dc, DcMisconfig kind, Rng& rng,
                      int strength) {
  const int groups = static_cast<int>(dc.group_clients.size());
  auto pick_group = [&] { return static_cast<int>(rng.uniform(0, groups - 1)); };

  auto delete_deny = [&](mbox::LearningFirewall* fw, int src_g, int dst_g) {
    // Find the deny entry (prefix src_g -> prefix dst_g) and remove it.
    const auto& acl = fw->acl();
    for (std::size_t i = 0; i < acl.size(); ++i) {
      if (acl[i].action == AclAction::deny &&
          acl[i].src == group_prefix(src_g) &&
          acl[i].dst == group_prefix(dst_g)) {
        fw->remove_entry(i);
        return;
      }
    }
  };

  for (int k = 0; k < strength; ++k) {
    const int g = pick_group();
    const int d = (g + 1) % groups;
    switch (kind) {
      case DcMisconfig::none:
        return;
      case DcMisconfig::rules:
        delete_deny(dc.fw_primary, g, d);
        if (dc.fw_backup != nullptr) delete_deny(dc.fw_backup, g, d);
        dc.broken_pairs.emplace_back(g, d);
        dc.broken_isolation_pairs.emplace_back(g, d);
        break;
      case DcMisconfig::redundancy:
        if (dc.fw_backup != nullptr) {
          delete_deny(dc.fw_backup, g, d);
          dc.broken_pairs.emplace_back(g, d);
        }
        break;
      case DcMisconfig::traversal: {
        // Under idps-0-down, reroute fw output straight to the racks,
        // bypassing idps-1 (priority above the failover rules).
        net::Network& net = dc.model.network();
        NodeId agg = net.node_by_name("agg");
        std::vector<net::Rule> bypass;
        for (int gg = 0; gg < groups; ++gg) {
          bypass.push_back({group_prefix(gg),
                            net.node_by_name("tor" + std::to_string(gg)),
                            dc.fw_primary->node(), 20});
          dc.broken_pairs.emplace_back(gg, gg);
        }
        net.override_routes(agg, dc.idps_down, bypass);
        return;  // one shot is total
      }
      case DcMisconfig::cache_acl: {
        if (dc.cache == nullptr) return;
        const Address srv =
            dc.model.network()
                .node(dc.private_servers[static_cast<std::size_t>(g)])
                .address;
        // Remove the cache deny entry protecting group g's private data
        // from group d's clients...
        const auto& acl = dc.cache->acl();
        for (std::size_t i = 0; i < acl.size(); ++i) {
          if (acl[i].deny && acl[i].client == group_prefix(d) &&
              acl[i].origin == srv) {
            dc.cache->remove_entry(i);
            break;
          }
        }
        // ...and the firewalls' outbound deny for the same pair (the paper
        // deletes ACLs "from the content cache and firewalls"). The
        // request-direction deny stays: direct fetches remain blocked, so
        // any violation genuinely flows through the cache.
        auto delete_srv_deny = [&](mbox::LearningFirewall* fw) {
          if (fw == nullptr) return;
          const auto& fw_acl = fw->acl();
          for (std::size_t i = 0; i < fw_acl.size(); ++i) {
            if (fw_acl[i].action == AclAction::deny &&
                fw_acl[i].src == Prefix::host(srv) &&
                fw_acl[i].dst == group_prefix(d)) {
              fw->remove_entry(i);
              return;
            }
          }
        };
        delete_srv_deny(dc.fw_primary);
        delete_srv_deny(dc.fw_backup);
        dc.broken_pairs.emplace_back(g, d);
        break;
      }
    }
  }
}

}  // namespace vmn::scenarios
