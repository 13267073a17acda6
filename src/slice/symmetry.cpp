#include "slice/symmetry.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>

#include "core/hash.hpp"
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "dataplane/transfer.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"

namespace vmn::slice {

namespace {

/// Normalizes a member list exactly like encode::Encoding's constructor:
/// the fingerprints below must describe the problem verify_members() will
/// encode.
std::vector<NodeId> normalize_members(const std::vector<NodeId>& members) {
  std::vector<NodeId> out(members);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

/// Round signatures are compressed to a 64-bit digest before reuse:
/// uncompressed, color length multiplies by relation degree every round,
/// and the digest is a pure function of the signature string, so the same
/// signature digests identically in every slice - cross-slice comparability
/// is preserved exactly, up to the (negligible) chance of a 64-bit
/// collision. The digest is pinned FNV-1a 64 (core/hash.hpp), NOT
/// std::hash: std::hash may differ between implementations, builds and
/// even runs (hash hardening), and the persistent result cache
/// (verify::ResultCache) compares these keys across processes.
std::string digest(const std::string& sig) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(sig)));
  return std::string(buf);
}

/// The relevant address set of a member list, derived exactly like
/// Encoding::compute_relevant_addresses: member host addresses plus member
/// middleboxes' implicit addresses, sorted.
std::vector<Address> relevant_addresses(const encode::NetworkModel& model,
                                        const std::vector<NodeId>& members) {
  std::set<Address> addrs;
  for (NodeId m : members) {
    const net::Node& n = model.network().node(m);
    if (n.kind == net::NodeKind::host) {
      addrs.insert(n.address);
    } else if (const mbox::Middlebox* box = model.middlebox_at(m)) {
      for (Address a : box->implicit_addresses()) addrs.insert(a);
    }
  }
  return {addrs.begin(), addrs.end()};
}

struct Refined {
  /// Final member colors, aligned with the normalized member list.
  std::vector<std::string> mcolor;
  /// The "#members@addresses!scenarios" palette suffix of the key.
  std::string palette;
};

/// The shared 1-WL core of canonical_slice_key and canonical_shape_key:
/// co-refines member and relevant-address colors over the scenario-tagged
/// routing relation (three rounds on the tripartite member/address/scenario
/// structure), starting from the caller's initial member colors.
/// `fingerprint_incidence` additionally colors each (middlebox, address)
/// incidence with the box's per-address policy fingerprint - the slice key
/// wants configuration in the fingerprint, the shape key deliberately does
/// not (shape_bijection verifies configuration exactly instead).
Refined wl_refine(const encode::NetworkModel& model,
                  const std::vector<NodeId>& members,
                  std::vector<std::string> mcolor, bool fingerprint_incidence,
                  int max_failures, dataplane::TransferCache& tcache) {
  const net::Network& net = model.network();
  auto member_index = [&](NodeId id) -> std::optional<std::size_t> {
    auto it = std::lower_bound(members.begin(), members.end(), id);
    if (it == members.end() || *it != id) return std::nullopt;
    return static_cast<std::size_t>(it - members.begin());
  };

  // Relevant addresses with their owning members (the same derivation as
  // Encoding::compute_relevant_addresses); each address is a refinement
  // vertex colored by its owners, never by its bits.
  std::map<Address, std::vector<std::pair<std::string, std::size_t>>>
      owners_by_addr;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const net::Node& n = net.node(members[i]);
    if (n.kind == net::NodeKind::host) {
      owners_by_addr[n.address].push_back({"p", i});
    } else if (const mbox::Middlebox* box = model.middlebox_at(members[i])) {
      for (Address a : box->implicit_addresses()) {
        owners_by_addr[a].push_back({"i", i});
      }
    }
  }
  std::vector<Address> relevant;
  std::vector<std::vector<std::pair<std::string, std::size_t>>> owners;
  relevant.reserve(owners_by_addr.size());
  owners.reserve(owners_by_addr.size());
  for (auto& [a, os] : owners_by_addr) {
    relevant.push_back(a);
    owners.push_back(std::move(os));
  }

  // Configuration enters the slice key through each member middlebox's
  // per-address policy projection (the same projection infer_policy_classes
  // fingerprints hosts with): the box x relevant-address incidence is
  // colored by policy_fingerprint, so same-type boxes whose configurations
  // treat a slice address differently (e.g. default-deny vs default-allow
  // firewalls, or a dropping IDPS vs a pure monitor) never share a key -
  // without this the encoding (which compiles the full config) would
  // diverge from the key. That rests on the ConfigRelations contract
  // (mbox/config.hpp): every axiom-relevant knob, address-independent ones
  // included, must be in the descriptor the fingerprint is derived from
  // (address-free rows, e.g. the IDPS mode or an app-firewall's class
  // list). Fingerprints
  // render prefixes canonically (length and membership, never bits), so
  // isomorphically-treated addresses - renamed ones included - get equal
  // strings, which is what keeps e.g. an enterprise's public subnets
  // merged. (The shape key skips this incidence: configuration must not
  // split its candidate pairing, and shape_bijection re-checks it exactly
  // through Middlebox::encoding_projection.)
  // Pairwise configuration joins among slice addresses. The per-address
  // fingerprints above are deliberately role-local (occurrence ids are
  // relative to the queried address's matched rows, so an enterprise's
  // public subnets collapse), which means they cannot tell whether two
  // slice addresses are joined by the SAME config row or by two
  // corresponding-but-different ones - deny(P1->Q1, P2->Q2) looks alike
  // from x1 in P1 whether the slice's other host sits in Q1 (denied) or Q2
  // (admitted). That information is exactly the admitted-pair relation the
  // axioms compile (acl_term and friends project onto relevant x relevant),
  // so each pair_match relation contributes its admitted pairs as refinement
  // edges below, alongside the routing relation.
  struct CfgPair {
    std::size_t box, lhs, rhs;
    std::string rel;
  };
  std::vector<CfgPair> cfg_pairs;
  if (fingerprint_incidence) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const mbox::Middlebox* box = model.middlebox_at(members[i]);
      if (box == nullptr) continue;
      for (std::size_t j = 0; j < relevant.size(); ++j) {
        owners[j].push_back(
            {"f" + digest(box->policy_fingerprint(relevant[j])), i});
      }
      const mbox::ConfigRelations rels = box->config_relations();
      for (const mbox::ConfigRelation& rel : rels.relations) {
        if (rel.semantics != mbox::RelationSemantics::pair_match) continue;
        for (std::size_t j = 0; j < relevant.size(); ++j) {
          for (std::size_t k = 0; k < relevant.size(); ++k) {
            if (rel.admits(relevant[j], relevant[k])) {
              cfg_pairs.push_back(CfgPair{i, j, k, rel.name});
            }
          }
        }
      }
    }
  }

  // The routing the encoding actually sees: for every in-budget failure
  // scenario, the transfer relation over members x relevant addresses
  // (exactly what emit_omega_and_failures compiles into omega.transfer;
  // deliveries outside the slice are drops there too) plus the members the
  // scenario fails. Physical wiring enters the encoding only through this
  // relation, so it is all the key needs - and unlike wiring it captures
  // per-source rules and scenario-specific reroutes.
  struct Route {
    std::size_t from, addr, to;
  };
  std::vector<std::vector<Route>> routes;
  std::vector<std::vector<std::size_t>> failed;
  for (const net::FailureScenario& sc : net.scenarios()) {
    if (static_cast<int>(sc.failed_nodes.size()) > max_failures) continue;
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(
        &sc - net.scenarios().data()));
    const dataplane::TransferFunction& tf = tcache.at(sid);
    std::vector<Route> rs;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < relevant.size(); ++j) {
        std::optional<NodeId> to = tf.next_edge(members[i], relevant[j]);
        if (!to) continue;
        std::optional<std::size_t> k = member_index(*to);
        if (!k) continue;
        rs.push_back(Route{i, j, *k});
      }
    }
    routes.push_back(std::move(rs));
    std::vector<std::size_t> f;
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (sc.is_failed(members[i])) f.push_back(i);
    }
    failed.push_back(std::move(f));
  }

  const auto scenario_tags = [&](const std::vector<std::string>& mc,
                                 const std::vector<std::string>& ac) {
    std::vector<std::string> tags(routes.size());
    for (std::size_t s = 0; s < routes.size(); ++s) {
      std::vector<std::string> lines;
      for (const Route& r : routes[s]) {
        lines.push_back(mc[r.from] + ">" + ac[r.addr] + ">" + mc[r.to]);
      }
      for (std::size_t i : failed[s]) lines.push_back("x" + mc[i]);
      std::sort(lines.begin(), lines.end());
      std::string sig = "S";
      for (const std::string& l : lines) sig += l + ",";
      tags[s] = digest(sig);
    }
    return tags;
  };

  // Seed address colors from their owners, then co-refine members and
  // addresses over the scenario-tagged routing relation (1-WL on the
  // tripartite member/address/scenario structure, three rounds).
  std::vector<std::string> acolor(relevant.size());
  for (std::size_t j = 0; j < relevant.size(); ++j) {
    std::vector<std::string> os;
    for (const auto& [tag, i] : owners[j]) os.push_back(tag + mcolor[i]);
    std::sort(os.begin(), os.end());
    std::string c = "A(";
    for (const std::string& o : os) c += o + ",";
    acolor[j] = c + ")";
  }
  for (int round = 0; round < 3; ++round) {
    const std::vector<std::string> stag = scenario_tags(mcolor, acolor);
    std::vector<std::vector<std::string>> mparts(members.size());
    std::vector<std::vector<std::string>> aparts(relevant.size());
    for (std::size_t s = 0; s < routes.size(); ++s) {
      for (const Route& r : routes[s]) {
        mparts[r.from].push_back("f" + stag[s] + acolor[r.addr] + mcolor[r.to]);
        mparts[r.to].push_back("t" + stag[s] + mcolor[r.from] + acolor[r.addr]);
        aparts[r.addr].push_back("e" + stag[s] + mcolor[r.from] + mcolor[r.to]);
      }
      for (std::size_t i : failed[s]) mparts[i].push_back("x" + stag[s]);
    }
    for (std::size_t j = 0; j < relevant.size(); ++j) {
      for (const auto& [tag, i] : owners[j]) {
        mparts[i].push_back("o" + tag + acolor[j]);
        aparts[j].push_back("o" + tag + mcolor[i]);
      }
    }
    for (const CfgPair& p : cfg_pairs) {
      mparts[p.box].push_back("c" + p.rel + acolor[p.lhs] + ">" +
                              acolor[p.rhs]);
      aparts[p.lhs].push_back("cl" + p.rel + mcolor[p.box] + acolor[p.rhs]);
      aparts[p.rhs].push_back("cr" + p.rel + mcolor[p.box] + acolor[p.lhs]);
    }
    std::vector<std::string> next_m(members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
      std::sort(mparts[i].begin(), mparts[i].end());
      std::string sig = "(" + mcolor[i] + "|";
      for (const std::string& p : mparts[i]) sig += p + ",";
      next_m[i] = digest(sig + ")");
    }
    std::vector<std::string> next_a(relevant.size());
    for (std::size_t j = 0; j < relevant.size(); ++j) {
      std::sort(aparts[j].begin(), aparts[j].end());
      std::string sig = "[" + acolor[j] + "|";
      for (const std::string& p : aparts[j]) sig += p + ",";
      next_a[j] = digest(sig + "]");
    }
    mcolor = std::move(next_m);
    acolor = std::move(next_a);
  }

  // The palette: the sorted multisets of final member colors, address
  // colors and scenario fingerprints.
  std::vector<std::string> mpal = mcolor;
  std::vector<std::string> apal = acolor;
  std::vector<std::string> spal = scenario_tags(mcolor, acolor);
  std::sort(mpal.begin(), mpal.end());
  std::sort(apal.begin(), apal.end());
  std::sort(spal.begin(), spal.end());
  Refined out;
  out.palette = "#";
  for (const std::string& c : mpal) out.palette += c + ";";
  out.palette += "@";
  for (const std::string& c : apal) out.palette += c + ";";
  out.palette += "!";
  for (const std::string& c : spal) out.palette += c + ";";
  out.mcolor = std::move(mcolor);
  return out;
}

}  // namespace

std::string canonical_slice_key(const encode::NetworkModel& model,
                                const std::vector<NodeId>& slice_members,
                                const encode::Invariant& invariant,
                                const PolicyClasses& classes,
                                int max_failures,
                                dataplane::TransferCache* transfers) {
  const net::Network& net = model.network();
  dataplane::TransferCache local_transfers(net);
  dataplane::TransferCache& tcache =
      transfers != nullptr ? *transfers : local_transfers;
  const std::vector<NodeId> members = normalize_members(slice_members);

  // Initial member colors: invariant role, then policy class for hosts and
  // type/scope/failure-mode for middleboxes (plus, for traversal
  // invariants, whether the encoder's name-prefix match selects the box).
  // Node names and raw address bits never enter the key. The host color is
  // the *reachability-refined* class index (infer_policy_classes): hosts
  // whose configurations fingerprint alike but whose packets live in
  // disjoint parts of the dataplane carry different classes, so two slices
  // that differ only in which such sub-population their representative
  // senders came from can never canonically merge - dedup would otherwise
  // re-merge exactly the classes the refinement split.
  std::vector<std::string> mcolor(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    const NodeId id = members[i];
    std::string c;
    if (id == invariant.target) {
      c = "T";
    } else if (id == invariant.other) {
      c = "O";
    }
    if (net.kind(id) == net::NodeKind::host) {
      c += "h" + std::to_string(classes.class_of(id));
    } else if (const mbox::Middlebox* box = model.middlebox_at(id)) {
      c += "m:" + box->structural_fingerprint();
      if (invariant.kind == encode::InvariantKind::traversal &&
          net.name(id).starts_with(invariant.type_prefix)) {
        c += ":P";  // the traversal axiom matches boxes by name prefix
      }
    }
    mcolor[i] = std::move(c);
  }

  Refined refined = wl_refine(model, members, std::move(mcolor),
                              /*fingerprint_incidence=*/true, max_failures,
                              tcache);
  return encode::to_string(invariant.kind) + "/" + invariant.type_prefix +
         refined.palette;
}

ShapeKey canonical_shape_key(const encode::NetworkModel& model,
                             const std::vector<NodeId>& slice_members,
                             int max_failures,
                             dataplane::TransferCache* transfers) {
  const net::Network& net = model.network();
  dataplane::TransferCache local_transfers(net);
  dataplane::TransferCache& tcache =
      transfers != nullptr ? *transfers : local_transfers;

  ShapeKey out;
  out.members = normalize_members(slice_members);

  // Invariant-free, configuration-free initial colors: hosts are all alike
  // (their policy classes and fingerprints deliberately excluded - raw
  // peer prefixes inside fingerprints would split exactly the
  // renamed-isomorphic slices this key exists to pair), middleboxes carry
  // their structural triple only. Everything else the base encoding
  // depends on - routing under every in-budget scenario, failure sets,
  // address ownership - enters through the refinement relation.
  std::vector<std::string> mcolor(out.members.size());
  for (std::size_t i = 0; i < out.members.size(); ++i) {
    const NodeId id = out.members[i];
    if (net.kind(id) == net::NodeKind::host) {
      mcolor[i] = "h";
    } else if (const mbox::Middlebox* box = model.middlebox_at(id)) {
      mcolor[i] = "m:" + box->structural_fingerprint();
    }
  }

  Refined refined = wl_refine(model, out.members, std::move(mcolor),
                              /*fingerprint_incidence=*/false, max_failures,
                              tcache);
  out.key = "shape" + refined.palette;
  out.colors = std::move(refined.mcolor);
  return out;
}

std::optional<std::vector<NodeId>> shape_bijection(
    const encode::NetworkModel& model, const ShapeKey& from,
    const ShapeKey& to, int max_failures,
    dataplane::TransferCache* transfers, MergeRefusal* why) {
  const net::Network& net = model.network();
  auto refuse = [&](std::string reason, std::string box_type =
                                            {}) -> std::optional<std::vector<NodeId>> {
    if (why != nullptr) {
      why->reason = std::move(reason);
      why->box_type = std::move(box_type);
    }
    return std::nullopt;
  };
  if (from.members.size() != to.members.size()) {
    return refuse("member counts differ");
  }
  if (from.members.size() != from.colors.size() ||
      to.members.size() != to.colors.size()) {
    return refuse("shape colors misaligned");
  }
  dataplane::TransferCache local_transfers(net);
  dataplane::TransferCache& tcache =
      transfers != nullptr ? *transfers : local_transfers;
  const std::size_t n = from.members.size();

  // Candidate pairing: sort both sides by (color, position) and pair in
  // order. Within a color class the pairing is arbitrary - if the class
  // holds genuine automorphisms any pairing verifies; if 1-WL merely
  // failed to distinguish non-corresponding nodes, the exact checks below
  // reject the candidate and the caller encodes cold.
  auto order_by_color = [n](const std::vector<std::string>& colors) {
    std::vector<std::size_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) idx[i] = i;
    std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
      return colors[a] != colors[b] ? colors[a] < colors[b] : a < b;
    });
    return idx;
  };
  const std::vector<std::size_t> from_order = order_by_color(from.colors);
  const std::vector<std::size_t> to_order = order_by_color(to.colors);
  std::vector<NodeId> image(n);
  // perm[i] = index into to.members of the node playing from.members[i].
  std::vector<std::size_t> perm(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (from.colors[from_order[r]] != to.colors[to_order[r]]) {
      // color multisets differ: not even a candidate
      return refuse("refinement color multisets differ");
    }
    perm[from_order[r]] = to_order[r];
    image[from_order[r]] = to.members[to_order[r]];
  }

  // --- exact verification: everything the base encoding compiles ---------

  // 1. Node kinds and structural middlebox fingerprints must correspond.
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId a = from.members[i];
    const NodeId b = image[i];
    if (net.kind(a) != net.kind(b)) return refuse("node kinds differ");
    const mbox::Middlebox* box_a = model.middlebox_at(a);
    const mbox::Middlebox* box_b = model.middlebox_at(b);
    if ((box_a == nullptr) != (box_b == nullptr)) {
      return refuse("node kinds differ");
    }
    if (box_a != nullptr &&
        box_a->structural_fingerprint() != box_b->structural_fingerprint()) {
      return refuse("middlebox structure differs (" + box_a->type() + " vs " +
                    box_b->type() + ")", box_a->type());
    }
  }

  // 2. The induced address bijection: host addresses map pairwise, and
  // middlebox implicit-address lists map elementwise (their order is part
  // of the instance's configuration - e.g. a load balancer's backends).
  // Any conflict, and any failure to map the relevant sets onto each
  // other bijectively, refuses the candidate.
  std::map<Address, Address> alpha;
  std::map<Address, Address> alpha_inv;
  auto map_addr = [&](Address a, Address b) {
    auto [it, inserted] = alpha.emplace(a, b);
    if (!inserted && it->second != b) return false;
    auto [jt, jinserted] = alpha_inv.emplace(b, a);
    return jinserted || jt->second == a;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const net::Node& node_a = net.node(from.members[i]);
    if (node_a.kind == net::NodeKind::host) {
      if (!map_addr(node_a.address, net.node(image[i]).address)) {
        return refuse("induced address map is not a bijection");
      }
    } else if (const mbox::Middlebox* box_a = model.middlebox_at(from.members[i])) {
      const mbox::Middlebox* box_b = model.middlebox_at(image[i]);
      const std::vector<Address> ia = box_a->implicit_addresses();
      const std::vector<Address> ib = box_b->implicit_addresses();
      if (ia.size() != ib.size()) {
        return refuse("implicit address lists differ (" + box_a->type() + ")",
                      box_a->type());
      }
      for (std::size_t k = 0; k < ia.size(); ++k) {
        if (!map_addr(ia[k], ib[k])) {
          return refuse("induced address map is not a bijection");
        }
      }
    }
  }
  const std::vector<Address> rel_from = relevant_addresses(model, from.members);
  const std::vector<Address> rel_to = relevant_addresses(model, to.members);
  if (rel_from.size() != rel_to.size()) {
    return refuse("relevant address sets differ in size");
  }
  // mapped[j] = alpha(rel_from[j]); must enumerate rel_to exactly.
  std::vector<Address> mapped(rel_from.size(), Address{});
  {
    std::set<Address> image_set;
    for (std::size_t j = 0; j < rel_from.size(); ++j) {
      auto it = alpha.find(rel_from[j]);
      if (it == alpha.end()) {
        return refuse("relevant address sets do not correspond");
      }
      mapped[j] = it->second;
      image_set.insert(it->second);
    }
    if (!std::equal(image_set.begin(), image_set.end(), rel_to.begin(),
                    rel_to.end())) {
      return refuse("relevant address sets do not correspond");
    }
  }

  // 3. Middlebox configurations: each member box's canonical projection of
  // its configuration onto the relevant set must agree under the address
  // bijection. Addresses are rendered as positions in the aligned relevant
  // lists; an address a projection mentions without a mapping renders as a
  // side-tagged raw literal, which can never compare equal across the two
  // sides - unknown configuration surface refuses reuse. On a mismatch the
  // two ConfigRelations descriptors are diffed structurally so the refusal
  // names the exact relation, row and cell that differ.
  std::map<Address, std::size_t> from_token;
  std::map<Address, std::size_t> to_token;
  for (std::size_t j = 0; j < rel_from.size(); ++j) {
    from_token.emplace(rel_from[j], j);
    to_token.emplace(mapped[j], j);
  }
  auto token_of = [](const std::map<Address, std::size_t>& tokens,
                     const char* side) {
    return [&tokens, side](Address a) {
      auto it = tokens.find(a);
      if (it == tokens.end()) {
        return std::string("!") + side + std::to_string(a.bits());
      }
      return "#" + std::to_string(it->second);
    };
  };
  const std::function<std::string(Address)> tok_from =
      token_of(from_token, "f");
  const std::function<std::string(Address)> tok_to = token_of(to_token, "t");
  for (std::size_t i = 0; i < n; ++i) {
    const mbox::Middlebox* box_a = model.middlebox_at(from.members[i]);
    if (box_a == nullptr) continue;
    const mbox::Middlebox* box_b = model.middlebox_at(image[i]);
    if (box_a->encoding_projection(rel_from, tok_from) !=
        box_b->encoding_projection(mapped, tok_to)) {
      std::string detail = mbox::diff_config(
          box_a->type(), box_a->config_relations(), box_b->config_relations(),
          rel_from, tok_from, mapped, tok_to);
      if (detail.empty()) {
        // Structurally corresponding descriptors whose projections still
        // differ (relevant-set interplay): keep the generic reason.
        detail = "configuration projection mismatch (" + box_a->type() + ")";
      }
      return refuse(std::move(detail), box_a->type());
    }
  }

  // 4. Routing and failures: for every in-budget scenario, the transfer
  // relation over members x relevant addresses (what omega.transfer
  // compiles) and the failed-member set, both written in the target
  // namespace, must correspond under SOME permutation of the in-budget
  // scenarios - the scenario-selection constant is used only with
  // equality, so permuting the enum's interpretation preserves
  // satisfiability, and nothing else in the encoding is scenario-indexed.
  // A multiset match certifies existence; the permutation itself is never
  // needed downstream (witness fail events name nodes, not scenarios).
  auto member_pos = [](const std::vector<NodeId>& members, NodeId id)
      -> std::optional<std::size_t> {
    auto it = std::lower_bound(members.begin(), members.end(), id);
    if (it == members.end() || *it != id) return std::nullopt;
    return static_cast<std::size_t>(it - members.begin());
  };
  std::vector<std::string> from_sigs;
  std::vector<std::string> to_sigs;
  for (const net::FailureScenario& sc : net.scenarios()) {
    if (static_cast<int>(sc.failed_nodes.size()) > max_failures) continue;
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(
        &sc - net.scenarios().data()));
    const dataplane::TransferFunction& tf = tcache.at(sid);
    std::vector<std::string> fl;
    std::vector<std::string> tl;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < rel_from.size(); ++j) {
        // from-side walk, written in to-space coordinates via perm.
        if (std::optional<NodeId> hop = tf.next_edge(from.members[i],
                                                     rel_from[j])) {
          if (std::optional<std::size_t> k = member_pos(from.members, *hop)) {
            fl.push_back("r" + std::to_string(perm[i]) + "," +
                         std::to_string(j) + ">" + std::to_string(perm[*k]));
          }
        }
        // to-side walk, already in to-space; addresses share the aligned
        // token space (mapped[j] is alpha(rel_from[j])).
        if (std::optional<NodeId> hop = tf.next_edge(to.members[i],
                                                     mapped[j])) {
          if (std::optional<std::size_t> k = member_pos(to.members, *hop)) {
            tl.push_back("r" + std::to_string(i) + "," + std::to_string(j) +
                         ">" + std::to_string(*k));
          }
        }
      }
      if (sc.is_failed(from.members[i])) {
        fl.push_back("x" + std::to_string(perm[i]));
      }
      if (sc.is_failed(to.members[i])) {
        tl.push_back("x" + std::to_string(i));
      }
    }
    std::sort(fl.begin(), fl.end());
    std::sort(tl.begin(), tl.end());
    std::string fsig;
    for (const std::string& l : fl) fsig += l + ";";
    std::string tsig;
    for (const std::string& l : tl) tsig += l + ";";
    from_sigs.push_back(std::move(fsig));
    to_sigs.push_back(std::move(tsig));
  }
  std::sort(from_sigs.begin(), from_sigs.end());
  std::sort(to_sigs.begin(), to_sigs.end());
  if (from_sigs != to_sigs) {
    return refuse("scenario transfer relations differ");
  }

  return image;
}

ProblemKey canonical_problem_key(const encode::NetworkModel& model,
                                 const ShapeKey& shape,
                                 const encode::Invariant& invariant,
                                 int max_failures,
                                 dataplane::TransferCache* transfers) {
  ProblemKey out;
  const net::Network& net = model.network();
  const std::size_t n = shape.members.size();
  if (n == 0 || shape.colors.size() != n) return out;
  if (shape.members != normalize_members(shape.members)) return out;

  dataplane::TransferCache local_transfers(net);
  dataplane::TransferCache& tcache =
      transfers != nullptr ? *transfers : local_transfers;

  // Canonical rank order: (final shape color, invariant role, position).
  // Rank r of one problem stands for rank r of any equal-keyed other, and
  // equal keys certify that the rank-for-rank pairing passes every exact
  // check shape_bijection performs (the rendering below spells each
  // check's inputs out in rank/token coordinates), which is the key's
  // soundness argument. The invariant role breaks color ties between the
  // target/other endpoints and their symmetric peers: without it, two
  // copies of the same invariant template whose endpoints happen to sort
  // in opposite creation order render as I2:3 vs I3:2 and miss each other
  // (the datacenter's wrap-around group pair). An isomorphism of problems
  // maps roles to roles, so role-aware ranks still correspond; a remaining
  // unlucky tie within a color class can only make two isomorphic problems
  // render differently - a missed hit, never a merge.
  auto role_of = [&](std::size_t i) {
    const NodeId id = shape.members[i];
    if (invariant.target.valid() && id == invariant.target) return 0;
    if (invariant.other.valid() && id == invariant.other) return 1;
    return 2;
  };
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (shape.colors[a] != shape.colors[b]) {
      return shape.colors[a] < shape.colors[b];
    }
    if (role_of(a) != role_of(b)) return role_of(a) < role_of(b);
    return a < b;
  });
  std::vector<std::size_t> rank_of(n);
  for (std::size_t r = 0; r < n; ++r) rank_of[order[r]] = r;

  auto rank_of_node = [&](NodeId id) -> std::optional<std::size_t> {
    auto it = std::lower_bound(shape.members.begin(), shape.members.end(), id);
    if (it == shape.members.end() || *it != id) return std::nullopt;
    return rank_of[static_cast<std::size_t>(it - shape.members.begin())];
  };
  std::optional<std::size_t> target_rank;
  if (invariant.target.valid()) target_rank = rank_of_node(invariant.target);
  if (!target_rank) return out;  // invariant escapes the slice: no key
  std::optional<std::size_t> other_rank;
  if (invariant.other.valid()) {
    other_rank = rank_of_node(invariant.other);
    if (!other_rank) return out;
  }

  // Address tokens: first appearance along the rank order (a host's
  // address, then each middlebox's implicit list in its configured order).
  // Every relevant address is owned by some member, so this numbers the
  // whole relevant set; raw bits never enter the key.
  std::map<Address, std::size_t> token;
  auto tok = [&](Address a) {
    auto [it, inserted] = token.emplace(a, out.tokens.size());
    if (inserted) out.tokens.push_back(a);
    return it->second;
  };

  std::string body = "prob6/" + encode::to_string(invariant.kind) + "/";
  for (std::size_t r = 0; r < n; ++r) {
    const NodeId id = shape.members[order[r]];
    const net::Node& node = net.node(id);
    if (node.kind == net::NodeKind::host) {
      body += "h@" + std::to_string(tok(node.address));
    } else if (const mbox::Middlebox* box = model.middlebox_at(id)) {
      body += "m:" + box->structural_fingerprint();
      for (Address a : box->implicit_addresses()) {
        body += "@" + std::to_string(tok(a));
      }
    } else {
      body += "n";  // structureless member (never produced by slicing)
    }
    body += ";";
  }
  // Configurations: each member box's canonical projection over the
  // token-ordered relevant set. An address a projection mentions outside
  // the relevant set renders as raw bits: equal bits on both sides of a
  // key comparison name the literally identical address, which extends
  // the induced token bijection by identity (still sound - unlike
  // shape_bijection's side-tagged refusal, which must stay conservative
  // because its two sides token addresses independently).
  auto tokfn = [&](Address a) -> std::string {
    auto it = token.find(a);
    if (it == token.end()) return "!" + std::to_string(a.bits());
    return "#" + std::to_string(it->second);
  };
  for (std::size_t r = 0; r < n; ++r) {
    const mbox::Middlebox* box = model.middlebox_at(shape.members[order[r]]);
    if (box == nullptr) continue;
    body += "c" + std::to_string(r) + "=" +
            digest(box->encoding_projection(out.tokens, tokfn)) + ";";
  }
  // The invariant, in rank coordinates. Traversal invariants select
  // middleboxes by name prefix - the key records the selected rank set
  // instead of the (name-carrying) prefix itself, so renamed prefixes
  // with corresponding selections still match.
  body += "I" + std::to_string(*target_rank) + ":" +
          (other_rank ? std::to_string(*other_rank) : std::string("-"));
  if (invariant.kind == encode::InvariantKind::traversal) {
    std::vector<std::size_t> sel;
    for (std::size_t i = 0; i < n; ++i) {
      if (model.middlebox_at(shape.members[i]) != nullptr &&
          net.name(shape.members[i]).starts_with(invariant.type_prefix)) {
        sel.push_back(rank_of[i]);
      }
    }
    std::sort(sel.begin(), sel.end());
    body += ":P{";
    for (std::size_t r : sel) body += std::to_string(r) + ",";
    body += "}";
  } else if (!invariant.type_prefix.empty()) {
    body += ":t" + invariant.type_prefix;
  }
  body += ";";
  // Routing and failures: per in-budget scenario, the member x relevant
  // transfer relation and failed-member set in rank/token coordinates,
  // compared as a sorted multiset of signatures (scenario order is
  // interpretation, not content - exactly shape_bijection's check 4).
  std::vector<std::string> sigs;
  for (const net::FailureScenario& sc : net.scenarios()) {
    if (static_cast<int>(sc.failed_nodes.size()) > max_failures) continue;
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(
        &sc - net.scenarios().data()));
    const dataplane::TransferFunction& tf = tcache.at(sid);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t t = 0; t < out.tokens.size(); ++t) {
        std::optional<NodeId> hop =
            tf.next_edge(shape.members[i], out.tokens[t]);
        if (!hop) continue;
        std::optional<std::size_t> k = rank_of_node(*hop);
        if (!k) continue;
        lines.push_back("r" + std::to_string(rank_of[i]) + "," +
                        std::to_string(t) + ">" + std::to_string(*k));
      }
      if (sc.is_failed(shape.members[i])) {
        lines.push_back("x" + std::to_string(rank_of[i]));
      }
    }
    std::sort(lines.begin(), lines.end());
    std::string sig;
    for (const std::string& l : lines) sig += l + ";";
    sigs.push_back(digest(sig));
  }
  std::sort(sigs.begin(), sigs.end());
  body += "|S";
  for (const std::string& s : sigs) body += s + ";";
  body += "|mf=" + std::to_string(max_failures);

  out.order.resize(n);
  for (std::size_t r = 0; r < n; ++r) out.order[r] = shape.members[order[r]];
  out.key = std::move(body);
  return out;
}

}  // namespace vmn::slice
