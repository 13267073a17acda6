#include "slice/symmetry.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <utility>

#include "core/hash.hpp"
#include "dataplane/transfer.hpp"
#include "encode/encoder.hpp"
#include "mbox/middlebox.hpp"
#include "net/topology.hpp"
#include "slice/refine.hpp"

namespace vmn::slice {

using encode::relevant_addresses;

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

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return std::string(buf);
}

/// Long renderings (configuration projections, scenario signatures) enter
/// the problem key as a 64-bit digest. The digest is pinned FNV-1a 64
/// (core/hash.hpp), NOT std::hash: std::hash may differ between
/// implementations, builds and even runs (hash hardening), and the
/// persistent result cache (verify::ResultCache) compares these keys across
/// processes.
std::string digest(const std::string& sig) { return hex(fnv1a64(sig)); }

/// Index of `id` in the sorted member list, if it is a member.
std::optional<std::size_t> position(const std::vector<NodeId>& members,
                                   NodeId id) {
  auto it = std::lower_bound(members.begin(), members.end(), id);
  if (it == members.end() || *it != id) return std::nullopt;
  return static_cast<std::size_t>(it - members.begin());
}

/// The routing and failures an encoding over `members` compiles, written
/// in relabeled coordinates (`label[i]` for members[i], j for
/// addresses[j]): per in-budget scenario, the member x address transfer
/// relation (omega.transfer; deliveries outside the members are drops
/// there too) plus the failed members, digested, as a sorted multiset.
/// Scenario order is interpretation, not content: the scenario-selection
/// constant is used only with equality, so two encodings whose multisets
/// match are equisatisfiable under a permutation of their scenarios.
std::vector<std::string> scenario_signatures(
    const net::Network& net, const std::vector<NodeId>& members,
    const std::vector<std::size_t>& label,
    const std::vector<Address>& addresses, int max_failures,
    dataplane::TransferCache& tcache) {
  std::vector<std::string> sigs;
  for (const net::FailureScenario& sc : net.scenarios()) {
    if (static_cast<int>(sc.failed_nodes.size()) > max_failures) continue;
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(
        &sc - net.scenarios().data()));
    const dataplane::TransferFunction& tf = tcache.at(sid);
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < addresses.size(); ++j) {
        const std::optional<NodeId> hop =
            tf.next_edge(members[i], addresses[j]);
        if (!hop) continue;
        const std::optional<std::size_t> k = position(members, *hop);
        if (!k) continue;
        lines.push_back("r" + std::to_string(label[i]) + "," +
                        std::to_string(j) + ">" + std::to_string(label[*k]));
      }
      if (sc.is_failed(members[i])) {
        lines.push_back("x" + std::to_string(label[i]));
      }
    }
    std::sort(lines.begin(), lines.end());
    std::string sig;
    for (const std::string& l : lines) sig += l + ";";
    sigs.push_back(digest(sig));
  }
  std::sort(sigs.begin(), sigs.end());
  return sigs;
}

/// Arc labels of the problem graph: each names the role one vertex plays
/// for the other.
enum ProblemArc : std::uint64_t {
  kOwnsHostAddress, kOwnsImplicitAddress, kFails,
  kRouteFrom, kRouteAddress, kRouteTo, kRouteScenario,
  kConfigBox, kConfigLhs, kConfigRhs,
};

/// The stable colours of canonical_slice_key's and canonical_shape_key's
/// problem graph.
struct ProblemColours {
  /// Member colours, aligned with the normalized member list.
  std::vector<std::uint64_t> mcolor;
  /// The "#members@addresses!scenarios" palette suffix of the key.
  std::string palette;
};

/// Builds the problem graph over `members` (initial colours `mcolor`) and
/// refines it (slice/refine.hpp). Its vertices are the members, the
/// relevant addresses and the in-budget scenarios, plus one small
/// hyperedge vertex per route and per admitted config pair; its arcs are
/// address ownership, routes, failures and config pairs.
/// `fingerprint_incidence` additionally labels each (middlebox, address)
/// incidence with the box's per-address policy fingerprint - the slice key
/// wants configuration in the fingerprint, the shape key deliberately does
/// not (shape_bijection verifies configuration exactly instead).
ProblemColours colour_problem(const encode::NetworkModel& model,
                              const std::vector<NodeId>& members,
                              const std::vector<std::uint64_t>& mcolor,
                              bool fingerprint_incidence, int max_failures,
                              dataplane::TransferCache& tcache) {
  const net::Network& net = model.network();
  ColourGraph g;
  for (std::uint64_t c : mcolor) g.add_vertex(c);

  // Relevant addresses (the encoding's own derivation), coloured by their
  // owners through ownership edges, never by their bits.
  const std::vector<Address> relevant = relevant_addresses(model, members);
  const std::size_t first_addr = g.colours.size();
  for (std::size_t j = 0; j < relevant.size(); ++j) {
    g.add_vertex(fnv1a64("address"));
  }
  const auto addr_vertex = [&](Address a) {
    const auto it = std::lower_bound(relevant.begin(), relevant.end(), a);
    return first_addr + static_cast<std::size_t>(it - relevant.begin());
  };
  for (std::size_t i = 0; i < members.size(); ++i) {
    const net::Node& n = net.node(members[i]);
    if (n.kind == net::NodeKind::host) {
      g.add_edge(i, kOwnsHostAddress, addr_vertex(n.address));
    } else if (const mbox::Middlebox* box = model.middlebox_at(members[i])) {
      for (Address a : box->implicit_addresses()) {
        g.add_edge(i, kOwnsImplicitAddress, addr_vertex(a));
      }
    }
  }

  // Configuration enters the slice key through each member box's
  // per-address policy fingerprint (the projection infer_policy_classes
  // colours hosts with), so same-type boxes that treat a slice address
  // differently (default-deny vs default-allow, a dropping IDPS vs a
  // monitor) never share a key. That rests on the ConfigRelations contract
  // (mbox/config.hpp): every axiom-relevant knob is in the descriptor.
  // Fingerprints render prefixes by length and membership, never bits, so
  // renamed-isomorphic addresses still colour alike. They are role-local,
  // though: deny(P1->Q1, P2->Q2) looks alike from x1 in P1 whether the
  // slice's other host sits in Q1 (denied) or Q2 (admitted). That pairwise
  // join is the admitted-pair relation the axioms compile, so each admitted
  // pair of each pair_match relation is a vertex joining the box and both
  // addresses. (The shape key skips all of this: configuration must not
  // split its candidate pairing, and shape_bijection checks it exactly.)
  if (fingerprint_incidence) {
    for (std::size_t i = 0; i < members.size(); ++i) {
      const mbox::Middlebox* box = model.middlebox_at(members[i]);
      if (box == nullptr) continue;
      for (std::size_t j = 0; j < relevant.size(); ++j) {
        g.add_edge(i, fnv1a64("f" + box->policy_fingerprint(relevant[j])),
                   first_addr + j);
      }
      const mbox::ConfigRelations rels = box->config_relations();
      for (const mbox::ConfigRelation& rel : rels.relations) {
        if (rel.semantics != mbox::RelationSemantics::pair_match) continue;
        for (std::size_t j = 0; j < relevant.size(); ++j) {
          for (std::size_t k = 0; k < relevant.size(); ++k) {
            if (!rel.admits(relevant[j], relevant[k])) continue;
            const std::size_t pair =
                g.add_vertex(fnv1a64("config:" + rel.name));
            g.add_edge(pair, kConfigBox, i);
            g.add_edge(pair, kConfigLhs, first_addr + j);
            g.add_edge(pair, kConfigRhs, first_addr + k);
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
  std::vector<std::size_t> scenarios;
  for (const net::FailureScenario& sc : net.scenarios()) {
    if (static_cast<int>(sc.failed_nodes.size()) > max_failures) continue;
    const ScenarioId sid(static_cast<ScenarioId::underlying_type>(
        &sc - net.scenarios().data()));
    const dataplane::TransferFunction& tf = tcache.at(sid);
    const std::size_t s = g.add_vertex(fnv1a64("scenario"));
    scenarios.push_back(s);
    for (std::size_t i = 0; i < members.size(); ++i) {
      for (std::size_t j = 0; j < relevant.size(); ++j) {
        std::optional<NodeId> to = tf.next_edge(members[i], relevant[j]);
        if (!to) continue;
        std::optional<std::size_t> k = position(members, *to);
        if (!k) continue;
        const std::size_t route = g.add_vertex(fnv1a64("route"));
        g.add_edge(route, kRouteFrom, i);
        g.add_edge(route, kRouteAddress, first_addr + j);
        g.add_edge(route, kRouteTo, *k);
        g.add_edge(route, kRouteScenario, s);
      }
      if (sc.is_failed(members[i])) g.add_edge(s, kFails, i);
    }
  }

  // The palette: the sorted multisets of stable member, address and
  // scenario colours.
  const std::vector<std::uint64_t> colours = refine(g);
  ProblemColours out;
  out.mcolor.assign(colours.begin(), colours.begin() + members.size());
  const auto palette = [&](std::vector<std::uint64_t> cs) {
    std::sort(cs.begin(), cs.end());
    std::string p;
    for (std::uint64_t c : cs) p += hex(c) + ";";
    return p;
  };
  std::vector<std::uint64_t> scolor;
  for (std::size_t s : scenarios) scolor.push_back(colours[s]);
  out.palette =
      "#" + palette(out.mcolor) + "@" +
      palette({colours.begin() + first_addr,
               colours.begin() + first_addr + relevant.size()}) +
      "!" + palette(std::move(scolor));
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
  std::vector<std::uint64_t> mcolor(members.size());
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
    mcolor[i] = fnv1a64(c);
  }

  const ProblemColours refined =
      colour_problem(model, members, mcolor, /*fingerprint_incidence=*/true,
                     max_failures, tcache);
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
  std::vector<std::uint64_t> mcolor(out.members.size());
  for (std::size_t i = 0; i < out.members.size(); ++i) {
    const NodeId id = out.members[i];
    if (net.kind(id) == net::NodeKind::host) {
      mcolor[i] = fnv1a64("h");
    } else if (const mbox::Middlebox* box = model.middlebox_at(id)) {
      mcolor[i] = fnv1a64("m:" + box->structural_fingerprint());
    }
  }

  ProblemColours refined =
      colour_problem(model, out.members, mcolor,
                     /*fingerprint_incidence=*/false, max_failures, tcache);
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
  // holds genuine automorphisms any pairing verifies; if refinement merely
  // failed to distinguish non-corresponding nodes, the exact checks below
  // reject the candidate and the caller encodes cold.
  auto order_by_color = [n](const std::vector<std::uint64_t>& colors) {
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

  // 4. Routing and failures: the scenario signatures of both sides, the
  // from-side written in to-space coordinates via perm, must match as
  // multisets (a scenario permutation exists; it is never needed
  // downstream, since witness fail events name nodes, not scenarios).
  std::vector<std::size_t> identity(n);
  for (std::size_t i = 0; i < n; ++i) identity[i] = i;
  if (scenario_signatures(net, from.members, perm, rel_from, max_failures,
                          tcache) !=
      scenario_signatures(net, to.members, identity, mapped, max_failures,
                          tcache)) {
    return refuse("scenario transfer relations differ");
  }

  return image;
}

namespace {

/// The one canonical renderer behind canonical_problem_key (`invariant`
/// set) and canonical_base_key (`invariant` null: no roles, no invariant
/// section, the shape key as prefix).
ProblemKey render_problem(const encode::NetworkModel& model,
                          const ShapeKey& shape,
                          const encode::Invariant* invariant, int max_failures,
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
  // render differently - a missed hit, never a merge. Without an invariant
  // ranks are (color, position): the pairing shape_bijection tries.
  auto role_of = [&](std::size_t i) {
    if (invariant == nullptr) return 2;
    const NodeId id = shape.members[i];
    if (invariant->target.valid() && id == invariant->target) return 0;
    if (invariant->other.valid() && id == invariant->other) return 1;
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
    const std::optional<std::size_t> i = position(shape.members, id);
    if (!i) return std::nullopt;
    return rank_of[*i];
  };
  std::optional<std::size_t> target_rank;
  std::optional<std::size_t> other_rank;
  if (invariant != nullptr) {
    if (invariant->target.valid()) {
      target_rank = rank_of_node(invariant->target);
    }
    if (!target_rank) return out;  // invariant escapes the slice: no key
    if (invariant->other.valid()) {
      other_rank = rank_of_node(invariant->other);
      if (!other_rank) return out;
    }
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

  std::string body =
      invariant != nullptr
          ? "prob7/" + encode::to_string(invariant->kind) + "/"
          : shape.key + "|base/";
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
  // the induced token bijection by identity. This is the one place the
  // rule lives for both keys; shape_bijection is stricter (see its doc).
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
  if (invariant != nullptr) {
    body += "I" + std::to_string(*target_rank) + ":" +
            (other_rank ? std::to_string(*other_rank) : std::string("-"));
    if (invariant->kind == encode::InvariantKind::traversal) {
      std::vector<std::size_t> sel;
      for (std::size_t i = 0; i < n; ++i) {
        if (model.middlebox_at(shape.members[i]) != nullptr &&
            net.name(shape.members[i]).starts_with(invariant->type_prefix)) {
          sel.push_back(rank_of[i]);
        }
      }
      std::sort(sel.begin(), sel.end());
      body += ":P{";
      for (std::size_t r : sel) body += std::to_string(r) + ",";
      body += "}";
    } else if (!invariant->type_prefix.empty()) {
      body += ":t" + invariant->type_prefix;
    }
    body += ";";
  }
  // Routing and failures, in rank/token coordinates (shape_bijection's
  // check 4).
  body += "|S";
  for (const std::string& sig :
       scenario_signatures(net, shape.members, rank_of, out.tokens,
                           max_failures, tcache)) {
    body += sig + ";";
  }
  body += "|mf=" + std::to_string(max_failures);

  out.order.resize(n);
  for (std::size_t r = 0; r < n; ++r) out.order[r] = shape.members[order[r]];
  out.key = std::move(body);
  return out;
}

}  // namespace

ProblemKey canonical_problem_key(const encode::NetworkModel& model,
                                 const ShapeKey& shape,
                                 const encode::Invariant& invariant,
                                 int max_failures,
                                 dataplane::TransferCache* transfers) {
  return render_problem(model, shape, &invariant, max_failures, transfers);
}

ProblemKey canonical_base_key(const encode::NetworkModel& model,
                              const ShapeKey& shape, int max_failures,
                              dataplane::TransferCache* transfers) {
  return render_problem(model, shape, nullptr, max_failures, transfers);
}

}  // namespace vmn::slice
