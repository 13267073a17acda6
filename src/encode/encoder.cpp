#include "encode/encoder.hpp"

#include <algorithm>
#include <set>

#include "dataplane/transfer.hpp"

namespace vmn::encode {

namespace l = vmn::logic;
namespace ltl = vmn::logic::ltl;

std::vector<NodeId> all_edge_nodes(const NetworkModel& model) {
  std::vector<NodeId> out;
  for (const auto& n : model.network().nodes()) {
    if (n.kind != net::NodeKind::switch_node) out.push_back(n.id);
  }
  return out;
}

std::vector<Address> relevant_addresses(const NetworkModel& model,
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

Encoding::Encoding(const NetworkModel& model, std::vector<NodeId> members,
                   EncodeOptions options)
    : model_(&model), members_(std::move(members)), options_(options) {
  if (members_.empty()) members_ = all_edge_nodes(model);
  std::sort(members_.begin(), members_.end());
  members_.erase(std::unique(members_.begin(), members_.end()), members_.end());
  for (NodeId m : members_) {
    if (!model.network().is_edge(m)) {
      throw ModelError("encoding members must be edge nodes");
    }
  }

  factory_ = std::make_unique<l::TermFactory>();
  std::vector<std::string> node_names;
  node_names.reserve(members_.size() + 1);
  for (NodeId m : members_) node_names.push_back(model.network().name(m));
  node_names.push_back("OMEGA");
  vocab_ = std::make_unique<l::Vocab>(*factory_, node_names);

  // Failure scenarios within budget (scenario 0 - no failures - is always
  // active). Scenarios whose failed nodes are all outside the encoding are
  // indistinguishable from the base scenario for routing *within* the
  // members, but their transfer functions may still differ (reroutes), so
  // they are kept whenever any failed node or any member routing changes;
  // for simplicity we keep every in-budget scenario.
  for (const auto& sc : model.network().scenarios()) {
    ScenarioId id(static_cast<ScenarioId::underlying_type>(
        &sc - model.network().scenarios().data()));
    if (static_cast<int>(sc.failed_nodes.size()) <= options_.max_failures) {
      active_scenarios_.push_back(id);
    }
  }

  relevant_ = encode::relevant_addresses(model, members_);
  emit_causality();
  emit_hosts();
  emit_omega_and_failures();  // defines scenario_const_ used by middleboxes
  emit_middleboxes();
}

void Encoding::add(const l::TermPtr& term, const std::string& label) {
  axioms_.push_back(Axiom{term, label});
}

l::TermPtr Encoding::node_term(NodeId node) const {
  return vocab_->node_const(sort_index(node));
}

l::TermPtr Encoding::addr_term(Address a) const {
  return factory_->int_val(static_cast<std::int64_t>(a.bits()));
}

std::size_t Encoding::sort_index(NodeId node) const {
  auto it = std::lower_bound(members_.begin(), members_.end(), node);
  if (it == members_.end() || *it != node) {
    throw ModelError("node is not a member of this encoding: " +
                     model_->network().name(node));
  }
  return static_cast<std::size_t>(it - members_.begin());
}

std::optional<NodeId> Encoding::topology_node(std::size_t index) const {
  if (index >= members_.size()) return std::nullopt;  // Omega
  return members_[index];
}

void Encoding::emit_causality() {
  l::TermFactory& f = *factory_;
  const l::Vocab& v = *vocab_;
  l::TermPtr a = f.fresh_var("a", v.node_sort());
  l::TermPtr b = f.fresh_var("b", v.node_sort());
  l::TermPtr p = f.fresh_var("p", v.packet_sort());
  l::TermPtr t = f.fresh_var("t", l::Sort::integer());
  l::TermPtr t1 = f.fresh_var("t", l::Sort::integer());

  // Every reception has an earlier matching send; all events at t >= 0.
  add(f.forall({a, b, p, t},
               f.implies(v.rcv_at(a, b, p, t),
                         f.and_({f.le(f.int_val(0), t),
                                 f.exists({t1},
                                          f.and_({f.le(f.int_val(0), t1),
                                                  f.lt(t1, t),
                                                  v.snd_at(a, b, p, t1)}))}))),
      "channel.causality");
  add(f.forall({a, b, p, t},
               f.implies(v.snd_at(a, b, p, t), f.le(f.int_val(0), t))),
      "channel.time-nonnegative");
}

void Encoding::emit_hosts() {
  l::TermFactory& f = *factory_;
  const l::Vocab& v = *vocab_;
  for (NodeId m : members_) {
    const net::Node& node = model_->network().node(m);
    if (node.kind != net::NodeKind::host) continue;
    l::TermPtr self = node_term(m);
    l::TermPtr n = f.fresh_var("n", v.node_sort());
    l::TermPtr p = f.fresh_var("p", v.packet_sort());
    l::TermPtr t = f.fresh_var("t", l::Sort::integer());
    // Hosts send only into the network, with their own source address and
    // their own address as data origin (no spoofing; origin provenance per
    // section 3.3's origin abstraction), and never address themselves -
    // self traffic does not leave the host ("we ensure that new packets
    // generated by hosts are well formed", section 3.5).
    add(f.forall(
            {n, p, t},
            f.implies(v.snd_at(self, n, p, t),
                      f.and_({f.eq(n, vocab_->node_const(omega_index())),
                              f.eq(v.src_of(p), addr_term(node.address)),
                              f.eq(v.origin_of(p), addr_term(node.address)),
                              f.neq(v.dst_of(p), addr_term(node.address))}))),
        node.name + ".host");
  }
}

void Encoding::emit_middleboxes() {
  for (NodeId m : members_) {
    const mbox::Middlebox* box = model_->middlebox_at(m);
    if (box == nullptr) continue;
    mbox::AxiomContext ctx(
        *vocab_, node_term(m), vocab_->node_const(omega_index()), relevant_,
        [this, box](const l::TermPtr& term, const std::string& label) {
          add(term, label.empty() ? box->name() : label);
        });
    box->emit_axioms(ctx);
  }
}

void Encoding::emit_omega_and_failures() {
  l::TermFactory& f = *factory_;
  const l::Vocab& v = *vocab_;
  const net::Network& net = model_->network();
  l::TermPtr omega = vocab_->node_const(omega_index());

  // Scenario selection constant (only when failures are in scope).
  const bool with_failures = active_scenarios_.size() > 1;
  if (with_failures) {
    std::vector<std::string> names;
    for (ScenarioId s : active_scenarios_) {
      names.push_back(net.scenario(s).name);
    }
    scenario_sort_ = factory_->finite_sort("Scenario", names);
    scenario_const_ = factory_->var("active-scenario", scenario_sort_);
  }

  // fail(n, t) <-> the active scenario marks n failed (failures persist for
  // the whole run; routing below switches per scenario as well).
  {
    l::TermPtr nd = f.fresh_var("n", v.node_sort());
    l::TermPtr t = f.fresh_var("t", l::Sort::integer());
    if (!with_failures) {
      add(f.forall({nd, t}, f.not_(v.fail_at(nd, t))), "failures.none");
    } else {
      for (NodeId m : members_) {
        std::vector<l::TermPtr> failed_in;
        for (std::size_t si = 0; si < active_scenarios_.size(); ++si) {
          if (net.scenario(active_scenarios_[si]).is_failed(m)) {
            failed_in.push_back(
                f.eq(scenario_const_, f.enum_val(scenario_sort_, si)));
          }
        }
        l::TermPtr tm = f.fresh_var("t", l::Sort::integer());
        add(f.forall({tm}, f.iff(v.fail_at(node_term(m), tm),
                                 f.or_(std::move(failed_in)))),
            net.name(m) + ".fail-scenario");
      }
      // Omega (the fabric) itself never fails.
      l::TermPtr tm = f.fresh_var("t", l::Sort::integer());
      add(f.forall({tm}, f.not_(v.fail_at(omega, tm))), "omega.up");
    }
  }

  // Omega's forwarding axiom, derived from the per-scenario transfer
  // functions: a packet sent by Omega to n was received earlier from some
  // member n1, and (n1, dst(p)) routes to n under the active scenario.
  l::TermPtr n = f.fresh_var("n", v.node_sort());
  l::TermPtr n1 = f.fresh_var("n1", v.node_sort());
  l::TermPtr p = f.fresh_var("p", v.packet_sort());
  l::TermPtr t = f.fresh_var("t", l::Sort::integer());
  l::TermPtr t1 = f.fresh_var("t", l::Sort::integer());

  // Per-scenario transfer functions: drawn from the borrowed memo when the
  // caller supplied one (a planning context or a per-session cache - the
  // planner or a previous encoding on the same session already paid for
  // these walks), built locally otherwise. A cache bound to a different
  // network than the model is ignored rather than trusted.
  dataplane::TransferCache* shared =
      options_.transfers != nullptr && &options_.transfers->network() == &net
          ? options_.transfers
          : nullptr;
  std::vector<l::TermPtr> scenario_cases;
  for (std::size_t si = 0; si < active_scenarios_.size(); ++si) {
    const ScenarioId sid = active_scenarios_[si];
    std::optional<dataplane::TransferFunction> local;
    const dataplane::TransferFunction* tf_ptr = nullptr;
    if (shared != nullptr) {
      const std::size_t builds_before = shared->builds();
      tf_ptr = &shared->at(sid);
      if (shared->builds() > builds_before) {
        ++transfer_builds_;
      } else {
        ++transfer_reuses_;
      }
    } else {
      local.emplace(net, sid);
      tf_ptr = &*local;
      ++transfer_builds_;
    }
    const dataplane::TransferFunction& tf = *tf_ptr;
    std::vector<l::TermPtr> routes;
    for (NodeId from : members_) {
      for (Address a : relevant_) {
        std::optional<NodeId> to = tf.next_edge(from, a);
        if (!to) continue;
        // Delivery outside the encoded subnetwork is a drop: a correctly
        // computed slice is closed under forwarding, so this only triggers
        // for irrelevant traffic.
        auto it = std::lower_bound(members_.begin(), members_.end(), *to);
        if (it == members_.end() || *it != *to) continue;
        routes.push_back(f.and_({f.eq(n1, node_term(from)),
                                 f.eq(v.dst_of(p), addr_term(a)),
                                 f.eq(n, node_term(*to))}));
      }
    }
    l::TermPtr route = f.or_(std::move(routes));
    if (with_failures) {
      route = f.and_(f.eq(scenario_const_, f.enum_val(scenario_sort_, si)),
                     route);
    }
    scenario_cases.push_back(route);
  }

  add(f.forall(
          {n, p, t},
          f.implies(
              v.snd_at(omega, n, p, t),
              f.exists({n1, t1},
                       f.and_({f.le(f.int_val(0), t1), f.lt(t1, t),
                               v.rcv_at(n1, omega, p, t1),
                               f.or_(std::move(scenario_cases))})))),
      "omega.transfer");
}

void Encoding::add_invariant(const Invariant& invariant) {
  if (invariant_added_) {
    throw ModelError("Encoding::add_invariant called twice");
  }
  invariant_added_ = true;
  for (Axiom& axiom : invariant_axioms(invariant)) {
    axioms_.push_back(std::move(axiom));
  }
}

std::vector<Axiom> Encoding::invariant_axioms(const Invariant& invariant) {
  std::vector<Axiom> out;
  const auto add = [&out](const l::TermPtr& term, const std::string& label) {
    out.push_back(Axiom{term, label});
  };

  l::TermFactory& f = *factory_;
  const l::Vocab& v = *vocab_;
  const net::Network& net = model_->network();

  const NodeId d = invariant.target;
  l::TermPtr dterm = node_term(d);
  // Witness constants (free variables translate to solver constants).
  l::TermPtr vp = f.var("witness-packet", v.packet_sort());
  l::TermPtr vt = f.var("witness-time", l::Sort::integer());
  l::TermPtr vn = f.var("witness-from", v.node_sort());

  l::TermPtr received = f.and_(
      {f.le(f.int_val(0), vt), v.rcv_at(vn, dterm, vp, vt)});

  auto host_addr = [&](NodeId h) { return addr_term(net.node(h).address); };

  switch (invariant.kind) {
    case InvariantKind::node_isolation:
    case InvariantKind::reachable: {
      add(f.and_(received, f.eq(v.src_of(vp), host_addr(invariant.other))),
          "invariant." + to_string(invariant.kind));
      return out;
    }
    case InvariantKind::flow_isolation: {
      // d received from s a packet of a flow d never initiated: no earlier
      // outbound packet from d to s with the matching reversed ports.
      l::TermPtr q = f.fresh_var("outb", v.packet_sort());
      l::TermPtr tq = f.fresh_var("t", l::Sort::integer());
      l::TermPtr initiated = f.exists(
          {q, tq},
          f.and_({f.le(f.int_val(0), tq), f.lt(tq, vt),
                  v.snd_at(dterm, vocab_->node_const(omega_index()), q, tq),
                  f.eq(v.dst_of(q), host_addr(invariant.other)),
                  f.eq(v.src_port_of(q), v.dst_port_of(vp)),
                  f.eq(v.dst_port_of(q), v.src_port_of(vp))}));
      add(f.and_({received, f.eq(v.src_of(vp), host_addr(invariant.other)),
                  f.not_(initiated)}),
          "invariant.flow-isolation");
      return out;
    }
    case InvariantKind::data_isolation: {
      add(f.and_(received, f.eq(v.origin_of(vp), host_addr(invariant.other))),
          "invariant.data-isolation");
      return out;
    }
    case InvariantKind::no_malicious_delivery: {
      add(f.and_(received, v.malicious_of(vp)), "invariant.no-malicious");
      return out;
    }
    case InvariantKind::traversal: {
      // d received a packet that never passed through any middlebox of the
      // required type (optionally restricted to packets sent by `other`).
      if (invariant.other.valid()) {
        add(f.eq(v.src_of(vp), host_addr(invariant.other)),
            "invariant.traversal.source");
      }
      std::vector<l::TermPtr> visited;
      for (NodeId m : members_) {
        const mbox::Middlebox* box = model_->middlebox_at(m);
        if (box == nullptr) continue;
        if (!net.name(m).starts_with(invariant.type_prefix)) continue;
        l::TermPtr nm = f.fresh_var("via", v.node_sort());
        l::TermPtr tm = f.fresh_var("t", l::Sort::integer());
        visited.push_back(f.exists(
            {nm, tm}, f.and_({f.le(f.int_val(0), tm), f.lt(tm, vt),
                              v.rcv_at(nm, node_term(m), vp, tm)})));
      }
      add(f.and_(received, f.not_(f.or_(std::move(visited)))),
          "invariant.traversal");
      return out;
    }
  }
  throw ModelError("unknown invariant kind");
}

}  // namespace vmn::encode
