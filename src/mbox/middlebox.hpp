// Middlebox models (paper, section 3.4).
//
// Each middlebox type provides two semantics that must agree:
//   - symbolic: emit_axioms() contributes first-order axioms describing when
//     the instance may send a packet (always conditioned on packets it
//     received in the past - mutable datapath state is encoded as conditions
//     over past rcv events, exactly like the axioms derived from Listing 1);
//   - concrete: sim_process() executes the same forwarding model on real
//     packets (used by the discrete-event simulator to cross-validate the
//     encoding in property tests).
//
// Instances are annotated with their state scope (flow-parallel /
// origin-agnostic, section 4.1) which drives slice computation, and their
// failure mode (fail-closed / fail-open, section 3.4).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "core/ids.hpp"
#include "core/packet.hpp"
#include "logic/builder.hpp"
#include "logic/ltl.hpp"
#include "mbox/config.hpp"

namespace vmn::mbox {

/// How middlebox state is partitioned (paper, section 4.1).
enum class StateScope : std::uint8_t {
  stateless,       ///< no mutable state (treated as flow-parallel for slicing)
  flow_parallel,   ///< state partitioned by flow, touched only by that flow
  origin_agnostic, ///< state shared across flows, insensitive to originator
  global_state,    ///< arbitrary shared state (defeats constant-size slices)
};

[[nodiscard]] std::string to_string(StateScope scope);

/// Behavior while the instance is down (paper, section 3.4).
enum class FailureMode : std::uint8_t {
  fail_closed,  ///< packets are dropped during failure
  fail_open,    ///< packets are forwarded unmodified during failure
};

/// Everything a model needs to write its axioms. Built by the encoder for
/// each verification run; `relevant` is the slice's address set, onto which
/// instances project their configuration so that slice formulas stay
/// slice-sized.
class AxiomContext {
 public:
  AxiomContext(logic::Vocab& vocab, logic::TermPtr self, logic::TermPtr omega,
               std::vector<Address> relevant,
               std::function<void(logic::TermPtr, std::string)> sink)
      : vocab_(&vocab),
        self_(std::move(self)),
        omega_(std::move(omega)),
        relevant_(std::move(relevant)),
        sink_(std::move(sink)) {}

  [[nodiscard]] logic::Vocab& vocab() const { return *vocab_; }
  [[nodiscard]] logic::TermFactory& factory() const {
    return vocab_->factory();
  }
  /// Node constant of the middlebox being encoded.
  [[nodiscard]] const logic::TermPtr& self() const { return self_; }
  /// Node constant of the network pseudo-node.
  [[nodiscard]] const logic::TermPtr& omega() const { return omega_; }

  [[nodiscard]] logic::TermPtr addr(Address a) const {
    return factory().int_val(static_cast<std::int64_t>(a.bits()));
  }
  [[nodiscard]] const std::vector<Address>& relevant_addresses() const {
    return relevant_;
  }

  void add_axiom(const logic::TermPtr& axiom, const std::string& label) const {
    sink_(axiom, label);
  }

  // Fresh variables for quantified axioms.
  [[nodiscard]] logic::TermPtr fresh_packet(const std::string& stem) const {
    return factory().fresh_var(stem, vocab_->packet_sort());
  }
  [[nodiscard]] logic::TermPtr fresh_node(const std::string& stem) const {
    return factory().fresh_var(stem, vocab_->node_sort());
  }

 private:
  logic::Vocab* vocab_;
  logic::TermPtr self_;
  logic::TermPtr omega_;
  std::vector<Address> relevant_;
  std::function<void(logic::TermPtr, std::string)> sink_;
};

/// Abstract middlebox instance. Concrete models live in this directory;
/// new types subclass and implement both semantics.
class Middlebox {
 public:
  explicit Middlebox(std::string name) : name_(std::move(name)) {}
  virtual ~Middlebox() = default;
  Middlebox(const Middlebox&) = delete;
  Middlebox& operator=(const Middlebox&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeId node() const { return node_; }
  /// Binds the instance to its topology attachment point.
  void attach(NodeId node) { node_ = node; }

  [[nodiscard]] virtual std::string type() const = 0;
  [[nodiscard]] virtual StateScope state_scope() const = 0;
  [[nodiscard]] virtual FailureMode failure_mode() const {
    return FailureMode::fail_closed;
  }

  /// Canonical "type:state-scope:failure-mode" triple - the instance's
  /// configuration-independent structure. Single source for every relation
  /// that must treat structurally-alike boxes alike: the canonical shape
  /// and slice keys seed member middleboxes' colours with it
  /// (slice/symmetry.cpp) and policy classes label delivery arcs with the
  /// path types it spells (slice/policy.cpp) - both refined by the one
  /// colour-refinement kernel, slice/refine.hpp; a new axiom-relevant
  /// structural attribute belongs here so the two can never drift apart.
  [[nodiscard]] std::string structural_fingerprint() const {
    return type() + ":" + std::to_string(static_cast<int>(state_scope())) +
           ":" + std::to_string(static_cast<int>(failure_mode()));
  }

  /// Contributes this instance's axioms (symbolic semantics).
  virtual void emit_axioms(AxiomContext& ctx) const = 0;

  // -- slice support -------------------------------------------------------
  /// Destinations this instance may forward a packet addressed to `dst`
  /// toward (identity for pass-through boxes; backends for load balancers).
  [[nodiscard]] virtual std::vector<Address> forward_dsts(Address dst) const {
    return {dst};
  }
  /// Alias addresses through which `target` may be reached via this
  /// instance (the inverse of forward_dsts): the VIP for a load-balancer
  /// backend, the external address for a NAT-internal host. Slice closure
  /// explores flows toward these aliases as well.
  [[nodiscard]] virtual std::vector<Address> inverse_addresses(
      Address target) const {
    (void)target;
    return {};
  }
  /// Addresses that must be considered relevant whenever this instance is
  /// in a slice (e.g. a NAT's external address).
  [[nodiscard]] virtual std::vector<Address> implicit_addresses() const {
    return {};
  }

  // -- configuration surface (paper, section 4.1) ----------------------------
  /// The instance's full declarative configuration: named relations of typed
  /// cells, addr/prefix cells holding real Address values (see
  /// mbox/config.hpp). This is the ONE place a box type describes its
  /// configuration; policy_fingerprint, encoding_projection and the dedup
  /// diagnostics are all derived from it generically and cannot be
  /// overridden.
  ///
  /// Contract: every configuration knob that emit_axioms compiles into the
  /// solver problem MUST appear in the descriptor - address-independent
  /// settings (e.g. an IDPS's drop-vs-monitor mode) included, as
  /// address-free rows. The canonical problem key
  /// (slice::canonical_problem_key) merges verification problems into one
  /// solver class, and cross-isomorphic encoding reuse
  /// (slice::shape_bijection) pairs slices, by the derived projection; an
  /// undescribed knob lets two differently-configured same-type instances
  /// share a class and one invariant silently take the other's verdict.
  /// Return an empty descriptor only for boxes with no configuration at
  /// all.
  [[nodiscard]] virtual ConfigRelations config_relations() const = 0;

  /// Canonical description of how this instance's configuration treats
  /// address `a`. Hosts with identical fingerprints across all middleboxes
  /// (and identical forwarding chains) are policy-equivalent; removal of a
  /// configuration entry changes the affected hosts' fingerprints, which is
  /// how "removal of rules breaks symmetry" (section 5.1) materializes.
  ///
  /// Derived: filters config_relations() to rows mentioning `a` (plus
  /// address-free rows, which are global knobs) and renders them
  /// canonically - prefixes by length, peer addresses by column shape,
  /// never by raw bits - so corresponding-but-renamed configurations
  /// fingerprint equal. Final by design: box types describe configuration,
  /// they do not render it.
  [[nodiscard]] std::string policy_fingerprint(Address a) const {
    return render_fingerprint(config_relations(), a);
  }

  /// Canonical rendering of everything emit_axioms compiles from this
  /// instance's configuration over the `relevant` address set, with every
  /// address written through `token` instead of its raw bits.
  ///
  /// Cross-isomorphic encoding reuse (slice::shape_bijection) compares two
  /// member instances' projections under a bijection of their slices'
  /// relevant addresses: `relevant` arrives in corresponding order on both
  /// sides and `token` renders corresponding addresses identically, so the
  /// projections compare equal exactly when the two instances emit
  /// logically identical axioms up to that bijection.
  ///
  /// Derived from config_relations(): addr cells render through `token`,
  /// prefix cells project onto their relevant members, pair tables onto
  /// their admitted-pair matrix - a raw-bits leak is impossible by
  /// construction, because the renderer never sees address bits, only the
  /// descriptor and `token`. Final by design, same as policy_fingerprint.
  [[nodiscard]] std::string encoding_projection(
      const std::vector<Address>& relevant,
      const std::function<std::string(Address)>& token) const {
    return render_projection(config_relations(), relevant, token);
  }

  // -- concrete semantics (simulator) ---------------------------------------
  /// Clears all mutable state (also invoked when the instance fails).
  virtual void sim_reset() = 0;
  /// Processes a received packet; returns the packets to emit.
  [[nodiscard]] virtual std::vector<Packet> sim_process(const Packet& p) = 0;

 protected:
  /// Emits the standard send axiom shared by every model:
  ///
  ///   forall n, p at all times:  snd(self, n, p) =>
  ///       n = Omega  and  (up-and-allowed  or  fail-open-passthrough)
  ///
  /// where up-and-allowed = not fail(self) and condition(p), and the
  /// fail-open disjunct (emitted only for fail-open instances) forwards
  /// previously received packets unmodified while down.
  void emit_send_axiom(
      AxiomContext& ctx,
      const std::function<logic::ltl::FormulaPtr(const logic::TermPtr& p)>&
          condition) const;

  /// Formula: this instance received exactly packet `p` earlier
  /// (from any node).
  [[nodiscard]] logic::ltl::FormulaPtr received_before(
      AxiomContext& ctx, const logic::TermPtr& p) const;

 private:
  std::string name_;
  NodeId node_;
};

}  // namespace vmn::mbox
