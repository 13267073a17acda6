// The encoder (paper, sections 3.1, 3.4, 3.5).
//
// Builds, for a NetworkModel (or a slice of it), the complete axiom set:
//   - causality: every reception was preceded by the matching send;
//   - host behavior: hosts send well-formed packets into the network;
//   - middlebox behavior: each instance's forwarding axioms;
//   - the network pseudo-node Omega, whose axioms are derived from the
//     per-failure-scenario transfer functions;
//   - failure selection: a scenario constant ties fail(n, t) to the failure
//     scenario under which routing operates, bounded by a failure budget;
//   - the negated invariant.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "logic/builder.hpp"

namespace vmn::dataplane {
class TransferCache;
}

namespace vmn::encode {

struct EncodeOptions {
  /// Maximum number of simultaneously failed nodes considered: failure
  /// scenarios with more failed nodes are excluded. 0 verifies only the
  /// failure-free network.
  int max_failures = 0;
  /// Optional shared per-scenario transfer-function memo for the omega
  /// axioms (see dataplane::TransferCache). Solver sessions pass the memo
  /// they borrow, the Engine's PlanContext cache (whose walks the planner
  /// already paid for) - TransferFunction memos are not thread-safe, so a
  /// cache is never shared across threads. Borrowed, must outlive the
  /// construction call, and must be
  /// bound to the same network as the model (ignored otherwise). When
  /// null, the encoder builds one TransferFunction per scenario itself.
  dataplane::TransferCache* transfers = nullptr;
};

/// A labelled axiom (labels show up in diagnostics and tests).
struct Axiom {
  logic::TermPtr term;
  std::string label;
};

/// The product of encoding: a term factory + vocabulary (owned), the axiom
/// list, and the mapping between Node-sort indices and topology nodes.
class Encoding {
 public:
  Encoding(const NetworkModel& model, std::vector<NodeId> members,
           EncodeOptions options);

  /// Edge nodes included in this encoding (slice members), in sort order.
  [[nodiscard]] const std::vector<NodeId>& members() const { return members_; }
  [[nodiscard]] logic::Vocab& vocab() { return *vocab_; }
  [[nodiscard]] const logic::Vocab& vocab() const { return *vocab_; }
  [[nodiscard]] logic::TermFactory& factory() { return *factory_; }
  [[nodiscard]] const std::vector<Axiom>& axioms() const { return axioms_; }

  /// Adds the negated invariant; call exactly once per Encoding.
  void add_invariant(const Invariant& invariant);

  /// Builds the negated-invariant axioms in this encoding's vocabulary
  /// WITHOUT storing them. The warm verification path encodes the base
  /// axioms once per slice shape and then, per invariant, pushes a solver
  /// scope, asserts these axioms, checks and pops - so the same Encoding
  /// (and the Z3 context bound to it) serves every invariant sharing the
  /// slice. May be called any number of times; terms are interned in the
  /// shared factory. Different invariants reuse the same witness-constant
  /// names, which is safe exactly because their assertions never coexist
  /// (each lives in its own solver scope).
  [[nodiscard]] std::vector<Axiom> invariant_axioms(const Invariant& invariant);

  /// Adds an extra constraint (e.g. oracle assumptions, see encode/oracle.hpp).
  void add_constraint(const logic::TermPtr& term, const std::string& label) {
    add(term, label);
  }

  /// Node-sort index of a topology node; throws if not a member.
  [[nodiscard]] std::size_t sort_index(NodeId node) const;
  /// Topology node for a Node-sort index (Omega has no topology node).
  [[nodiscard]] std::optional<NodeId> topology_node(std::size_t index) const;
  [[nodiscard]] std::size_t omega_index() const { return members_.size(); }

  /// Addresses considered relevant (the members' addresses plus middlebox
  /// implicit addresses such as NAT externals and VIPs).
  [[nodiscard]] const std::vector<Address>& relevant_addresses() const {
    return relevant_;
  }

  [[nodiscard]] const NetworkModel& model() const { return *model_; }

  /// Transfer functions constructed during omega emission vs served from
  /// the borrowed EncodeOptions::transfers memo. builds() > 0 with a warm
  /// borrowed cache means the planner and the encoder walked the same
  /// scenario twice - the duplicate-work signal the batch counters surface.
  [[nodiscard]] std::size_t transfer_builds() const { return transfer_builds_; }
  [[nodiscard]] std::size_t transfer_reuses() const { return transfer_reuses_; }

 private:
  void emit_causality();
  void emit_hosts();
  void emit_middleboxes();
  void emit_omega_and_failures();

  [[nodiscard]] logic::TermPtr node_term(NodeId node) const;
  [[nodiscard]] logic::TermPtr addr_term(Address a) const;
  void add(const logic::TermPtr& term, const std::string& label);

  const NetworkModel* model_;
  std::vector<NodeId> members_;
  EncodeOptions options_;
  std::unique_ptr<logic::TermFactory> factory_;
  std::unique_ptr<logic::Vocab> vocab_;
  std::vector<Axiom> axioms_;
  std::vector<Address> relevant_;
  /// Failure scenarios admitted by the failure budget.
  std::vector<ScenarioId> active_scenarios_;
  /// Scenario-sort constant (present when failures are considered).
  logic::TermPtr scenario_const_;
  logic::SortPtr scenario_sort_;
  bool invariant_added_ = false;
  std::size_t transfer_builds_ = 0;
  std::size_t transfer_reuses_ = 0;
};

/// Convenience: encode the full network (all hosts and middleboxes).
[[nodiscard]] std::vector<NodeId> all_edge_nodes(const NetworkModel& model);

/// The relevant addresses of an encoding over `members`, sorted: member
/// hosts' addresses plus member middleboxes' implicit addresses.
[[nodiscard]] std::vector<Address> relevant_addresses(
    const NetworkModel& model, const std::vector<NodeId>& members);

}  // namespace vmn::encode
