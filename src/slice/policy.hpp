// Policy equivalence classes (paper, section 4.1).
//
// "Two hosts are in the same equivalence class if all packets sent and
// received by them traverse the same set of middlebox types, and are treated
// according to the same policy."
//
// Scenario generators assign intended classes explicitly
// (NetworkModel::set_policy_class); this module *infers* classes from the
// actual configuration by fingerprinting each host against every middlebox's
// configuration. The two coincide exactly when the network is correctly
// configured - a deleted firewall rule moves the affected hosts into their
// own inferred class, breaking symmetry (section 5.1).
//
// Configuration fingerprints alone are not enough for a sound relation:
// hosts in disconnected network segments can carry identical fingerprints
// while their packets reach entirely different parts of the network, and
// hosts in one connected segment can carry identical fingerprints while
// their packets are *routed* past different middleboxes (an in-port rule
// bypassing the IDPS for one sender only). Since all-senders invariants
// (no-malicious-delivery, unconstrained traversal) seed their slice with
// one representative sender per class, a configuration-only class could
// elect a representative that cannot reach the invariant's target - or one
// whose path is policed while another member's is not - and the sliced
// verdict would silently disagree with the whole network. Inference
// therefore runs colour refinement (slice/refine.hpp) over hosts: each host
// starts with the colour of its configuration fingerprint, and every
// delivery under an in-budget failure scenario - who can deliver to whom,
// traversing which middlebox *types*, computed on the static dataplane -
// is an arc labelled with its scenario, direction and path type (middlebox
// *policy* drops are the solver's business - the paper's "all packets sent
// and received by them traverse the same set of middlebox types"). The
// classes are the stable colours. The recorded per-host signatures
// additionally carry the concrete traversed instances, so slice seeding can
// pick, per class, representatives per (reach, path) behavior toward the
// target (representatives_for). The labels are class- and type-aware (they
// name colours and box types, never addresses or instance names), so truly
// symmetric hosts - including symmetric hosts of mutually disconnected but
// isomorphic segments - keep sharing a class; per-target representative
// selection covers the residual within-class variation.
//
// The delivery relation costs one first-hop walk per (host, seed address)
// pair the host's first switch routes
// (dataplane::TransferFunction::first_hop_ranges); every other pair is a
// drop at that switch and is never walked. Middlebox entry states are
// walked once per scenario and shared by every source.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataplane/transfer.hpp"
#include "encode/model.hpp"

namespace vmn::slice {

/// Knobs for class inference (see infer_policy_classes).
struct PolicyClassOptions {
  /// Failure budget of the delivery relation: only scenarios with at most
  /// this many failed nodes are walked, refine the classes, and are
  /// recorded (must match the verification budget so dedup reflects
  /// exactly the verified scenarios - the engines pass theirs). Negative
  /// covers every scenario. Queries for scenarios beyond this budget
  /// treat them as out of budget.
  int max_failures = -1;
  /// Optional shared per-scenario transfer-function memo (the planning
  /// PlanContext's cache); when null the inference builds a private one.
  /// Borrowed, single-threaded, must outlive the call.
  dataplane::TransferCache* transfers = nullptr;
};

struct PolicyClasses {
  /// classes[i] lists the hosts of inferred class i.
  std::vector<std::vector<NodeId>> classes;

  [[nodiscard]] std::size_t count() const { return classes.size(); }
  /// Index of the class containing `host`; throws if absent. O(1) via the
  /// host index the factory functions build (reindex); falls back to a
  /// linear scan for hand-assembled instances.
  [[nodiscard]] std::size_t class_of(NodeId host) const;
  /// The designated representative (first member) of `host`'s class.
  [[nodiscard]] NodeId representative_of(NodeId host) const;
  /// One representative per class (the first member). Target-blind: use
  /// representatives_for when the representatives stand in for senders
  /// toward a concrete invariant target.
  [[nodiscard]] std::vector<NodeId> representatives() const;

  /// Representatives for an invariant on `target`: within each class,
  /// members whose packets can be delivered to `target` under exactly the
  /// same set of in-budget failure scenarios AND traversing the same
  /// middlebox instances form a subgroup, and each subgroup's first member
  /// stands in for it - so a class spanning hosts that can and cannot
  /// reach the target (disconnected segments), or whose routes pass
  /// different boxes on the way (a per-sender IDPS bypass), always
  /// contributes a sender per distinct behavior toward the target.
  ///
  /// `include_unreachable` decides the fate of the cannot-deliver-in-any-
  /// scenario subgroup. All-senders *seeding* passes false: a sender whose
  /// packets can never be delivered to the target cannot witness a
  /// reception there, only feed shared middlebox state - which is exactly
  /// the case the origin-agnostic *state closure* covers by passing true
  /// (one representative per subgroup, unreachable included, so every
  /// class keeps contributing state). Skipping unreachable senders at seed
  /// time is also what keeps isomorphic disconnected segments deduplicable:
  /// their slices stay free of cross-segment junk hosts.
  ///
  /// For a class whose members all behave alike this is exactly
  /// representatives(); with no recorded delivery signatures (a hand-built
  /// instance) it degrades to representatives() regardless of the flags.
  [[nodiscard]] std::vector<NodeId> representatives_for(
      NodeId target, int max_failures, bool include_unreachable) const;

  /// True when `host`'s packets can be delivered to `target` under some
  /// failure scenario within the budget (per the recorded signatures;
  /// false when none were recorded).
  [[nodiscard]] bool reaches(NodeId host, NodeId target,
                             int max_failures) const;
  /// Whether delivery signatures were recorded at inference time.
  [[nodiscard]] bool has_reach_signatures() const { return !hosts_.empty(); }
  /// The recorded deliveries of `host` under scenario `scenario`, sorted by
  /// target: each target with the middlebox instances the explored paths
  /// traverse (their union, sorted). Empty for scenarios beyond the
  /// inference budget and for instances without recorded signatures.
  [[nodiscard]] std::vector<std::pair<NodeId, std::vector<NodeId>>>
  deliveries(NodeId host, std::size_t scenario) const;

  /// Rebuilds the host->class index behind class_of. The factory functions
  /// call this; call it again after mutating `classes` by hand.
  void reindex();

 private:
  friend PolicyClasses infer_policy_classes(const encode::NetworkModel&,
                                            const PolicyClassOptions&);

  /// One recorded delivery: packets from the owning host can be delivered
  /// to `target`, traversing (some subset of) the middleboxes of
  /// box_sets_[boxes].
  struct Delivery {
    NodeId target;
    std::uint32_t boxes;
  };

  /// The budget queries may see: scenarios beyond the inference budget
  /// were never walked and must not read as "no delivery".
  [[nodiscard]] int effective_budget(int query_budget) const;
  /// `host`'s recorded deliveries under scenario `s`, sorted by target.
  [[nodiscard]] std::span<const Delivery> reach(NodeId host,
                                                std::size_t s) const;
  /// `host`'s recorded delivery to `target` under scenario `s`, if any.
  [[nodiscard]] const Delivery* find_delivery(NodeId host, std::size_t s,
                                              NodeId target) const;

  std::unordered_map<NodeId, std::size_t> index_;
  std::vector<int> scenario_failures_;
  /// The hosts with recorded signatures, ascending. Under scenario s, host
  /// i's deliveries are deliveries_[reach_begin_[s * H + i]] up to
  /// deliveries_[reach_begin_[s * H + i + 1]], H = hosts_.size().
  std::vector<NodeId> hosts_;
  std::vector<std::uint32_t> reach_begin_;
  std::vector<Delivery> deliveries_;
  /// Interned middlebox sets, each sorted; set 0 is the empty set.
  std::vector<std::vector<NodeId>> box_sets_;
  int reach_budget_ = -1;
};

/// Colours hosts by configuration fingerprint and refines the colours over
/// the delivery relation (inferred classes; see the header comment).
/// Classes come out ordered by stable colour value, members in host order.
[[nodiscard]] PolicyClasses infer_policy_classes(
    const encode::NetworkModel& model, const PolicyClassOptions& options = {});

}  // namespace vmn::slice
