// Verification jobs: the unit of work an Engine executor solves.
//
// A batch of invariants is planned into a queue of solver classes keyed by
// exact problem identity (slice::canonical_problem_key): two invariants
// share a job exactly when their whole (invariant, slice) problems render
// the same name-blind, address-blind key, which certifies a rank-for-rank
// isomorphism between them. Each job solves its representative once and
// fans the verdict out to every binding of the class, relabeling the
// witness per binding. Engine::run_batch executes plans built by the one
// planner (verify::plan_jobs) on whichever executor it is configured with -
// inline, thread or process - which is why they agree class-for-class.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/ids.hpp"
#include "dataplane/transfer.hpp"
#include "encode/invariant.hpp"
#include "slice/symmetry.hpp"

namespace vmn::verify {

/// One cached representative per base-encoding shape: the member set whose
/// encoding stands in for every isomorphic member set planned later, plus
/// the refinement colors new candidates are paired against
/// (slice::canonical_shape_key / slice::shape_bijection).
struct ShapeRep {
  std::vector<NodeId> members;
  std::vector<std::uint64_t> colors;
};

/// One aggregated merge-refusal line: how many candidate merges one
/// distinct slice::MergeRefusal diagnostic blocked this batch. `box_type`
/// is the blocking middlebox type for configuration refusals (empty for
/// structural ones), so reports and benches can break blockers down
/// per box.
struct MergeBlocker {
  std::string reason;
  std::string box_type;
  std::size_t count = 0;
};

/// Shared state for one plan_jobs pass. The planner is the serial Amdahl
/// term in front of the parallel fan-out, and its dominant cost used to be
/// rebuilding an identical dataplane::TransferFunction per (invariant,
/// scenario) at every use site - compute_slice and each canonical key. A
/// PlanContext owns one memoized transfer function per failure scenario
/// and every slice computation and canonical key of the plan draws from
/// it, so each scenario's fabric walks happen once per batch instead of
/// once per use. Policy-class inference (build_policy_classes) runs its
/// reachability refinement through a PlanContext of its own for the same
/// reason: the per-(host, scenario) delivery walks all share one memo, and
/// slice seeding afterwards only *looks up* the recorded signatures -
/// planning never re-walks the dataplane for representative selection.
/// Single-threaded, like the cache it wraps; one context never outlives
/// its model.
struct PlanContext {
  explicit PlanContext(const net::Network& network) : transfers(network) {}
  dataplane::TransferCache transfers;
  /// Canonical-shape-key-indexed encoding-reuse cache: class
  /// representatives planned under a shape key are rebound (Job::iso_image)
  /// onto the first registered representative their exact verification
  /// accepts. A key holds a short *list* of representatives, not one: the
  /// shape key is configuration-blind, so e.g. a clean and a rule-deleted
  /// datacenter group share a key while encoding different problems -
  /// each configuration stratum gets its own representative and later
  /// member sets of the same stratum still pair up (the list is capped;
  /// see plan_jobs). Owned by the verifier alongside the transfer memo, so
  /// representatives persist across plan passes - a later batch warms
  /// straight onto the shapes an earlier batch encoded.
  std::unordered_map<std::string, std::vector<ShapeRep>> shape_reps;
};

/// One verdict bound to a job's single solver call. A Job carries its
/// representative binding inline (members / iso_image / invariant_index
/// below) plus a list of *extra* bindings: invariants whose problem keys
/// equal the representative's, so the planner paired them rank-for-rank
/// with its encode-space problem and the one verdict fans out to all of
/// them - each binding relabels the witness through its own inverse
/// bijection (verify::bind_result).
struct VerdictBinding {
  /// Index of this binding's invariant in the batch list.
  std::size_t invariant_index = 0;
  /// The binding's own slice members (sorted).
  std::vector<NodeId> members;
  /// iso_image[i] is the encode-space node playing members[i]'s part
  /// (empty when the binding's members ARE the encode members).
  std::vector<NodeId> iso_image;
  /// Cross-run cache identity of this binding's own problem (see
  /// slice::canonical_problem_key); equal to the representative's key.
  slice::ProblemKey problem_key;
  /// Planning cost attributed to this binding's invariant.
  std::chrono::milliseconds plan_time{0};
};

/// The list BindingRef::inheritors points at: always empty, since every
/// invariant of a batch is a binding of its own.
inline const std::vector<std::size_t> kNoInheritors;

/// A borrowed uniform view over a Job's bindings (rank 0 = the
/// representative binding the Job's own fields describe); pointers alias
/// the Job and share its lifetime.
struct BindingRef {
  std::size_t invariant_index = 0;
  const std::vector<NodeId>* members = nullptr;
  const std::vector<NodeId>* iso_image = nullptr;
  const slice::ProblemKey* problem_key = nullptr;
  /// Always kNoInheritors; kept for the bench/e2e layer replay, which
  /// still walks it.
  const std::vector<std::size_t>* inheritors = &kNoInheritors;
  std::chrono::milliseconds plan_time{0};
};

/// One solver class: verify a representative invariant on its slice and
/// answer every binding of the class from that one solve.
struct Job {
  /// Position in the job queue (stable across runs for a fixed batch).
  std::size_t id = 0;
  /// Index of the representative invariant in the batch list.
  std::size_t invariant_index = 0;
  /// Slice members the representative is encoded over (whole network when
  /// slicing is disabled).
  std::vector<NodeId> members;
  /// Cross-isomorphic encoding reuse (empty = encode `members` directly).
  /// When set, iso_image[i] is the representative node playing members[i]'s
  /// part under a planner-verified isomorphism (slice::shape_bijection):
  /// the job executes on the base encoding of the representative member
  /// set (`iso_members`) with the invariant mapped through the bijection,
  /// and the counterexample witness is relabeled back before it surfaces
  /// (verify::IsoBinding).
  std::vector<NodeId> iso_image;
  /// The representative member set (sorted iso_image values); set exactly
  /// when iso_image is.
  std::vector<NodeId> iso_members;

  /// The member set whose base encoding this job actually binds: the
  /// isomorphic representative's when mapped, its own otherwise. Jobs with
  /// equal encode_members share a warm solver context.
  [[nodiscard]] const std::vector<NodeId>& encode_members() const {
    return iso_image.empty() ? members : iso_members;
  }
  /// Planning cost (slice computation + canonical keys) for the
  /// representative; every executor folds it into the representative's
  /// total_time so per-invariant figures stay comparable.
  std::chrono::milliseconds plan_time{0};
  /// The invariant the solver actually sees, already mapped into encode
  /// space (== the batch invariant when iso_image is empty). Every
  /// executor (wire workers included) solves this verbatim; no relabeling.
  encode::Invariant solve_invariant;
  /// Identity of the class: the representative's problem key, shared by
  /// every binding (empty when planned without symmetry).
  slice::ProblemKey problem_key;
  /// Extra verdict bindings answered by this job's single solver call
  /// (empty without symmetry planning or with merge_isomorphic off).
  std::vector<VerdictBinding> bindings;

  /// Invariants this solver call answers (1 + extra bindings).
  [[nodiscard]] std::size_t fan_out() const { return 1 + bindings.size(); }
  /// Uniform view over binding `k` (0 = the representative binding).
  [[nodiscard]] BindingRef binding(std::size_t k) const {
    if (k == 0) {
      return BindingRef{.invariant_index = invariant_index,
                        .members = &members,
                        .iso_image = &iso_image,
                        .problem_key = &problem_key,
                        .plan_time = plan_time};
    }
    const VerdictBinding& b = bindings[k - 1];
    return BindingRef{.invariant_index = b.invariant_index,
                      .members = &b.members,
                      .iso_image = &b.iso_image,
                      .problem_key = &b.problem_key,
                      .plan_time = b.plan_time};
  }
};

/// The queue of solver classes plus planning statistics. Jobs are ordered
/// so that jobs sharing a slice shape (identical encode member sets) are
/// adjacent: every executor solves the queue in shape groups, which turns
/// shape-adjacency directly into warm solver-context reuse.
struct JobPlan {
  std::vector<Job> jobs;
  std::size_t invariant_count = 0;
  /// Wall time of the whole (serial) planning pass.
  std::chrono::milliseconds plan_time{0};
  /// PlanContext memo effectiveness: transfer functions built vs handed
  /// back from the per-scenario memo. The seed behavior was builds ==
  /// 2 x invariants x scenarios and reuses == 0.
  std::size_t transfer_builds = 0;
  std::size_t transfer_reuses = 0;
  /// Class representatives rebound onto an isomorphic representative's
  /// base encoding this pass (Job::iso_image set).
  std::size_t iso_mapped = 0;
  /// Why candidate merges were refused (the shape_bijection MergeRefusal
  /// diagnostics, aggregated): configuration refusals name the exact
  /// differing relation/row/cell from the boxes' ConfigRelations
  /// descriptors and carry the blocking box type for per-box breakdowns.
  /// Feeds `vmn verify --dedup-report` and the fig8 bench counters.
  std::vector<MergeBlocker> merge_blockers;

  /// Solver classes: one per job.
  [[nodiscard]] std::size_t planned_jobs() const { return jobs.size(); }

  /// Fraction of the batch answered without a solver class of its own.
  [[nodiscard]] double dedup_hit_rate() const {
    if (invariant_count == 0) return 0.0;
    return static_cast<double>(invariant_count - jobs.size()) /
           static_cast<double>(invariant_count);
  }
};

}  // namespace vmn::verify
