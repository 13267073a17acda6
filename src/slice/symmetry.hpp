// Network symmetry (paper, section 4.2).
//
// "We say two invariants are symmetric when one can be transformed to
// another by replacing nodes with other nodes in the same policy class. If
// an invariant I holds in a symmetric network, then so do all invariants
// symmetric to I." VMN makes the argument exact: the batch planner groups
// invariants by canonical_problem_key, whose equality certifies an
// isomorphism of the whole verification problem, and verifies one
// representative per group. The same renderer, without the invariant,
// writes canonical_base_key, whose equality decides which classes share
// one base encoding.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/address.hpp"
#include "encode/invariant.hpp"
#include "encode/model.hpp"
#include "slice/policy.hpp"

namespace vmn::dataplane {
class TransferCache;
}

namespace vmn::slice {

/// Canonical fingerprint of the verification problem (invariant, slice) -
/// a diagnostics function: no verification path merges or caches by it
/// (canonical_problem_key is the one merge identity), and the bench/e2e
/// layer replay times it.
///
/// The key erases node identity: hosts are labelled by their policy class
/// and invariant role (target / other), middleboxes by type, state scope,
/// failure mode and the per-address projection of their configuration
/// (policy_fingerprint over the slice's relevant addresses - rendered
/// from the box's config_relations() descriptor with rename-blind
/// occurrence ids, so corresponding-but-renamed slices share keys while
/// same-type boxes never merge when their configurations treat a member
/// differently; sound exactly as long as every box's descriptor names
/// every axiom-relevant knob, address-independent ones included),
/// switches anonymously - then the labelling is refined to the stable
/// colouring (slice/refine.hpp) of the problem graph: the slice members,
/// the relevant addresses and the in-budget failure scenarios, joined by
/// address ownership, failures, fingerprint incidence and one small
/// hyperedge vertex per route (scenario, from, address, to) and per
/// admitted (src, dst) pair of each pair-match config relation
/// (per-address fingerprints cannot carry pairwise join structure -
/// deny(P1->Q1);deny(P2->Q2) must separate the slice pairing x with P1's
/// peer from the one pairing it with P2's - so the key recovers it here).
/// Isomorphic (invariant, slice) pairs - one transformable into the other
/// by a policy-class-preserving relabeling of nodes - always get equal
/// keys, but the converse is heuristic: colour refinement can colour
/// non-isomorphic graphs alike, which is why nothing merges verdicts by
/// it. Keys are stable across processes and runs: colours are pinned
/// FNV-1a 64 hashes of exact signatures (never std::hash, whose value is
/// implementation- and run-dependent).
///
/// `transfers`, when non-null, memoizes per-scenario transfer functions
/// across calls (and can be shared with compute_slice).
[[nodiscard]] std::string canonical_slice_key(
    const encode::NetworkModel& model, const std::vector<NodeId>& members,
    const encode::Invariant& invariant, const PolicyClasses& classes,
    int max_failures = 0, dataplane::TransferCache* transfers = nullptr);

/// Canonical fingerprint of a *base encoding problem* - (model, member set,
/// failure budget) with no invariant - plus the per-member refinement
/// colors the fingerprint was derived from.
///
/// Unlike canonical_slice_key, the shape key ignores invariant roles,
/// policy classes and middlebox configuration payloads: hosts are colored
/// "host", middleboxes by structural fingerprint, and refinement to the
/// stable colouring over ownership and the scenario-tagged routing
/// relation does the rest. Equal keys are therefore only a *candidate*
/// signal - two slices whose keys collide may still encode different
/// problems (differing configurations, or a blind spot of colour
/// refinement: two triangles and a 6-cycle colour alike), so nothing
/// merges on it alone; its colors rank members for both renderings below.
struct ShapeKey {
  std::string key;
  /// Normalized (sorted, deduplicated) members the key describes.
  std::vector<NodeId> members;
  /// Stable refinement colour per member, aligned with `members`.
  std::vector<std::uint64_t> colors;
};

[[nodiscard]] ShapeKey canonical_shape_key(
    const encode::NetworkModel& model, const std::vector<NodeId>& members,
    int max_failures = 0, dataplane::TransferCache* transfers = nullptr);

/// Canonical fingerprint of one *whole* verification problem - (model,
/// member set, invariant, failure budget) - rendered entirely in
/// name-blind, address-blind coordinates, plus the coordinate maps the
/// rendering was written in.
///
/// Members are listed in canonical order (stable shape-refinement colour
/// value, then invariant role, ties broken by sorted position); relevant
/// addresses are numbered by first appearance along that order. The
/// rendering then spells out, rank by rank and token by token, every
/// configuration-dependent input of
/// encode::Encoding: node kinds and structural middlebox fingerprints,
/// address ownership, each member box's encoding_projection over the
/// token-ordered relevant set, the invariant's kind and the ranks it
/// targets (for traversal invariants, the rank set the encoder's
/// name-prefix selection picks), and the per-scenario transfer relation
/// plus failed-member sets as a sorted multiset of scenario signatures,
/// with the failure budget appended.
///
/// Exactness contract: two problems with equal keys pair rank-for-rank
/// into a bijection that passes every check shape_bijection() verifies
/// (kinds/structure, induced address bijection, projections, scenario
/// relations) *and* maps one invariant onto the other - equal keys imply
/// equisatisfiable problems whose witnesses relabel across rank/token
/// correspondence. The converse stays heuristic (an unlucky canonical
/// order can render two isomorphic problems differently - a missed reuse,
/// never a wrong one). `key` is empty when the problem resists
/// canonicalization (invariant nodes outside the member set, or a
/// non-normalized shape), which callers must treat as "never equal".
///
/// This is the one merge identity: verify::plan_jobs folds invariants
/// with equal keys into one solver class (the bindings' rank maps are the
/// witness-relabeling bijections), and verify::ResultCache v7 keys records
/// by it, so a renamed (or renumbered) but isomorphic spec re-derives the
/// same key cold, and the stored `order`/`tokens` maps let the hit's
/// witness relabel into the new namespace.
struct ProblemKey {
  std::string key;
  /// Members in canonical rank order: rank r of any equal-keyed problem
  /// corresponds to rank r here.
  std::vector<NodeId> order;
  /// Relevant addresses in token order (first appearance over `order`).
  std::vector<Address> tokens;
};

[[nodiscard]] ProblemKey canonical_problem_key(
    const encode::NetworkModel& model, const ShapeKey& shape,
    const encode::Invariant& invariant, int max_failures = 0,
    dataplane::TransferCache* transfers = nullptr);

/// The invariant-free key of a base encoding problem - (model, member set,
/// failure budget) - written by canonical_problem_key's own renderer with
/// the shape key as prefix, members ranked by (shape color, position) and
/// no invariant section. That ranking is the pairing shape_bijection
/// tries, so equal base keys certify the isomorphism an accepted bijection
/// does, for the reason equal problem keys certify one; verify::plan_jobs
/// rebinds a member set onto the first one planned with its base key
/// through the rank correspondence (order[r] -> rep.order[r]).
[[nodiscard]] ProblemKey canonical_base_key(
    const encode::NetworkModel& model, const ShapeKey& shape,
    int max_failures = 0, dataplane::TransferCache* transfers = nullptr);

/// Why shape_bijection refused a candidate merge. `reason` is the one-line
/// diagnostic `vmn verify --dedup-report` prints; when a middlebox
/// configuration blocked the merge, it names the exact differing relation
/// and cell from the boxes' ConfigRelations descriptors (e.g.
/// "firewall.acl row 3: dst prefix /24 vs /16") and `box_type` carries the
/// blocking box's type for per-box aggregation (empty for structural
/// refusals - color multisets, address maps, scenario relations).
struct MergeRefusal {
  std::string reason;
  std::string box_type;
};

/// Attempts to build - and exactly verify - a bijection from `from.members`
/// onto `to.members` under which the two base encodings are isomorphic:
/// the returned image (aligned with `from.members`) pairs members by
/// (color, position) and maps nodes such that kinds and structural
/// fingerprints agree, the induced address bijection (host addresses plus
/// middlebox implicit-address lists, elementwise) is well defined and maps
/// one relevant-address set onto the other, every member middlebox's
/// encoding_projection agrees under the address bijection, and for the
/// in-budget failure scenarios there is a scenario permutation under which
/// the transfer relations (members x relevant addresses, exactly what
/// omega.transfer compiles) and per-scenario failed-member sets
/// correspond. Returns nullopt when any check fails.
///
/// A cross-check and a diagnostic; no solve path calls it. The tests force
/// every planned rank map and rebinding through it, and
/// verify::merge_blockers names refusals with `why`: for configuration
/// mismatches the boxes' ConfigRelations descriptors are diffed so the
/// reason names the exact relation, row and cell. One rule is stricter
/// than the renderings': an address a projection mentions outside the
/// relevant set never matches here, while a rendering matches it to the
/// identical address. No rebinding of the generators, the example specs
/// or the 600 zoo-random specs differs by that rule alone.
[[nodiscard]] std::optional<std::vector<NodeId>> shape_bijection(
    const encode::NetworkModel& model, const ShapeKey& from,
    const ShapeKey& to, int max_failures = 0,
    dataplane::TransferCache* transfers = nullptr,
    MergeRefusal* why = nullptr);

}  // namespace vmn::slice
