// Symmetry tests (paper, section 4.2): policy-class inference, problem-key
// solver classes, and agreement between symmetric and exhaustive
// verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>

#include "core/rng.hpp"
#include "io/spec.hpp"
#include "mbox/firewall.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/random.hpp"
#include "scenarios/segmented.hpp"
#include "slice/policy.hpp"
#include "slice/symmetry.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"
#include "zoo_corpus.hpp"

namespace vmn::slice {
namespace {

using encode::Invariant;
using scenarios::Enterprise;
using scenarios::EnterpriseParams;
using test::zoo_spec;

Enterprise enterprise(int subnets) {
  EnterpriseParams p;
  p.subnets = subnets;
  p.hosts_per_subnet = 2;
  return scenarios::make_enterprise(p);
}

TEST(PolicyClasses, InferenceMatchesIntent) {
  Enterprise ent = enterprise(9);  // three subnets of each kind
  PolicyClasses inferred = infer_policy_classes(ent.model);
  // public / private / quarantined / the internet host itself.
  EXPECT_EQ(inferred.count(), 4u);
  // Hosts of equal subnet kind share a class.
  EXPECT_EQ(inferred.class_of(ent.subnet_hosts[0][0]),
            inferred.class_of(ent.subnet_hosts[3][0]));
  EXPECT_NE(inferred.class_of(ent.subnet_hosts[0][0]),
            inferred.class_of(ent.subnet_hosts[1][0]));
}

TEST(PolicyClasses, RuleRemovalBreaksSymmetry) {
  // Deleting one subnet's firewall entry must move its hosts out of their
  // class (paper section 5.1: "removal of rules breaks symmetry"). Here
  // subnet 0 loses its inbound allow and becomes policy-equivalent to the
  // *private* subnets instead of the other public ones.
  Enterprise ent = enterprise(9);
  PolicyClasses before = infer_policy_classes(ent.model);
  ASSERT_EQ(before.class_of(ent.subnet_hosts[0][0]),
            before.class_of(ent.subnet_hosts[3][0]));
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      ent.model.middlebox_at(ent.model.network().node_by_name("fw")));
  fw->remove_entry(0);  // subnet 0's inbound-allow entry
  PolicyClasses after = infer_policy_classes(ent.model);
  EXPECT_NE(after.class_of(ent.subnet_hosts[0][0]),
            after.class_of(ent.subnet_hosts[3][0]));
  EXPECT_EQ(after.class_of(ent.subnet_hosts[0][0]),
            after.class_of(ent.subnet_hosts[1][0]));  // now like a private
}

TEST(PolicyClasses, RepresentativesOnePerClass) {
  Enterprise ent = enterprise(6);
  PolicyClasses classes = infer_policy_classes(ent.model);
  auto reps = classes.representatives();
  EXPECT_EQ(reps.size(), classes.count());
  for (NodeId r : reps) {
    EXPECT_EQ(classes.representative_of(r), r);
  }
}

// Solver classes are the planner's problem-key groups: one job per class,
// the class's other invariants riding along as verdict bindings.
TEST(Symmetry, GroupsCollapseEquivalentInvariants) {
  Enterprise ent = enterprise(12);  // four subnets of each kind
  verify::JobPlan plan = verify::Engine(ent.model).plan(ent.invariants);
  // Twelve invariants but only three distinct solver classes
  // (public-reachability, private-flow-isolation, quarantined-isolation).
  EXPECT_EQ(ent.invariants.size(), 12u);
  EXPECT_EQ(plan.planned_jobs(), 3u);
  for (const verify::Job& job : plan.jobs) EXPECT_EQ(job.fan_out(), 4u);
}

TEST(Symmetry, GroupsRespectKind) {
  Enterprise ent = enterprise(3);
  std::vector<Invariant> invs = {
      Invariant::node_isolation(ent.subnet_hosts[2][0], ent.internet),
      Invariant::flow_isolation(ent.subnet_hosts[2][0], ent.internet),
  };
  verify::JobPlan plan = verify::Engine(ent.model).plan(invs);
  EXPECT_EQ(plan.planned_jobs(), 2u);  // different kinds never merge
}

TEST(Symmetry, SameClassHostsShareGroup) {
  Enterprise ent = enterprise(6);
  std::vector<Invariant> invs = {
      Invariant::node_isolation(ent.subnet_hosts[2][0], ent.internet),
      Invariant::node_isolation(ent.subnet_hosts[5][0], ent.internet),
      Invariant::node_isolation(ent.subnet_hosts[2][1], ent.internet),
  };
  verify::JobPlan plan = verify::Engine(ent.model).plan(invs);
  ASSERT_EQ(plan.planned_jobs(), 1u);
  EXPECT_EQ(plan.jobs[0].fan_out(), 3u);
}

TEST(Symmetry, BatchVerificationAgreesWithExhaustive) {
  Enterprise ent = enterprise(9);
  verify::Engine v(ent.model);
  verify::BatchResult symmetric = v.run_batch(ent.invariants);
  verify::BatchResult exhaustive =
      verify::Engine(ent.model, {.use_symmetry = false})
          .run_batch(ent.invariants);
  ASSERT_EQ(symmetric.results.size(), exhaustive.results.size());
  for (std::size_t i = 0; i < symmetric.results.size(); ++i) {
    EXPECT_EQ(symmetric.results[i].outcome, exhaustive.results[i].outcome)
        << "invariant " << i;
  }
  // Symmetry must reduce solver calls: 3 groups instead of 9 invariants.
  EXPECT_EQ(symmetric.solver_calls, 3u);
  EXPECT_EQ(exhaustive.solver_calls, 9u);
}

TEST(Symmetry, InheritedResultsAreMarked) {
  Enterprise ent = enterprise(6);
  verify::Engine v(ent.model);
  verify::BatchResult batch = v.run_batch(ent.invariants);
  std::size_t inherited = 0;
  for (const auto& r : batch.results) {
    if (r.by_symmetry) ++inherited;
  }
  EXPECT_EQ(inherited, batch.results.size() - batch.solver_calls);
}

// --- base-encoding shape keys + verified bijections -------------------------

/// Two mutually disconnected, structurally identical segments:
///
///   a<i> --- s<i> --(fw<i>)-- b<i>       (one-directional: a sends to b
///                                          through the firewall)
///
/// The segments' firewalls may differ in default action (the
/// configuration-mismatch case), and optional per-segment failure
/// scenarios exercise the scenario-permutation check.
struct TwoSegments {
  encode::NetworkModel model;
  NodeId a1, b1, m1, a2, b2, m2;

  [[nodiscard]] std::vector<NodeId> seg1() const { return {a1, b1, m1}; }
  [[nodiscard]] std::vector<NodeId> seg2() const { return {a2, b2, m2}; }
};

TwoSegments two_segments(mbox::AclAction default1, mbox::AclAction default2,
                         bool with_failures) {
  TwoSegments n;
  net::Network& net = n.model.network();
  const auto build = [&](int i, mbox::AclAction def, NodeId& a, NodeId& b,
                         NodeId& m) {
    const Address addr_a = Address::of(10, static_cast<std::uint8_t>(i), 0, 1);
    const Address addr_b = Address::of(10, static_cast<std::uint8_t>(i), 1, 1);
    a = net.add_host("a" + std::to_string(i), addr_a);
    b = net.add_host("b" + std::to_string(i), addr_b);
    auto& fw = n.model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
        "fw" + std::to_string(i),
        std::vector<mbox::AclEntry>{mbox::AclEntry{Prefix::host(addr_a),
                                                   Prefix::host(addr_b),
                                                   mbox::AclAction::allow}},
        def));
    m = fw.node();
    NodeId s = net.add_switch("s" + std::to_string(i));
    net.add_link(a, s);
    net.add_link(m, s);
    net.add_link(b, s);
    net.table(s).add_from(a, Prefix::host(addr_b), m);
    net.table(s).add_from(m, Prefix::host(addr_b), b);
  };
  build(1, default1, n.a1, n.b1, n.m1);
  build(2, default2, n.a2, n.b2, n.m2);
  if (with_failures) {
    net.add_failure_scenario("fw1-down", {n.m1});
    net.add_failure_scenario("fw2-down", {n.m2});
  }
  return n;
}

TEST(ShapeKeys, RenamedIsomorphicSegmentsShareAKeyAndVerifyABijection) {
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  const ShapeKey k1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey k2 = canonical_shape_key(n.model, n.seg2());
  // Firewall fingerprints are rename-blind (config.hpp occurrence ids), so
  // the slice keys of these segments collide too (see
  // PolicyClasses.RenamedIsomorphicFirewalledSegmentsShareClasses); the
  // shape key must collide regardless of configuration.
  EXPECT_EQ(k1.key, k2.key);

  std::optional<std::vector<NodeId>> image =
      shape_bijection(n.model, k1, k2);
  ASSERT_TRUE(image.has_value());
  // Structure forces the pairing: sender to sender, sink to sink, box to
  // box - 1-WL colors distinguish all three roles here.
  const auto at = [&](NodeId id) {
    const auto it = std::find(k1.members.begin(), k1.members.end(), id);
    return (*image)[static_cast<std::size_t>(it - k1.members.begin())];
  };
  EXPECT_EQ(at(n.a1), n.a2);
  EXPECT_EQ(at(n.b1), n.b2);
  EXPECT_EQ(at(n.m1), n.m2);
}

TEST(ShapeKeys, RenamedIsomorphicSegmentsShareABaseKeyRankForRank) {
  // The base key decides encode reuse: equal keys must pair the segments
  // rank for rank, and that pairing must be the bijection shape_bijection
  // verifies (both rank by color, then position).
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  const ShapeKey s1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey s2 = canonical_shape_key(n.model, n.seg2());
  const ProblemKey b1 = canonical_base_key(n.model, s1);
  const ProblemKey b2 = canonical_base_key(n.model, s2);
  ASSERT_FALSE(b1.key.empty());
  EXPECT_EQ(b1.key, b2.key);
  EXPECT_EQ(b1.key.rfind(s1.key, 0), 0u);  // the shape key is its prefix
  const std::optional<std::vector<NodeId>> image =
      shape_bijection(n.model, s1, s2);
  ASSERT_TRUE(image.has_value());
  ASSERT_EQ(b1.order.size(), b2.order.size());
  for (std::size_t r = 0; r < b1.order.size(); ++r) {
    const auto it =
        std::find(s1.members.begin(), s1.members.end(), b1.order[r]);
    EXPECT_EQ((*image)[static_cast<std::size_t>(it - s1.members.begin())],
              b2.order[r]);
  }
  // Invariant-free: no invariant kind enters it.
  EXPECT_EQ(b1.key.find("prob7"), std::string::npos);
}

TEST(PolicyClasses, RenamedIsomorphicFirewalledSegmentsShareClasses) {
  // The pre-descriptor LearningFirewall fingerprint spelled the matching
  // entry's peer prefix with raw to_string() bits, so two segments whose
  // firewalls were configured identically up to renaming (host a allowed
  // to host b, default deny - different addresses per segment) put their
  // hosts in different policy classes and their slices under different
  // canonical keys, defeating dedup for no semantic reason. The descriptor
  // renders address content by occurrence id, never bits: corresponding
  // hosts must now share a class and the slices a key.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  PolicyClasses classes = infer_policy_classes(n.model);
  EXPECT_EQ(classes.class_of(n.a1), classes.class_of(n.a2));
  EXPECT_EQ(classes.class_of(n.b1), classes.class_of(n.b2));
  EXPECT_NE(classes.class_of(n.a1), classes.class_of(n.b1));

  const encode::Invariant r1 = encode::Invariant::reachable(n.b1, n.a1);
  const encode::Invariant r2 = encode::Invariant::reachable(n.b2, n.a2);
  EXPECT_EQ(canonical_slice_key(n.model, n.seg1(), r1, classes),
            canonical_slice_key(n.model, n.seg2(), r2, classes));
}

TEST(ShapeKeys, ConfigurationMismatchRefusesTheBijection) {
  // Identical wiring and routing, but fw2 default-allows what fw1
  // default-denies: the shape key (configuration-blind by design) still
  // matches, and the exact verification must catch the difference through
  // the encoding projections - this is precisely the unsoundness a
  // key-only match would commit.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::allow,
                               /*with_failures=*/false);
  const ShapeKey k1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey k2 = canonical_shape_key(n.model, n.seg2());
  EXPECT_EQ(k1.key, k2.key);
  EXPECT_FALSE(shape_bijection(n.model, k1, k2).has_value());
}

TEST(ShapeKeys, ConfigurationMismatchSplitsTheBaseKey) {
  // The configuration-blind shape key matches, but the base key renders
  // each box's projection, so a default-allow vs default-deny firewall
  // splits it: the planner never rebinds one segment onto the other.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::allow,
                               /*with_failures=*/false);
  const ShapeKey s1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey s2 = canonical_shape_key(n.model, n.seg2());
  ASSERT_EQ(s1.key, s2.key);
  const ProblemKey b1 = canonical_base_key(n.model, s1);
  const ProblemKey b2 = canonical_base_key(n.model, s2);
  ASSERT_FALSE(b1.key.empty());
  EXPECT_NE(b1.key, b2.key);
}

TEST(ShapeKeys, EqualBaseKeysRebindAndSplitOnesNameTheirBlocker) {
  // Two invariant kinds, so the classes never merge verdicts. The planner
  // rebinds segment 2's class onto segment 1's encoding when their base
  // keys match, and merge_blockers reports nothing; when the firewalls'
  // defaults differ it rebinds nothing, and merge_blockers names the one
  // refusal with its box type.
  for (const mbox::AclAction second :
       {mbox::AclAction::deny, mbox::AclAction::allow}) {
    TwoSegments n =
        two_segments(mbox::AclAction::deny, second, /*with_failures=*/false);
    const std::vector<Invariant> invariants = {
        Invariant::node_isolation(n.b1, n.a1),
        Invariant::flow_isolation(n.b2, n.a2)};
    const verify::JobPlan plan = verify::Engine(n.model).plan(invariants);
    const std::vector<verify::MergeBlocker> blockers =
        verify::merge_blockers(n.model, plan, 0);
    if (second == mbox::AclAction::deny) {
      EXPECT_EQ(plan.iso_mapped, 1u);
      EXPECT_TRUE(blockers.empty());
    } else {
      EXPECT_EQ(plan.iso_mapped, 0u);
      ASSERT_EQ(blockers.size(), 1u);
      EXPECT_EQ(blockers[0].box_type, "firewall");
      EXPECT_EQ(blockers[0].count, 1u);
    }
  }
}

TEST(ShapeKeys, SymmetricFailureScenariosMatchUnderPermutation) {
  // "fw1-down" fails segment 1's box, "fw2-down" segment 2's: under the
  // bijection the scenarios swap roles. The check must accept the
  // permutation (the scenario constant is used only with equality), not
  // demand scenario-for-scenario identity.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/true);
  const ShapeKey k1 = canonical_shape_key(n.model, n.seg1(), 1);
  const ShapeKey k2 = canonical_shape_key(n.model, n.seg2(), 1);
  EXPECT_EQ(k1.key, k2.key);
  EXPECT_TRUE(shape_bijection(n.model, k1, k2, 1).has_value());
}

TEST(ShapeKeys, AsymmetricFailureScenariosRefuseTheBijection) {
  // Fail BOTH boxes in one scenario and neither in another: segment 1's
  // box fails where segment 2's does too, but add an extra scenario that
  // fails only segment 1's box and the multisets no longer match.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  n.model.network().add_failure_scenario("only-fw1", {n.m1});
  const ShapeKey k1 = canonical_shape_key(n.model, n.seg1(), 1);
  const ShapeKey k2 = canonical_shape_key(n.model, n.seg2(), 1);
  EXPECT_NE(k1.key, k2.key);  // the 1-WL palette already differs
  EXPECT_FALSE(shape_bijection(n.model, k1, k2, 1).has_value());
}

TEST(ShapeKeys, BijectionIsInvariantFree) {
  // The same member pair serves any invariant: shape keys carry no roles,
  // so one representative encoding can host isolation and reachability
  // checks alike (role mapping happens per job, in the engines).
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  const ShapeKey k1 = canonical_shape_key(n.model, n.seg1());
  EXPECT_EQ(k1.key.find("node-isolation"), std::string::npos);
  EXPECT_EQ(k1.key.find("reachable"), std::string::npos);
}

// --- shape-canonical problem keys -------------------------------------------

TEST(ProblemKeys, RenamedIsomorphicProblemsShareAKeyRankForRank) {
  // The v6 contract: equal keys certify rank-for-rank isomorphic problems.
  // The same isolation invariant posed in two disjoint renamed segments
  // must produce byte-identical keys, with the invariant roles landing on
  // the same ranks.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  const ShapeKey s1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey s2 = canonical_shape_key(n.model, n.seg2());
  const ProblemKey k1 = canonical_problem_key(
      n.model, s1, Invariant::node_isolation(n.b1, n.a1));
  const ProblemKey k2 = canonical_problem_key(
      n.model, s2, Invariant::node_isolation(n.b2, n.a2));
  EXPECT_EQ(k1.key, k2.key);
  ASSERT_EQ(k1.order.size(), k2.order.size());
  const auto rank_of = [](const ProblemKey& k, NodeId id) {
    return std::find(k.order.begin(), k.order.end(), id) - k.order.begin();
  };
  EXPECT_EQ(rank_of(k1, n.b1), rank_of(k2, n.b2));  // target rank
  EXPECT_EQ(rank_of(k1, n.a1), rank_of(k2, n.a2));  // other rank
  EXPECT_EQ(rank_of(k1, n.m1), rank_of(k2, n.m2));
}

TEST(ProblemKeys, DirectionFlipIsADifferentProblem) {
  // node-isolation(b, a) and node-isolation(a, b) over the same slice are
  // different verification problems (the routing is one-directional); their
  // keys must split even though shape and members coincide.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::deny,
                               /*with_failures=*/false);
  const ShapeKey s1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey s2 = canonical_shape_key(n.model, n.seg2());
  const ProblemKey forward = canonical_problem_key(
      n.model, s1, Invariant::node_isolation(n.b1, n.a1));
  const ProblemKey reverse = canonical_problem_key(
      n.model, s2, Invariant::node_isolation(n.a2, n.b2));
  EXPECT_NE(forward.key, reverse.key);
}

TEST(ProblemKeys, ConfigurationMismatchSplitsTheKeyOutright) {
  // Unlike the shape key (configuration-blind, backed by an exact
  // bijection check), the problem key IS the certificate: a default-allow
  // vs default-deny firewall must already split the key, because a cache
  // hit on it is answered with no further verification.
  TwoSegments n = two_segments(mbox::AclAction::deny, mbox::AclAction::allow,
                               /*with_failures=*/false);
  const ShapeKey s1 = canonical_shape_key(n.model, n.seg1());
  const ShapeKey s2 = canonical_shape_key(n.model, n.seg2());
  EXPECT_EQ(s1.key, s2.key);  // shape alone cannot tell them apart
  const ProblemKey k1 = canonical_problem_key(
      n.model, s1, Invariant::node_isolation(n.b1, n.a1));
  const ProblemKey k2 = canonical_problem_key(
      n.model, s2, Invariant::node_isolation(n.b2, n.a2));
  EXPECT_NE(k1.key, k2.key);
}

TEST(ProblemKeys, RolesBreakRankTiesNotCreationOrder) {
  // Two interchangeable same-color hosts per segment, with creation order
  // flipped between the segments. Position tie-breaking would put the
  // *earlier-created* host at the lower rank and flip the invariant roles
  // between the two keys (the datacenter wrap-around pair bug); role-aware
  // ranking pins target before other within a color.
  encode::NetworkModel model;
  net::Network& net = model.network();
  NodeId x1, y1, x2, y2;
  const auto build = [&](int i, bool flip, NodeId& x, NodeId& y) {
    const Address ax = Address::of(10, static_cast<std::uint8_t>(i), 0, 1);
    const Address ay = Address::of(10, static_cast<std::uint8_t>(i), 0, 2);
    const std::string suffix = std::to_string(i);
    if (flip) {
      y = net.add_host("y" + suffix, ay);
      x = net.add_host("x" + suffix, ax);
    } else {
      x = net.add_host("x" + suffix, ax);
      y = net.add_host("y" + suffix, ay);
    }
    const NodeId s = net.add_switch("s" + suffix);
    net.add_link(x, s);
    net.add_link(y, s);
    net.table(s).add_from(x, Prefix::host(ay), y);
    net.table(s).add_from(y, Prefix::host(ax), x);
  };
  build(1, /*flip=*/false, x1, y1);
  build(2, /*flip=*/true, x2, y2);

  const ShapeKey s1 = canonical_shape_key(model, {x1, y1});
  const ShapeKey s2 = canonical_shape_key(model, {x2, y2});
  ASSERT_EQ(s1.key, s2.key);
  const ProblemKey k1 = canonical_problem_key(
      model, s1, Invariant::node_isolation(y1, x1));
  const ProblemKey k2 = canonical_problem_key(
      model, s2, Invariant::node_isolation(y2, x2));
  EXPECT_EQ(k1.key, k2.key);
  ASSERT_EQ(k1.order.size(), 2u);
  const auto rank_of = [](const ProblemKey& k, NodeId id) {
    return std::find(k.order.begin(), k.order.end(), id) - k.order.begin();
  };
  EXPECT_EQ(rank_of(k1, y1), rank_of(k2, y2));
  EXPECT_EQ(rank_of(k1, x1), rank_of(k2, x2));
}


// --- problem-key classes against the exact bijection check -----------------

/// A ShapeKey over `members` colored by each member's rank in `order`:
/// shape_bijection pairs equal colors, so two such keys force the
/// rank-for-rank pairing onto its exact checks.
ShapeKey ranked_shape(const std::vector<NodeId>& members,
                      const std::vector<NodeId>& order) {
  ShapeKey k;
  k.key = "ranked";
  k.members = members;
  for (NodeId m : members) {
    k.colors.push_back(static_cast<std::uint64_t>(
        std::find(order.begin(), order.end(), m) - order.begin()));
  }
  return k;
}

/// What expect_rank_maps_exact forced through shape_bijection.
struct Checked {
  std::size_t bindings = 0;  ///< verdict bindings' rank maps
  std::size_t rebound = 0;   ///< rebound jobs' images (Job::iso_image)
  Checked& operator+=(const Checked& o) {
    bindings += o.bindings;
    rebound += o.rebound;
    return *this;
  }
};

/// For every multi-binding class of the plan: each binding's rank map onto
/// the representative must pass shape_bijection's exact checks when forced
/// as the pairing, and carry the binding's invariant roles onto the
/// representative's. For every job the planner rebound onto another member
/// set's encoding (equal base keys), its image must pass the same checks
/// when forced as the pairing.
Checked expect_rank_maps_exact(const encode::NetworkModel& model,
                               const std::vector<Invariant>& invariants,
                               int max_failures, const std::string& what) {
  verify::EngineOptions opts;
  opts.verify.max_failures = max_failures;
  const verify::JobPlan plan = verify::Engine(model, opts).plan(invariants);
  Checked checked;
  for (const verify::Job& job : plan.jobs) {
    if (!job.iso_image.empty()) {
      MergeRefusal why;
      EXPECT_TRUE(shape_bijection(model, ranked_shape(job.members, job.members),
                                  ranked_shape(job.iso_members, job.iso_image),
                                  max_failures, nullptr, &why)
                      .has_value())
          << what << " rebound invariant " << job.invariant_index << ": "
          << why.reason;
      ++checked.rebound;
    }
    const ShapeKey rep = ranked_shape(job.members, job.problem_key.order);
    const Invariant& rep_inv = invariants[job.invariant_index];
    for (const verify::VerdictBinding& b : job.bindings) {
      const ShapeKey own = ranked_shape(b.members, b.problem_key.order);
      MergeRefusal why;
      const std::optional<std::vector<NodeId>> image =
          shape_bijection(model, own, rep, max_failures, nullptr, &why);
      EXPECT_TRUE(image.has_value()) << what << " invariant "
                                     << b.invariant_index << ": "
                                     << why.reason;
      if (!image) continue;
      const auto image_of = [&](NodeId n) {
        const auto it = std::find(b.members.begin(), b.members.end(), n);
        return (*image)[static_cast<std::size_t>(it - b.members.begin())];
      };
      const Invariant& inv = invariants[b.invariant_index];
      EXPECT_EQ(image_of(inv.target), rep_inv.target) << what;
      if (inv.other.valid()) {
        EXPECT_EQ(image_of(inv.other), rep_inv.other) << what;
      }
      ++checked.bindings;
    }
  }
  return checked;
}

TEST(ProblemKeys, GeneratorClassRankMapsPassTheExactBijectionCheck) {
  Checked checked;
  Enterprise ent = enterprise(6);
  checked += expect_rank_maps_exact(ent.model, ent.invariants, 0, "enterprise");
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      ent.model.middlebox_at(ent.model.network().node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  std::vector<mbox::AclEntry> acl = fw->acl();
  acl.insert(acl.begin(), mbox::AclEntry{Prefix(Address::of(172, 16, 0, 0), 12),
                                         Prefix(Address::of(10, 0, 0, 0), 8),
                                         mbox::AclAction::allow});
  fw->replace_acl(acl);
  checked += expect_rank_maps_exact(ent.model, ent.invariants, 0,
                                    "open-firewall enterprise");

  for (scenarios::DcMisconfig kind :
       {scenarios::DcMisconfig::none, scenarios::DcMisconfig::rules,
        scenarios::DcMisconfig::redundancy, scenarios::DcMisconfig::traversal,
        scenarios::DcMisconfig::cache_acl}) {
    scenarios::DatacenterParams p;
    p.policy_groups = 4;
    p.clients_per_group = 2;
    scenarios::Datacenter dc = scenarios::make_datacenter(p);
    if (kind != scenarios::DcMisconfig::none) {
      Rng rng(7);
      inject_misconfig(dc, kind, rng, 2);
    }
    checked += expect_rank_maps_exact(dc.model, dc.batch().invariants, 1,
                                      "datacenter");
  }

  for (bool bypass : {false, true}) {
    scenarios::IspParams p;
    p.peering_points = 2;
    p.subnets = 3;
    p.scrub_bypasses_firewalls = bypass;
    scenarios::Isp isp = scenarios::make_isp(p);
    checked += expect_rank_maps_exact(isp.model, isp.batch().invariants, 1,
                                      "isp");
  }

  scenarios::MultiTenantParams mp;
  mp.tenants = 4;
  mp.servers = 2;
  mp.public_vms_per_tenant = 1;
  mp.private_vms_per_tenant = 1;
  scenarios::MultiTenant mt = scenarios::make_multitenant(mp);
  checked += expect_rank_maps_exact(mt.model, mt.batch().invariants, 0,
                                    "multitenant");

  for (int bypass : {-1, 1}) {
    scenarios::SegmentedParams p;
    p.bypass_segment = bypass;
    scenarios::Segmented s = scenarios::make_segmented(p);
    checked += expect_rank_maps_exact(s.model, s.batch().invariants, 0,
                                      "segmented");
  }
  // The datacenter and enterprise batches merge heavily; zero would mean
  // the property ran against an empty mechanism.
  EXPECT_GT(checked.bindings, 20u);
  EXPECT_GT(checked.rebound, 0u);
}

TEST(ProblemKeys, ZooCorpusClassRankMapsPassTheExactBijectionCheck) {
  const std::vector<test::ZooGolden> corpus = test::zoo_golden(50);
  ASSERT_EQ(corpus.size(), 50u);
  Checked checked;
  for (const test::ZooGolden& entry : corpus) {
    io::Spec spec = zoo_spec(entry.name);
    checked += expect_rank_maps_exact(
        spec.model, spec.invariants,
        scenarios::derived_max_failures(spec.model), entry.name);
  }
  EXPECT_GT(checked.bindings, 0u);
  EXPECT_GT(checked.rebound, 0u);
}

TEST(ProblemKeys, Zoo642KnownMissStaysPinned) {
  // A known miss of the problem key: zoo642's invariants 0 and 3 are
  // isomorphic (exactly one target-preserving bijection passes
  // shape_bijection), but the key's positional tie-break within a color
  // class renders them differently, so they solve as two classes - one
  // extra solver call. zoo260's invariants 0 and 2 are the corpus's other
  // such pair. ROADMAP item 4's canonical labelling (individualization-
  // refinement) would merge them; until then this count is pinned so a
  // change to the key's ordering shows up here.
  io::Spec spec = zoo_spec("zoo642");
  verify::EngineOptions opts;
  opts.verify.max_failures = scenarios::derived_max_failures(spec.model);
  const verify::JobPlan plan =
      verify::Engine(spec.model, opts).plan(spec.invariants);
  EXPECT_EQ(plan.planned_jobs(), 6u);
  std::size_t class0 = plan.jobs.size();
  std::size_t class3 = plan.jobs.size();
  for (std::size_t j = 0; j < plan.jobs.size(); ++j) {
    for (std::size_t k = 0; k < plan.jobs[j].fan_out(); ++k) {
      const std::size_t i = plan.jobs[j].binding(k).invariant_index;
      if (i == 0) class0 = j;
      if (i == 3) class3 = j;
    }
  }
  EXPECT_NE(class0, class3);
}

}  // namespace
}  // namespace vmn::slice
