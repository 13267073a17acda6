// Failure modeling tests (paper, sections 2.1, 3.4, 5.1): fail-closed vs
// fail-open semantics, state loss on failure, failure budgets, and
// redundancy verification with backup middleboxes.
#include <gtest/gtest.h>

#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "util.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"

namespace vmn::verify {
namespace {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;
using test::OneBoxNet;

constexpr Address kA = OneBoxNet::addr_a();
constexpr Address kB = OneBoxNet::addr_b();

VerifyOptions with_failures(int k) {
  VerifyOptions opts;
  opts.max_failures = k;
  return opts;
}

TEST(Failures, FailClosedBoxBlocksWhenDown) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>(
      "gw", mbox::FailureMode::fail_closed));
  n.model.network().add_failure_scenario("gw-down", {n.mbox});
  Engine v(n.model, {.verify = with_failures(1)});
  // Reachability must hold in *some* admitted scenario (sat semantics) -
  // the base scenario still delivers.
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome, Outcome::holds);
}

TEST(Failures, FailOpenBoxLeaksWhenDown) {
  // A deny-all filter that fails *open* (degenerates to a wire when down):
  // isolation holds with no failures but breaks under a single failure.
  class FailOpenFilter final : public mbox::Middlebox {
   public:
    explicit FailOpenFilter(std::string name) : Middlebox(std::move(name)) {}
    [[nodiscard]] std::string type() const override { return "filter"; }
    [[nodiscard]] mbox::StateScope state_scope() const override {
      return mbox::StateScope::stateless;
    }
    [[nodiscard]] mbox::FailureMode failure_mode() const override {
      return mbox::FailureMode::fail_open;
    }
    [[nodiscard]] mbox::ConfigRelations config_relations() const override {
      return {};  // deny-all is the type's whole behavior, not configuration
    }
    void emit_axioms(mbox::AxiomContext& ctx) const override {
      emit_send_axiom(ctx, [&](const logic::TermPtr&) {
        return logic::ltl::pred(ctx.factory().bool_val(false));  // deny all
      });
    }
    void sim_reset() override {}
    [[nodiscard]] std::vector<Packet> sim_process(const Packet&) override {
      return {};
    }
  };

  OneBoxNet net = OneBoxNet::make(std::make_unique<FailOpenFilter>("filter"));
  net.model.network().add_failure_scenario("filter-down", {net.mbox});

  Engine strict(net.model, {.verify = with_failures(0)});
  EXPECT_EQ(strict.run_one(Invariant::node_isolation(net.b, net.a)).outcome,
            Outcome::holds);

  Engine lenient(net.model, {.verify = with_failures(1)});
  VerifyResult r = lenient.run_one(Invariant::node_isolation(net.b, net.a));
  EXPECT_EQ(r.outcome, Outcome::violated);
}

TEST(Failures, RedundantFirewallPreservesIsolation) {
  // Two deny-all firewalls on primary/backup paths. Correctly configured
  // backups keep isolation under any single failure.
  encode::NetworkModel model;
  net::Network& net = model.network();
  NodeId a = net.add_host("a", kA);
  NodeId b = net.add_host("b", kB);
  auto& fw0 = model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
      "fw-0", std::vector<AclEntry>{}, AclAction::deny));
  auto& fw1 = model.add_middlebox(std::make_unique<mbox::LearningFirewall>(
      "fw-1", std::vector<AclEntry>{}, AclAction::deny));
  NodeId sw = net.add_switch("sw");
  for (NodeId x : {a, b, fw0.node(), fw1.node()}) net.add_link(x, sw);
  net.table(sw).add(Prefix::host(kA), a);
  net.table(sw).add_from(a, Prefix::host(kB), fw0.node());
  net.table(sw).add_from(b, Prefix::host(kA), fw0.node());
  net.table(sw).add_from(fw0.node(), Prefix::host(kB), b);
  net.table(sw).add_from(fw0.node(), Prefix::host(kA), a);
  net.table(sw).add_from(fw1.node(), Prefix::host(kB), b);
  net.table(sw).add_from(fw1.node(), Prefix::host(kA), a);
  ScenarioId down = net.add_failure_scenario("fw-0-down", {fw0.node()});
  net.override_routes(sw, down,
                      {net::Rule{Prefix::host(kB), fw1.node(), a, 9},
                       net::Rule{Prefix::host(kA), fw1.node(), b, 9}});

  Engine v(model, {.verify = with_failures(1)});
  EXPECT_EQ(v.run_one(Invariant::node_isolation(b, a)).outcome, Outcome::holds);

  // Now misconfigure the backup: it allows everything.
  fw1.replace_acl({AclEntry{Prefix::any(), Prefix::any(), AclAction::allow}});
  Engine v2(model, {.verify = with_failures(1)});
  VerifyResult r = v2.run_one(Invariant::node_isolation(b, a));
  EXPECT_EQ(r.outcome, Outcome::violated);
  // The violation requires the failure: with a zero budget it disappears.
  Engine v3(model, {.verify = with_failures(0)});
  EXPECT_EQ(v3.run_one(Invariant::node_isolation(b, a)).outcome,
            Outcome::holds);
}

TEST(Failures, EstablishedStateIsLostOnFailure) {
  // Persistent-failure semantics: in the scenario where the firewall is
  // down the whole run, it forwards nothing at all (fail-closed), so
  // reachability within that scenario alone fails but isolation trivially
  // holds. This exercises the once_since_up machinery end to end.
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw",
      std::vector<AclEntry>{
          {Prefix::host(kA), Prefix::host(kB), AclAction::allow}},
      AclAction::deny));
  n.model.network().add_failure_scenario("fw-down", {n.mbox});
  Engine v(n.model, {.verify = with_failures(1)});
  // Flow isolation of a against b still holds across both scenarios.
  EXPECT_EQ(v.run_one(Invariant::flow_isolation(n.a, n.b)).outcome,
            Outcome::holds);
}

TEST(Failures, BudgetExcludesLargerScenarios) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
  NodeId other = n.model.network().add_middlebox("idle-box");
  n.model.network().add_failure_scenario("double", {n.mbox, other});
  // Budget 1 excludes the two-node failure scenario; encoding must fall
  // back to the failure-free form.
  encode::Encoding enc(n.model, {}, encode::EncodeOptions{1});
  bool has_none = false;
  for (const auto& ax : enc.axioms()) {
    if (ax.label == "failures.none") has_none = true;
  }
  EXPECT_TRUE(has_none);
}

TEST(Failures, TraversalUnderReroutingMisconfiguration) {
  // idps on the primary path; a backup scenario whose routing skips it.
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Idps>("idps"));
  net::Network& net = n.model.network();
  ScenarioId down = net.add_failure_scenario("idps-down", {n.mbox});
  // Misconfigured reroute: a's traffic goes straight to s2 (no idps).
  net.override_routes(n.sw1, down,
                      {net::Rule{Prefix::host(kB), n.sw2, n.a, 9}});

  Engine v(n.model, {.verify = with_failures(1)});
  VerifyResult r = v.run_one(Invariant::traversal_from(n.b, n.a, "idps"));
  EXPECT_EQ(r.outcome, Outcome::violated);
  // Malicious traffic can now reach b under the failure.
  EXPECT_EQ(v.run_one(Invariant::no_malicious_delivery(n.b)).outcome,
            Outcome::violated);
  // Without the failure budget both hold.
  Engine v0(n.model, {.verify = with_failures(0)});
  EXPECT_EQ(v0.run_one(Invariant::traversal_from(n.b, n.a, "idps")).outcome,
            Outcome::holds);
  EXPECT_EQ(v0.run_one(Invariant::no_malicious_delivery(n.b)).outcome,
            Outcome::holds);
}

TEST(Failures, CounterexampleMentionsFailedNode) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Idps>("idps"));
  net::Network& net = n.model.network();
  ScenarioId down = net.add_failure_scenario("idps-down", {n.mbox});
  net.override_routes(n.sw1, down,
                      {net::Rule{Prefix::host(kB), n.sw2, n.a, 9}});
  Engine v(n.model, {.verify = with_failures(1)});
  VerifyResult r = v.run_one(Invariant::no_malicious_delivery(n.b));
  ASSERT_EQ(r.outcome, Outcome::violated);
  ASSERT_TRUE(r.counterexample.has_value());
  bool fail_event = false;
  for (const Event& e : r.counterexample->events()) {
    if (e.kind == EventKind::fail && e.from == n.mbox) fail_event = true;
  }
  EXPECT_TRUE(fail_event);
}

}  // namespace
}  // namespace vmn::verify
