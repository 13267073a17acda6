// Tests for the spec text format: parsing, error reporting, round-tripping
// and end-to-end verification of a parsed network.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>

#include "io/spec.hpp"
#include "mbox/firewall.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/nat.hpp"
#include "scenarios/datacenter.hpp"
#include "scenarios/enterprise.hpp"
#include "scenarios/isp.hpp"
#include "scenarios/multitenant.hpp"
#include "scenarios/segmented.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"
#include "zoo_corpus.hpp"

namespace vmn::io {
namespace {

const char* kTiny = R"(
# two hosts behind a firewall
host a 10.0.0.1
host b 10.0.1.1
switch s1
switch s2
firewall fw default deny
  allow 10.0.0.1/32 -> 10.0.1.1/32
end
link a s1
link fw s1
link s1 s2
link b s2
route s1 10.0.0.1/32 a
route s1 from a 10.0.1.1/32 fw
route s1 from fw 10.0.1.1/32 s2
route s1 from s2 10.0.0.1/32 fw
route s1 from fw 10.0.0.1/32 a
route s2 10.0.1.1/32 b
route s2 10.0.0.1/32 s1
invariant flow-isolation a b expect holds
invariant reachable b a expect holds
)";

TEST(SpecParse, TinyNetworkStructure) {
  Spec spec = parse_spec_string(kTiny);
  const net::Network& net = spec.model.network();
  EXPECT_EQ(net.hosts().size(), 2u);
  EXPECT_EQ(net.middleboxes().size(), 1u);
  EXPECT_EQ(spec.invariants.size(), 2u);
  ASSERT_TRUE(spec.expectations[0].has_value());
  EXPECT_EQ(*spec.expectations[0], verify::Outcome::holds);
  auto* fw = dynamic_cast<mbox::LearningFirewall*>(
      spec.model.middlebox_at(net.node_by_name("fw")));
  ASSERT_NE(fw, nullptr);
  EXPECT_EQ(fw->acl().size(), 1u);
  EXPECT_EQ(fw->default_action(), mbox::AclAction::deny);
}

TEST(SpecParse, ParsedNetworkVerifies) {
  Spec spec = parse_spec_string(kTiny);
  verify::Engine v(spec.model);
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    EXPECT_EQ(v.run_one(spec.invariants[i]).outcome, *spec.expectations[i]);
  }
}

TEST(SpecParse, AddressesAndPrefixes) {
  EXPECT_EQ(parse_address("10.1.2.3"), Address::of(10, 1, 2, 3));
  EXPECT_EQ(parse_prefix("10.0.0.0/8").length(), 8);
  EXPECT_EQ(parse_prefix("10.1.2.3").length(), 32);  // bare address = /32
  EXPECT_THROW((void)parse_address("10.1.2"), ParseError);
  EXPECT_THROW((void)parse_address("300.1.2.3"), ParseError);
  EXPECT_THROW((void)parse_prefix("10.0.0.0/40"), ParseError);
  EXPECT_THROW((void)parse_prefix("10.0.0.0/x"), ParseError);
}

TEST(SpecParse, AllMiddleboxKinds) {
  Spec spec = parse_spec_string(R"(
host h 10.0.0.1
nat n1 1.2.3.4 10.0.0.0/8
load-balancer lb1 10.255.0.1 10.0.0.1 10.0.0.2
cache c1
  deny 10.1.0.0/16 10.0.9.1
end
idps i1
idps i2 monitor
scrubber sb1
gateway g1
gateway g2 fail-open
app-firewall af1 7 9
wan-optimizer w1
)");
  EXPECT_EQ(spec.model.middleboxes().size(), 10u);
  const net::Network& net = spec.model.network();
  auto* nat =
      dynamic_cast<mbox::Nat*>(spec.model.middlebox_at(net.node_by_name("n1")));
  ASSERT_NE(nat, nullptr);
  EXPECT_EQ(nat->external_address(), Address::of(1, 2, 3, 4));
  auto* lb = dynamic_cast<mbox::LoadBalancer*>(
      spec.model.middlebox_at(net.node_by_name("lb1")));
  ASSERT_NE(lb, nullptr);
  EXPECT_EQ(lb->backends().size(), 2u);
  EXPECT_EQ(spec.model.middlebox_at(net.node_by_name("g2"))->failure_mode(),
            mbox::FailureMode::fail_open);
}

TEST(SpecParse, ScenarioBlocks) {
  Spec spec = parse_spec_string(R"(
host a 10.0.0.1
host b 10.0.0.2
switch s
gateway g
link a s
link b s
link g s
route s 10.0.0.2/32 g
route s from g 10.0.0.2/32 b
scenario g-down fail g
  route s 10.0.0.2/32 b priority 9
end
)");
  const net::Network& net = spec.model.network();
  ASSERT_EQ(net.scenarios().size(), 2u);
  EXPECT_EQ(net.scenarios()[1].name, "g-down");
  EXPECT_TRUE(net.is_failed(net.node_by_name("g"), ScenarioId{1}));
  // The override routes around the gateway.
  EXPECT_EQ(net.effective_table(net.node_by_name("s"), ScenarioId{1})
                .match(std::nullopt, Address::of(10, 0, 0, 2)),
            net.node_by_name("b"));
}

TEST(SpecParse, ScenarioRouteReplacesTheBaseRouteOfItsRank) {
  // Without a priority, the override ties with the base route it names;
  // the scenario's table copied that base route, and the override
  // replaces it. Two lines of one block still tie as in the base: the
  // first one added wins. No route leads to c's own address, so c can
  // receive a's packets only through the override.
  Spec spec = parse_spec_string(R"(
host a 10.0.0.1
host b 10.0.0.2
host c 10.0.0.3
host x 10.0.0.4
switch s
link a s
link b s
link c s
link x s
route s 10.0.0.1 a
route s 10.0.0.2 b
route s 10.0.0.4 x
scenario f1 fail x
  route s 10.0.0.2 c
end
scenario f2 fail x
  route s 10.0.0.2 c
  route s 10.0.0.2 a
end
invariant reachable b a
invariant node-isolation c a
)");
  const net::Network& net = spec.model.network();
  const NodeId s = net.node_by_name("s");
  const Address b_addr = Address::of(10, 0, 0, 2);
  EXPECT_EQ(net.effective_table(s, ScenarioId{1}).match(std::nullopt, b_addr),
            net.node_by_name("c"));
  EXPECT_EQ(net.effective_table(s, ScenarioId{2}).match(std::nullopt, b_addr),
            net.node_by_name("c"));
  // The base keeps its route, and the other copied rules still apply.
  EXPECT_EQ(net.effective_table(s, net::Network::base_scenario)
                .match(std::nullopt, b_addr),
            net.node_by_name("b"));
  EXPECT_EQ(net.effective_table(s, ScenarioId{1})
                .match(std::nullopt, Address::of(10, 0, 0, 1)),
            net.node_by_name("a"));
  // With x down, a's packets for b reach c. Whole-network verification
  // sees it; reachable(b, a) still holds, because the base scenario
  // delivers and reachability needs only one in-budget scenario.
  verify::VerifyOptions vo;
  vo.use_slices = false;
  vo.max_failures = 1;
  verify::Engine one_failure(spec.model, {.verify = vo});
  EXPECT_EQ(one_failure.run_one(spec.invariants[0]).outcome,
            verify::Outcome::holds);
  EXPECT_EQ(one_failure.run_one(spec.invariants[1]).outcome,
            verify::Outcome::violated);
  vo.max_failures = 0;
  verify::Engine no_failure(spec.model, {.verify = vo});
  EXPECT_EQ(no_failure.run_one(spec.invariants[1]).outcome,
            verify::Outcome::holds);
}

TEST(SpecParse, ErrorsCarryLineNumbers) {
  try {
    (void)parse_spec_string("host a 10.0.0.1\nbogus directive\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(SpecParse, ErrorsCarryColumns) {
  // Bad address: the column points at the address token, not the line start.
  try {
    (void)parse_spec_string("host a 10.0.0.1\nhost b 10.0.999.1\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 8);  // "10.0.999.1" starts at column 8
    EXPECT_NE(std::string(e.what()).find("line 2, col 8"), std::string::npos);
  }
  // Unknown node in a link: the column of the offending name.
  try {
    (void)parse_spec_string("host a 10.0.0.1\nlink a nosuch\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 8);  // "nosuch"
  }
  // Leading whitespace shifts the column (1-based, of the raw line).
  try {
    (void)parse_spec_string("switch s\n   route s 10.0.0.0/8 nosuch\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 23);  // "nosuch" after "   route s 10.0.0.0/8 "
  }
  // Bad priority number: column of the number token.
  try {
    (void)parse_spec_string("switch s\nroute s 10.0.0.0/8 s priority x\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 31);
  }
  // Invariants resolve after the whole file: positions must still point at
  // the invariant's own line, not the file's last.
  try {
    (void)parse_spec_string(
        "host a 10.0.0.1\ninvariant reachable a nosuch\nhost b 10.0.0.2\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 23);  // "nosuch"
  }
  // Line-only errors (no token to blame) report column 0.
  try {
    (void)parse_spec_string("host a\n");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.column(), 0);
    EXPECT_NE(std::string(e.what()).find("line 1:"), std::string::npos);
  }
}

TEST(SpecParse, ErrorCases) {
  EXPECT_THROW((void)parse_spec_string("host a\n"), ParseError);
  EXPECT_THROW((void)parse_spec_string("link a b\n"), ParseError);  // unknown
  EXPECT_THROW((void)parse_spec_string("firewall f default deny\n"),
               ParseError);  // unterminated block
  EXPECT_THROW((void)parse_spec_string("invariant bogus a b\n"), ParseError);
  EXPECT_THROW(
      (void)parse_spec_string("host a 10.0.0.1\ninvariant reachable a nosuch\n"),
      ParseError);
  EXPECT_THROW((void)parse_spec_string(
                   "switch s\nroute s 10.0.0.0/8 s priority x\n"),
               ParseError);
}

TEST(SpecParse, InvariantsMayReferenceLaterHosts) {
  // Invariants are resolved after the whole file is read.
  Spec spec = parse_spec_string(R"(
invariant reachable b a
host a 10.0.0.1
host b 10.0.0.2
)");
  EXPECT_EQ(spec.invariants.size(), 1u);
}

TEST(SpecRoundTrip, StructurePreserved) {
  Spec spec = parse_spec_string(kTiny);
  const std::string text = write_spec_string(spec);
  Spec again = parse_spec_string(text);
  const net::Network& n1 = spec.model.network();
  const net::Network& n2 = again.model.network();
  EXPECT_EQ(n1.node_count(), n2.node_count());
  EXPECT_EQ(n1.links().size(), n2.links().size());
  EXPECT_EQ(spec.invariants.size(), again.invariants.size());
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    EXPECT_EQ(spec.invariants[i].kind, again.invariants[i].kind);
  }
  // And the reparsed network verifies identically.
  verify::Engine v(again.model);
  for (std::size_t i = 0; i < again.invariants.size(); ++i) {
    EXPECT_EQ(v.run_one(again.invariants[i]).outcome, *again.expectations[i]);
  }
}

/// `model` and `invariants` as a Spec, for the writer.
Spec as_spec(encode::NetworkModel model,
             std::vector<encode::Invariant> invariants) {
  Spec spec;
  spec.model = std::move(model);
  spec.invariants = std::move(invariants);
  return spec;
}

/// The three example specs, the five generators and zoo specs 1-100.
std::vector<std::pair<std::string, Spec>> corpus_specs() {
  std::vector<std::pair<std::string, Spec>> specs;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(VMN_SOURCE_DIR) + "/examples/specs")) {
    if (entry.path().extension() != ".vmn") continue;
    specs.emplace_back(entry.path().filename().string(),
                       load_spec(entry.path().string()));
  }
  scenarios::Datacenter dc = scenarios::make_datacenter({4, 2});
  specs.emplace_back("datacenter",
                     as_spec(std::move(dc.model), dc.batch().invariants));
  scenarios::Enterprise e = scenarios::make_enterprise({});
  specs.emplace_back("enterprise",
                     as_spec(std::move(e.model), std::move(e.invariants)));
  scenarios::Isp isp = scenarios::make_isp({});
  specs.emplace_back("isp", as_spec(std::move(isp.model), isp.invariants()));
  scenarios::MultiTenant mt = scenarios::make_multitenant({});
  specs.emplace_back("multitenant",
                     as_spec(std::move(mt.model), mt.batch().invariants));
  scenarios::Segmented seg = scenarios::make_segmented({});
  specs.emplace_back("segmented",
                     as_spec(std::move(seg.model), seg.batch().invariants));
  for (const test::ZooGolden& entry : test::zoo_golden(100)) {
    specs.emplace_back(entry.name, test::zoo_spec(entry.name));
  }
  return specs;
}

TEST(SpecRoundTrip, WritingAParsedSpecChangesNothing) {
  // The writer renders each scenario table in full, base copies included;
  // parsing that block back must rebuild the same table, not append the
  // base rules a second time.
  const std::vector<std::pair<std::string, Spec>> specs = corpus_specs();
  ASSERT_EQ(specs.size(), 108u);
  for (const auto& [name, spec] : specs) {
    const std::string text = write_spec_string(spec);
    EXPECT_EQ(write_spec_string(parse_spec_string(text)), text) << name;
  }
}

/// s1's override for b's address leads out of the slice of (b, a) to c,
/// and replaces the base route to s2; s2's override then delivers to b.
/// Under f1 nothing reaches b, so reachable(b, a) is violated at one
/// failure and node-isolation(b, a) holds.
constexpr const char* kOverrideLeavesTheSlice = R"(
host a 10.0.0.1
host b 10.0.0.2
host c 10.0.0.3
host d 10.0.0.4
host x 10.0.0.5
switch s1
switch s2
link a s1
link c s1
link x s1
link s1 s2
link b s2
link d s2
route s1 10.0.0.1 a
route s1 10.0.0.2 s2
route s2 10.0.0.2 d
scenario f1 fail x
  route s1 10.0.0.2 c
  route s2 10.0.0.2 b
end
invariant reachable b a
invariant node-isolation b a
)";

/// `table`'s rules by node name, skipping those naming a node `kept` rejects.
std::vector<std::string> named_rules(const net::Network& net,
                                     const net::ForwardingTable& table,
                                     const std::function<bool(NodeId)>& kept) {
  std::vector<std::string> out;
  for (const net::Rule& r : table.rules()) {
    if (!kept(r.next_hop) || (r.in_from && !kept(*r.in_from))) continue;
    out.push_back((r.in_from ? net.name(*r.in_from) + " " : std::string()) +
                  r.dst.to_string() + " " + net.name(r.next_hop) + " " +
                  std::to_string(r.priority));
  }
  return out;
}

TEST(SpecProjection, ScenarioTablesReparseToTheirKeptRules) {
  // A job's projected spec, parsed back, must give every switch under
  // every scenario the full model's table restricted to the kept nodes -
  // never a base rule that a scenario route replaced.
  std::vector<std::pair<std::string, Spec>> specs = corpus_specs();
  specs.emplace_back("override", parse_spec_string(kOverrideLeavesTheSlice));
  for (const auto& [name, spec] : specs) {
    const net::Network& net = spec.model.network();
    verify::VerifyOptions vo;
    vo.max_failures = 1;
    verify::Engine engine(spec.model, {.verify = vo});
    const verify::JobPlan plan = engine.plan(spec.invariants);
    for (const verify::Job& job : plan.jobs) {
      const Spec projected = parse_spec_string(
          write_projected_spec_string(spec.model, job.encode_members()));
      const net::Network& pnet = projected.model.network();
      auto in_projection = [&](NodeId n) {
        return std::any_of(pnet.nodes().begin(), pnet.nodes().end(),
                           [&](const net::Node& p) {
                             return p.name == net.name(n);
                           });
      };
      ASSERT_EQ(pnet.scenarios().size(), net.scenarios().size()) << name;
      for (std::size_t si = 0; si < net.scenarios().size(); ++si) {
        const ScenarioId sid(static_cast<ScenarioId::underlying_type>(si));
        for (const net::Node& n : net.nodes()) {
          if (n.kind != net::NodeKind::switch_node) continue;
          EXPECT_EQ(named_rules(pnet,
                                pnet.effective_table(
                                    pnet.node_by_name(n.name), sid),
                                [](NodeId) { return true; }),
                    named_rules(net, net.effective_table(n.id, sid),
                                in_projection))
              << name << " job " << job.id << " switch " << n.name
              << " scenario " << net.scenarios()[si].name;
        }
      }
    }
  }
}

TEST(SpecProjection, OverrideLeavingTheSliceVerifiesAlikeOnEitherExecutor) {
  const Spec spec = parse_spec_string(kOverrideLeavesTheSlice);
  verify::VerifyOptions vo;
  vo.max_failures = 1;
  verify::Engine whole(spec.model, {.verify = [&] {
                                      verify::VerifyOptions w = vo;
                                      w.use_slices = false;
                                      return w;
                                    }()});
  verify::Engine inline_engine(spec.model, {.verify = vo});
  verify::Engine pooled(spec.model, {.batch = true, .jobs = 2, .verify = vo});
  const verify::BatchResult inline_run = inline_engine.run_batch(spec.invariants);
  const verify::BatchResult pooled_run = pooled.run_batch(spec.invariants);
  const std::vector<verify::Outcome> want{verify::Outcome::violated,
                                          verify::Outcome::holds};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(whole.run_one(spec.invariants[i]).outcome, want[i]) << i;
    EXPECT_EQ(inline_run.results[i].outcome, want[i]) << i;
    EXPECT_EQ(pooled_run.results[i].outcome, want[i]) << i;
  }
}

TEST(SpecRoundTrip, MiddleboxConfigsPreserved) {
  Spec spec = parse_spec_string(R"(
host h 10.0.0.1
nat n1 1.2.3.4 10.0.0.0/8
cache c1
  deny 10.1.0.0/16 10.0.9.1
end
)");
  Spec again = parse_spec_string(write_spec_string(spec));
  auto* nat = dynamic_cast<mbox::Nat*>(
      again.model.middlebox_at(again.model.network().node_by_name("n1")));
  ASSERT_NE(nat, nullptr);
  EXPECT_EQ(nat->internal_prefix(), Prefix(Address::of(10, 0, 0, 0), 8));
}

TEST(SpecLoad, ExampleSpecParsesAndVerifies) {
  // The shipped example file must stay green.
  Spec spec = load_spec(std::string(VMN_SOURCE_DIR) +
                        "/examples/specs/enterprise.vmn");
  EXPECT_EQ(spec.invariants.size(), 4u);
  verify::Engine v(spec.model);
  for (std::size_t i = 0; i < spec.invariants.size(); ++i) {
    EXPECT_EQ(v.run_one(spec.invariants[i]).outcome, *spec.expectations[i])
        << "invariant " << i;
  }
}

TEST(SpecLoad, MissingFileThrows) {
  EXPECT_THROW((void)load_spec("/nonexistent/path.vmn"), Error);
}

}  // namespace
}  // namespace vmn::io
