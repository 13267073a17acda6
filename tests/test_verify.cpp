// End-to-end verification tests: every middlebox model verified against
// every applicable invariant kind on small networks, including
// counterexample extraction and the section 3.6 oracle-constraint example.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>

#include "encode/encoder.hpp"
#include "encode/oracle.hpp"
#include "io/spec.hpp"
#include "mbox/app_firewall.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "mbox/nat.hpp"
#include "mbox/wan_optimizer.hpp"
#include "scenarios/random.hpp"
#include "sim/replay.hpp"
#include "smt/model.hpp"
#include "smt/solver.hpp"
#include "util.hpp"
#include "verify/engine.hpp"
#include "verify/verifier.hpp"
#include "zoo_corpus.hpp"

namespace vmn::verify {
namespace {

using encode::Invariant;
using mbox::AclAction;
using mbox::AclEntry;
using test::OneBoxNet;

constexpr Address kA = OneBoxNet::addr_a();
constexpr Address kB = OneBoxNet::addr_b();

TEST(Verify, OpenFirewallViolatesIsolationWithTrace) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw", std::vector<AclEntry>{}, AclAction::allow));
  Engine v(n.model);
  VerifyResult r = v.run_one(Invariant::node_isolation(n.b, n.a));
  EXPECT_EQ(r.outcome, Outcome::violated);
  ASSERT_TRUE(r.counterexample.has_value());
  // The trace must contain a's send and b's reception of an a-sourced packet.
  bool b_received = false;
  for (const Event& e : r.counterexample->events()) {
    if (e.kind == EventKind::receive && e.to == n.b && e.packet.src == kA) {
      b_received = true;
    }
  }
  EXPECT_TRUE(b_received);
}

TEST(Verify, ExtractedTraceDependsOnTheEventSetOnly) {
  // Events at one timestep print in (kind, from, to, packet) order, however
  // the backend listed them.
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw", std::vector<AclEntry>{}, AclAction::allow));
  encode::Encoding encoding(n.model, {}, {});
  const std::size_t omega = encoding.omega_index();
  smt::SmtModel model;
  model.packets.push_back(smt::ModelPacket{.label = "p", .src = 1, .dst = 2});
  model.events = {{EventKind::receive, omega, 1, 0, 1},
                  {EventKind::send, 0, omega, 0, 1},
                  {EventKind::fail, 2, 2, 0, 1},
                  {EventKind::send, 1, omega, 0, 0}};
  smt::SmtModel reversed = model;
  std::reverse(reversed.events.begin(), reversed.events.end());
  auto name = [&](NodeId id) {
    return id.valid() ? n.model.network().name(id) : std::string("OMEGA");
  };
  const std::string trace = extract_trace(encoding, model).to_string(name);
  EXPECT_EQ(trace, extract_trace(encoding, reversed).to_string(name));
  EXPECT_LT(trace.find("snd a"), trace.find("rcv b"));
}

TEST(Verify, ClosedFirewallIsolationHolds) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw", std::vector<AclEntry>{}, AclAction::deny));
  Engine v(n.model);
  VerifyResult r = v.run_one(Invariant::node_isolation(n.b, n.a));
  EXPECT_EQ(r.outcome, Outcome::holds);
  EXPECT_FALSE(r.counterexample.has_value());
  // And nothing is reachable either.
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome,
            Outcome::violated);
}

TEST(Verify, FirewallHolePunchingFlowIsolation) {
  // Allow a -> b only. b cannot initiate to a, but replies to a's flows
  // pass: flow isolation for a holds, plain node isolation for a does not.
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::LearningFirewall>(
      "fw",
      std::vector<AclEntry>{{Prefix::host(kA), Prefix::host(kB),
                             AclAction::allow}},
      AclAction::deny));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::flow_isolation(n.a, n.b)).outcome,
            Outcome::holds);
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.a, n.b)).outcome,
            Outcome::violated);  // replies do arrive
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome, Outcome::holds);
}

TEST(Verify, IdpsBlocksMaliciousDelivery) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Idps>("idps"));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::no_malicious_delivery(n.b)).outcome,
            Outcome::holds);
  // Benign traffic still flows.
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome, Outcome::holds);
}

TEST(Verify, MonitorIdpsDoesNotBlock) {
  OneBoxNet n = OneBoxNet::make(
      std::make_unique<mbox::Idps>("ids", /*drop_malicious=*/false));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::no_malicious_delivery(n.b)).outcome,
            Outcome::violated);
}

TEST(Verify, TraversalThroughChainedBox) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Idps>("idps"));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::traversal_from(n.b, n.a, "idps")).outcome,
            Outcome::holds);
  // Requiring traversal of a middlebox type that is not on the path fails.
  EXPECT_EQ(v.run_one(Invariant::traversal_from(n.b, n.a, "scrubber")).outcome,
            Outcome::violated);
}

TEST(Verify, GatewayIsTransparent) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome, Outcome::holds);
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.b, n.a)).outcome,
            Outcome::violated);
}

// -- NAT ----------------------------------------------------------------------

struct NatNet {
  encode::NetworkModel model;
  NodeId inside, outside, nat;
};

NatNet make_nat_net(Prefix internal) {
  NatNet n;
  net::Network& net = n.model.network();
  const Address in_addr = Address::of(10, 0, 0, 1);
  const Address out_addr = Address::of(8, 8, 8, 8);
  const Address ext = Address::of(1, 2, 3, 4);
  n.inside = net.add_host("inside", in_addr);
  n.outside = net.add_host("outside", out_addr);
  auto& box = n.model.add_middlebox(
      std::make_unique<mbox::Nat>("nat", ext, internal));
  n.nat = box.node();
  NodeId sw = net.add_switch("sw");
  net.add_link(n.inside, sw);
  net.add_link(n.outside, sw);
  net.add_link(n.nat, sw);
  // Outbound chains through the NAT; the external address routes to the
  // NAT; translated packets go to their (rewritten) destinations.
  net.table(sw).add_from(n.inside, Prefix::any(), n.nat);
  net.table(sw).add(Prefix::host(ext), n.nat);
  net.table(sw).add_from(n.nat, Prefix::host(out_addr), n.outside);
  net.table(sw).add_from(n.nat, Prefix::host(in_addr), n.inside);
  return n;
}

TEST(Verify, NatHidesInternalAddress) {
  NatNet n = make_nat_net(Prefix(Address::of(10, 0, 0, 0), 8));
  Engine v(n.model);
  // The outside host never sees a packet with the internal source address:
  // the NAT rewrites sources to its external address.
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.outside, n.inside)).outcome,
            Outcome::holds);
}

TEST(Verify, NatMappingAdmitsReturnTraffic) {
  NatNet n = make_nat_net(Prefix(Address::of(10, 0, 0, 0), 8));
  Engine v(n.model);
  // Paper Listing 2 is a full-cone NAT: once the inside host opens any
  // mapping, outside traffic to that mapping reaches it - so the inside
  // host is NOT node-isolated from outside.
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.inside, n.outside)).outcome,
            Outcome::violated);
}

TEST(Verify, NatWithoutInternalHostsBlocksEverything) {
  // The internal prefix matches nobody: the NAT never creates mappings and
  // never translates, so nothing crosses it in either direction.
  NatNet n = make_nat_net(Prefix(Address::of(192, 168, 0, 0), 16));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::node_isolation(n.inside, n.outside)).outcome,
            Outcome::holds);
  EXPECT_EQ(v.run_one(Invariant::reachable(n.outside, n.inside)).outcome,
            Outcome::violated);
}

// -- Content cache and data isolation ----------------------------------------

struct CacheNet {
  encode::NetworkModel model;
  NodeId client_x, client_y, server, cache;
};

/// x, y and a server; all server-bound traffic passes the cache, server
/// responses return through the cache (and get recorded there).
CacheNet make_cache_net(std::vector<mbox::CacheAclEntry> acl) {
  CacheNet n;
  net::Network& net = n.model.network();
  const Address ax = Address::of(10, 0, 0, 1);
  const Address ay = Address::of(10, 0, 0, 2);
  const Address as = Address::of(10, 0, 9, 1);
  n.client_x = net.add_host("x", ax);
  n.client_y = net.add_host("y", ay);
  n.server = net.add_host("server", as);
  auto& box = n.model.add_middlebox(
      std::make_unique<mbox::ContentCache>("cache", std::move(acl)));
  n.cache = box.node();
  NodeId sw = net.add_switch("sw");
  for (NodeId h : {n.client_x, n.client_y, n.server, n.cache}) {
    net.add_link(h, sw);
  }
  net.table(sw).add_from(n.client_x, Prefix::host(as), n.cache);
  net.table(sw).add_from(n.client_y, Prefix::host(as), n.cache);
  net.table(sw).add_from(n.server, Prefix::any(), n.cache);
  net.table(sw).add_from(n.cache, Prefix::host(as), n.server);
  net.table(sw).add_from(n.cache, Prefix::host(ax), n.client_x);
  net.table(sw).add_from(n.cache, Prefix::host(ay), n.client_y);
  return n;
}

TEST(Verify, CacheServesCachedDataWhenUnrestricted) {
  CacheNet n = make_cache_net({});
  Engine v(n.model);
  // x can end up with server-origin data (fetched directly or via cache).
  EXPECT_EQ(v.run_one(Invariant::data_isolation(n.client_x, n.server)).outcome,
            Outcome::violated);
}

TEST(Verify, CacheDenyEntryAloneDoesNotIsolate) {
  // The cache refuses to serve x, but x can still fetch from the server
  // directly through the cache's pass-through path: data isolation needs
  // the firewall too (exactly the point of section 5.2's combined config).
  CacheNet n = make_cache_net(
      {{Prefix::host(Address::of(10, 0, 0, 1)), Address::of(10, 0, 9, 1),
        /*deny=*/true}});
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::data_isolation(n.client_x, n.server)).outcome,
            Outcome::violated);
}

TEST(Verify, CacheSliceIncludesPolicyRepresentatives) {
  // With a deny entry, x (matched as client), the server (matched as
  // origin) and y (unmatched) land in three distinct inferred policy
  // classes; the origin-agnostic cache then forces a representative of
  // each class into the slice: all three hosts plus the cache.
  CacheNet n = make_cache_net(
      {{Prefix::host(Address::of(10, 0, 0, 1)), Address::of(10, 0, 9, 1),
        /*deny=*/true}});
  Engine v(n.model);
  VerifyResult r = v.run_one(Invariant::data_isolation(n.client_x, n.server));
  EXPECT_EQ(r.slice_size, 4u);

  // Without the entry every host is policy-equivalent: one representative
  // suffices and the slice is smaller.
  CacheNet plain = make_cache_net({});
  Engine v2(plain.model);
  VerifyResult r2 =
      v2.run_one(Invariant::data_isolation(plain.client_x, plain.server));
  EXPECT_EQ(r2.slice_size, 3u);
}

// -- Section 3.6: oracle constraints remove false positives --------------------

TEST(Verify, ExclusiveClassConstraintRemovesFalsePositive) {
  // Ask: can b receive a packet that is simultaneously Skype and Jabber?
  // Without oracle constraints VMN says yes (a modeled false positive);
  // with the mutual-exclusion constraint the query becomes unsatisfiable.
  for (bool exclusive : {false, true}) {
    OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
    encode::Encoding enc(n.model, {}, {});
    enc.add_invariant(Invariant::reachable(n.b, n.a));
    logic::TermFactory& f = enc.factory();
    const logic::Vocab& voc = enc.vocab();
    logic::TermPtr vp = f.var("witness-packet", voc.packet_sort());
    auto skype = f.func("skype?", {voc.packet_sort()}, logic::Sort::boolean());
    auto jabber = f.func("jabber?", {voc.packet_sort()}, logic::Sort::boolean());
    enc.add_constraint(f.and_(f.app(skype, {vp}), f.app(jabber, {vp})),
                       "query.both-classes");
    if (exclusive) {
      encode::add_exclusive_classes(enc, {"skype", "jabber"});
    }
    auto solver = smt::make_z3_solver(enc.vocab(), {});
    for (const auto& ax : enc.axioms()) solver->add(ax.term);
    EXPECT_EQ(solver->check(), exclusive ? smt::CheckStatus::unsat
                                         : smt::CheckStatus::sat);
  }
}

TEST(Verify, WanOptimizerHavocBreaksFlowMatching) {
  // The random-rewrite abstraction (section 3.6): the optimizer leaves
  // ports unconstrained, so a "reply" with arbitrary ports can reach a -
  // flow isolation cannot be proven across the havoc box, while plain
  // reachability still works. This reproduces the paper's "can result in
  // false positives" behavior for complex packet modifications.
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::WanOptimizer>("wo"));
  Engine v(n.model);
  EXPECT_EQ(v.run_one(Invariant::reachable(n.b, n.a)).outcome, Outcome::holds);
  EXPECT_EQ(v.run_one(Invariant::flow_isolation(n.a, n.b)).outcome,
            Outcome::violated);
}

TEST(Verify, FlowConsistentMaliceConstraint) {
  // Without constraints the oracle may call one packet of a flow malicious
  // and another benign; add_flow_consistent_malice forces a per-flow
  // verdict. Query: can b receive a benign packet whose exact 5-tuple twin
  // was classified malicious?
  for (bool constrained : {false, true}) {
    OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Idps>("idps"));
    encode::Encoding enc(n.model, {}, {});
    enc.add_invariant(Invariant::reachable(n.b, n.a));
    logic::TermFactory& f = enc.factory();
    const logic::Vocab& voc = enc.vocab();
    logic::TermPtr vp = f.var("witness-packet", voc.packet_sort());
    logic::TermPtr twin = f.var("twin", voc.packet_sort());
    enc.add_constraint(
        f.and_({f.eq(voc.src_of(twin), voc.src_of(vp)),
                f.eq(voc.dst_of(twin), voc.dst_of(vp)),
                f.eq(voc.src_port_of(twin), voc.src_port_of(vp)),
                f.eq(voc.dst_port_of(twin), voc.dst_port_of(vp)),
                voc.malicious_of(twin), f.not_(voc.malicious_of(vp))}),
        "query.split-verdict");
    if (constrained) {
      encode::add_flow_consistent_malice(enc);
    }
    auto solver = smt::make_z3_solver(enc.vocab(), {});
    for (const auto& ax : enc.axioms()) solver->add(ax.term);
    EXPECT_EQ(solver->check(), constrained ? smt::CheckStatus::unsat
                                           : smt::CheckStatus::sat);
  }
}

TEST(Verify, ResultMetadataPopulated) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
  Engine v(n.model);
  VerifyResult r = v.run_one(Invariant::reachable(n.b, n.a));
  EXPECT_GT(r.slice_size, 0u);
  EXPECT_GT(r.assertion_count, 0u);
  EXPECT_GT(r.solve_time.count(), 0);
  EXPECT_EQ(to_string(Outcome::holds), "holds");
  EXPECT_EQ(to_string(Outcome::violated), "violated");
  EXPECT_EQ(to_string(Outcome::unknown), "unknown");
}

TEST(Verify, SubMillisecondPlanAndSolveTimesAreMeasured) {
  // Planning the segmented spec takes well under a millisecond, and so do
  // some of its solves: only a microsecond clock tells them from zero.
  io::Spec spec = io::load_spec(std::string(VMN_SOURCE_DIR) +
                                "/examples/specs/segmented.vmn");
  Engine engine(spec.model);  // the inline executor
  const BatchResult batch = engine.run_batch(spec.invariants);
  EXPECT_GT(batch.plan_time.count(), 0);
  std::uint64_t plan_us = 0;
  for (const Metric& m : batch.metrics()) {
    if (m.name == "plan_us") plan_us = m.value;
  }
  EXPECT_EQ(plan_us, static_cast<std::uint64_t>(batch.plan_time.count()));
  std::size_t solved = 0;
  for (const VerifyResult& r : batch.results) {
    if (r.by_symmetry || r.from_cache) continue;
    ++solved;
    EXPECT_GT(r.solve_time.count(), 0);
  }
  EXPECT_EQ(solved, batch.solver_calls);
}

TEST(Verify, BatchCpuTimeIsSplitIntoUserAndKernel) {
  io::Spec spec = io::load_spec(std::string(VMN_SOURCE_DIR) +
                                "/examples/specs/segmented.vmn");
  const BatchResult batch = Engine(spec.model).run_batch(spec.invariants);
  ASSERT_GT(batch.solver_calls, 0u);
  std::uint64_t user_us = 0;
  std::uint64_t sys_us = 1;
  for (const Metric& m : batch.metrics()) {
    if (m.name == "cpu_user_us") user_us = m.value;
    if (m.name == "cpu_sys_us") sys_us = m.value;
  }
  // Solving is user time.
  EXPECT_GT(user_us, 0u);
  EXPECT_EQ(user_us,
            static_cast<std::uint64_t>(batch.cpu_user_time.count()));
  EXPECT_EQ(sys_us, static_cast<std::uint64_t>(batch.cpu_sys_time.count()));
}

TEST(Verify, NoSliceModeUsesWholeNetwork) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
  VerifyOptions opts;
  opts.use_slices = false;
  Engine v(n.model, {.verify = opts});
  VerifyResult r = v.run_one(Invariant::reachable(n.b, n.a));
  EXPECT_EQ(r.slice_size, 3u);  // a, b, gw - the whole edge set
  EXPECT_EQ(r.outcome, Outcome::holds);
}

TEST(Verify, ZooCorpusVerdictsMatchTheGolden) {
  // The first 100 specs of the bench/e2e zoo-random corpus at the corpus's
  // failure budget, on the inline executor and on zoo-random's own
  // configuration (the process executor, 2 workers, projected specs): every
  // verdict is the golden one, none is unknown, and every violation's
  // witness violates its own invariant when checked concretely.
  //
  // One known exception: zoo31's traversal-from h3 h2 wopt. Symbolically a
  // WAN optimizer's output is a fresh packet, never received by any
  // optimizer, so the traversal axiom is violated by the last hop out of
  // wopt1. A trace compares packets by their fields, and the fresh packet's
  // fields equal the ones wopt1 received, so the concrete check sees a
  // traversal. ROADMAP item 11 (one semantics per box) keeps the gap open.
  const std::set<std::pair<std::string, std::size_t>> kSymbolicOnly = {
      {"zoo31", 0}};
  const std::vector<test::ZooGolden> corpus = test::zoo_golden(100);
  ASSERT_EQ(corpus.size(), 100u);
  for (const EngineOptions& executor :
       {EngineOptions{}, EngineOptions{.batch = true, .jobs = 2}}) {
    const std::string on = executor.batch ? " (process)" : " (inline)";
    std::size_t witnesses = 0;
    for (const test::ZooGolden& entry : corpus) {
      const io::Spec spec = test::zoo_spec(entry.name);
      EngineOptions opts = executor;
      opts.verify.max_failures = scenarios::derived_max_failures(spec.model);
      const BatchResult batch =
          Engine(spec.model, opts).run_batch(spec.invariants);
      EXPECT_EQ(batch.degradation.abandoned(), 0u) << entry.name << on;
      std::string verdicts;
      for (std::size_t i = 0; i < batch.results.size(); ++i) {
        const VerifyResult& r = batch.results[i];
        const Invariant& inv = spec.invariants[i];
        EXPECT_NE(r.outcome, Outcome::unknown) << entry.name << " #" << i << on;
        verdicts += r.outcome == Outcome::holds ? 'H' : 'V';
        if (r.outcome != Outcome::violated || inv.sat_means_holds()) continue;
        ASSERT_TRUE(r.counterexample.has_value())
            << entry.name << " #" << i << on;
        ++witnesses;
        if (kSymbolicOnly.contains({entry.name, i})) continue;
        EXPECT_TRUE(sim::trace_violates(*r.counterexample, spec.model, inv))
            << entry.name << " #" << i << on;
      }
      EXPECT_EQ(verdicts, entry.verdicts) << entry.name << on;
    }
    EXPECT_GT(witnesses, 100u) << on;
  }
}

// -- Static decisions (box-free slices, decide_statically) -------------------

/// Three hosts and an unrouted fourth on one switch, no middlebox: a and c
/// reach b, b reaches c, everyone reaches a, and nothing reaches d.
constexpr const char* kBoxFree = R"(host a 10.0.0.1
host b 10.0.0.2
host c 10.0.0.3
host d 10.0.0.4
switch s
link a s
link b s
link c s
link d s
route s 10.0.0.1 a
route s 10.0.0.2 b
route s from b 10.0.0.3 c
)";

/// One invariant decided both ways on the same member set: statically and
/// by a fresh Z3 session.
struct BothWays {
  std::optional<VerifyResult> decided;
  VerifyResult solved;
};

BothWays decide_both_ways(const io::Spec& spec, const Invariant& inv,
                          int max_failures, bool use_slices = true) {
  VerifyOptions vo;
  vo.max_failures = max_failures;
  PlanContext ctx(spec.model.network());
  const slice::PolicyClasses classes =
      build_policy_classes(spec.model, vo, ctx);
  const std::vector<NodeId> members = slice_members(
      spec.model, inv, classes, use_slices, max_failures, &ctx.transfers);
  BothWays out;
  out.decided =
      decide_statically(spec.model, inv, members, max_failures, ctx.transfers);
  SolverSession session(vo.solver, /*warm=*/true, ctx.transfers);
  out.solved =
      verify_members(spec.model, inv, members, max_failures, session);
  return out;
}

/// The static verdict of `inv`, after checking it against Z3 and, when
/// the decision is sat, its witness against the simulator and the
/// concrete invariant check.
Outcome static_outcome(io::Spec& spec, const Invariant& inv,
                       int max_failures = 0, bool use_slices = true) {
  const BothWays both = decide_both_ways(spec, inv, max_failures, use_slices);
  const std::string what = inv.describe(
      [&](NodeId n) { return spec.model.network().name(n); });
  if (!both.decided) {
    ADD_FAILURE() << what << ": not decided statically";
    return Outcome::unknown;
  }
  const VerifyResult& r = *both.decided;
  EXPECT_EQ(r.outcome, both.solved.outcome) << what;
  EXPECT_EQ(r.raw_status, both.solved.raw_status) << what;
  EXPECT_EQ(r.slice_size, both.solved.slice_size) << what;
  EXPECT_EQ(r.assertion_count, 0u) << what;
  EXPECT_EQ(r.counterexample.has_value(),
            r.raw_status == smt::CheckStatus::sat)
      << what;
  if (r.counterexample) {
    EXPECT_TRUE(sim::trace_violates(*r.counterexample, spec.model, inv))
        << what;
    EXPECT_TRUE(sim::replay_witness(spec.model, inv, *r.counterexample,
                                    max_failures)
                    .realized)
        << what;
  }
  return r.outcome;
}

TEST(StaticDecision, EveryInvariantKindHoldsAndIsViolated) {
  io::Spec spec = io::parse_spec_string(kBoxFree);
  const net::Network& net = spec.model.network();
  const NodeId a = net.node_by_name("a"), b = net.node_by_name("b"),
               c = net.node_by_name("c"), d = net.node_by_name("d");
  const struct {
    Invariant inv;
    Outcome want;
  } cases[] = {
      {Invariant::node_isolation(b, a), Outcome::violated},
      {Invariant::node_isolation(c, a), Outcome::holds},
      {Invariant::flow_isolation(b, a), Outcome::violated},
      {Invariant::flow_isolation(c, a), Outcome::holds},
      {Invariant::data_isolation(b, c), Outcome::violated},
      {Invariant::data_isolation(c, a), Outcome::holds},
      {Invariant::no_malicious_delivery(a), Outcome::violated},
      {Invariant::no_malicious_delivery(d), Outcome::holds},
      {Invariant::traversal(b, "fw"), Outcome::violated},
      {Invariant::traversal(d, "fw"), Outcome::holds},
      {Invariant::traversal_from(c, b, "fw"), Outcome::violated},
      {Invariant::traversal_from(c, a, "fw"), Outcome::holds},
      {Invariant::reachable(b, a), Outcome::holds},
      {Invariant::reachable(c, a), Outcome::violated},
  };
  for (const auto& [inv, want] : cases) {
    EXPECT_EQ(static_outcome(spec, inv), want)
        << inv.describe([&](NodeId n) { return net.name(n); });
  }
  // Over the whole network, b also reaches c: a delivery from another
  // sender does not violate what a names, and any delivery violates what
  // names no sender.
  const struct {
    Invariant inv;
    Outcome want;
  } whole[] = {
      {Invariant::node_isolation(c, a), Outcome::holds},
      {Invariant::flow_isolation(c, a), Outcome::holds},
      {Invariant::data_isolation(c, a), Outcome::holds},
      {Invariant::traversal_from(c, a, "fw"), Outcome::holds},
      {Invariant::traversal(c, "fw"), Outcome::violated},
      {Invariant::no_malicious_delivery(c), Outcome::violated},
      {Invariant::reachable(c, a), Outcome::violated},
      {Invariant::reachable(c, b), Outcome::holds},
  };
  for (const auto& [inv, want] : whole) {
    EXPECT_EQ(static_outcome(spec, inv, 0, /*use_slices=*/false), want)
        << inv.describe([&](NodeId n) { return net.name(n); });
  }
}

TEST(StaticDecision, WitnessIsTheStaticPathThroughOmega) {
  io::Spec spec = io::parse_spec_string(kBoxFree);
  const net::Network& net = spec.model.network();
  const NodeId a = net.node_by_name("a"), b = net.node_by_name("b");
  const BothWays both =
      decide_both_ways(spec, Invariant::no_malicious_delivery(b), 0);
  ASSERT_TRUE(both.decided && both.decided->counterexample);
  const std::vector<Event>& events = both.decided->counterexample->events();
  ASSERT_EQ(events.size(), 4u);
  // The first delivery in (scenario, sender, address) order: a sends to
  // b's address, and the oracle calls the packet malicious.
  Packet p(net.node(a).address, net.node(b).address);
  p.origin = p.src;
  p.malicious = true;
  EXPECT_EQ(events[0], (Event{EventKind::send, 0, a, NodeId{}, p}));
  EXPECT_EQ(events[1], (Event{EventKind::receive, 1, a, NodeId{}, p}));
  EXPECT_EQ(events[2], (Event{EventKind::send, 2, NodeId{}, b, p}));
  EXPECT_EQ(events[3], (Event{EventKind::receive, 3, NodeId{}, b, p}));
  EXPECT_EQ(both.decided->solve_time.count(), 0);
}

TEST(StaticDecision, DeliveryOnlyUnderAFailureNeedsTheBudget) {
  // b's address is routed only in scenario f1, which fails x. A failed
  // host still sends (failures constrain middleboxes only), so x reaches b
  // under f1 too, and its witness carries x's failure.
  io::Spec spec = io::parse_spec_string(R"(host a 10.0.0.1
host b 10.0.0.2
host x 10.0.0.9
switch s
link a s
link b s
link x s
route s 10.0.0.1 a
route s 10.0.0.9 x
scenario f1 fail x
  route s 10.0.0.2 b
end
)");
  const net::Network& net = spec.model.network();
  const NodeId a = net.node_by_name("a"), b = net.node_by_name("b"),
               x = net.node_by_name("x");
  for (const NodeId sender : {a, x}) {
    const Invariant inv = Invariant::node_isolation(b, sender);
    EXPECT_EQ(static_outcome(spec, inv, 0), Outcome::holds);
    EXPECT_EQ(static_outcome(spec, inv, 1), Outcome::violated);
  }
  const BothWays both =
      decide_both_ways(spec, Invariant::node_isolation(b, x), 1);
  ASSERT_TRUE(both.decided && both.decided->counterexample);
  const Event& first = both.decided->counterexample->events().front();
  EXPECT_EQ(first.kind, EventKind::fail);
  EXPECT_EQ(first.from, x);
  EXPECT_EQ(first.time, 0);
}

TEST(StaticDecision, HairpinDeliversASendBackToItsSender) {
  // d's packets for a come straight back to d. With a in the member set
  // (the whole network), d receives its own packet; d's own slice holds
  // only d, so a's address is not relevant there and both procedures
  // answer holds - the slice hole of ROADMAP item 13, decided alike.
  io::Spec spec = io::parse_spec_string(R"(host a 10.0.0.1
host d 10.0.0.4
switch s
link a s
link d s
route s from d 10.0.0.1 d
route s 10.0.0.4 d
)");
  const net::Network& net = spec.model.network();
  const NodeId d = net.node_by_name("d");
  const Invariant inv = Invariant::node_isolation(d, d);
  EXPECT_EQ(static_outcome(spec, inv, 0, /*use_slices=*/false),
            Outcome::violated);
  EXPECT_EQ(static_outcome(spec, inv, 0, /*use_slices=*/true),
            Outcome::holds);
  const BothWays both = decide_both_ways(spec, inv, 0, false);
  ASSERT_TRUE(both.decided && both.decided->counterexample);
  for (const Event& e : both.decided->counterexample->events()) {
    if (e.kind == EventKind::send && e.from.valid()) EXPECT_EQ(e.from, d);
  }
}

TEST(StaticDecision, AgreesWithTheSolverOnTheItem13Slice) {
  // The three-host spec behind ROADMAP item 13: the fabric delivers b's
  // address to c, and (c, a)'s slice holds only a and c. Static and Z3
  // answer alike on the slice (holds, the hole) and on the whole network
  // (violated).
  io::Spec spec = io::parse_spec_string(R"(host a 10.0.0.1
host b 10.0.0.2
host c 10.0.0.3
switch s
link a s
link b s
link c s
route s 10.0.0.1 a
route s 10.0.0.2 c
)");
  const net::Network& net = spec.model.network();
  const Invariant inv =
      Invariant::node_isolation(net.node_by_name("c"), net.node_by_name("a"));
  EXPECT_EQ(static_outcome(spec, inv, 0, /*use_slices=*/true),
            Outcome::holds);
  EXPECT_EQ(static_outcome(spec, inv, 0, /*use_slices=*/false),
            Outcome::violated);
}

TEST(DirectDelivery, LinkOrderDoesNotDecideTheVerdict) {
  // a is wired straight to b and to the switch, which routes nothing to b:
  // a reaches b only by direct delivery, whichever link is declared first.
  const std::string head =
      "host a 10.0.0.1\nhost b 10.0.0.2\nhost c 10.0.0.3\nswitch s\n";
  const std::string tail =
      "link b s\nlink c s\n"
      "route s 10.0.0.1 a\nroute s 10.0.0.3 c\n"
      "invariant node-isolation b a\n";
  for (const std::string& links :
       {std::string("link a b\nlink a s\n"), std::string("link a s\nlink a b\n")}) {
    const io::Spec spec = io::parse_spec_string(head + links + tail);
    for (const char* executor : {"inline", "process"}) {
      const BatchResult batch =
          Engine(spec.model, test::executor_options(executor))
              .run_batch(spec.invariants);
      ASSERT_EQ(batch.results.size(), 1u);
      EXPECT_EQ(batch.results[0].outcome, Outcome::violated)
          << links << executor;
    }
    // Z3 over the whole network agrees with the static decision.
    dataplane::TransferCache transfers(spec.model.network());
    SolverSession session(smt::SolverOptions{}, /*warm=*/true, transfers);
    EXPECT_EQ(verify_members(spec.model, spec.invariants[0],
                             encode::all_edge_nodes(spec.model), 0, session)
                  .outcome,
              Outcome::violated)
        << links;
  }
}

TEST(StaticDecision, LeavesMiddleboxSlicesToTheSolver) {
  OneBoxNet n = OneBoxNet::make(std::make_unique<mbox::Gateway>("gw"));
  dataplane::TransferCache transfers(n.model.network());
  EXPECT_FALSE(decide_statically(n.model, Invariant::reachable(n.b, n.a),
                                 encode::all_edge_nodes(n.model), 0,
                                 transfers));
  // The hosts alone are box-free and decided.
  std::vector<NodeId> hosts = {n.a, n.b};
  std::sort(hosts.begin(), hosts.end());
  EXPECT_TRUE(decide_statically(n.model, Invariant::reachable(n.b, n.a),
                                hosts, 0, transfers));
}

TEST(StaticDecision, AgreesWithTheSolverOnTheZooCorpus) {
  // Every box-free job the planner makes for the first 100 zoo specs, at
  // the corpus's failure budget: the static verdict is Z3's, and every
  // static witness is realized by replay and violates its invariant.
  std::size_t checked = 0;
  for (const test::ZooGolden& entry : test::zoo_golden(100)) {
    io::Spec spec = test::zoo_spec(entry.name);
    const int budget = scenarios::derived_max_failures(spec.model);
    VerifyOptions vo;
    vo.max_failures = budget;
    const JobPlan plan =
        Engine(spec.model, {.verify = vo}).plan(spec.invariants);
    dataplane::TransferCache transfers(spec.model.network());
    for (const Job& job : plan.jobs) {
      const std::vector<NodeId>& members = job.encode_members();
      if (std::any_of(members.begin(), members.end(), [&](NodeId m) {
            return spec.model.middlebox_at(m) != nullptr;
          })) {
        continue;
      }
      const std::string at = entry.name + " job " + std::to_string(job.id);
      const std::optional<VerifyResult> decided = decide_statically(
          spec.model, job.solve_invariant, members, budget, transfers);
      ASSERT_TRUE(decided.has_value()) << at;
      SolverSession session(vo.solver, /*warm=*/true, transfers);
      const VerifyResult solved = verify_members(
          spec.model, job.solve_invariant, members, budget, session);
      EXPECT_EQ(decided->outcome, solved.outcome) << at;
      EXPECT_EQ(decided->raw_status, solved.raw_status) << at;
      ++checked;
      if (!decided->counterexample) continue;
      EXPECT_TRUE(sim::trace_violates(*decided->counterexample, spec.model,
                                      job.solve_invariant))
          << at;
      EXPECT_TRUE(sim::replay_witness(spec.model, job.solve_invariant,
                                      *decided->counterexample, budget)
                      .realized)
          << at;
    }
  }
  EXPECT_GT(checked, 50u);
}

TEST(StaticDecision, AllBoxFreeBatchForksNoWorkerAndSolvesNothing) {
  io::Spec spec = io::parse_spec_string(std::string(kBoxFree) +
                                        "invariant node-isolation b a\n"
                                        "invariant node-isolation c a\n"
                                        "invariant reachable c b\n"
                                        "invariant no-malicious d\n");
  const BatchResult inline_batch =
      Engine(spec.model).run_batch(spec.invariants);
  Engine pooled(spec.model, {.batch = true, .jobs = 2});
  const std::size_t jobs = pooled.plan(spec.invariants).jobs.size();
  const BatchResult batch = pooled.run_batch(spec.invariants);
  std::map<std::string_view, std::uint64_t> m;
  for (const Metric& metric : batch.metrics()) m[metric.name] = metric.value;
  EXPECT_EQ(m["workers_spawned"], 0u);
  EXPECT_EQ(m["solver_calls"], 0u);
  EXPECT_EQ(m["warm_binds"], 0u);
  EXPECT_EQ(m["static_decisions"], jobs);
  EXPECT_EQ(m["completed"], jobs);
  ASSERT_EQ(batch.results.size(), inline_batch.results.size());
  for (std::size_t i = 0; i < batch.results.size(); ++i) {
    EXPECT_EQ(batch.results[i].outcome, inline_batch.results[i].outcome) << i;
  }
  EXPECT_EQ(batch.results[0].outcome, Outcome::violated);
  EXPECT_EQ(batch.results[1].outcome, Outcome::holds);
}

}  // namespace
}  // namespace vmn::verify
