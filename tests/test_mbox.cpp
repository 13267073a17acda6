// Tests for the middlebox model library: concrete (simulator) semantics of
// every model, configuration predicates, annotations and axiom emission.
#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/error.hpp"

#include "logic/printer.hpp"
#include "mbox/app_firewall.hpp"
#include "mbox/content_cache.hpp"
#include "mbox/firewall.hpp"
#include "mbox/gateway.hpp"
#include "mbox/idps.hpp"
#include "mbox/load_balancer.hpp"
#include "mbox/nat.hpp"
#include "mbox/proxy.hpp"
#include "mbox/scrubber.hpp"
#include "mbox/wan_optimizer.hpp"

namespace vmn::mbox {
namespace {

const Address kA = Address::of(10, 0, 0, 1);
const Address kB = Address::of(10, 0, 1, 1);
const Address kC = Address::of(10, 0, 2, 1);

Packet packet(Address src, Address dst, std::uint16_t sp = 1000,
              std::uint16_t dp = 80) {
  return Packet{src, dst, sp, dp};
}

// -- LearningFirewall -------------------------------------------------------

TEST(Firewall, AllowEntryAdmits) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  EXPECT_TRUE(fw.allows(kA, kB));
  EXPECT_FALSE(fw.allows(kB, kA));
  EXPECT_FALSE(fw.allows(kA, kC));
}

TEST(Firewall, FirstMatchDecides) {
  LearningFirewall fw("fw",
                      {{Prefix::host(kA), Prefix::host(kB), AclAction::deny},
                       {Prefix::any(), Prefix::any(), AclAction::allow}});
  EXPECT_FALSE(fw.allows(kA, kB));
  EXPECT_TRUE(fw.allows(kB, kA));
}

TEST(Firewall, DefaultActionApplies) {
  LearningFirewall open("fw1", {}, AclAction::allow);
  EXPECT_TRUE(open.allows(kA, kB));
  LearningFirewall closed("fw2", {}, AclAction::deny);
  EXPECT_FALSE(closed.allows(kA, kB));
}

TEST(Firewall, SimDropsDisallowed) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  EXPECT_TRUE(fw.sim_process(packet(kB, kA)).empty());
  EXPECT_EQ(fw.sim_process(packet(kA, kB)).size(), 1u);
}

TEST(Firewall, SimHolePunching) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  // Unsolicited reverse traffic is dropped...
  EXPECT_TRUE(fw.sim_process(packet(kB, kA, 80, 1000)).empty());
  // ...but after the outbound packet establishes the flow it passes.
  EXPECT_EQ(fw.sim_process(packet(kA, kB, 1000, 80)).size(), 1u);
  EXPECT_EQ(fw.sim_process(packet(kB, kA, 80, 1000)).size(), 1u);
  // A different flow is still blocked.
  EXPECT_TRUE(fw.sim_process(packet(kB, kA, 81, 1001)).empty());
}

TEST(Firewall, SimResetClearsEstablished) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  (void)fw.sim_process(packet(kA, kB, 1000, 80));
  fw.sim_reset();
  EXPECT_TRUE(fw.sim_process(packet(kB, kA, 80, 1000)).empty());
}

TEST(Firewall, RemoveEntryChangesPolicy) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::deny}},
                      AclAction::allow);
  EXPECT_FALSE(fw.allows(kA, kB));
  fw.remove_entry(0);
  EXPECT_TRUE(fw.allows(kA, kB));
  EXPECT_THROW(fw.remove_entry(5), ModelError);
}

TEST(Firewall, PolicyFingerprintDistinguishesTreatment) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  EXPECT_NE(fw.policy_fingerprint(kA), fw.policy_fingerprint(kB));
  // An unmatched host's fingerprint only records the default action.
  EXPECT_EQ(fw.policy_fingerprint(kC), "acl.*-");
  EXPECT_EQ(fw.state_scope(), StateScope::flow_parallel);
  EXPECT_EQ(fw.failure_mode(), FailureMode::fail_closed);
}

TEST(Firewall, PolicyFingerprintIsRenameBlind) {
  // Same shape, renamed prefixes: corresponding addresses must fingerprint
  // byte-identically (the legacy rendering leaked the peer prefix's raw
  // bits, splitting exactly the renamed-isomorphic slices shape matching
  // exists to merge).
  LearningFirewall fw1("fw1",
                       {{Prefix(Address::of(10, 1, 0, 0), 24),
                         Prefix(Address::of(10, 2, 0, 0), 24),
                         AclAction::deny}},
                       AclAction::allow);
  LearningFirewall fw2("fw2",
                       {{Prefix(Address::of(10, 7, 0, 0), 24),
                         Prefix(Address::of(10, 8, 0, 0), 24),
                         AclAction::deny}},
                       AclAction::allow);
  EXPECT_EQ(fw1.policy_fingerprint(Address::of(10, 1, 0, 5)),
            fw2.policy_fingerprint(Address::of(10, 7, 0, 5)));
  EXPECT_EQ(fw1.policy_fingerprint(Address::of(10, 2, 0, 5)),
            fw2.policy_fingerprint(Address::of(10, 8, 0, 5)));
  // ...while source-side and destination-side treatment stay distinct.
  EXPECT_NE(fw1.policy_fingerprint(Address::of(10, 1, 0, 5)),
            fw1.policy_fingerprint(Address::of(10, 2, 0, 5)));
}

TEST(Firewall, PolicyFingerprintIsRoleLocal) {
  // Two deny rows joining different groups: straight (P1->Q1, P2->Q2) vs
  // crossed (P1->Q2, P2->Q1). Viewed from any one denied-destination
  // address the two configurations are indistinguishable - "denied from
  // one /24 source group" - and the fingerprints deliberately collapse
  // them (occurrence ids are relative to the address's matched rows). The
  // join structure BETWEEN two slice addresses (is x's deny row the one
  // naming y's group?) is pairwise information; the canonical slice key
  // carries it through its config-pair vertices, guarded by
  // CanonicalKey.SplitsStraightFromCrossedAclJoins in test_slice.cpp.
  const Prefix p1(Address::of(10, 1, 0, 0), 24);
  const Prefix p2(Address::of(10, 2, 0, 0), 24);
  const Prefix q1(Address::of(10, 3, 0, 0), 24);
  const Prefix q2(Address::of(10, 4, 0, 0), 24);
  LearningFirewall straight(
      "s", {{p1, q1, AclAction::deny}, {p2, q2, AclAction::deny}},
      AclAction::allow);
  LearningFirewall crossed(
      "c", {{p1, q2, AclAction::deny}, {p2, q1, AclAction::deny}},
      AclAction::allow);
  EXPECT_EQ(straight.policy_fingerprint(Address::of(10, 3, 0, 1)),
            crossed.policy_fingerprint(Address::of(10, 3, 0, 1)));
  // But an address whose two matched rows name the SAME peer group is a
  // different role from one whose matched rows name two different groups -
  // that join structure is local to the address and the occurrence ids
  // keep it in the fingerprint (same matched-row count on both sides, so
  // only the ids can tell them apart).
  LearningFirewall shared(
      "sh", {{q1, p1, AclAction::deny}, {p1, q1, AclAction::deny}},
      AclAction::allow);
  LearningFirewall split(
      "sp", {{q1, p1, AclAction::deny}, {p1, q2, AclAction::deny}},
      AclAction::allow);
  const Address in_p1 = Address::of(10, 1, 0, 1);
  // in_p1 matches both rows of both configs; in `shared` the peer of both
  // rows is q1, in `split` the second row's peer is q2.
  EXPECT_NE(shared.policy_fingerprint(in_p1),
            split.policy_fingerprint(in_p1));
}

// -- NAT ---------------------------------------------------------------------

TEST(Nat, OutboundRewriteAllocatesMapping) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  auto out = nat.sim_process(packet(kA, Address::of(8, 8, 8, 8), 1000, 53));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, Address::of(1, 2, 3, 4));
  EXPECT_EQ(out[0].src_port, Nat::first_remapped_port);
  EXPECT_EQ(out[0].dst, Address::of(8, 8, 8, 8));
}

TEST(Nat, StableMappingPerEndpoint) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  auto o1 = nat.sim_process(packet(kA, Address::of(8, 8, 8, 8), 1000, 53));
  auto o2 = nat.sim_process(packet(kA, Address::of(9, 9, 9, 9), 1000, 80));
  ASSERT_EQ(o2.size(), 1u);
  EXPECT_EQ(o1[0].src_port, o2[0].src_port);  // same internal endpoint
  auto o3 = nat.sim_process(packet(kA, Address::of(8, 8, 8, 8), 1001, 53));
  EXPECT_NE(o3[0].src_port, o1[0].src_port);  // different endpoint
}

TEST(Nat, InboundReverseTranslation) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  auto out = nat.sim_process(packet(kA, Address::of(8, 8, 8, 8), 1000, 53));
  Packet reply = packet(Address::of(8, 8, 8, 8), Address::of(1, 2, 3, 4), 53,
                        out[0].src_port);
  auto in = nat.sim_process(reply);
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0].dst, kA);
  EXPECT_EQ(in[0].dst_port, 1000);
}

TEST(Nat, UnsolicitedInboundDropped) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  Packet unsolicited =
      packet(Address::of(8, 8, 8, 8), Address::of(1, 2, 3, 4), 53, 55555);
  EXPECT_TRUE(nat.sim_process(unsolicited).empty());
}

TEST(Nat, ImplicitAddressesExposeExternal) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  ASSERT_EQ(nat.implicit_addresses().size(), 1u);
  EXPECT_EQ(nat.implicit_addresses()[0], Address::of(1, 2, 3, 4));
}

// -- LoadBalancer -------------------------------------------------------------

TEST(LoadBalancer, SteersToBackendsStickily) {
  const Address vip = Address::of(10, 255, 0, 1);
  LoadBalancer lb("lb", vip, {kB, kC});
  auto o1 = lb.sim_process(packet(kA, vip, 1000, 80));
  ASSERT_EQ(o1.size(), 1u);
  EXPECT_TRUE(o1[0].dst == kB || o1[0].dst == kC);
  auto o2 = lb.sim_process(packet(kA, vip, 1000, 80));
  EXPECT_EQ(o1[0].dst, o2[0].dst);  // sticky per endpoint
}

TEST(LoadBalancer, RewritesResponsesToVip) {
  const Address vip = Address::of(10, 255, 0, 1);
  LoadBalancer lb("lb", vip, {kB});
  auto resp = lb.sim_process(packet(kB, kA, 80, 1000));
  ASSERT_EQ(resp.size(), 1u);
  EXPECT_EQ(resp[0].src, vip);
}

TEST(LoadBalancer, ForwardDstsExpandVip) {
  const Address vip = Address::of(10, 255, 0, 1);
  LoadBalancer lb("lb", vip, {kB, kC});
  EXPECT_EQ(lb.forward_dsts(vip).size(), 2u);
  EXPECT_EQ(lb.forward_dsts(kA), std::vector<Address>{kA});
}

// -- ContentCache --------------------------------------------------------------

TEST(Cache, DefaultAllowsUnlessDenied) {
  ContentCache cache("c", {{Prefix::host(kA), kC, /*deny=*/true}});
  EXPECT_FALSE(cache.allows(kA, kC));
  EXPECT_TRUE(cache.allows(kB, kC));
  EXPECT_EQ(cache.state_scope(), StateScope::origin_agnostic);
}

TEST(Cache, ServesCachedContentAcrossClients) {
  ContentCache cache("c", {});
  // kB fetches content from server kC: the response transits the cache.
  Packet resp = packet(kC, kB, 80, 1000);
  resp.origin = kC;
  (void)cache.sim_process(resp);
  // Now kA requests the same content: served from cache (origin-agnostic).
  auto out = cache.sim_process(packet(kA, kC, 2000, 80));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, kA);
  ASSERT_TRUE(out[0].origin.has_value());
  EXPECT_EQ(*out[0].origin, kC);
}

TEST(Cache, DenyEntryBlocksCachedServe) {
  ContentCache cache("c", {{Prefix::host(kA), kC, true}});
  Packet resp = packet(kC, kB, 80, 1000);
  resp.origin = kC;
  (void)cache.sim_process(resp);
  auto out = cache.sim_process(packet(kA, kC, 2000, 80));
  // Denied: falls through to pass-through of the request itself.
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, kC);
  EXPECT_FALSE(out[0].origin.has_value());
}

TEST(Cache, MissPassesThrough) {
  ContentCache cache("c", {});
  auto out = cache.sim_process(packet(kA, kC, 2000, 80));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, kC);
}

TEST(Cache, ResetForgetsContent) {
  ContentCache cache("c", {});
  Packet resp = packet(kC, kB, 80, 1000);
  resp.origin = kC;
  (void)cache.sim_process(resp);
  cache.sim_reset();
  auto out = cache.sim_process(packet(kA, kC, 2000, 80));
  EXPECT_EQ(out[0].dst, kC);  // miss again
}

TEST(Cache, RemoveEntryInjection) {
  ContentCache cache("c", {{Prefix::host(kA), kC, true}});
  cache.remove_entry(0);
  EXPECT_TRUE(cache.allows(kA, kC));
  EXPECT_THROW(cache.remove_entry(3), ModelError);
}

// -- IDPS / Scrubber ------------------------------------------------------------

TEST(Idps, DropsMaliciousOnly) {
  Idps idps("idps");
  Packet bad = packet(kA, kB);
  bad.malicious = true;
  EXPECT_TRUE(idps.sim_process(bad).empty());
  EXPECT_EQ(idps.sim_process(packet(kA, kB)).size(), 1u);
}

TEST(Idps, MonitorModeForwardsEverything) {
  Idps monitor("ids", /*drop_malicious=*/false);
  Packet bad = packet(kA, kB);
  bad.malicious = true;
  EXPECT_EQ(monitor.sim_process(bad).size(), 1u);
}

TEST(Scrubber, DiscardsAttackTraffic) {
  Scrubber sb("sb");
  Packet bad = packet(kA, kB);
  bad.malicious = true;
  EXPECT_TRUE(sb.sim_process(bad).empty());
  EXPECT_EQ(sb.sim_process(packet(kA, kB)).size(), 1u);
}

// -- Proxy -----------------------------------------------------------------------

TEST(Proxy, ReoriginatesRequests) {
  Proxy px("px", Address::of(10, 0, 8, 1));
  auto out = px.sim_process(packet(kA, kC, 1000, 80));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, Address::of(10, 0, 8, 1));
  EXPECT_EQ(out[0].dst, kC);
  EXPECT_EQ(px.state_scope(), StateScope::origin_agnostic);
}

TEST(Proxy, ForwardsResponsesOnlyFromContactedServers) {
  Proxy px("px", Address::of(10, 0, 8, 1));
  // A response before any request is dropped (nobody was contacted).
  Packet stray = packet(kC, Address::of(10, 0, 8, 1), 80, 1000);
  EXPECT_TRUE(px.sim_process(stray).empty());
  // After kA's request toward kC, kC's response is forwarded to kA.
  (void)px.sim_process(packet(kA, kC, 1000, 80));
  Packet resp = packet(kC, Address::of(10, 0, 8, 1), 80, 1000);
  resp.origin = kC;
  auto out = px.sim_process(resp);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].dst, kA);
  ASSERT_TRUE(out[0].origin.has_value());
  EXPECT_EQ(*out[0].origin, kC);  // provenance preserved
  // A response from an uncontacted host is still dropped.
  EXPECT_TRUE(px.sim_process(packet(kB, Address::of(10, 0, 8, 1))).empty());
}

TEST(Proxy, ResetForgetsRequestersAndContacts) {
  Proxy px("px", Address::of(10, 0, 8, 1));
  (void)px.sim_process(packet(kA, kC, 1000, 80));
  px.sim_reset();
  EXPECT_TRUE(
      px.sim_process(packet(kC, Address::of(10, 0, 8, 1), 80, 1000)).empty());
}

TEST(Proxy, ImplicitAddressExposed) {
  Proxy px("px", Address::of(10, 0, 8, 1));
  ASSERT_EQ(px.implicit_addresses().size(), 1u);
  EXPECT_EQ(px.implicit_addresses()[0], Address::of(10, 0, 8, 1));
}

// -- Gateway / AppFirewall / WanOptimizer -----------------------------------------

TEST(Gateway, PassThrough) {
  Gateway gw("gw");
  auto out = gw.sim_process(packet(kA, kB));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], packet(kA, kB));
  EXPECT_EQ(gw.state_scope(), StateScope::stateless);
}

TEST(Gateway, FailureModeConfigurable) {
  Gateway open("gw-o", FailureMode::fail_open);
  EXPECT_EQ(open.failure_mode(), FailureMode::fail_open);
}

TEST(AppFirewall, BlocksConfiguredClasses) {
  AppFirewall afw("afw", {7});
  Packet skype = packet(kA, kB);
  skype.app_class = 7;
  EXPECT_TRUE(afw.sim_process(skype).empty());
  Packet jabber = packet(kA, kB);
  jabber.app_class = 8;
  EXPECT_EQ(afw.sim_process(jabber).size(), 1u);
}

TEST(WanOptimizer, HavocsPortsButKeepsEndpoints) {
  WanOptimizer wo("wo");
  auto out = wo.sim_process(packet(kA, kB, 1000, 80));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, kA);
  EXPECT_EQ(out[0].dst, kB);
  const bool ports_changed = out[0].src_port != 1000 || out[0].dst_port != 80;
  EXPECT_TRUE(ports_changed);
}

// -- axiom emission smoke tests ------------------------------------------------

class AxiomEmission : public ::testing::Test {
 protected:
  AxiomEmission() : vocab(f, {"a", "b", "box", "OMEGA"}) {}

  /// Emits axioms for `box` (pretending it sits at node "box") and returns
  /// their rendered forms.
  std::vector<std::string> emit(Middlebox& box) {
    std::vector<std::string> out;
    AxiomContext ctx(vocab, vocab.node_const("box"), vocab.node_const("OMEGA"),
                     {kA, kB},
                     [&](const logic::TermPtr& t, const std::string&) {
                       out.push_back(logic::to_sexpr(t));
                     });
    box.emit_axioms(ctx);
    return out;
  }

  logic::TermFactory f;
  logic::Vocab vocab;
};

TEST_F(AxiomEmission, FirewallAxiomsMentionEstablishedAndAcl) {
  LearningFirewall fw("fw", {{Prefix::host(kA), Prefix::host(kB),
                              AclAction::allow}});
  auto axioms = emit(fw);
  ASSERT_EQ(axioms.size(), 1u);
  // Projected ACL appears as concrete address equalities.
  EXPECT_NE(axioms[0].find(std::to_string(kA.bits())), std::string::npos);
  // Established-state lookup is guarded by failure history.
  EXPECT_NE(axioms[0].find("fail box"), std::string::npos);
  EXPECT_NE(axioms[0].find("rcv"), std::string::npos);
}

TEST_F(AxiomEmission, NatEmitsRemapOracle) {
  Nat nat("nat", Address::of(1, 2, 3, 4), Prefix(Address::of(10, 0, 0, 0), 8));
  auto axioms = emit(nat);
  ASSERT_EQ(axioms.size(), 1u);
  EXPECT_NE(axioms[0].find("nat.remap"), std::string::npos);
}

TEST_F(AxiomEmission, LoadBalancerConstrainsChoiceOracle) {
  LoadBalancer lb("lb", Address::of(10, 255, 0, 1), {kB});
  auto axioms = emit(lb);
  ASSERT_EQ(axioms.size(), 2u);  // choose-range + send axiom
  EXPECT_NE(axioms[0].find("lb.choose"), std::string::npos);
}

TEST_F(AxiomEmission, IdpsReferencesMaliciousOracle) {
  Idps idps("idps");
  auto axioms = emit(idps);
  ASSERT_EQ(axioms.size(), 1u);
  EXPECT_NE(axioms[0].find("p.malicious?"), std::string::npos);
}

TEST_F(AxiomEmission, FailOpenGatewayHasPassthroughDisjunct) {
  Gateway gw("gw", FailureMode::fail_open);
  auto axioms = emit(gw);
  ASSERT_EQ(axioms.size(), 1u);
  // The fail-open branch requires fail(box) positively.
  EXPECT_NE(axioms[0].find("(fail box"), std::string::npos);
}

TEST_F(AxiomEmission, CacheChecksOriginAndRequester) {
  ContentCache cache("c", {});
  auto axioms = emit(cache);
  ASSERT_EQ(axioms.size(), 1u);
  EXPECT_NE(axioms[0].find("p.origin"), std::string::npos);
}

TEST_F(AxiomEmission, ProxyPreservesProvenance) {
  Proxy px("px", Address::of(10, 0, 8, 1));
  auto axioms = emit(px);
  ASSERT_EQ(axioms.size(), 1u);
  // Both directions equate the output's origin with an input's origin.
  EXPECT_NE(axioms[0].find("p.origin"), std::string::npos);
  // The proxy's own address appears in the re-origination case.
  EXPECT_NE(axioms[0].find(std::to_string(Address::of(10, 0, 8, 1).bits())),
            std::string::npos);
}

TEST_F(AxiomEmission, AppFirewallNonExclusiveUsesBoolOracles) {
  AppFirewall afw("afw", {7, 9}, /*exclusive_classes=*/false);
  auto axioms = emit(afw);
  ASSERT_EQ(axioms.size(), 1u);
  EXPECT_NE(axioms[0].find("class-7?"), std::string::npos);
  EXPECT_NE(axioms[0].find("class-9?"), std::string::npos);
}

// -- config-relations contract (all box types) --------------------------------
//
// Registry-driven: every middlebox type is instantiated twice, the second
// time with every address pushed through a bijection (second octet +100),
// and the token-rendered encoding projection must be invariant - one suite
// that catches any future raw-bits leak for any box type, instead of
// per-box tests. The per-address policy fingerprints must correspond under
// the same bijection.

Address shift(Address a) {
  const std::uint32_t bits = a.bits();
  return Address(bits + (100u << 16));  // second octet +100
}

Prefix shift(Prefix p) { return Prefix(shift(p.base()), p.length()); }

struct RenamedPair {
  const char* label;
  std::unique_ptr<Middlebox> original;
  std::unique_ptr<Middlebox> renamed;
};

std::vector<RenamedPair> contract_registry() {
  const Prefix net1(Address::of(10, 1, 0, 0), 24);
  const Prefix net2(Address::of(10, 2, 0, 0), 24);
  const Address h1 = Address::of(10, 1, 0, 1);
  const Address h2 = Address::of(10, 2, 0, 1);
  const Address h3 = Address::of(10, 2, 0, 2);
  std::vector<RenamedPair> out;
  out.push_back({"firewall",
                 std::make_unique<LearningFirewall>(
                     "fw", std::vector<AclEntry>{{net1, net2, AclAction::deny}},
                     AclAction::allow),
                 std::make_unique<LearningFirewall>(
                     "fw'",
                     std::vector<AclEntry>{{shift(net1), shift(net2),
                                            AclAction::deny}},
                     AclAction::allow)});
  out.push_back({"cache",
                 std::make_unique<ContentCache>(
                     "c", std::vector<CacheAclEntry>{{net1, h2, true}}),
                 std::make_unique<ContentCache>(
                     "c'",
                     std::vector<CacheAclEntry>{{shift(net1), shift(h2),
                                                 true}})});
  out.push_back({"nat", std::make_unique<Nat>("n", h2, net1),
                 std::make_unique<Nat>("n'", shift(h2), shift(net1))});
  out.push_back({"load-balancer",
                 std::make_unique<LoadBalancer>(
                     "lb", h1, std::vector<Address>{h2, h3}),
                 std::make_unique<LoadBalancer>(
                     "lb'", shift(h1),
                     std::vector<Address>{shift(h2), shift(h3)})});
  out.push_back({"proxy", std::make_unique<Proxy>("p", h1),
                 std::make_unique<Proxy>("p'", shift(h1))});
  out.push_back({"idps", std::make_unique<Idps>("i", true),
                 std::make_unique<Idps>("i'", true)});
  out.push_back({"app-firewall",
                 std::make_unique<AppFirewall>(
                     "a", std::vector<std::uint16_t>{9, 7}),
                 std::make_unique<AppFirewall>(
                     "a'", std::vector<std::uint16_t>{7, 9})});
  out.push_back({"gateway",
                 std::make_unique<Gateway>("g", FailureMode::fail_open),
                 std::make_unique<Gateway>("g'", FailureMode::fail_open)});
  out.push_back({"scrubber", std::make_unique<Scrubber>("s"),
                 std::make_unique<Scrubber>("s'")});
  out.push_back({"wan-optimizer", std::make_unique<WanOptimizer>("w"),
                 std::make_unique<WanOptimizer>("w'")});
  return out;
}

TEST(ConfigRelations, ProjectionInvariantUnderReaddressing) {
  const std::vector<Address> relevant = {
      Address::of(10, 1, 0, 1), Address::of(10, 1, 0, 2),
      Address::of(10, 2, 0, 1), Address::of(10, 2, 0, 2)};
  std::vector<Address> renamed_relevant;
  for (Address a : relevant) renamed_relevant.push_back(shift(a));
  auto token_for = [](const std::vector<Address>& rel) {
    return std::function<std::string(Address)>([rel](Address a) {
      for (std::size_t i = 0; i < rel.size(); ++i) {
        if (rel[i] == a) return "#" + std::to_string(i);
      }
      return "!" + std::to_string(a.bits());
    });
  };
  const auto tok_a = token_for(relevant);
  const auto tok_b = token_for(renamed_relevant);
  for (const RenamedPair& pair : contract_registry()) {
    SCOPED_TRACE(pair.label);
    const std::string proj_a =
        pair.original->encoding_projection(relevant, tok_a);
    const std::string proj_b =
        pair.renamed->encoding_projection(renamed_relevant, tok_b);
    // Invariance: corresponding addresses render through corresponding
    // tokens, so the projections must be byte-identical.
    EXPECT_EQ(proj_a, proj_b);
    // No raw-bits leak: no address reaches the projection except through
    // the token function (the "!"-prefixed fallback included).
    EXPECT_EQ(proj_a.find('!'), std::string::npos);
    for (Address a : relevant) {
      EXPECT_EQ(proj_a.find(std::to_string(a.bits())), std::string::npos)
          << "projection leaks raw bits of " << a.to_string();
      EXPECT_EQ(proj_a.find(a.to_string()), std::string::npos);
    }
    // Fingerprints correspond under the bijection, for configured and
    // unconfigured addresses alike.
    for (Address a : relevant) {
      EXPECT_EQ(pair.original->policy_fingerprint(a),
                pair.renamed->policy_fingerprint(shift(a)))
          << "fingerprint not rename-blind at " << a.to_string();
    }
  }
}

TEST(ConfigRelations, DiffNamesTheExactCell) {
  // The fig8 blocker shape: two firewalls whose ACLs differ in one entry's
  // dst prefix length. diff_config must name the relation, row and cell.
  const Prefix net1(Address::of(10, 1, 0, 0), 24);
  LearningFirewall a("a",
                     {{net1, Prefix(Address::of(10, 2, 0, 0), 24),
                       AclAction::deny}},
                     AclAction::allow);
  LearningFirewall b("b",
                     {{net1, Prefix(Address::of(10, 2, 0, 0), 16),
                       AclAction::deny}},
                     AclAction::allow);
  auto ident = std::function<std::string(Address)>(
      [](Address x) { return std::to_string(x.bits()); });
  const std::string diff =
      diff_config(a.type(), a.config_relations(), b.config_relations(), {},
                  ident, {}, ident);
  EXPECT_EQ(diff, "firewall.acl row 0: dst prefix /24 vs /16");
  // Structurally equal descriptors diff empty.
  EXPECT_EQ(diff_config(a.type(), a.config_relations(), a.config_relations(),
                        {}, ident, {}, ident),
            "");
}

}  // namespace
}  // namespace vmn::mbox
