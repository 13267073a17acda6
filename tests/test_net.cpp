// Unit tests for src/net: topology construction, forwarding tables with
// longest-prefix + in-port matching, failure scenarios.
#include <gtest/gtest.h>

#include "net/topology.hpp"

namespace vmn::net {
namespace {

TEST(ForwardingTable, LongestPrefixWins) {
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1});
  t.add(Prefix(Address::of(10, 1, 0, 0), 16), NodeId{2});
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 1, 2, 3)), NodeId{2});
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 2, 0, 1)), NodeId{1});
}

TEST(ForwardingTable, NoMatchIsBlackhole) {
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1});
  EXPECT_EQ(t.match(std::nullopt, Address::of(172, 16, 0, 1)), std::nullopt);
}

TEST(ForwardingTable, InPortSpecificityBeatsWildcardAtSameLength) {
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1});
  t.add_from(NodeId{9}, Prefix(Address::of(10, 0, 0, 0), 8), NodeId{2});
  EXPECT_EQ(t.match(NodeId{9}, Address::of(10, 0, 0, 1)), NodeId{2});
  EXPECT_EQ(t.match(NodeId{8}, Address::of(10, 0, 0, 1)), NodeId{1});
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 0, 0, 1)), NodeId{1});
}

TEST(ForwardingTable, InPortRuleDoesNotMatchOtherPorts) {
  ForwardingTable t;
  t.add_from(NodeId{9}, Prefix::any(), NodeId{2});
  EXPECT_EQ(t.match(NodeId{3}, Address(1)), std::nullopt);
}

TEST(ForwardingTable, PriorityBreaksTies) {
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1}, /*priority=*/0);
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{2}, /*priority=*/5);
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 0, 0, 1)), NodeId{2});
}

TEST(ForwardingTable, LongerPrefixBeatsPriority) {
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1}, /*priority=*/50);
  t.add(Prefix(Address::of(10, 1, 0, 0), 16), NodeId{2}, /*priority=*/0);
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 1, 0, 1)), NodeId{2});
}

TEST(ForwardingTable, EqualRankTieGoesToTheFirstAdded) {
  // Same (prefix length, in-port, priority): insertion order decides, and
  // a later, higher-ranked rule still sorts ahead of both.
  ForwardingTable t;
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{1}, /*priority=*/3);
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{2}, /*priority=*/3);
  t.add_from(NodeId{9}, Prefix(Address::of(10, 0, 0, 0), 8), NodeId{3});
  t.add_from(NodeId{9}, Prefix(Address::of(10, 0, 0, 0), 8), NodeId{4});
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 0, 0, 1)), NodeId{1});
  EXPECT_EQ(t.match(NodeId{9}, Address::of(10, 0, 0, 1)), NodeId{3});
  t.add(Prefix(Address::of(10, 0, 0, 0), 8), NodeId{5}, /*priority=*/4);
  EXPECT_EQ(t.match(std::nullopt, Address::of(10, 0, 0, 1)), NodeId{5});
  // rules() keeps insertion order whatever the ranks.
  ASSERT_EQ(t.rules().size(), 5u);
  for (std::size_t i = 0; i < t.rules().size(); ++i) {
    EXPECT_EQ(t.rules()[i].next_hop, NodeId(static_cast<std::uint32_t>(i + 1)));
  }
}

class NetworkTest : public ::testing::Test {
 protected:
  Network net;
};

TEST_F(NetworkTest, AddAndQueryNodes) {
  NodeId h = net.add_host("h", Address::of(10, 0, 0, 1));
  NodeId s = net.add_switch("s");
  NodeId m = net.add_middlebox("m");
  EXPECT_EQ(net.kind(h), NodeKind::host);
  EXPECT_EQ(net.kind(s), NodeKind::switch_node);
  EXPECT_EQ(net.kind(m), NodeKind::middlebox);
  EXPECT_TRUE(net.is_edge(h));
  EXPECT_TRUE(net.is_edge(m));
  EXPECT_FALSE(net.is_edge(s));
  EXPECT_EQ(net.node_by_name("m"), m);
  EXPECT_EQ(net.host_by_address(Address::of(10, 0, 0, 1)), h);
  EXPECT_EQ(net.host_by_address(Address::of(10, 0, 0, 2)), std::nullopt);
}

TEST_F(NetworkTest, DuplicateNamesRejected) {
  net.add_switch("x");
  EXPECT_THROW(net.add_switch("x"), ModelError);
}

TEST_F(NetworkTest, DuplicateAddressesRejected) {
  net.add_host("a", Address(1));
  EXPECT_THROW(net.add_host("b", Address(1)), ModelError);
}

TEST_F(NetworkTest, LinksPopulateAdjacency) {
  NodeId a = net.add_switch("a");
  NodeId b = net.add_switch("b");
  net.add_link(a, b);
  ASSERT_EQ(net.neighbors(a).size(), 1u);
  EXPECT_EQ(net.neighbors(a)[0], b);
  EXPECT_EQ(net.neighbors(b)[0], a);
  EXPECT_THROW(net.add_link(a, a), ModelError);
}

TEST_F(NetworkTest, TablesOnlyOnSwitches) {
  NodeId h = net.add_host("h", Address(1));
  EXPECT_THROW((void)net.table(h), ModelError);
}

TEST_F(NetworkTest, BaseScenarioAlwaysExists) {
  ASSERT_EQ(net.scenarios().size(), 1u);
  EXPECT_EQ(net.scenarios()[0].name, "base");
  EXPECT_TRUE(net.scenarios()[0].failed_nodes.empty());
}

TEST_F(NetworkTest, FailureScenariosTrackFailedNodes) {
  NodeId m = net.add_middlebox("m");
  ScenarioId s = net.add_failure_scenario("m-down", {m});
  EXPECT_TRUE(net.is_failed(m, s));
  EXPECT_FALSE(net.is_failed(m, Network::base_scenario));
}

TEST_F(NetworkTest, ScenarioTableOverridesStartFromBase) {
  NodeId sw = net.add_switch("sw");
  NodeId a = net.add_host("a", Address(1));
  NodeId b = net.add_host("b", Address(2));
  net.table(sw).add(Prefix::host(Address(1)), a);
  ScenarioId s = net.add_failure_scenario("s", {});
  // Override inherits the base rule, then adds its own.
  net.table(sw, s).add(Prefix::host(Address(2)), b);
  EXPECT_EQ(net.effective_table(sw, s).match(std::nullopt, Address(1)), a);
  EXPECT_EQ(net.effective_table(sw, s).match(std::nullopt, Address(2)), b);
  // Base table unaffected.
  EXPECT_EQ(net.effective_table(sw, Network::base_scenario)
                .match(std::nullopt, Address(2)),
            std::nullopt);
  // The copy's rank index came along and keeps ranking what is added
  // after the copy: a shorter prefix sorts behind the inherited /32, an
  // equal-rank rule behind the inherited one, a longer-ranked one ahead.
  net.table(sw, s).add(Prefix(Address(0), 30), b);
  net.table(sw, s).add(Prefix::host(Address(1)), b);
  EXPECT_EQ(net.effective_table(sw, s).match(std::nullopt, Address(1)), a);
  EXPECT_EQ(net.effective_table(sw, s).match(std::nullopt, Address(3)), b);
  net.table(sw, s).add(Prefix::host(Address(1)), b, /*priority=*/1);
  EXPECT_EQ(net.effective_table(sw, s).match(std::nullopt, Address(1)), b);
  EXPECT_EQ(net.effective_table(sw, Network::base_scenario)
                .match(std::nullopt, Address(1)),
            a);
}

TEST_F(NetworkTest, HostAndMiddleboxLists) {
  net.add_host("h1", Address(1));
  net.add_switch("s1");
  net.add_middlebox("m1");
  net.add_host("h2", Address(2));
  EXPECT_EQ(net.hosts().size(), 2u);
  EXPECT_EQ(net.middleboxes().size(), 1u);
}

TEST_F(NetworkTest, InvalidScenarioRejected) {
  EXPECT_THROW((void)net.scenario(ScenarioId{5}), ModelError);
}

}  // namespace
}  // namespace vmn::net
