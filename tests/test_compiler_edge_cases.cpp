/// Edge cases of the optimized SDX compiler: empty policy sets, inert
/// clauses, contradictory matches, multi-port senders, VNH determinism,
/// compile-option combinations, and flow-table/classifier equivalence
/// under fuzzed traffic.

#include <gtest/gtest.h>

#include "dataplane/flow_table.hpp"
#include "netbase/rng.hpp"
#include "policy/compile.hpp"
#include "sdx/compiler.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Field;
using net::Ipv4Prefix;
using net::PacketBuilder;

TEST(CompilerEdge, EmptyExchangeCompiles) {
  SdxRuntime rt;
  rt.add_participant("A", 65001);
  rt.add_participant("B", 65002);
  const auto& compiled = rt.install();
  EXPECT_EQ(compiled.stats.prefix_groups, 0u);
  // MAC-learning rules + catch-all still present.
  EXPECT_GE(compiled.stats.final_rules, 3u);
  EXPECT_TRUE(compiled.fabric.rules().back().match.is_wildcard());
}

TEST(CompilerEdge, PoliciesWithoutRoutesAreInert) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  const auto& compiled = rt.install();  // B exported nothing
  EXPECT_EQ(compiled.stats.prefix_groups, 0u);
  EXPECT_TRUE(
      rt.send(a, PacketBuilder().dst_ip("1.2.3.4").dst_port(80).build())
          .empty());
}

TEST(CompilerEdge, ContradictoryClauseMatchesNothing) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  ClauseMatch impossible;
  impossible.dst_port(80).dst_port(443);  // conjunction of two exact values
  rt.set_outbound(a, {OutboundClause{impossible, b}});
  const auto& compiled = rt.install();
  // The clause contributes no rules (but defaults still work).
  auto out =
      rt.send(a, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, rt.participant(b).ports[0].id);
  EXPECT_TRUE(compiled.fabric.rules().back().match.is_wildcard());
}

TEST(CompilerEdge, MultiPortSenderGetsPerPortClauseRules) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001, /*ports=*/2);
  auto b = rt.add_participant("B", 65002);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.install();
  // The policy applies from either of A's ports.
  auto pkt = PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build();
  EXPECT_EQ(rt.send(a, pkt, 0)[0].port, rt.participant(b).ports[0].id);
  EXPECT_EQ(rt.send(a, pkt, 1)[0].port, rt.participant(b).ports[0].id);
}

TEST(CompilerEdge, VnhAssignmentIsDeterministic) {
  auto build = []() {
    auto rt = std::make_unique<SdxRuntime>();
    auto a = rt->add_participant("A", 65001);
    auto b = rt->add_participant("B", 65002);
    auto c = rt->add_participant("C", 65003);
    rt->announce(b, Ipv4Prefix::parse("100.1.0.0/16"),
                 net::AsPath{65002, 7});
    rt->announce(c, Ipv4Prefix::parse("100.2.0.0/16"),
                 net::AsPath{65003, 8});
    rt->set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                         OutboundClause{ClauseMatch{}.dst_port(443), c}});
    rt->install();
    return rt;
  };
  auto rt1 = build();
  auto rt2 = build();
  ASSERT_EQ(rt1->compiled().bindings.size(), rt2->compiled().bindings.size());
  // Same inputs → same groups; binding *values* may permute with group
  // order, but the (prefix → VNH) relation must agree.
  for (auto prefix :
       {Ipv4Prefix::parse("100.1.0.0/16"), Ipv4Prefix::parse("100.2.0.0/16")}) {
    auto b1 = rt1->compiled().binding_for(prefix);
    auto b2 = rt2->compiled().binding_for(prefix);
    ASSERT_EQ(b1.has_value(), b2.has_value());
  }
  // Rule tables must be identical.
  ASSERT_EQ(rt1->compiled().fabric.size(), rt2->compiled().fabric.size());
}

TEST(CompilerEdge, StageTwoThrowsForRemoteParticipants) {
  std::vector<Participant> participants(1);
  participants[0].id = 1;
  participants[0].name = "remote";
  PortMap ports;
  ports.register_participant(1, {});
  bgp::RouteServer server;
  server.add_peer({1, 65001, net::Ipv4Address(1)});
  SdxCompiler compiler(participants, ports, server);
  EXPECT_THROW(compiler.stage2_for(participants[0]), std::logic_error);
}

TEST(CompilerEdge, WithdrawingEverythingEmptiesGroups) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.install();
  EXPECT_EQ(rt.compiled().stats.prefix_groups, 1u);
  rt.withdraw(b, Ipv4Prefix::parse("100.1.0.0/16"));
  const auto& recompiled = rt.background_recompile();
  EXPECT_EQ(recompiled.stats.prefix_groups, 0u);
  EXPECT_TRUE(
      rt.send(a, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build())
          .empty());
}

TEST(CompilerEdge, ExportBlockingCommunityConstrainsPoliciesEndToEnd) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  auto c = rt.add_participant("C", 65003);
  // B's announcement is tagged "do not export to AS 65001".
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002},
              {bgp::make_community(0, 65001)});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"),
              net::AsPath{65003, 7, 8});
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.install();
  // A never sees B's route, so the policy cannot divert to B; traffic
  // follows A's (longer) route via C. C, by contrast, does see B's route.
  auto out = rt.send(
      a, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, rt.participant(c).ports[0].id);
  auto from_c = rt.send(
      c, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build());
  ASSERT_EQ(from_c.size(), 1u);
  EXPECT_EQ(from_c[0].port, rt.participant(b).ports[0].id);
}

// ---------------------------------------------------------------------------
// Flow table vs classifier fuzz: installing any compiled classifier into a
// FlowTable must preserve semantics exactly (install order → priorities).

class FlowTableFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowTableFuzz, TableMatchesClassifierOnRandomTraffic) {
  net::SplitMix64 rng(GetParam() * 1009);
  for (int trial = 0; trial < 10; ++trial) {
    // Random policy, compiled, installed.
    std::vector<policy::Policy> terms;
    for (int c = 0, e = 1 + static_cast<int>(rng.below(5)); c < e; ++c) {
      policy::Predicate pred = policy::Predicate::truth();
      if (rng.chance(0.7)) {
        pred = pred & policy::Predicate::test(Field::kDstPort,
                                              rng.range(0, 3));
      }
      if (rng.chance(0.5)) {
        pred = pred &
               policy::Predicate::test(
                   Field::kDstIp,
                   Ipv4Prefix(net::Ipv4Address(static_cast<std::uint32_t>(
                                  rng.below(4) << 30)),
                              static_cast<int>(rng.range(1, 3))));
      }
      terms.push_back(policy::match(pred) >>
                      policy::fwd(static_cast<net::PortId>(rng.below(4))));
    }
    auto classifier = policy::compile(policy::Policy::parallel(terms));
    dp::FlowTable table;
    table.install_classifier(classifier, 100, 1);

    for (int i = 0; i < 50; ++i) {
      auto h = PacketBuilder()
                   .dst_ip(net::Ipv4Address(
                       static_cast<std::uint32_t>(rng.below(4) << 30)))
                   .dst_port(rng.range(0, 3))
                   .build();
      auto expect = classifier.evaluate(h);
      auto got = table.process(h);
      ASSERT_EQ(expect, got);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowTableFuzz,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace sdx::core
