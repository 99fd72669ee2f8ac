/// Tests for the forwarding explainer: each verdict kind is produced by
/// the scenario that causes it, the reported outcome matches the real
/// data plane, and the pure lookup leaves counters untouched.

#include <gtest/gtest.h>

#include "sdx/explain.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using net::PacketBuilder;

class ExplainFixture : public ::testing::Test {
 protected:
  ExplainFixture() { populate(rt); }

  /// A diverts port 80 to B although C is the BGP best for 100.1/16; the
  /// remote tenant rewrites one host of it toward 100.2/16.
  void populate(SdxRuntime& target) {
    a = target.add_participant("A", 65001);
    b = target.add_participant("B", 65002);
    c = target.add_participant("C", 65003);
    tenant = target.add_remote_participant("tenant", 65010);
    target.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
    target.set_inbound(
        tenant,
        {InboundClause{ClauseMatch{}.dst(Ipv4Prefix::host(
                           net::Ipv4Address::parse("100.1.9.9"))),
                       {{net::Field::kDstIp,
                         net::Ipv4Address::parse("100.2.0.5").value()}},
                       std::nullopt}});
    target.announce(b, Ipv4Prefix::parse("100.1.0.0/16"),
                    net::AsPath{65002, 9});
    target.announce(c, Ipv4Prefix::parse("100.1.0.0/16"),
                    net::AsPath{65003});
    target.announce(c, Ipv4Prefix::parse("100.2.0.0/16"),
                    net::AsPath{65003});
    // An untouched prefix (no policy covers it).
    target.announce(c, Ipv4Prefix::parse("100.3.0.0/16"),
                    net::AsPath{65003});
    target.install();
  }

  Explanation run(const char* dst, std::uint64_t port) {
    auto payload = PacketBuilder()
                       .src_ip("96.25.160.5")
                       .dst_ip(dst)
                       .proto(net::kProtoTcp)
                       .dst_port(port)
                       .build();
    return explain(rt, a, payload, 0);
  }

  SdxRuntime rt;
  bgp::ParticipantId a = 0, b = 0, c = 0, tenant = 0;
};

TEST_F(ExplainFixture, PolicyClauseAttribution) {
  auto e = run("100.1.1.1", 80);
  EXPECT_EQ(e.kind, RuleKind::kPolicyClause);
  ASSERT_TRUE(e.route_prefix.has_value());
  EXPECT_EQ(*e.route_prefix, Ipv4Prefix::parse("100.1.0.0/16"));
  EXPECT_EQ(e.route_via, c);  // BGP best is C, policy diverts to B
  ASSERT_TRUE(e.group.has_value());
  ASSERT_TRUE(e.egress.has_value());
  EXPECT_EQ(e.receiver, b);
  // Human rendering mentions the verdict and the rule.
  EXPECT_NE(e.to_string().find("policy-clause"), std::string::npos);
  EXPECT_NE(e.to_string().find("rule:"), std::string::npos);
}

TEST_F(ExplainFixture, GroupFollowsTheBindingTable) {
  // 100.4/16 arrives after install with 100.1/16's routes, so it joins
  // 100.1/16's compiled group: its frames carry that group's VMAC, and the
  // explanation names that group although the compiled FECs never saw it.
  const auto group = run("100.1.1.1", 80).group;
  ASSERT_TRUE(group.has_value());
  rt.announce(b, Ipv4Prefix::parse("100.4.0.0/16"), net::AsPath{65002, 9});
  rt.announce(c, Ipv4Prefix::parse("100.4.0.0/16"), net::AsPath{65003});
  rt.flush();
  ASSERT_FALSE(rt.compiled().fecs.group_of.contains(
      Ipv4Prefix::parse("100.4.0.0/16")));
  auto e = run("100.4.1.1", 80);
  EXPECT_EQ(e.kind, RuleKind::kPolicyClause);
  EXPECT_EQ(e.group, group);
  EXPECT_EQ(e.frame.dst_mac(), rt.compiled().bindings[*group].vmac);
  EXPECT_EQ(e.receiver, b);
  // Once B withdraws, no clause covers 100.4/16 and it leaves the group.
  rt.withdraw(b, Ipv4Prefix::parse("100.4.0.0/16"));
  rt.flush();
  e = run("100.4.1.1", 80);
  EXPECT_NE(e.group, group);
  EXPECT_EQ(e.receiver, c);
}

TEST_F(ExplainFixture, GroupDefaultAttribution) {
  auto e = run("100.1.1.1", 53);
  EXPECT_EQ(e.kind, RuleKind::kGroupDefault);
  EXPECT_EQ(e.receiver, c);
}

TEST_F(ExplainFixture, MacLearningAttribution) {
  auto e = run("100.3.1.1", 80);
  EXPECT_EQ(e.kind, RuleKind::kMacLearning);
  EXPECT_FALSE(e.group.has_value());
  EXPECT_EQ(e.receiver, c);
}

TEST_F(ExplainFixture, RemoteRewriteAttribution) {
  auto e = run("100.1.9.9", 53);
  EXPECT_EQ(e.kind, RuleKind::kRemoteRewrite);
  EXPECT_EQ(e.delivered.dst_ip(), net::Ipv4Address::parse("100.2.0.5"));
  EXPECT_EQ(e.receiver, c);
}

TEST_F(ExplainFixture, NoRouteVerdict) {
  auto e = run("9.9.9.9", 80);
  EXPECT_EQ(e.kind, RuleKind::kNoRoute);
  EXPECT_FALSE(e.rule_index.has_value());
  EXPECT_FALSE(e.egress.has_value());
}

TEST_F(ExplainFixture, ExplanationMatchesLiveDataPlane) {
  // The same exchange compiled partitioned: each router is advertised its
  // own partition's binding, which the explanation must follow too.
  SdxRuntime partitioned({}, CompileOptions{.partitioned = true});
  populate(partitioned);
  for (SdxRuntime* runtime : {&rt, &partitioned}) {
    SCOPED_TRACE(runtime == &partitioned ? "partitioned" : "pairwise");
    for (const char* dst : {"100.1.1.1", "100.2.0.7", "100.3.4.5"}) {
      for (std::uint64_t port : {80u, 53u}) {
        auto payload = PacketBuilder()
                           .src_ip("96.25.160.5")
                           .dst_ip(dst)
                           .proto(net::kProtoTcp)
                           .dst_port(port)
                           .build();
        auto e = explain(*runtime, a, payload, 0);
        auto live = runtime->send(a, payload);
        ASSERT_EQ(e.egress.has_value(), !live.empty()) << dst << ":" << port;
        if (!live.empty()) {
          EXPECT_EQ(*e.egress, live[0].port) << dst << ":" << port;
          EXPECT_EQ(e.delivered, live[0].frame) << dst << ":" << port;
        }
      }
    }
  }
}

TEST_F(ExplainFixture, ExplainIsPure) {
  const auto before = rt.fabric().sdx_switch().table().total_matched();
  run("100.1.1.1", 80);
  EXPECT_EQ(rt.fabric().sdx_switch().table().total_matched(), before);
}

TEST_F(ExplainFixture, RemoteSenderYieldsNoRoute) {
  auto e = explain(rt, tenant, PacketBuilder().dst_ip("100.1.1.1").build());
  EXPECT_EQ(e.kind, RuleKind::kNoRoute);
}

}  // namespace
}  // namespace sdx::core
