/// Runtime lifecycle and negative-path tests: API misuse must fail loudly
/// and leave the controller consistent; re-installation, counters and
/// accessors behave across the whole lifecycle.

#include <gtest/gtest.h>

#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using net::PacketBuilder;

TEST(RuntimeLifecycle, AccessorsRejectUnknownIds) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  EXPECT_THROW(rt.participant(99), std::out_of_range);
  EXPECT_THROW(rt.participant(0), std::out_of_range);
  EXPECT_THROW(rt.router(99), std::out_of_range);
  EXPECT_THROW(rt.router(a, 5), std::out_of_range);
  EXPECT_EQ(rt.find("nope"), nullptr);
  EXPECT_NE(rt.find("A"), nullptr);
  EXPECT_THROW(rt.set_outbound(99, {}), std::out_of_range);
}

TEST(RuntimeLifecycle, TopologyFreezesAtInstall) {
  SdxRuntime rt;
  rt.add_participant("A", 65001);
  rt.add_participant("B", 65002);
  rt.install();
  EXPECT_THROW(rt.add_participant("C", 65003), std::logic_error);
  EXPECT_THROW(rt.add_remote_participant("T", 65010), std::logic_error);
}

TEST(RuntimeLifecycle, BackgroundRecompileRequiresInstall) {
  SdxRuntime rt;
  rt.add_participant("A", 65001);
  EXPECT_THROW(rt.background_recompile(), std::logic_error);
  EXPECT_FALSE(rt.installed());
}

TEST(RuntimeLifecycle, ZeroPortParticipantRejected) {
  SdxRuntime rt;
  EXPECT_THROW(rt.add_participant("A", 65001, 0), std::invalid_argument);
}

TEST(RuntimeLifecycle, ReinstallAfterPolicyChangeIsConsistent) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  auto c = rt.add_participant("C", 65003);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 9});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.install();
  auto web = PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build();
  // Without a policy: the BGP default (C).
  EXPECT_EQ(rt.send(a, web)[0].port, rt.participant(c).ports[0].id);
  // Install the policy, re-deploy: traffic diverts.
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.install();
  EXPECT_EQ(rt.send(a, web)[0].port, rt.participant(b).ports[0].id);
  // Remove it again: back to the default.
  rt.set_outbound(a, {});
  rt.install();
  EXPECT_EQ(rt.send(a, web)[0].port, rt.participant(c).ports[0].id);
}

TEST(RuntimeLifecycle, AnnouncementsBeforeInstallReachRoutersAtInstall) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  const auto prefix = Ipv4Prefix::parse("100.1.0.0/16");
  rt.announce(b, prefix);
  // Before install() an announcement changes only the route server: the
  // routers hold nothing yet, so traffic has no route.
  EXPECT_EQ(rt.route_server().prefix_count(), 1u);
  EXPECT_EQ(rt.router(a).rib().size(), 0u);
  EXPECT_TRUE(
      rt.send(a, PacketBuilder().dst_ip("100.1.1.1").build()).empty());
  // install() advertises the whole RIB, and traffic flows.
  rt.install();
  EXPECT_EQ(rt.router(a).rib().size(), 1u);
  EXPECT_NE(rt.router(a).rib().find(prefix), nullptr);
  const auto out = rt.send(a, PacketBuilder().dst_ip("100.1.1.1").build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, rt.participant(b).ports[0].id);
}

TEST(RuntimeLifecycle, ArpCarriesVnhBindingsAfterInstall) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.install();
  ASSERT_EQ(rt.compiled().bindings.size(), 1u);
  const auto& binding = rt.compiled().bindings[0];
  auto resolved = rt.fabric().arp().resolve(binding.vnh);
  ASSERT_TRUE(resolved.has_value());
  EXPECT_EQ(*resolved, binding.vmac);
  // And the router's FIB entry points at the VNH.
  const auto* attrs =
      rt.router(a).rib().find(Ipv4Prefix::parse("100.1.0.0/16"));
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->next_hop, binding.vnh);
}

TEST(RuntimeLifecycle, SessionDownWithdrawsRoutesAndPolicies) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  auto c = rt.add_participant("C", 65003);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.set_outbound(b, {OutboundClause{ClauseMatch{}.dst_port(80), c}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 9});
  rt.announce(b, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002, 9});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.install();
  auto web = PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build();
  ASSERT_EQ(rt.send(a, web)[0].port, rt.participant(b).ports[0].id);

  // B's session drops: its routes vanish, its policies too; traffic that
  // still has a route (via C) follows it, the rest blackholes.
  EXPECT_EQ(rt.session_down(b), 2u);
  EXPECT_TRUE(rt.participant(b).outbound.empty());
  EXPECT_EQ(rt.send(a, web)[0].port, rt.participant(c).ports[0].id);
  EXPECT_TRUE(
      rt.send(a, PacketBuilder().dst_ip("100.2.1.1").dst_port(80).build())
          .empty());

  // Coming back restores service.
  rt.announce(b, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002, 9});
  EXPECT_FALSE(
      rt.send(a, PacketBuilder().dst_ip("100.2.1.1").dst_port(80).build())
          .empty());
}

TEST(RuntimeLifecycle, SwitchCountersAccumulateAcrossSends) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.install();
  for (int i = 0; i < 10; ++i) {
    rt.send(a, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build());
  }
  const auto& sw = rt.fabric().sdx_switch();
  EXPECT_EQ(sw.rx_packets(rt.participant(a).ports[0].id), 10u);
  EXPECT_EQ(sw.tx_packets(rt.participant(b).ports[0].id), 10u);
  EXPECT_GT(sw.table().total_matched(), 0u);
}

}  // namespace
}  // namespace sdx::core
