/// Unit tests for the two-stage incremental engine beyond the end-to-end
/// oracle equivalence already covered in test_sdx_core: fast-path rule
/// shapes, untouched-prefix short circuits, stale-rule inertness, and
/// runtime priority-band mechanics.

#include <gtest/gtest.h>

#include "sdx/incremental.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Field;
using net::Ipv4Prefix;
using net::PacketBuilder;

class IncrementalFixture : public ::testing::Test {
 protected:
  IncrementalFixture() {
    a = rt.add_participant("A", 65001);
    b = rt.add_participant("B", 65002);
    c = rt.add_participant("C", 65003);
    rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
    rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"),
                net::AsPath{65002, 7});
    rt.announce(c, Ipv4Prefix::parse("100.9.0.0/16"), net::AsPath{65003});
    rt.install();
  }
  SdxRuntime rt;
  bgp::ParticipantId a = 0, b = 0, c = 0;
};

TEST_F(IncrementalFixture, FastUpdateAllocatesFreshBindingPerCall) {
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server());
  IncrementalEngine engine(compiler);
  VnhAllocator vnh;
  engine.full_recompile(vnh);
  const auto before = vnh.allocated();

  // A single update is a batch of one.
  auto r1 = engine.fast_update_batch({Ipv4Prefix::parse("100.1.0.0/16")}, vnh);
  auto r2 = engine.fast_update_batch({Ipv4Prefix::parse("100.1.0.0/16")}, vnh);
  ASSERT_EQ(r1.items.size(), 1u);
  ASSERT_EQ(r2.items.size(), 1u);
  ASSERT_TRUE(r1.items[0].binding.has_value());
  ASSERT_TRUE(r2.items[0].binding.has_value());
  // "assume a new VNH"
  EXPECT_NE(r1.items[0].binding->vmac, r2.items[0].binding->vmac);
  EXPECT_EQ(vnh.allocated(), before + 2);
  EXPECT_GT(r1.additional_rules, 0u);
  EXPECT_EQ(r1.additional_rules, r1.rules.size());
}

TEST_F(IncrementalFixture, UntouchedPrefixWithDefaultsStillGetsRules) {
  // 100.9/16 is covered by no clause but has best routes: the fast path
  // must install its default-forwarding rules under the fresh VMAC.
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server());
  IncrementalEngine engine(compiler);
  VnhAllocator vnh;
  engine.full_recompile(vnh);
  auto r = engine.fast_update_batch({Ipv4Prefix::parse("100.9.0.0/16")}, vnh);
  ASSERT_EQ(r.items.size(), 1u);
  ASSERT_TRUE(r.items[0].binding.has_value());
  EXPECT_GT(r.additional_rules, 0u);
  // All its rules are default rules: they match the fresh VMAC.
  for (const auto& rule : r.rules) {
    EXPECT_TRUE(rule.match.field(Field::kDstMac).is_exact());
  }
}

TEST_F(IncrementalFixture, FullyWithdrawnPrefixNeedsNothing) {
  rt.route_server().withdraw(b, Ipv4Prefix::parse("100.1.0.0/16"));
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server());
  IncrementalEngine engine(compiler);
  VnhAllocator vnh;
  engine.full_recompile(vnh);
  auto r = engine.fast_update_batch({Ipv4Prefix::parse("100.1.0.0/16")}, vnh);
  ASSERT_EQ(r.items.size(), 1u);
  EXPECT_FALSE(r.items[0].binding.has_value());
  EXPECT_EQ(r.additional_rules, 0u);
}

TEST_F(IncrementalFixture, StaleFastRulesAreInertAfterReadvertisement) {
  // After an update, the old VMAC's rules linger at high priority (the
  // paper accepts this: "it can also produce more rules than needed") —
  // but routers tag the *new* VMAC, so behaviour must follow the update.
  const auto p = Ipv4Prefix::parse("100.1.0.0/16");
  const auto before = rt.fabric().sdx_switch().table().size();
  // C takes over the prefix with a strictly better route.
  rt.announce(c, p, net::AsPath{65003});
  EXPECT_GT(rt.fabric().sdx_switch().table().size(), before);
  auto out =
      rt.send(a, PacketBuilder().dst_ip("100.1.1.1").dst_port(53).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, rt.participant(c).ports[0].id);
  // Policy traffic still prefers B (it still exports the prefix).
  out = rt.send(a, PacketBuilder().dst_ip("100.1.1.1").dst_port(80).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port, rt.participant(b).ports[0].id);
}

TEST_F(IncrementalFixture, BackgroundPassShedsFastPathRules) {
  const auto baseline = rt.compiled().fabric.size();
  for (int i = 0; i < 5; ++i) {
    rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"),
                net::AsPath{65003, static_cast<net::Asn>(100 + i)});
  }
  EXPECT_GT(rt.fabric().sdx_switch().table().size(), baseline);
  rt.background_recompile();
  EXPECT_EQ(rt.fabric().sdx_switch().table().size(),
            rt.compiled().fabric.size());
  // And the coalesced table uses the minimal binding set again.
  EXPECT_EQ(rt.compiled().bindings.size(),
            rt.compiled().fecs.groups.size());
}

TEST_F(IncrementalFixture, UpdateLogRecordsCosts) {
  rt.clear_update_log();
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.withdraw(c, Ipv4Prefix::parse("100.1.0.0/16"));
  ASSERT_EQ(rt.update_log().size(), 2u);
  for (const auto& e : rt.update_log()) {
    EXPECT_EQ(e.prefix, Ipv4Prefix::parse("100.1.0.0/16"));
    EXPECT_GE(e.fast_seconds, 0.0);
    EXPECT_LT(e.fast_seconds, 1.0);  // the "sub-second" §4.3.2 claim
  }
}

TEST(IncrementalInbound, FastPathComposesThroughTheCurrentInboundPolicy) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002, /*port_count=*/2);
  auto c = rt.add_participant("C", 65003, /*port_count=*/2);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                      OutboundClause{ClauseMatch{}.dst_port(443), c}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.announce(b, Ipv4Prefix::parse("100.2.0.0/16"));
  rt.announce(c, Ipv4Prefix::parse("100.9.0.0/16"));
  rt.install();

  // A fast-path batch through B's stage-2 classifier, before any inbound
  // change.
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  // Both receivers steer their matching traffic to their second port.
  rt.set_inbound(b, {InboundClause{ClauseMatch{}.dst_port(80), {}, 1}});
  rt.set_inbound(c, {InboundClause{ClauseMatch{}.dst_port(443), {}, 1}});
  rt.announce(b, Ipv4Prefix::parse("100.2.0.0/16"));
  rt.announce(c, Ipv4Prefix::parse("100.9.0.0/16"));

  auto egress = [&rt, a](const char* dst, std::uint16_t port) {
    auto out = rt.send(a, PacketBuilder().dst_ip(dst).dst_port(port).build());
    return out.size() == 1 ? out[0].port : net::PortId{0};
  };
  const auto via_b = egress("100.2.0.1", 80);
  const auto via_c = egress("100.9.0.1", 443);
  rt.background_recompile();
  EXPECT_EQ(via_b, egress("100.2.0.1", 80));
  EXPECT_EQ(via_c, egress("100.9.0.1", 443));
  EXPECT_EQ(via_b, rt.participant(b).ports[1].id);
  EXPECT_EQ(via_c, rt.participant(c).ports[1].id);
}

TEST(IncrementalNoVmac, FastPathIsIdleWithoutGrouping) {
  CompileOptions options;
  options.vmac_grouping = false;
  SdxRuntime rt(bgp::DecisionConfig{}, options);
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.install();
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server(),
                       options);
  IncrementalEngine engine(compiler);
  VnhAllocator vnh;
  engine.full_recompile(vnh);
  // Without VMAC grouping there is a clause hit, so rules are still
  // emitted — but a pure-default prefix needs none.
  rt.route_server().withdraw(b, Ipv4Prefix::parse("100.1.0.0/16"));
  auto r = engine.fast_update_batch({Ipv4Prefix::parse("100.1.0.0/16")}, vnh);
  EXPECT_EQ(r.additional_rules, 0u);
}

}  // namespace
}  // namespace sdx::core
