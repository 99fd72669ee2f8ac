/// Integration tests for the wire-level BGP frontend: controller
/// re-advertisements travel through real framed sessions into router FIBs,
/// and the result matches the runtime's direct distribution path exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "sdx/bgp_frontend.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;

TEST(BgpFrontendTest, HandshakeAndUpdateDelivery) {
  BgpFrontend frontend;
  dp::BorderRouter router(65001, 1, net::MacAddress(0x11),
                          Ipv4Address::parse("10.0.0.1"));
  frontend.connect(1, router);
  EXPECT_TRUE(frontend.established(1));

  bgp::UpdateMessage u;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{64999, 65002};
  attrs.next_hop = Ipv4Address::parse("172.16.0.1");
  u.attrs = attrs;
  u.nlri = {Ipv4Prefix::parse("100.1.0.0/16")};
  const std::size_t bytes = frontend.distribute(1, u);
  EXPECT_GT(bytes, 19u);
  ASSERT_EQ(router.rib().size(), 1u);
  EXPECT_EQ(router.rib().find(Ipv4Prefix::parse("100.1.0.0/16"))->next_hop,
            Ipv4Address::parse("172.16.0.1"));

  // Withdrawal removes the entry again.
  bgp::UpdateMessage w;
  w.withdrawn = {Ipv4Prefix::parse("100.1.0.0/16")};
  frontend.distribute(1, w);
  EXPECT_EQ(router.rib().size(), 0u);
}

TEST(BgpFrontendTest, RejectsDuplicateAndUnknownParticipants) {
  BgpFrontend frontend;
  dp::BorderRouter router(65001, 1, net::MacAddress(0x11),
                          Ipv4Address::parse("10.0.0.1"));
  frontend.connect(1, router);
  EXPECT_THROW(frontend.connect(1, router), std::invalid_argument);
  EXPECT_THROW(frontend.distribute(9, bgp::UpdateMessage{}),
               std::out_of_range);
  EXPECT_FALSE(frontend.established(9));
}

TEST(BgpFrontendTest, KeepalivesSurviveLongIdlePeriods) {
  BgpFrontend frontend;
  dp::BorderRouter router(65001, 1, net::MacAddress(0x11),
                          Ipv4Address::parse("10.0.0.1"));
  frontend.connect(1, router);
  for (int tick = 0; tick < 30; ++tick) {
    EXPECT_TRUE(frontend.advance_clock(10.0).empty());
  }
  EXPECT_TRUE(frontend.established(1));
}

TEST(BgpFrontendTest, CountsDistributionBytesButNotHandshakes) {
  BgpFrontend frontend;
  dp::BorderRouter r1(65001, 1, net::MacAddress(0x11),
                      Ipv4Address::parse("10.0.0.1"));
  dp::BorderRouter r2(65002, 2, net::MacAddress(0x22),
                      Ipv4Address::parse("10.0.0.2"));
  frontend.connect(1, r1);
  frontend.connect(2, r2);
  // Handshake traffic (OPEN/KEEPALIVE) is not distribution.
  EXPECT_EQ(frontend.bytes_distributed(), 0u);

  bgp::UpdateMessage u;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{64999, 65002};
  attrs.next_hop = Ipv4Address::parse("172.16.0.1");
  u.attrs = attrs;
  u.nlri = {Ipv4Prefix::parse("100.1.0.0/16")};
  const std::size_t first = frontend.distribute(1, u);
  EXPECT_EQ(frontend.bytes_distributed(), first);
  const std::size_t second = frontend.distribute(2, u);
  EXPECT_EQ(second, first);  // same frame each way on either session
  EXPECT_EQ(frontend.bytes_distributed(), first + second);
  EXPECT_EQ(frontend.updates_distributed(), 2u);
}

TEST(BgpFrontendTest, HoldTimerExpiryDropsAndTearsDownSessions) {
  BgpFrontend frontend;
  dp::BorderRouter r1(65001, 1, net::MacAddress(0x11),
                      Ipv4Address::parse("10.0.0.1"));
  dp::BorderRouter r2(65002, 2, net::MacAddress(0x22),
                      Ipv4Address::parse("10.0.0.2"));
  frontend.connect(1, r1);
  frontend.connect(2, r2);

  // One jump past the 90 s hold time expires both sessions at once.
  auto dropped = frontend.advance_clock(1000.0);
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<ParticipantId>{1, 2}));
  EXPECT_EQ(frontend.session_drops(), 2u);
  EXPECT_FALSE(frontend.established(1));
  EXPECT_FALSE(frontend.established(2));
  // The links are torn down, not left as zombies: nothing re-reports, and
  // distribution to a dropped peer is a hard error until reconnect.
  EXPECT_TRUE(frontend.advance_clock(1000.0).empty());
  EXPECT_EQ(frontend.session_drops(), 2u);
  EXPECT_THROW(frontend.distribute(1, bgp::UpdateMessage{}),
               std::out_of_range);
  frontend.connect(1, r1);
  EXPECT_TRUE(frontend.established(1));
}

TEST(BgpFrontendTest, AutoReconnectRedialsDroppedSessions) {
  BgpFrontend frontend;
  frontend.enable_auto_reconnect(BgpFrontend::ReconnectPolicy{});
  EXPECT_TRUE(frontend.auto_reconnect());
  dp::BorderRouter router(65001, 1, net::MacAddress(0x11),
                          Ipv4Address::parse("10.0.0.1"));
  frontend.connect(1, router);

  // A jump far past the hold time drops the session; the backoff (1 s
  // default) has also long elapsed within the same jump, so the redial
  // happens in the same clock advance.
  const auto dropped = frontend.advance_clock(1000.0);
  EXPECT_EQ(dropped, (std::vector<ParticipantId>{1}));
  EXPECT_EQ(frontend.session_drops(), 1u);
  EXPECT_TRUE(frontend.established(1));
  EXPECT_EQ(frontend.reconnects(), 1u);
  EXPECT_EQ(frontend.pending_reconnects(), 0u);

  // The re-established transport carries updates again.
  bgp::UpdateMessage u;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{64999, 65002};
  attrs.next_hop = Ipv4Address::parse("172.16.0.1");
  u.attrs = attrs;
  u.nlri = {Ipv4Prefix::parse("100.1.0.0/16")};
  frontend.distribute(1, u);
  EXPECT_EQ(router.rib().size(), 1u);
}

TEST(BgpFrontendTest, AutoReconnectWaitsOutTheConfiguredBackoff) {
  BgpFrontend frontend;
  BgpFrontend::ReconnectPolicy policy;
  policy.initial_backoff_seconds = 200.0;
  frontend.enable_auto_reconnect(policy);
  dp::BorderRouter router(65001, 1, net::MacAddress(0x11),
                          Ipv4Address::parse("10.0.0.1"));
  frontend.connect(1, router);

  // Drop just past the 90 s hold time: 200 s of backoff minus the 91 s
  // already elapsed leaves the redial pending.
  ASSERT_EQ(frontend.advance_clock(91.0).size(), 1u);
  EXPECT_FALSE(frontend.established(1));
  EXPECT_EQ(frontend.pending_reconnects(), 1u);
  EXPECT_EQ(frontend.reconnects(), 0u);

  frontend.advance_clock(50.0);  // 141 s elapsed: still waiting
  EXPECT_FALSE(frontend.established(1));
  EXPECT_EQ(frontend.pending_reconnects(), 1u);

  frontend.advance_clock(60.0);  // 201 s: backoff elapsed, redial fires
  EXPECT_TRUE(frontend.established(1));
  EXPECT_EQ(frontend.reconnects(), 1u);
  EXPECT_EQ(frontend.pending_reconnects(), 0u);
  // A healthy reconnected session keeps ticking without re-dropping.
  EXPECT_TRUE(frontend.advance_clock(10.0).empty());
}

TEST(BgpFrontendTest, RuntimeAutoReconnectRestoresWireTransport) {
  SdxRuntime rt;
  rt.use_wire_distribution();
  auto a = rt.add_participant("A", 65001);
  rt.enable_frontend_auto_reconnect();
  rt.announce(a, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65001});
  rt.install();

  // The drop still runs session_down (routes withdrawn, surfaced to the
  // caller), but the transport comes back on its own.
  const auto dropped = rt.advance_clock(1000.0);
  EXPECT_EQ(dropped, (std::vector<ParticipantId>{a}));
  ASSERT_NE(rt.frontend(), nullptr);
  EXPECT_TRUE(rt.frontend()->established(a));
  EXPECT_EQ(rt.frontend()->reconnects(), 1u);

  // The redial is visible in the shared ingest telemetry series.
  const auto metrics = rt.dump_metrics();
  EXPECT_NE(metrics.find("sdx_ingest_reconnects_total 1"),
            std::string::npos);

  // Re-announcing over the restored transport reaches the router again.
  rt.announce(a, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65001});
  EXPECT_TRUE(rt.frontend()->established(a));
}

TEST(BgpFrontendTest, RuntimeAutoReconnectRequiresWireDistribution) {
  SdxRuntime rt;
  EXPECT_THROW(rt.enable_frontend_auto_reconnect(), std::logic_error);
}

TEST(BgpFrontendTest, WireDistributionMatchesDirectPath) {
  // Build the same exchange twice: once distributing FIBs through the
  // runtime's direct path, once re-playing the runtime's advertisements
  // through wire sessions into shadow routers. FIB contents must agree.
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  auto c = rt.add_participant("C", 65003);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 9});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.announce(c, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  rt.install();

  BgpFrontend frontend;
  std::vector<dp::BorderRouter> shadows;
  shadows.reserve(3);
  for (auto id : {a, b, c}) {
    const auto& port = rt.participant(id).primary_port();
    shadows.emplace_back(rt.participant(id).asn, port.id + 100,
                         port.router_mac, port.router_ip);
  }
  std::size_t i = 0;
  for (auto id : {a, b, c}) frontend.connect(id, shadows[i++]);

  // Re-derive each participant's advertisements from the controller state
  // and push them through the wire.
  for (auto prefix : rt.route_server().all_prefixes()) {
    i = 0;
    for (auto id : {a, b, c}) {
      auto best = rt.route_server().best_route(id, prefix);
      bgp::UpdateMessage msg;
      if (best) {
        bgp::RouteAttributes attrs = best->attrs;
        if (auto binding = rt.compiled().binding_for(prefix)) {
          attrs.next_hop = binding->vnh;
        }
        msg.attrs = std::move(attrs);
        msg.nlri.push_back(prefix);
      } else {
        msg.withdrawn.push_back(prefix);
      }
      frontend.distribute(id, msg);
      ++i;
    }
  }

  // Shadow FIBs must equal the directly-fed router FIBs.
  i = 0;
  for (auto id : {a, b, c}) {
    const auto& direct = rt.router(id).rib();
    const auto& shadow = shadows[i++].rib();
    ASSERT_EQ(direct.size(), shadow.size()) << "participant " << id;
    direct.for_each([&shadow, id](Ipv4Prefix prefix,
                                  const bgp::RouteAttributes& attrs) {
      const bgp::RouteAttributes* s = shadow.find(prefix);
      ASSERT_NE(s, nullptr) << prefix.to_string();
      EXPECT_EQ(*s, attrs) << "participant " << id;
    });
  }
  EXPECT_EQ(frontend.updates_distributed(), 6u);  // 2 prefixes × 3 peers
}

TEST(BgpFrontendTest, RuntimeWireModeBehavesIdenticallyToDirectMode) {
  // Two identically-configured runtimes — one distributing in-process, one
  // through framed sessions — must deliver identical traffic outcomes.
  auto build = [](bool wire) {
    auto rt = std::make_unique<SdxRuntime>();
    if (wire) rt->use_wire_distribution();
    auto a = rt->add_participant("A", 65001);
    auto b = rt->add_participant("B", 65002, 2);
    auto c = rt->add_participant("C", 65003);
    rt->set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
    rt->set_inbound(
        b, {InboundClause{ClauseMatch{}.src(Ipv4Prefix::parse("0.0.0.0/1")),
                          {},
                          1}});
    rt->announce(b, Ipv4Prefix::parse("100.1.0.0/16"),
                 net::AsPath{65002, 9});
    rt->announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
    rt->install();
    // Churn after install exercises the fast path over the wire too.
    rt->withdraw(c, Ipv4Prefix::parse("100.1.0.0/16"));
    rt->announce(c, Ipv4Prefix::parse("100.1.0.0/16"),
                 net::AsPath{65003});
    return rt;
  };
  auto direct = build(false);
  auto wire = build(true);
  EXPECT_TRUE(wire->wire_distribution());
  EXPECT_GT(wire->frontend()->updates_distributed(), 0u);

  for (const char* src : {"96.25.160.5", "200.1.1.1"}) {
    for (std::uint64_t port : {80u, 53u}) {
      auto payload = net::PacketBuilder()
                         .src_ip(src)
                         .dst_ip("100.1.2.3")
                         .proto(net::kProtoTcp)
                         .dst_port(port)
                         .build();
      auto d = direct->send(1, payload);
      auto w = wire->send(1, payload);
      ASSERT_EQ(d.size(), w.size()) << src << ":" << port;
      if (!d.empty()) {
        EXPECT_EQ(d[0].port, w[0].port);
        EXPECT_EQ(d[0].frame, w[0].frame);
      }
    }
  }
}

}  // namespace
}  // namespace sdx::core
