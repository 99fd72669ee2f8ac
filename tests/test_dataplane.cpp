/// Tests for the data-plane substrate: flow table (priorities, cookies,
/// counters, classifier install), switch simulator, ARP responder, border
/// router (FIB → ARP → frame) and the end-to-end fabric harness.

#include <gtest/gtest.h>

#include "dataplane/fabric.hpp"
#include "netbase/rng.hpp"
#include "policy/compile.hpp"

namespace sdx::dp {
namespace {

using net::Field;
using net::FlowMatch;
using net::Ipv4Address;
using net::Ipv4Prefix;
using net::MacAddress;
using net::PacketBuilder;
using policy::ActionSeq;

FlowRule rule(std::uint32_t priority, FlowMatch match, net::PortId out,
              std::uint64_t cookie = 0) {
  FlowRule r;
  r.priority = priority;
  r.match = std::move(match);
  r.actions = {ActionSeq::set(Field::kPort, out)};
  r.cookie = cookie;
  return r;
}

/// The whole FlowTable contract runs in two legs. `classified` drives the
/// table alone; `linear` additionally asserts, before every lookup and
/// process, that the reference scan over rules() picks the very rule the
/// classification pipeline does.
enum class Leg { kClassified, kLinear };

class FlowTableTest : public ::testing::TestWithParam<Leg> {
 protected:
  const FlowRule* lookup(const PacketHeader& h) {
    const FlowRule* hit = t.lookup(h);
    if (GetParam() == Leg::kLinear) {
      EXPECT_EQ(reference_lookup(t.rules(), h), hit) << h.to_string();
    }
    return hit;
  }
  std::vector<PacketHeader> process(const PacketHeader& h) {
    lookup(h);
    return t.process(h);
  }

  FlowTable t;
};

INSTANTIATE_TEST_SUITE_P(
    Modes, FlowTableTest, ::testing::Values(Leg::kClassified, Leg::kLinear),
    [](const auto& info) {
      return info.param == Leg::kClassified ? "classified" : "linear";
    });

TEST_P(FlowTableTest, HigherPriorityWins) {
  t.install(rule(10, FlowMatch::on(Field::kDstPort, 80), 1));
  t.install(rule(20, FlowMatch::on(Field::kDstPort, 80), 2));
  auto out = process(PacketBuilder().dst_port(80).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 2u);
}

TEST_P(FlowTableTest, InsertionOrderBreaksPriorityTies) {
  t.install(rule(10, FlowMatch::on(Field::kDstPort, 80), 1));
  t.install(rule(10, FlowMatch::any(), 2));
  auto out = process(PacketBuilder().dst_port(80).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 1u);  // earlier install wins the tie
}

TEST_P(FlowTableTest, MissAndDropAccounting) {
  FlowRule drop_rule;
  drop_rule.priority = 5;
  drop_rule.match = FlowMatch::on(Field::kDstPort, 22);
  t.install(drop_rule);

  EXPECT_TRUE(process(PacketBuilder().dst_port(22).build()).empty());
  EXPECT_TRUE(process(PacketBuilder().dst_port(80).build()).empty());
  EXPECT_EQ(t.total_matched(), 1u);
  EXPECT_EQ(t.total_missed(), 1u);
  EXPECT_EQ(t.rules()[0]->packet_count, 1u);
}

TEST_P(FlowTableTest, CookieRemoval) {
  t.install(rule(1, FlowMatch::any(), 1, /*cookie=*/7));
  t.install(rule(2, FlowMatch::any(), 2, /*cookie=*/8));
  t.install(rule(3, FlowMatch::any(), 3, /*cookie=*/7));
  EXPECT_EQ(t.remove_by_cookie(7), 2u);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.rules()[0]->cookie, 8u);
  EXPECT_EQ(t.remove_by_cookie(7), 0u);
}

TEST_P(FlowTableTest, InstallClassifierPreservesOrder) {
  // Classifier order (index 0 = highest) must survive the priority mapping.
  policy::Policy p = (policy::match(Field::kDstPort, 80) >> policy::fwd(1)) +
                     (policy::match(Field::kSrcPort, 9) >> policy::fwd(2));
  auto c = policy::compile(p);
  t.install_classifier(c, 1000, 1);
  ASSERT_EQ(t.size(), c.size());
  for (int i = 0; i < 50; ++i) {
    auto h = PacketBuilder()
                 .dst_port(i % 2 ? 80 : 443)
                 .src_port(i % 3 ? 9 : 10)
                 .build();
    auto via_classifier = c.evaluate(h);
    auto via_table = process(h);
    EXPECT_EQ(via_classifier, via_table);
  }
}

TEST_P(FlowTableTest, FastBandOverridesBaseBand) {
  t.install(rule(1000, FlowMatch::on(Field::kDstPort, 80), 1, 1));
  t.install(rule(1u << 24, FlowMatch::on(Field::kDstPort, 80), 9, 2));
  EXPECT_EQ(process(PacketBuilder().dst_port(80).build())[0].port(), 9u);
  t.remove_by_cookie(2);
  EXPECT_EQ(process(PacketBuilder().dst_port(80).build())[0].port(), 1u);
}

TEST_P(FlowTableTest, RulesViewIsMatchOrderedAndIndexable) {
  t.install(rule(10, FlowMatch::on(Field::kDstPort, 80), 1));
  t.install(rule(30, FlowMatch::on(Field::kDstPort, 81), 2));
  t.install(rule(20, FlowMatch::on(Field::kDstPort, 82), 3));
  const auto view = t.rules();
  ASSERT_EQ(view.size(), 3u);
  EXPECT_EQ(view[0]->priority, 30u);
  EXPECT_EQ(view[1]->priority, 20u);
  EXPECT_EQ(view[2]->priority, 10u);
  const FlowRule* hit = lookup(PacketBuilder().dst_port(82).build());
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(t.index_of(hit), std::optional<std::size_t>(1));
  FlowRule foreign;
  EXPECT_EQ(t.index_of(&foreign), std::nullopt);
}

TEST(SwitchTest, CountsPerPortAndDropsHairpin) {
  SwitchSim sw;
  sw.table().install(rule(1, FlowMatch::on(Field::kPort, 1), 2));
  sw.table().install(rule(1, FlowMatch::on(Field::kPort, 2), 2));

  auto out = sw.inject(PacketBuilder().port(1).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 2u);

  // Ingress port 2, egress port 2: hairpin suppressed.
  EXPECT_TRUE(sw.inject(PacketBuilder().port(2).build()).empty());

  EXPECT_EQ(sw.rx_packets(1), 1u);
  EXPECT_EQ(sw.rx_packets(2), 1u);
  EXPECT_EQ(sw.tx_packets(2), 1u);
  EXPECT_EQ(sw.dropped(), 1u);
  sw.reset_counters();
  EXPECT_EQ(sw.rx_packets(1), 0u);
}

TEST(ArpTest, ResolveBindUnbind) {
  ArpResponder arp;
  auto ip = Ipv4Address::parse("172.16.0.1");
  auto mac = MacAddress(0x02'00'00'00'00'07ull);
  EXPECT_FALSE(arp.resolve(ip).has_value());
  arp.bind(ip, mac);
  EXPECT_EQ(arp.resolve(ip), mac);
  arp.bind(ip, MacAddress(0x02'00'00'00'00'08ull));  // rebind wins
  EXPECT_EQ(arp.resolve(ip)->bits(), 0x02'00'00'00'00'08ull);
  EXPECT_TRUE(arp.unbind(ip));
  EXPECT_FALSE(arp.unbind(ip));
  EXPECT_EQ(arp.queries(), 3u);
  EXPECT_EQ(arp.misses(), 1u);
}

class BorderRouterFixture : public ::testing::Test {
 protected:
  BorderRouterFixture()
      : router(65001, 3, MacAddress(0x00'16'3E'00'00'03ull),
               Ipv4Address::parse("10.0.0.3")) {
    bgp::UpdateMessage msg;
    bgp::RouteAttributes attrs;
    attrs.as_path = net::AsPath{65002};
    attrs.next_hop = Ipv4Address::parse("172.16.0.1");  // a VNH
    msg.attrs = attrs;
    msg.nlri = {Ipv4Prefix::parse("100.1.0.0/16")};
    router.process_update(msg);
    arp.bind(Ipv4Address::parse("172.16.0.1"),
             MacAddress(0x02'00'00'00'00'01ull));
  }
  ArpResponder arp;
  BorderRouter router;
};

TEST_F(BorderRouterFixture, TagsFramesWithResolvedVmac) {
  auto frame = router.forward(
      PacketBuilder().dst_ip("100.1.2.3").dst_port(80).build(), arp);
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->dst_mac().bits(), 0x02'00'00'00'00'01ull);
  EXPECT_EQ(frame->src_mac(), router.mac());
  EXPECT_EQ(frame->port(), 3u);
  EXPECT_EQ(frame->get(Field::kEthType), net::kEthTypeIpv4);
  EXPECT_EQ(router.forwarded(), 1u);
}

TEST_F(BorderRouterFixture, BlackholesWithoutRoute) {
  EXPECT_FALSE(
      router.forward(PacketBuilder().dst_ip("99.0.0.1").build(), arp));
  EXPECT_EQ(router.blackholed(), 1u);
}

TEST_F(BorderRouterFixture, BlackholesWithoutArpAnswer) {
  bgp::UpdateMessage msg;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{65003};
  attrs.next_hop = Ipv4Address::parse("172.16.9.9");  // unbound
  msg.attrs = attrs;
  msg.nlri = {Ipv4Prefix::parse("101.0.0.0/16")};
  router.process_update(msg);
  EXPECT_FALSE(
      router.forward(PacketBuilder().dst_ip("101.0.0.1").build(), arp));
}

TEST_F(BorderRouterFixture, WithdrawalRemovesFibEntry) {
  bgp::UpdateMessage msg;
  msg.withdrawn = {Ipv4Prefix::parse("100.1.0.0/16")};
  router.process_update(msg);
  EXPECT_FALSE(
      router.forward(PacketBuilder().dst_ip("100.1.2.3").build(), arp));
}

/// Every FIB entry of \p router, in prefix order.
std::vector<std::pair<Ipv4Prefix, bgp::RouteAttributes>> fib_of(
    const BorderRouter& router) {
  std::vector<std::pair<Ipv4Prefix, bgp::RouteAttributes>> out;
  router.rib().for_each(
      [&out](Ipv4Prefix prefix, const bgp::RouteAttributes& attrs) {
        out.emplace_back(prefix, attrs);
      });
  return out;
}

TEST_F(BorderRouterFixture, ReannouncementReplacesRouteInPlace) {
  const auto p = Ipv4Prefix::parse("100.2.0.0/16");
  bgp::UpdateMessage first;
  first.attrs.emplace();
  first.attrs->as_path = net::AsPath{65002, 65010, 65020};
  first.attrs->next_hop = Ipv4Address::parse("172.16.0.1");
  first.attrs->med = 50;
  first.attrs->communities = {bgp::make_community(65002, 1),
                              bgp::make_community(65002, 2)};
  first.nlri = {p};
  router.process_update(first);
  ASSERT_NE(router.rib().find(p), nullptr);
  EXPECT_EQ(*router.rib().find(p), *first.attrs);

  // Shorter path, no communities, no MED, new next hop: nothing of the
  // first announcement may survive the in-place replacement.
  bgp::UpdateMessage second;
  second.attrs.emplace();
  second.attrs->as_path = net::AsPath{65003};
  second.attrs->next_hop = Ipv4Address::parse("172.16.0.2");
  second.nlri = {p};
  router.process_update(second);
  ASSERT_NE(router.rib().find(p), nullptr);
  EXPECT_EQ(*router.rib().find(p), *second.attrs);
  EXPECT_EQ(router.rib().size(), 2u);
}

TEST_F(BorderRouterFixture, WithdrawThenReannounce) {
  const auto p = Ipv4Prefix::parse("100.1.0.0/16");
  bgp::UpdateMessage withdraw;
  withdraw.withdrawn = {p};
  router.process_update(withdraw);
  EXPECT_EQ(router.rib().find(p), nullptr);
  EXPECT_TRUE(router.rib().empty());

  bgp::UpdateMessage announce;
  announce.attrs.emplace();
  announce.attrs->as_path = net::AsPath{65004, 65005};
  announce.attrs->next_hop = Ipv4Address::parse("172.16.0.1");
  announce.attrs->communities = {bgp::kNoExport};
  announce.nlri = {p};
  router.process_update(announce);
  ASSERT_NE(router.rib().find(p), nullptr);
  EXPECT_EQ(*router.rib().find(p), *announce.attrs);
  EXPECT_TRUE(
      router.forward(PacketBuilder().dst_ip("100.1.2.3").build(), arp));
}

TEST_F(BorderRouterFixture, MixedUpdateWithdrawsAndAnnounces) {
  // One UPDATE withdraws the fixture's prefix, re-announces a second one
  // the router already holds, and announces a fresh one.
  const auto held = Ipv4Prefix::parse("100.1.0.0/16");
  const auto other = Ipv4Prefix::parse("100.3.0.0/16");
  const auto fresh = Ipv4Prefix::parse("100.4.0.0/24");
  bgp::UpdateMessage seed;
  seed.attrs.emplace();
  seed.attrs->as_path = net::AsPath{65002, 65009};
  seed.attrs->next_hop = Ipv4Address::parse("172.16.0.5");
  seed.attrs->communities = {bgp::make_community(65002, 7)};
  seed.nlri = {other};
  router.process_update(seed);

  bgp::UpdateMessage mixed;
  mixed.withdrawn = {held};
  mixed.attrs.emplace();
  mixed.attrs->as_path = net::AsPath{65006};
  mixed.attrs->next_hop = Ipv4Address::parse("172.16.0.6");
  mixed.attrs->local_pref = 200;
  mixed.nlri = {other, fresh};
  router.process_update(mixed);

  EXPECT_EQ(router.rib().find(held), nullptr);
  ASSERT_NE(router.rib().find(other), nullptr);
  EXPECT_EQ(*router.rib().find(other), *mixed.attrs);
  ASSERT_NE(router.rib().find(fresh), nullptr);
  EXPECT_EQ(*router.rib().find(fresh), *mixed.attrs);
  // Both prefixes of the UPDATE point at one attribute set.
  EXPECT_EQ(router.rib().find(other), router.rib().find(fresh));
  const std::vector<std::pair<Ipv4Prefix, bgp::RouteAttributes>> expected = {
      {other, *mixed.attrs}, {fresh, *mixed.attrs}};
  EXPECT_EQ(fib_of(router), expected);
}

TEST_F(BorderRouterFixture, AcceptsOwnMacAndBroadcastOnly) {
  EXPECT_TRUE(router.accepts(
      PacketBuilder().dst_mac(router.mac()).build()));
  EXPECT_TRUE(router.accepts(
      PacketBuilder().dst_mac(MacAddress::broadcast()).build()));
  EXPECT_FALSE(router.accepts(
      PacketBuilder().dst_mac(MacAddress(0x42)).build()));
}

/// Routers over one shared FIB index with randomized FIBs: a /0 default,
/// prefixes of every length nested over one address, random prefixes and
/// /32 host routes, and next hops of which some have no ARP binding.
/// Router 0 holds 10.1.0.0/16 but not the 10.1.2.0/24 that router 1 holds.
/// Next hop h resolves, when bound, to vmac(h).
struct SharedFibRouters {
  static constexpr std::size_t kRouters = 4;

  static MacAddress vmac(std::uint32_t h) {
    return MacAddress(0x02'00'00'00'01'00ull + h);
  }

  SharedFibRouters(std::uint64_t seed, ArpResponder& arp_table)
      : rng(seed), arp(arp_table) {
    for (std::uint32_t i = 0; i < kRouters; ++i) {
      routers.emplace_back(65001 + i, i + 1,
                           MacAddress(0x00'16'3E'00'00'10ull + i),
                           Ipv4Address(0x0A000001u + i), fib);
    }
    for (std::uint32_t h = 0; h < 8; ++h) {
      next_hops.emplace_back(0xAC100001u + h);
      if (h < 6) arp.bind(next_hops.back(), vmac(h));
    }
    pool.push_back(Ipv4Prefix::parse("0.0.0.0/0"));
    for (int len = 1; len <= 32; ++len) {
      pool.emplace_back(Ipv4Address(0xC0A80A05u), len);
    }
    for (int i = 0; i < 200; ++i) {
      const int len = i % 4 == 0 ? 32 : static_cast<int>(rng.range(8, 31));
      pool.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng())), len);
    }
    for (std::size_t r = 0; r < kRouters; ++r) {
      for (const auto& p : pool) {
        if (rng.below(3) != 0) announce(r, p);
      }
    }
    announce(0, Ipv4Prefix::parse("10.1.0.0/16"));
    announce(1, Ipv4Prefix::parse("10.1.2.0/24"));
    pool.push_back(Ipv4Prefix::parse("10.1.2.0/24"));
  }

  void announce(std::size_t r, Ipv4Prefix p) {
    bgp::UpdateMessage msg;
    msg.attrs.emplace();
    msg.attrs->as_path = net::AsPath{65100};
    msg.attrs->next_hop = next_hops[rng.below(next_hops.size())];
    msg.nlri = {p};
    routers[r].process_update(msg);
  }

  /// A burst of \p n payloads: most inside a pool prefix, some anywhere.
  std::vector<net::PacketHeader> burst(std::size_t n) {
    std::vector<net::PacketHeader> out;
    while (out.size() < n) {
      const Ipv4Prefix q = pool[rng.below(pool.size())];
      const auto r = static_cast<std::uint32_t>(rng());
      const std::uint32_t dst =
          rng.below(5) == 0 ? r : q.network().value() | (r & ~q.mask());
      out.push_back(PacketBuilder()
                        .dst_ip(Ipv4Address(dst))
                        .dst_port(static_cast<std::uint16_t>(rng.below(1024)))
                        .build());
    }
    return out;
  }

  net::SplitMix64 rng;
  std::shared_ptr<bgp::FibIndex> fib = std::make_shared<bgp::FibIndex>();
  std::vector<BorderRouter> routers;
  std::vector<Ipv4Address> next_hops;
  std::vector<Ipv4Prefix> pool;
  ArpResponder& arp;
};

TEST(BorderRouterBurst, FramesAndCountsLikeOneForwardPerPayload) {
  ArpResponder arp;
  SharedFibRouters net(97, arp);
  for (const std::size_t n : {0u, 1u, 64u, 65u, 200u}) {
    for (const BorderRouter& router : net.routers) {
      SCOPED_TRACE("burst of " + std::to_string(n) + " from AS" +
                   std::to_string(router.asn()));
      const auto payloads = net.burst(n);

      std::vector<net::PacketHeader> want;
      std::vector<std::uint32_t> want_origin;
      const auto fwd0 = router.forwarded(), hole0 = router.blackholed();
      const auto q0 = net.arp.queries(), m0 = net.arp.misses();
      for (std::size_t i = 0; i < n; ++i) {
        if (auto frame = router.forward(payloads[i], net.arp)) {
          want.push_back(*frame);
          want_origin.push_back(static_cast<std::uint32_t>(i));
        }
      }
      const auto fwd1 = router.forwarded(), hole1 = router.blackholed();
      const auto q1 = net.arp.queries(), m1 = net.arp.misses();

      std::vector<net::PacketHeader> got;
      std::vector<std::uint32_t> got_origin;
      router.forward(payloads, net.arp, got, got_origin);
      EXPECT_EQ(got, want);
      EXPECT_EQ(got_origin, want_origin);
      EXPECT_EQ(router.forwarded() - fwd1, fwd1 - fwd0);
      EXPECT_EQ(router.blackholed() - hole1, hole1 - hole0);
      EXPECT_EQ(net.arp.queries() - q1, q1 - q0);
      EXPECT_EQ(net.arp.misses() - m1, m1 - m0);
      if (n >= 64) {
        // The FIBs leave some payloads unrouted and some unresolved.
        EXPECT_GT(hole1 - hole0, 0u);
        EXPECT_GT(m1 - m0, 0u);
        EXPECT_GT(fwd1 - fwd0, 0u);
      }
    }
  }
}

TEST(FabricTest, SendBatchDeliversAndCountsLikeOneSendPerPayload) {
  Fabric fabric;
  SharedFibRouters net(98, fabric.arp());
  for (BorderRouter& r : net.routers) fabric.attach(r);
  // By tag: delivered and accepted at port 2 (dropped as a hairpin when
  // port 2 sends), delivered to port 2 untagged (not accepted), copied to
  // ports 3 and 4, sent to an unattached port, dropped, and one bound tag
  // with no rule (a table miss).
  auto& table = fabric.sdx_switch().table();
  const auto on = [](std::uint32_t h) {
    return FlowMatch::on(Field::kDstMac, SharedFibRouters::vmac(h).bits());
  };
  const auto to = [&](std::size_t r) {
    return ActionSeq::set(Field::kDstMac, net.routers[r].mac().bits())
        .then_set(Field::kPort, net.routers[r].port());
  };
  const auto install = [&](std::uint32_t h, std::vector<ActionSeq> actions) {
    FlowRule r = rule(5, on(h), 0);
    r.actions = std::move(actions);
    table.install(std::move(r));
  };
  install(0, {to(1)});
  table.install(rule(5, on(1), 2));
  install(2, {to(2), to(3)});
  table.install(rule(5, on(3), 9));
  install(4, {});

  struct Counts {
    std::vector<std::uint64_t> rx, tx;
    std::uint64_t dropped, matched, missed, queries, misses;
    bool operator==(const Counts&) const = default;
  };
  const auto counts = [&] {
    Counts c;
    for (net::PortId port = 1; port <= 9; ++port) {
      c.rx.push_back(fabric.sdx_switch().rx_packets(port));
      c.tx.push_back(fabric.sdx_switch().tx_packets(port));
    }
    c.dropped = fabric.sdx_switch().dropped();
    c.matched = table.total_matched();
    c.missed = table.total_missed();
    c.queries = fabric.arp().queries();
    c.misses = fabric.arp().misses();
    return c;
  };
  const auto delta = [](const Counts& a, const Counts& b) {
    Counts d = b;
    for (std::size_t i = 0; i < d.rx.size(); ++i) {
      d.rx[i] -= a.rx[i];
      d.tx[i] -= a.tx[i];
    }
    d.dropped -= a.dropped;
    d.matched -= a.matched;
    d.missed -= a.missed;
    d.queries -= a.queries;
    d.misses -= a.misses;
    return d;
  };
  const auto same = [](const Fabric::Delivery& a, const Fabric::Delivery& b) {
    return a.port == b.port && a.frame == b.frame && a.receiver == b.receiver &&
           a.accepted == b.accepted;
  };

  std::size_t delivered = 0, accepted_copies = 0;
  for (const std::size_t n : {0u, 1u, 64u, 65u, 200u}) {
    for (const BorderRouter& src : net.routers) {
      SCOPED_TRACE("burst of " + std::to_string(n) + " from AS" +
                   std::to_string(src.asn()));
      const auto payloads = net.burst(n);
      const Counts c0 = counts();
      std::vector<std::vector<Fabric::Delivery>> want;
      for (const auto& p : payloads) want.push_back(fabric.send(src, p));
      const Counts c1 = counts();
      const auto got = fabric.send_batch(src, payloads);
      const Counts c2 = counts();

      ASSERT_EQ(got.packets(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const auto of = got.of(i);
        ASSERT_EQ(of.size(), want[i].size()) << "payload " << i;
        for (std::size_t j = 0; j < of.size(); ++j) {
          EXPECT_TRUE(same(of[j], want[i][j])) << "payload " << i;
          accepted_copies += of[j].accepted;
        }
        delivered += !of.empty();
      }
      EXPECT_TRUE(delta(c1, c2) == delta(c0, c1));
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(accepted_copies, 0u);
  EXPECT_GT(fabric.sdx_switch().dropped(), 0u);
  EXPECT_GT(table.total_missed(), 0u);
  EXPECT_GT(fabric.arp().misses(), 0u);
}

TEST(FabricTest, AttachRejectsPortCollision) {
  Fabric fabric;
  BorderRouter r1(65001, 1, MacAddress(1), Ipv4Address::parse("10.0.0.1"));
  BorderRouter r2(65002, 1, MacAddress(2), Ipv4Address::parse("10.0.0.2"));
  fabric.attach(r1);
  EXPECT_THROW(fabric.attach(r2), std::invalid_argument);
  EXPECT_EQ(fabric.router_at(1), &r1);
  EXPECT_EQ(fabric.router_at(9), nullptr);
}

TEST(FabricTest, EndToEndSendDeliversAndMarksAcceptance) {
  Fabric fabric;
  BorderRouter src(65001, 1, MacAddress(0x00'16'3E'00'00'01ull),
                   Ipv4Address::parse("10.0.0.1"));
  BorderRouter dst(65002, 2, MacAddress(0x00'16'3E'00'00'02ull),
                   Ipv4Address::parse("10.0.0.2"));
  fabric.attach(src);
  fabric.attach(dst);

  // src learns a route whose next hop is dst's router address (plain IXP
  // peering, no VNH) — the fabric ARP table already has the binding.
  bgp::UpdateMessage msg;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{65002};
  attrs.next_hop = dst.ip();
  msg.attrs = attrs;
  msg.nlri = {Ipv4Prefix::parse("100.0.0.0/8")};
  src.process_update(msg);

  // Forwarding rule: anything addressed to dst's MAC goes to port 2.
  fabric.sdx_switch().table().install(
      rule(1, FlowMatch::on(Field::kDstMac, dst.mac().bits()), 2));

  auto deliveries =
      fabric.send(src, PacketBuilder().dst_ip("100.1.1.1").build());
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].port, 2u);
  EXPECT_EQ(deliveries[0].receiver, &dst);
  EXPECT_TRUE(deliveries[0].accepted);
}

TEST(FabricTest, DeliveryToUnattachedPortIsNotAccepted) {
  Fabric fabric;
  BorderRouter src(65001, 1, MacAddress(0x11), Ipv4Address::parse("10.0.0.1"));
  fabric.attach(src);
  fabric.sdx_switch().table().install(rule(1, FlowMatch::any(), 5));
  auto deliveries =
      fabric.inject(PacketBuilder().port(1).dst_ip("1.2.3.4").build());
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].receiver, nullptr);
  EXPECT_FALSE(deliveries[0].accepted);
}

}  // namespace
}  // namespace sdx::dp
