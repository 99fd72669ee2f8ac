/// SDX core tests: port map, VNH allocation, FEC/MDS (against the paper's
/// worked example), the optimized compiler end to end on the Figure-1
/// scenario, BGP-consistency and isolation invariants, and incremental
/// updates (fast path ≡ full recompilation).

#include <gtest/gtest.h>

#include <algorithm>

#include "netbase/rng.hpp"
#include "sdx/compiler.hpp"
#include "sdx/fec.hpp"
#include "sdx/oracle.hpp"
#include "sdx/port_map.hpp"
#include "sdx/runtime.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::core {
namespace {

using net::Field;
using net::Ipv4Address;
using net::Ipv4Prefix;
using net::PacketBuilder;
using net::PacketHeader;

// ---------------------------------------------------------------------------
// PortMap

TEST(PortMapTest, RegistersAndResolves) {
  PortMap pm;
  pm.register_participant(1, {10, 11});
  pm.register_participant(2, {20});
  EXPECT_TRUE(PortMap::is_virtual(pm.vport(1)));
  EXPECT_NE(pm.vport(1), pm.vport(2));
  EXPECT_EQ(pm.vport_owner(pm.vport(2)), 2u);
  EXPECT_EQ(pm.phys_owner(11), 1u);
  EXPECT_EQ(pm.phys_ports(1).size(), 2u);
  EXPECT_TRUE(pm.phys_ports(2).size() == 1 && pm.phys_ports(2)[0] == 20);
}

TEST(PortMapTest, RejectsDuplicatesAndBadIds) {
  PortMap pm;
  pm.register_participant(1, {10});
  EXPECT_THROW(pm.register_participant(1, {11}), std::invalid_argument);
  EXPECT_THROW(pm.register_participant(2, {10}), std::invalid_argument);
  EXPECT_THROW(pm.register_participant(3, {PortMap::kVirtualBase}),
               std::invalid_argument);
  EXPECT_THROW(pm.vport(9), std::out_of_range);
  EXPECT_THROW(pm.phys_owner(99), std::out_of_range);
}

// ---------------------------------------------------------------------------
// VnhAllocator

TEST(VnhAllocatorTest, AllocatesDistinctLocallyAdministeredPairs) {
  VnhAllocator alloc;
  auto a = alloc.allocate();
  auto b = alloc.allocate();
  EXPECT_NE(a.vnh, b.vnh);
  EXPECT_NE(a.vmac, b.vmac);
  EXPECT_TRUE(a.vmac.locally_administered());
  EXPECT_TRUE(alloc.pool().contains(a.vnh));
  EXPECT_EQ(alloc.allocated(), 2u);
  alloc.reset();
  EXPECT_EQ(alloc.allocate(), a);  // deterministic after reset
}

TEST(VnhAllocatorTest, ExhaustsSmallPool) {
  VnhAllocator alloc(Ipv4Prefix::parse("10.0.0.0/30"));
  for (int i = 0; i < 4; ++i) alloc.allocate();
  EXPECT_THROW(alloc.allocate(), std::length_error);
}

// ---------------------------------------------------------------------------
// FEC / minimum disjoint subsets — the paper's §4.2 worked example.

TEST(FecTest, PaperWorkedExample) {
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  const auto p3 = Ipv4Prefix::parse("100.3.0.0/16");
  const auto p4 = Ipv4Prefix::parse("100.4.0.0/16");

  // Pass-1 groups: {p1,p2,p3} (A's web policy via B) and {p1,p2,p3,p4}
  // (A's HTTPS policy via C).
  std::vector<ClauseReach> clauses(2);
  clauses[0].prefixes = {p1, p2, p3};
  clauses[1].prefixes = {p1, p2, p3, p4};

  // Pass-2 defaults: p1,p2,p4 default to C (id 3); p3 defaults to B (id 2).
  auto defaults = [&](Ipv4Prefix p) {
    DefaultVector d(1);
    d[0] = (p == p3) ? 2u : 3u;
    return d;
  };

  auto result = compute_fecs(clauses, defaults);
  // C' = {{p1,p2},{p3},{p4}} — "the only valid solution".
  ASSERT_EQ(result.group_count(), 3u);
  EXPECT_EQ(result.group_of.at(p1), result.group_of.at(p2));
  EXPECT_NE(result.group_of.at(p1), result.group_of.at(p3));
  EXPECT_NE(result.group_of.at(p1), result.group_of.at(p4));
  EXPECT_NE(result.group_of.at(p3), result.group_of.at(p4));

  const auto& g12 = result.groups[result.group_of.at(p1)];
  EXPECT_EQ(g12.prefixes, (std::vector<Ipv4Prefix>{p1, p2}));
  EXPECT_EQ(g12.clauses, (std::vector<std::uint32_t>{0, 1}));
  const auto& g4 = result.groups[result.group_of.at(p4)];
  EXPECT_EQ(g4.clauses, (std::vector<std::uint32_t>{1}));
}

TEST(FecTest, UntouchedPrefixesAreNotGrouped) {
  std::vector<ClauseReach> clauses(1);
  clauses[0].prefixes = {Ipv4Prefix::parse("10.0.0.0/8")};
  auto result = compute_fecs(clauses, [](Ipv4Prefix) {
    return DefaultVector{};
  });
  EXPECT_EQ(result.group_count(), 1u);
  EXPECT_FALSE(result.group_of.contains(Ipv4Prefix::parse("20.0.0.0/8")));
}

TEST(FecTest, EmptyInput) {
  auto result =
      compute_fecs({}, [](Ipv4Prefix) { return DefaultVector{}; });
  EXPECT_EQ(result.group_count(), 0u);
}

TEST(FecTest, DifferentDefaultsSplitGroups) {
  const auto p1 = Ipv4Prefix::parse("1.0.0.0/8");
  const auto p2 = Ipv4Prefix::parse("2.0.0.0/8");
  std::vector<ClauseReach> clauses(1);
  clauses[0].prefixes = {p1, p2};
  auto result = compute_fecs(clauses, [&](Ipv4Prefix p) {
    DefaultVector d(2);
    d[0] = 7u;
    d[1] = (p == p1) ? std::optional<ParticipantId>(8u) : std::nullopt;
    return d;
  });
  EXPECT_EQ(result.group_count(), 2u);
}

// ---------------------------------------------------------------------------
// ClauseMatch

TEST(ClauseMatchTest, PredicateAndDirectMatchAgree) {
  ClauseMatch m;
  m.dst_port(80).src(Ipv4Prefix::parse("96.0.0.0/8"));
  auto hit = PacketBuilder().dst_port(80).src_ip("96.1.2.3").build();
  auto miss = PacketBuilder().dst_port(80).src_ip("97.1.2.3").build();
  EXPECT_TRUE(m.matches(hit));
  EXPECT_FALSE(m.matches(miss));
  EXPECT_EQ(m.to_predicate().eval(hit), m.matches(hit));
  EXPECT_EQ(m.to_predicate().eval(miss), m.matches(miss));
}

// ---------------------------------------------------------------------------
// Figure 1 end-to-end fixture.

class Figure1 : public ::testing::Test {
 protected:
  Figure1()
      : p1(Ipv4Prefix::parse("100.1.0.0/16")),
        p2(Ipv4Prefix::parse("100.2.0.0/16")),
        p3(Ipv4Prefix::parse("100.3.0.0/16")),
        p4(Ipv4Prefix::parse("100.4.0.0/16")),
        p5(Ipv4Prefix::parse("100.5.0.0/16")) {
    a = rt.add_participant("A", 65001);
    b = rt.add_participant("B", 65002, /*port_count=*/2);
    c = rt.add_participant("C", 65003);

    // A: application-specific peering (web via B, HTTPS via C).
    rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                        OutboundClause{ClauseMatch{}.dst_port(443), c}});
    // B: inbound traffic engineering on the source half-spaces.
    rt.set_inbound(
        b, {InboundClause{ClauseMatch{}.src(Ipv4Prefix::parse("0.0.0.0/1")),
                          {},
                          0},
            InboundClause{
                ClauseMatch{}.src(Ipv4Prefix::parse("128.0.0.0/1")),
                {},
                1}});

    // Announcements shaped so A's best routes are p1,p2,p4 → C and p3 → B.
    rt.announce(b, p1, net::AsPath{65002, 900, 800, 10});
    rt.announce(b, p2, net::AsPath{65002, 900, 800, 20});
    rt.announce(b, p3, net::AsPath{65002, 30});
    rt.announce(c, p1, net::AsPath{65003, 10});
    rt.announce(c, p2, net::AsPath{65003, 20});
    rt.announce(c, p3, net::AsPath{65003, 700, 600, 30});
    rt.announce(c, p4, net::AsPath{65003, 40});
    rt.announce(a, p5, net::AsPath{65001, 50});
  }

  PacketHeader packet(const char* src, Ipv4Prefix dst_block,
                      std::uint64_t dst_port) {
    return PacketBuilder()
        .src_ip(src)
        .dst_ip(Ipv4Address(dst_block.network().value() + 0x0101))
        .proto(net::kProtoTcp)
        .dst_port(dst_port)
        .build();
  }

  /// The single delivery's egress port, or 0 when dropped.
  net::PortId egress_of(ParticipantId from, const PacketHeader& h) {
    auto deliveries = rt.send(from, h);
    if (deliveries.empty()) return 0;
    EXPECT_EQ(deliveries.size(), 1u) << "unexpected multicast";
    EXPECT_TRUE(deliveries[0].accepted)
        << "receiver would drop: " << deliveries[0].frame.to_string();
    return deliveries[0].port;
  }

  SdxRuntime rt;
  ParticipantId a = 0, b = 0, c = 0;
  Ipv4Prefix p1, p2, p3, p4, p5;
};

TEST_F(Figure1, CompilerReproducesPaperPrefixGroups) {
  const auto& compiled = rt.install();
  EXPECT_EQ(compiled.stats.prefix_groups, 3u);
  const auto& g = compiled.fecs.group_of;
  EXPECT_EQ(g.at(p1), g.at(p2));
  EXPECT_NE(g.at(p1), g.at(p3));
  EXPECT_NE(g.at(p1), g.at(p4));
  EXPECT_FALSE(g.contains(p5));  // untouched prefix: no VNH processing
}

TEST_F(Figure1, ClauseReachRespectsBgpExports) {
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server());
  const auto& A = rt.participant(a);
  auto web_reach = compiler.clause_reach(A, A.outbound[0]);
  EXPECT_EQ(web_reach, (std::vector<Ipv4Prefix>{p1, p2, p3}));
  auto https_reach = compiler.clause_reach(A, A.outbound[1]);
  EXPECT_EQ(https_reach, (std::vector<Ipv4Prefix>{p1, p2, p3, p4}));
}

TEST_F(Figure1, WebTrafficDivertsToBWithInboundTe) {
  rt.install();
  // Low source half → B's first port; high half → B's second port.
  const net::PortId b1 = rt.participant(b).ports[0].id;
  const net::PortId b2 = rt.participant(b).ports[1].id;
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p1, 80)), b1);
  EXPECT_EQ(egress_of(a, packet("200.1.1.1", p1, 80)), b2);
  // The paper's key subtlety: A's best route for p1 is C, yet web traffic
  // flows through B because B exported a route for p1.
}

TEST_F(Figure1, HttpsFollowsPolicyToC) {
  rt.install();
  const net::PortId c1 = rt.participant(c).ports[0].id;
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p2, 443)), c1);
}

TEST_F(Figure1, NonPolicyTrafficFollowsBgpDefault) {
  rt.install();
  const net::PortId b1 = rt.participant(b).ports[0].id;
  const net::PortId c1 = rt.participant(c).ports[0].id;
  // DNS to p1 defaults to C (A's best route).
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p1, 53)), c1);
  // DNS to p3 defaults to B — and B's inbound TE still applies.
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 53)), b1);
}

TEST_F(Figure1, PolicyNeverOverridesMissingExport) {
  rt.install();
  const net::PortId c1 = rt.participant(c).ports[0].id;
  // B did not export p4, so A's web policy must not divert it ("the SDX
  // should not direct traffic to a next-hop AS that does not want it").
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p4, 80)), c1);
}

TEST_F(Figure1, UntouchedPrefixUsesMacLearningPath) {
  rt.install();
  const net::PortId a1 = rt.participant(a).ports[0].id;
  // p5 is announced by A and touched by no policy: traffic from B and C
  // reaches A through the plain MAC-learning default.
  EXPECT_EQ(egress_of(b, packet("1.2.3.4", p5, 80)), a1);
  EXPECT_EQ(egress_of(c, packet("1.2.3.4", p5, 9999)), a1);
}

TEST_F(Figure1, SenderWithoutRouteBlackholes) {
  rt.install();
  // A announced p5 itself; the route server gives A nothing back for it.
  EXPECT_TRUE(rt.send(a, packet("1.2.3.4", p5, 80)).empty());
  EXPECT_GT(rt.router(a).blackholed(), 0u);
}

TEST_F(Figure1, EgressFramesCarryRealRouterMacs) {
  rt.install();
  auto deliveries = rt.send(a, packet("96.25.160.5", p1, 80));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].frame.dst_mac(),
            rt.participant(b).ports[0].router_mac);
  // The VMAC tag must not leak to the receiving router.
  EXPECT_FALSE(deliveries[0].frame.dst_mac().locally_administered());
}

TEST_F(Figure1, WithdrawalResynchronizesDataPlane) {
  rt.install();
  const net::PortId b1 = rt.participant(b).ports[0].id;
  const net::PortId c1 = rt.participant(c).ports[0].id;
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 80)), b1);

  // B withdraws p3 (the Fig. 5a event): web traffic must shift to C —
  // the policy can no longer use B, and the default flips to C too.
  rt.withdraw(b, p3);
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 80)), c1);
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 53)), c1);
  ASSERT_FALSE(rt.update_log().empty());

  // Background recompilation must not change behaviour.
  rt.background_recompile();
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 80)), c1);
}

TEST_F(Figure1, ReAnnouncementRestoresPolicyPath) {
  rt.install();
  const net::PortId b1 = rt.participant(b).ports[0].id;
  rt.withdraw(b, p3);
  rt.announce(b, p3, net::AsPath{65002, 30});
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p3, 80)), b1);
}

TEST_F(Figure1, FastPathInstallsAdditionalRules) {
  rt.install();
  auto& table = rt.fabric().sdx_switch().table();
  const std::size_t base_rules = table.size();
  rt.clear_update_log();
  // 100.6/16, announced by C alone, forwards exactly like p4: it joins
  // p4's compiled group — no VNH, no rules.
  const auto p6 = Ipv4Prefix::parse("100.6.0.0/16");
  rt.announce(c, p6, net::AsPath{65003, 60});
  ASSERT_EQ(rt.update_log().size(), 1u);
  EXPECT_EQ(rt.update_log()[0].additional_rules, 0u);
  EXPECT_EQ(table.size(), base_rules);
  EXPECT_EQ(rt.current_binding(p6), rt.current_binding(p4));
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p6, 443)),
            rt.participant(c).ports[0].id);
  // 100.7/16, announced by A alone, has a signature no compiled group has
  // (p5 has it too, but no clause reaches p5, so p5 is ungrouped): one
  // fresh binding and its default rules.
  const auto p7 = Ipv4Prefix::parse("100.7.0.0/16");
  rt.announce(a, p7, net::AsPath{65001, 70});
  ASSERT_EQ(rt.update_log().size(), 2u);
  EXPECT_GT(rt.update_log()[1].additional_rules, 0u);
  EXPECT_EQ(table.size(), base_rules + rt.update_log()[1].additional_rules);
  EXPECT_EQ(egress_of(c, packet("96.25.160.5", p7, 80)),
            rt.participant(a).ports[0].id);
  // Background pass coalesces back to a minimal table.
  rt.background_recompile();
  EXPECT_EQ(table.size(), rt.compiled().fabric.size());
}

TEST_F(Figure1, IsolationParticipantsCannotAffectOthersTraffic) {
  // C installs a policy trying to steer web traffic to itself; it must only
  // affect traffic C sends, not A's.
  rt.set_outbound(c, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.install();
  const net::PortId b1 = rt.participant(b).ports[0].id;
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p1, 80)), b1);
  // A's HTTPS still goes to C, untouched by C's clause.
  const net::PortId c1 = rt.participant(c).ports[0].id;
  EXPECT_EQ(egress_of(a, packet("96.25.160.5", p1, 443)), c1);
}

TEST_F(Figure1, ValidationRejectsBadClauses) {
  EXPECT_THROW(
      rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), a}}),
      std::invalid_argument);
  EXPECT_THROW(
      rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), 99}}),
      std::invalid_argument);
  EXPECT_THROW(
      rt.set_inbound(b, {InboundClause{ClauseMatch{}, {}, 7}}),
      std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Wide-area load balancing (Figure 4b) with a remote participant.

class WideAreaLb : public ::testing::Test {
 protected:
  WideAreaLb()
      : aws16(Ipv4Prefix::parse("74.125.0.0/16")),
        anycast(Ipv4Address::parse("74.125.1.1")),
        instance1(Ipv4Address::parse("74.125.224.161")),
        instance2(Ipv4Address::parse("74.125.137.139")) {
    a = rt.add_participant("A", 65001);
    b = rt.add_participant("B", 65002);
    d = rt.add_remote_participant("AWS-tenant", 65010);

    rt.announce(b, aws16, net::AsPath{65002, 16509});
    rt.announce(a, Ipv4Prefix::parse("204.57.0.0/16"),
                net::AsPath{65001});

    // The tenant rewrites anycast requests per client block (paper §3.1).
    rt.set_inbound(
        d,
        {InboundClause{ClauseMatch{}
                           .dst(Ipv4Prefix::host(anycast))
                           .src(Ipv4Prefix::parse("96.25.160.0/24")),
                       {{Field::kDstIp, instance1.value()}},
                       std::nullopt},
         InboundClause{ClauseMatch{}
                           .dst(Ipv4Prefix::host(anycast))
                           .src(Ipv4Prefix::parse("204.57.0.0/16")),
                       {{Field::kDstIp, instance2.value()}},
                       std::nullopt}});
    rt.install();
  }

  SdxRuntime rt;
  ParticipantId a = 0, b = 0, d = 0;
  Ipv4Prefix aws16;
  Ipv4Address anycast, instance1, instance2;
};

TEST_F(WideAreaLb, RewritesByClientBlockAndExitsViaCoveringRoute) {
  auto request = PacketBuilder()
                     .src_ip("96.25.160.7")
                     .dst_ip(anycast)
                     .proto(net::kProtoTcp)
                     .dst_port(80)
                     .build();
  auto deliveries = rt.send(a, request);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].port, rt.participant(b).ports[0].id);
  EXPECT_EQ(deliveries[0].frame.dst_ip(), instance1);
  EXPECT_TRUE(deliveries[0].accepted);

  auto request2 = PacketBuilder()
                      .src_ip("204.57.0.67")
                      .dst_ip(anycast)
                      .proto(net::kProtoTcp)
                      .dst_port(80)
                      .build();
  auto d2 = rt.send(a, request2);
  ASSERT_EQ(d2.size(), 1u);
  EXPECT_EQ(d2[0].frame.dst_ip(), instance2);
}

TEST_F(WideAreaLb, NonMatchingClientsPassThroughUnchanged) {
  auto request = PacketBuilder()
                     .src_ip("8.8.8.8")
                     .dst_ip(anycast)
                     .proto(net::kProtoTcp)
                     .dst_port(80)
                     .build();
  auto deliveries = rt.send(a, request);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].frame.dst_ip(), anycast);  // no rewrite
  EXPECT_EQ(deliveries[0].port, rt.participant(b).ports[0].id);
}

TEST_F(WideAreaLb, RemoteAnnouncementAttractsTraffic) {
  // The tenant originates a standalone anycast block at the SDX.
  const auto standalone = Ipv4Prefix::parse("198.18.0.0/24");
  const auto target = Ipv4Address::parse("198.18.0.1");
  rt.set_inbound(
      d, {InboundClause{ClauseMatch{}.dst(standalone),
                        {{Field::kDstIp, instance1.value()}},
                        std::nullopt}});
  rt.announce(d, standalone, net::AsPath{65010});
  rt.background_recompile();
  auto request =
      PacketBuilder().src_ip("1.1.1.1").dst_ip(target).dst_port(80).build();
  auto deliveries = rt.send(a, request);
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].frame.dst_ip(), instance1);
  EXPECT_EQ(deliveries[0].port, rt.participant(b).ports[0].id);
}

// ---------------------------------------------------------------------------
// Compiled fabric vs oracle, randomized.

class FabricVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricVsOracle, EndToEndBehaviourMatchesSpec) {
  net::SplitMix64 rng(GetParam());
  SdxRuntime rt;
  const int n = static_cast<int>(rng.range(3, 6));
  std::vector<ParticipantId> ids;
  for (int i = 0; i < n; ++i) {
    ids.push_back(rt.add_participant("P" + std::to_string(i),
                                     65000 + static_cast<net::Asn>(i),
                                     rng.chance(0.3) ? 2 : 1));
  }
  // Random announcements over a small prefix universe.
  std::vector<Ipv4Prefix> universe;
  for (int i = 0; i < 8; ++i) {
    universe.push_back(Ipv4Prefix(
        Ipv4Address((100u + static_cast<std::uint32_t>(i)) << 24), 16));
  }
  for (auto prefix : universe) {
    for (auto id : ids) {
      if (!rng.chance(0.45)) continue;
      std::vector<net::Asn> path{rt.participant(id).asn};
      for (std::size_t k = 0, e = rng.below(3); k < e; ++k) {
        path.push_back(static_cast<net::Asn>(rng.range(100, 60000)));
      }
      rt.announce(id, prefix, net::AsPath(path));
    }
  }
  // Random policies.
  for (auto id : ids) {
    std::vector<OutboundClause> out;
    for (std::size_t k = 0, e = rng.below(3); k < e; ++k) {
      ParticipantId to = ids[rng.below(ids.size())];
      if (to == id) continue;
      OutboundClause c;
      c.match.dst_port(rng.chance(0.5) ? 80 : 443);
      if (rng.chance(0.3)) {
        c.match.dst(universe[rng.below(universe.size())]);
      }
      c.to = to;
      out.push_back(std::move(c));
    }
    rt.set_outbound(id, std::move(out));
    if (rng.chance(0.4)) {
      std::vector<InboundClause> in;
      InboundClause c;
      c.match.src(Ipv4Prefix::parse(rng.chance(0.5) ? "0.0.0.0/1"
                                                    : "128.0.0.0/1"));
      c.to_port = rng.below(rt.participant(id).ports.size());
      in.push_back(std::move(c));
      rt.set_inbound(id, std::move(in));
    }
  }
  rt.install();

  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t si = rng.below(ids.size());
    const ParticipantId sender = ids[si];
    const std::size_t port_index =
        rng.below(rt.participant(sender).ports.size());
    auto h = PacketBuilder()
                 .src_ip(Ipv4Address(static_cast<std::uint32_t>(rng())))
                 .dst_ip(Ipv4Address(
                     ((100u + static_cast<std::uint32_t>(rng.below(10)))
                      << 24) |
                     static_cast<std::uint32_t>(rng.below(1 << 24))))
                 .proto(net::kProtoTcp)
                 .dst_port(rng.chance(0.5) ? 80 : (rng.chance(0.5) ? 443 : 53))
                 .build();
    auto expected = oracle_forward(rt.participants(), rt.ports(),
                                   rt.route_server(), sender, port_index, h);
    auto got = rt.send(sender, h, port_index);
    ASSERT_EQ(got.size(), expected.size())
        << "sender=" << sender << " packet=" << h.to_string();
    if (!expected.empty()) {
      EXPECT_EQ(got[0].port, expected[0].egress) << h.to_string();
      EXPECT_EQ(got[0].frame, expected[0].frame) << h.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricVsOracle,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808));

// Incremental fast path must preserve oracle equivalence (invariant 5).
class IncrementalVsOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IncrementalVsOracle, FastPathKeepsFabricInSyncWithBgp) {
  net::SplitMix64 rng(GetParam() * 31);
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002, 2);
  auto c = rt.add_participant("C", 65003);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                      OutboundClause{ClauseMatch{}.dst_port(443), c}});
  rt.set_inbound(
      b, {InboundClause{ClauseMatch{}.src(Ipv4Prefix::parse("0.0.0.0/1")),
                        {},
                        0}});
  std::vector<Ipv4Prefix> universe;
  for (int i = 0; i < 6; ++i) {
    universe.push_back(Ipv4Prefix(
        Ipv4Address((100u + static_cast<std::uint32_t>(i)) << 24), 16));
  }
  std::vector<ParticipantId> ids{a, b, c};
  for (auto prefix : universe) {
    rt.announce(ids[rng.below(3)], prefix);
  }
  rt.install();

  for (int round = 0; round < 15; ++round) {
    // A random announce or withdraw, then behavioural spot checks.
    const auto prefix = universe[rng.below(universe.size())];
    const auto who = ids[rng.below(3)];
    if (rng.chance(0.5)) {
      std::vector<net::Asn> path{rt.participant(who).asn};
      for (std::size_t k = 0, e = rng.below(3); k < e; ++k) {
        path.push_back(static_cast<net::Asn>(rng.range(100, 60000)));
      }
      rt.announce(who, prefix, net::AsPath(path));
    } else {
      rt.withdraw(who, prefix);
    }
    if (rng.chance(0.25)) rt.background_recompile();

    for (int trial = 0; trial < 30; ++trial) {
      const ParticipantId sender = ids[rng.below(3)];
      auto h = PacketBuilder()
                   .src_ip(Ipv4Address(static_cast<std::uint32_t>(rng())))
                   .dst_ip(Ipv4Address(
                       ((100u + static_cast<std::uint32_t>(rng.below(7)))
                        << 24) |
                       1))
                   .proto(net::kProtoTcp)
                   .dst_port(rng.chance(0.4) ? 80 : 53)
                   .build();
      auto expected = oracle_forward(rt.participants(), rt.ports(),
                                     rt.route_server(), sender, 0, h);
      auto got = rt.send(sender, h, 0);
      ASSERT_EQ(got.size(), expected.size())
          << "round " << round << " " << h.to_string();
      if (!expected.empty()) {
        EXPECT_EQ(got[0].port, expected[0].egress);
        EXPECT_EQ(got[0].frame, expected[0].frame);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalVsOracle,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace sdx::core
