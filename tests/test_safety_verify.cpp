/// Policy safety verification (verify/): the inter-participant forwarding
/// graph checker. Clean deployments prove loop-free/isolated/delivered at
/// every compile width; the three planted stale-state scenarios (a
/// two-participant forwarding loop, a prefix steered to a non-exporting
/// participant, a next-hop withdrawal blackhole) are each detected with a
/// counterexample packet that reproduces through FlowTable::process; the
/// incremental re-check covers exactly the dirty prefixes and answers its
/// "is this prefix known?" questions from live state, never by enumerating
/// the deployment; and walking once per rule hit reports exactly what
/// walking every class reports.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include <map>

#include "sdx/explain.hpp"
#include "sdx/runtime.hpp"
#include "verify/safety.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using net::PacketBuilder;
using verify::ViolationKind;

std::uint64_t counter(SdxRuntime& r, const char* name,
                      telemetry::Labels labels = {}) {
  return r.telemetry().metrics.counter(name, "", std::move(labels)).value();
}

/// The reproducible clean exchange: A steers port-80 traffic to B and
/// port-443 traffic to C; B and C announce.
void build_clean(SdxRuntime& r) {
  auto pa = r.add_participant("A", 65001);
  auto pb = r.add_participant("B", 65002);
  auto pc = r.add_participant("C", 65003);
  r.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pb},
                      OutboundClause{ClauseMatch{}.dst_port(443), pc}});
  r.announce(pb, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 7});
  r.announce(pb, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002, 7});
  r.announce(pc, Ipv4Prefix::parse("100.9.0.0/16"), net::AsPath{65003});
  r.install();
}

/// Every reported graph violation must carry a counterexample that (a) is a
/// live packet — the deployed flow table forwards it somewhere — and (b)
/// re-exhibits its violation kind when walked from its recorded framing.
void assert_replayable(SdxRuntime& rt, const verify::SafetyReport& report,
                       ViolationKind kind) {
  const auto view = rt.deployment_view();
  bool found = false;
  for (const auto& v : report.violations) {
    if (v.kind != kind) continue;
    ASSERT_TRUE(v.counterexample.has_value()) << v.what;
    const auto& cx = *v.counterexample;
    EXPECT_EQ(cx.packet.port(), cx.ingress_port);
    auto copies = rt.fabric().sdx_switch().table().process(cx.packet);
    EXPECT_FALSE(copies.empty())
        << "counterexample packet dies immediately: " << cx.to_string();
    const auto replayed = verify::replay(view, cx);
    EXPECT_TRUE(replayed.reproduces(kind))
        << "counterexample does not reproduce " << verify::kind_name(kind)
        << ": " << cx.to_string() << " — " << replayed.detail;
    found = true;
  }
  EXPECT_TRUE(found) << "no violation of kind " << verify::kind_name(kind);
}

// --- clean deployments ------------------------------------------------------

TEST(SafetyVerify, CleanScenarioPassesAtThreads1And8) {
  for (unsigned threads : {1u, 8u}) {
    CompileOptions options;
    options.threads = threads;
    SdxRuntime rt(bgp::DecisionConfig{}, options);
    rt.enable_verification();
    build_clean(rt);
    const auto& report = rt.last_safety_report();
    EXPECT_TRUE(report.ok()) << "threads=" << threads << "\n"
                             << report.to_string();
    EXPECT_FALSE(report.incremental);
    EXPECT_GT(report.classes_checked, 0u);
    EXPECT_EQ(report.prefixes_checked, 3u);
    EXPECT_GT(report.local_rules_checked, 0u);
  }
}

TEST(SafetyVerify, VerifyNowRunsWithoutEnabling) {
  SdxRuntime rt;
  build_clean(rt);
  EXPECT_FALSE(rt.verification_enabled());
  const auto report = rt.verify_now();
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.classes_checked, 0u);
  EXPECT_GT(report.local_rules_checked, 0u);
  EXPECT_EQ(counter(rt, "sdx_verify_runs_total", {{"mode", "full"}}), 0u)
      << "verify_now must not touch the stage telemetry";
}

/// Every traffic counter a safety probe could bump: the table's match and
/// miss totals, ARP queries and misses, each border router's forwarded and
/// blackholed counts, and each live rule's packet count (by rule).
struct TrafficCounters {
  std::vector<std::uint64_t> totals;
  std::map<const dp::FlowRule*, std::uint64_t> per_rule;
};

TrafficCounters traffic_counters(SdxRuntime& rt) {
  TrafficCounters c;
  const auto& table = rt.fabric().sdx_switch().table();
  c.totals = {table.total_matched(), table.total_missed(),
              rt.fabric().arp().queries(), rt.fabric().arp().misses()};
  for (const auto& p : rt.participants()) {
    for (std::size_t i = 0; i < p.ports.size(); ++i) {
      const auto& router = rt.router(p.id, i);
      c.totals.push_back(router.forwarded());
      c.totals.push_back(router.blackholed());
    }
  }
  for (const dp::FlowRule* r : table.rules()) {
    c.per_rule[r] = r->packet_count.value();
  }
  return c;
}

TEST(SafetyVerify, ProbesLeaveTrafficCountersAlone) {
  SdxRuntime rt;
  build_clean(rt);
  for (const std::uint16_t port : {80, 443, 53}) {
    for (const char* dst : {"100.1.0.7", "100.9.0.7", "198.51.100.7"}) {
      rt.send(1, PacketBuilder().dst_ip(dst).proto(6).dst_port(port).build());
    }
  }
  const auto before = traffic_counters(rt);
  ASSERT_GT(before.totals[0], 0u) << "the traffic must have hit the table";

  // A one-shot full check, an incremental stage over a fresh prefix (it
  // only adds rules, so every pre-existing rule stays live), and an
  // explanation.
  ASSERT_GT(rt.verify_now().classes_checked, 0u);
  rt.enable_verification();
  rt.enable_batching({0, 0});
  rt.announce(3, Ipv4Prefix::parse("100.7.0.0/16"), net::AsPath{65003});
  rt.flush();
  ASSERT_TRUE(rt.last_safety_report().incremental);
  ASSERT_GT(rt.last_safety_report().classes_checked, 0u);
  explain(rt, 1, PacketBuilder().dst_ip("100.1.0.7").dst_port(80).build());

  const auto after = traffic_counters(rt);
  EXPECT_EQ(after.totals, before.totals);
  for (const auto& [rule, count] : after.per_rule) {
    const auto it = before.per_rule.find(rule);
    EXPECT_EQ(count, it == before.per_rule.end() ? 0u : it->second)
        << rule->to_string();
  }
  for (const auto& [rule, count] : before.per_rule) {
    EXPECT_TRUE(after.per_rule.contains(rule)) << "a rule was removed";
  }
}

TEST(SafetyVerify, VerifyNowThrowsBeforeInstall) {
  SdxRuntime rt;
  rt.add_participant("A", 65001);
  EXPECT_THROW(rt.verify_now(), std::logic_error);
  EXPECT_THROW(rt.deployment_view(), std::logic_error);
}

TEST(SafetyVerify, CleanFastPathUpdatesStayClean) {
  SdxRuntime rt;
  rt.enable_verification();
  build_clean(rt);
  // Inline fast-path update: C takes over one of B's prefixes.
  rt.announce(3, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
  EXPECT_TRUE(rt.last_safety_report().incremental);
  // A legitimate withdrawal through the runtime (re-advertised everywhere)
  // is not a violation.
  rt.withdraw(3, Ipv4Prefix::parse("100.1.0.0/16"));
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
  // Batched burst.
  rt.enable_batching({0, 0});
  rt.announce(3, Ipv4Prefix::parse("100.7.0.0/16"), net::AsPath{65003});
  rt.announce(2, Ipv4Prefix::parse("100.8.0.0/16"), net::AsPath{65002, 7});
  rt.flush();
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
  // Full recompile supersedes everything.
  rt.background_recompile();
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
  EXPECT_FALSE(rt.last_safety_report().incremental);
}

TEST(SafetyVerify, CleanRemoteParticipantRewriteStaysClean) {
  // Wide-area anycast (Figure 4b): a remote tenant's inbound rewrites must
  // not read as blackholes — traffic toward a remote-only advertiser leaves
  // the model.
  SdxRuntime rt;
  rt.enable_verification();
  auto pa = rt.add_participant("A", 65001);
  auto pb = rt.add_participant("B", 65002);
  auto pd = rt.add_remote_participant("T", 65010);
  rt.announce(pb, Ipv4Prefix::parse("74.125.0.0/16"),
              net::AsPath{65002, 16509});
  rt.announce(pa, Ipv4Prefix::parse("204.57.0.0/16"), net::AsPath{65001});
  rt.announce(pd, Ipv4Prefix::parse("74.126.0.0/16"));
  rt.set_inbound(
      pd, {InboundClause{
              ClauseMatch{}.dst(Ipv4Prefix::parse("74.126.1.1/32")),
              {{Field::kDstIp, net::Ipv4Address::parse("74.125.3.9").value()}},
              std::nullopt}});
  rt.install();
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
}

TEST(SafetyVerify, PartitionedModeIncrementallyRechecksPolicyChanges) {
  CompileOptions options;
  options.partitioned = true;
  SdxRuntime rt(bgp::DecisionConfig{}, options);
  rt.enable_verification();
  build_clean(rt);
  const auto full_runs =
      counter(rt, "sdx_verify_runs_total", {{"mode", "full"}});
  EXPECT_GE(full_runs, 1u);
  // A post-install outbound change recompiles one partition and re-checks
  // only its affected prefixes.
  rt.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(53), 3}});
  EXPECT_TRUE(rt.last_safety_report().ok())
      << rt.last_safety_report().to_string();
  EXPECT_TRUE(rt.last_safety_report().incremental);
  EXPECT_GE(counter(rt, "sdx_verify_runs_total", {{"mode", "incremental"}}),
            1u);
  EXPECT_EQ(counter(rt, "sdx_verify_runs_total", {{"mode", "full"}}),
            full_runs);
}

// --- planted stale-state scenarios ------------------------------------------
//
// Violations require *stale* data-plane state: flow rules and router FIBs
// compiled against a RIB that changed afterwards. The plants below mutate
// the route server directly (rt.route_server().withdraw bypasses every
// runtime hook), which leaves the deployed tables exactly as a crashed or
// delayed control loop would.

TEST(SafetyVerify, PlantedTwoParticipantLoopIsDetected) {
  SdxRuntime rt;
  auto p1 = rt.add_participant("P1", 65001);
  auto p2 = rt.add_participant("P2", 65002);
  const auto q = Ipv4Prefix::parse("203.0.113.0/24");
  // Both transit-announce q, and each steers DNS traffic for it at the
  // other — legal while both advertise (steering at an advertiser), a cycle
  // the moment neither does.
  rt.announce(p1, q, net::AsPath{65001, 900});
  rt.announce(p2, q, net::AsPath{65002, 901});
  rt.set_outbound(p1, {OutboundClause{ClauseMatch{}.dst_port(53), p2}});
  rt.set_outbound(p2, {OutboundClause{ClauseMatch{}.dst_port(53), p1}});
  rt.install();
  EXPECT_TRUE(rt.verify_now().ok());

  rt.route_server().withdraw(p1, q);
  rt.route_server().withdraw(p2, q);

  const auto report = rt.verify_now();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.count(ViolationKind::kLoop), 1u) << report.to_string();
  assert_replayable(rt, report, ViolationKind::kLoop);
}

TEST(SafetyVerify, PlantedNonExportingSteeringIsAnIsolationBreach) {
  SdxRuntime rt;
  auto pa = rt.add_participant("A", 65001);
  auto pb = rt.add_participant("B", 65002);
  auto pc = rt.add_participant("C", 65003);
  const auto p = Ipv4Prefix::parse("100.1.0.0/16");
  rt.announce(pb, p);                           // origin
  rt.announce(pc, p, net::AsPath{65003, 65002});  // transit
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pc}});
  rt.install();
  EXPECT_TRUE(rt.verify_now().ok());

  // C's advertisement disappears behind the control loop's back: A's
  // steering rule now hands C traffic for a prefix C never exported to A.
  rt.route_server().withdraw(pc, p);

  const auto report = rt.verify_now();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.count(ViolationKind::kIsolation), 1u)
      << report.to_string();
  assert_replayable(rt, report, ViolationKind::kIsolation);
  (void)pa;
}

TEST(SafetyVerify, PlantedNextHopWithdrawalIsABlackhole) {
  SdxRuntime rt;
  auto pa = rt.add_participant("A", 65001);
  auto px = rt.add_participant("X", 65002);
  const auto p = Ipv4Prefix::parse("100.5.0.0/16");
  rt.announce(px, p);  // sole advertiser
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(8080), px}});
  rt.install();
  EXPECT_TRUE(rt.verify_now().ok());

  // The only route for p vanishes behind the back: A's router FIB and the
  // steering rules keep sending, X has nowhere to forward.
  rt.route_server().withdraw(px, p);

  const auto report = rt.verify_now();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.count(ViolationKind::kBlackhole), 1u)
      << report.to_string();
  assert_replayable(rt, report, ViolationKind::kBlackhole);
  (void)pa;
}

constexpr std::string_view kPerVariantReport =
    "safety report (full): 13 violation(s), 16 classes, 15 edges, 1 "
    "prefixes, 4 variants (0 unchecked), 0 rules audited\n"
    "  [isolation] class dst=100.1.0.0/16 variant#1 from A: D attracts "
    "traffic for 100.1.0.0/16 from A without exporting the prefix to it\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 4\n"
    "  [isolation] class dst=100.1.0.0/16 variant#1 from A: A attracts "
    "traffic for 100.1.0.0/16 from D without exporting the prefix to it\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 4 1\n"
    "  [loop] class dst=100.1.0.0/16 variant#1 from A: forwarding loop A -> "
    "D -> A\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 4 1\n"
    "  [isolation] class dst=100.1.0.0/16 variant#2 from A: C attracts "
    "traffic for 100.1.0.0/16 from A without exporting the prefix to it\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:80 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 3\n"
    "  [isolation] class dst=100.1.0.0/16 variant#3 from A: E attracts "
    "traffic for 100.1.0.0/16 from A without exporting the prefix to it\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:8080 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 5\n"
    "  [blackhole] class dst=100.1.0.0/16 variant#3 from A: E attracts "
    "traffic for 100.1.0.0/16 but its border router has no onward route "
    "(next hop withdrawn)\n"
    "    counterexample: packet {port=1 00:16:3e:00:00:01->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:8080 proto=0} ingress port 1 (sender 1, dst "
    "100.1.0.0/16), hops 1 5\n"
    "  [isolation] class dst=100.1.0.0/16 variant#1 from D: A attracts "
    "traffic for 100.1.0.0/16 from D without exporting the prefix to it\n"
    "    counterexample: packet {port=4 00:16:3e:00:00:04->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 4 (sender 4, dst "
    "100.1.0.0/16), hops 4 1\n"
    "  [isolation] class dst=100.1.0.0/16 variant#1 from D: D attracts "
    "traffic for 100.1.0.0/16 from A without exporting the prefix to it\n"
    "    counterexample: packet {port=4 00:16:3e:00:00:04->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 4 (sender 4, dst "
    "100.1.0.0/16), hops 4 1 4\n"
    "  [loop] class dst=100.1.0.0/16 variant#1 from D: forwarding loop D -> "
    "A -> D\n"
    "    counterexample: packet {port=4 00:16:3e:00:00:04->02:00:00:00:00:00 "
    "192.0.2.1:0 -> 100.1.0.1:53 proto=0} ingress port 4 (sender 4, dst "
    "100.1.0.0/16), hops 4 1 4\n"
    "  [blackhole] class dst=100.1.0.0/16 variant#0 from E: E's border "
    "router has a route but no ARP answer for its next hop\n"
    "  [blackhole] class dst=100.1.0.0/16 variant#1 from E: E's border "
    "router has a route but no ARP answer for its next hop\n"
    "  [blackhole] class dst=100.1.0.0/16 variant#2 from E: E's border "
    "router has a route but no ARP answer for its next hop\n"
    "  [blackhole] class dst=100.1.0.0/16 variant#3 from E: E's border "
    "router has a route but no ARP answer for its next hop\n";

/// The variants of one (sender, prefix) must each be checked, never merged.
/// A steers three transport ports for q at three transit members, whose
/// advertisements (and A's own) then vanish behind the control loop's back,
/// and E's router is left holding q toward a next hop nobody answers ARP
/// for:
///   port 80   → C: an isolation breach, then C's FIB re-enters the class
///               and its default reaches the origin B;
///   port 53   → D, whose own port-53 clause steers back at A: a loop;
///   port 8080 → E, whose FIB re-enters the class but cannot frame it: a
///               blackhole.
/// A breach precedes the loop and the blackhole: the walk re-enters only at
/// a member that no longer advertises q, and a member that does not
/// advertise q cannot export it either. E's own classes of q are a "route
/// but no ARP answer" blackhole each, and D's port-53 class loops back
/// through A. The pinned report is the one the checker gave when it framed
/// and walked every variant separately: framing once per (sender, prefix)
/// and walking once per rule hit must reproduce it byte for byte.
void plant_per_variant_faults(SdxRuntime& rt) {
  const auto pa = rt.add_participant("A", 65001);
  const auto pb = rt.add_participant("B", 65002);
  const auto pc = rt.add_participant("C", 65003);
  const auto pd = rt.add_participant("D", 65004);
  const auto pe = rt.add_participant("E", 65005);
  const auto q = Ipv4Prefix::parse("100.1.0.0/16");
  rt.announce(pb, q, net::AsPath{65002});
  for (auto [who, asn] : {std::pair{pa, 65001u}, {pc, 65003u}, {pd, 65004u},
                          {pe, 65005u}}) {
    rt.announce(who, q, net::AsPath{asn, 65002});
  }
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pc},
                       OutboundClause{ClauseMatch{}.dst_port(53), pd},
                       OutboundClause{ClauseMatch{}.dst_port(8080), pe}});
  rt.set_outbound(pd, {OutboundClause{ClauseMatch{}.dst_port(53), pa}});
  rt.install();
  verify::SafetyChecker checker;
  ASSERT_TRUE(checker.full(rt.deployment_view()).ok());

  for (auto who : {pa, pc, pd, pe}) rt.route_server().withdraw(who, q);
  bgp::UpdateMessage stale;
  stale.attrs.emplace().next_hop = net::Ipv4Address::parse("172.31.255.254");
  stale.nlri = {q};
  rt.router(pe).process_update(stale);
}

TEST(SafetyVerify, PlantedPerVariantFaultsAreReportedPerVariant) {
  SdxRuntime rt;
  plant_per_variant_faults(rt);
  verify::SafetyChecker checker;
  const auto view = rt.deployment_view();
  const auto report = checker.full(view);
  // Variants in canonical order: #0 the default, #1 port 53, #2 port 80,
  // #3 port 8080.
  const auto kinds_of = [&](const std::string& cls) {
    std::vector<ViolationKind> kinds;
    for (const auto& v : report.violations) {
      if (v.what.starts_with(cls + ":")) kinds.push_back(v.kind);
    }
    return kinds;
  };
  const std::string a = "class dst=100.1.0.0/16 variant#";
  EXPECT_TRUE(kinds_of(a + "0 from A").empty()) << report.to_string();
  EXPECT_EQ(kinds_of(a + "1 from A"),
            (std::vector{ViolationKind::kIsolation, ViolationKind::kIsolation,
                         ViolationKind::kLoop}))
      << report.to_string();
  EXPECT_EQ(kinds_of(a + "2 from A"),
            std::vector{ViolationKind::kIsolation})
      << report.to_string();
  EXPECT_EQ(kinds_of(a + "3 from A"),
            (std::vector{ViolationKind::kIsolation,
                         ViolationKind::kBlackhole}))
      << report.to_string();
  for (const auto& v : report.violations) {
    if (!v.counterexample) continue;
    EXPECT_TRUE(verify::replay(view, *v.counterexample).reproduces(v.kind))
        << v.what;
  }
  EXPECT_EQ(report.to_string(), kPerVariantReport);
}

/// Whether a member exported a prefix depends on the receiver, so one
/// prefix's walks must not share an answer across senders. S1 and S2 both
/// steer port 80 at X; behind the control loop's back X's route gains a
/// community that blocks S2 only. S2's stale steering rule is then a
/// breach, and S1's, walked first, is not.
TEST(SafetyVerify, PlantedPerPeerExportBlockIsCheckedPerSender) {
  SdxRuntime rt;
  const auto s1 = rt.add_participant("S1", 65001);
  const auto s2 = rt.add_participant("S2", 65002);
  const auto px = rt.add_participant("X", 65003);
  const auto po = rt.add_participant("O", 65004);
  const auto q = Ipv4Prefix::parse("100.1.0.0/16");
  rt.announce(po, q, net::AsPath{65004});
  rt.announce(px, q, net::AsPath{65003, 65004});
  for (auto who : {s1, s2}) {
    rt.set_outbound(who, {OutboundClause{ClauseMatch{}.dst_port(80), px}});
  }
  rt.install();
  verify::SafetyChecker checker;
  ASSERT_TRUE(checker.full(rt.deployment_view()).ok());

  const auto* routes = rt.route_server().candidates(q);
  ASSERT_NE(routes, nullptr);
  const auto via_x = std::find_if(routes->begin(), routes->end(),
                                  [&](const auto& r) {
                                    return r.learned_from == px;
                                  });
  ASSERT_NE(via_x, routes->end());
  bgp::Route blocked = *via_x;
  blocked.attrs.communities.push_back(bgp::make_community(0, 65002));
  rt.route_server().announce(blocked);

  const auto view = rt.deployment_view();
  const auto report = checker.full(view);
  ASSERT_EQ(report.violations.size(), 1u) << report.to_string();
  const auto& v = report.violations.front();
  EXPECT_EQ(v.kind, ViolationKind::kIsolation);
  EXPECT_EQ(v.what,
            "class dst=100.1.0.0/16 variant#1 from S2: X attracts traffic "
            "for 100.1.0.0/16 from S2 without exporting the prefix to it");
  ASSERT_TRUE(v.counterexample.has_value());
  EXPECT_TRUE(verify::replay(view, *v.counterexample).reproduces(v.kind));
}

// --- incremental re-check ---------------------------------------------------

TEST(SafetyVerify, IncrementalRecheckCoversExactlyDirtyPrefixes) {
  SdxRuntime rt;
  rt.enable_verification();
  build_clean(rt);
  const auto full = rt.last_safety_report();
  EXPECT_FALSE(full.incremental);
  const auto full_classes = full.classes_checked;

  // One dirty prefix: the stage re-walks it and reassembles the rest from
  // cache — total coverage unchanged, work bounded by one prefix.
  rt.announce(3, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  const auto incr = rt.last_safety_report();
  EXPECT_TRUE(incr.incremental);
  EXPECT_TRUE(incr.ok()) << incr.to_string();
  EXPECT_GE(incr.classes_checked, full_classes);
  EXPECT_EQ(counter(rt, "sdx_verify_runs_total", {{"mode", "incremental"}}),
            1u);
  // The incremental reassembly covers exactly what a fresh full pass sees.
  const auto fresh = rt.verify_now();
  EXPECT_EQ(incr.prefixes_checked, fresh.prefixes_checked);
  EXPECT_EQ(incr.classes_checked, fresh.classes_checked);
  EXPECT_EQ(incr.edges_walked, fresh.edges_walked);
}

TEST(SafetyVerify, StandaloneCheckerIncrementalDropsDepartedPrefixes) {
  SdxRuntime rt;
  build_clean(rt);
  verify::SafetyChecker checker;
  const auto view = rt.deployment_view();
  auto report = checker.full(view);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.prefixes_checked, 3u);

  // A prefix that leaves every RIB and FIB drops out of the cached report.
  const auto gone = Ipv4Prefix::parse("100.9.0.0/16");
  rt.withdraw(3, gone);
  report = checker.incremental(rt.deployment_view(), {gone});
  EXPECT_TRUE(report.incremental);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.prefixes_checked, 2u);
}

TEST(SafetyVerify, StaleFibPrefixStaysInTheIncrementalProof) {
  SdxRuntime rt;
  auto pa = rt.add_participant("A", 65001);
  auto px = rt.add_participant("X", 65002);
  const auto p = Ipv4Prefix::parse("100.5.0.0/16");
  rt.announce(px, p);  // sole advertiser
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(8080), px}});
  rt.install();
  verify::SafetyChecker checker;
  const auto view = rt.deployment_view();
  const auto primed = checker.full(view);
  ASSERT_TRUE(primed.ok()) << primed.to_string();

  // p leaves the route server but survives in A's FIB: it is still known,
  // so the incremental pass must re-walk it, not evict it.
  rt.route_server().withdraw(px, p);
  const auto report = checker.incremental(view, {p});
  EXPECT_EQ(report.prefixes_checked, primed.prefixes_checked);
  EXPECT_GE(report.count(ViolationKind::kBlackhole), 1u)
      << report.to_string();
  assert_replayable(rt, report, ViolationKind::kBlackhole);
}

// --- live known-prefix queries ----------------------------------------------

/// Brute force over the enumerated union: the longest known prefix holding
/// \p addr.
std::optional<Ipv4Prefix> covering_in(const std::vector<Ipv4Prefix>& known,
                                      net::Ipv4Address addr) {
  std::optional<Ipv4Prefix> best;
  for (auto p : known) {
    if (p.contains(addr) && (!best || p.length() > best->length())) best = p;
  }
  return best;
}

TEST(SafetyVerify, LiveKnownQueriesEqualTheEnumeratedUnion) {
  SdxRuntime rt;
  auto pa = rt.add_participant("A", 65001);
  auto pb = rt.add_participant("B", 65002);
  auto pc = rt.add_participant("C", 65003);
  auto pt = rt.add_remote_participant("T", 65010);
  const auto wide = Ipv4Prefix::parse("100.1.0.0/16");
  const auto narrow = Ipv4Prefix::parse("100.1.5.0/24");
  const auto stale = Ipv4Prefix::parse("100.1.7.0/24");
  rt.announce(pb, wide, net::AsPath{65002, 7});
  rt.announce(pc, narrow, net::AsPath{65003});
  rt.announce(pc, stale, net::AsPath{65003});
  rt.announce(pa, Ipv4Prefix::parse("204.57.0.0/16"), net::AsPath{65001});
  rt.announce(pt, Ipv4Prefix::parse("74.126.0.0/16"));
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pc}});
  rt.install();
  // Behind the runtime's back: `stale` now lives only in router FIBs.
  rt.route_server().withdraw(pc, stale);

  const auto view = rt.deployment_view();
  const auto known = view.known_prefixes();
  ASSERT_NE(std::find(known.begin(), known.end(), stale), known.end())
      << "the FIB-only prefix must stay in the union";
  ASSERT_EQ(rt.route_server().candidates(stale), nullptr);

  auto probes = known;
  for (const char* absent : {"100.1.0.0/17", "100.1.5.0/25", "100.0.0.0/8",
                             "10.0.0.0/8", "0.0.0.0/0", "100.1.7.9/32"}) {
    const auto q = Ipv4Prefix::parse(absent);
    ASSERT_EQ(std::find(known.begin(), known.end(), q), known.end()) << absent;
    probes.push_back(q);
  }
  for (auto q : probes) {
    const bool in_union =
        std::find(known.begin(), known.end(), q) != known.end();
    EXPECT_EQ(view.is_known(q), in_union) << q.to_string();
  }

  std::mt19937 rng(7);
  std::vector<net::Ipv4Address> addrs;
  for (int i = 0; i < 200; ++i) addrs.emplace_back(rng());
  for (auto q : known) {
    const std::uint32_t host_mask = q.length() == 32 ? 0u : ~0u >> q.length();
    for (int i = 0; i < 8; ++i) {
      addrs.emplace_back(q.network().value() | (rng() & host_mask));
    }
  }
  for (auto a : addrs) {
    EXPECT_EQ(view.known_covering(a), covering_in(known, a)) << a.to_string();
  }
  // The FIB-only /24 beats the server's /16 around it.
  EXPECT_EQ(view.known_covering(net::Ipv4Address::parse("100.1.7.9")), stale);
}

TEST(SafetyVerify, StageCountsEachPassAndGaugesTheProof) {
  SdxRuntime rt;
  rt.enable_verification();
  build_clean(rt);
  // Three senders × three prefixes, each routed by the two members that do
  // not announce it, × three variants (the default, port 80, port 443). A
  // clean walk ends in one hop and re-enters no router, so a prefix costs
  // one framing per sender, and each class one rule lookup. B and C steer
  // nothing, so each of their (sender, prefix) pairs hits one rule and is
  // walked once; A's classes hit its default rule and, where the steered
  // member exports the prefix, its port-80 or port-443 rule: two walks per
  // prefix. The proof still counts one edge per class.
  const auto full = rt.last_safety_report();
  EXPECT_EQ(full.classes_checked, 18u);
  EXPECT_EQ(full.edges_walked, 18u);
  EXPECT_EQ(full.work.classes, full.classes_checked);
  EXPECT_EQ(full.work.lookups, 18u);
  EXPECT_EQ(full.work.edges, 9u);
  EXPECT_EQ(full.work.framings, 9u);

  // One dirty prefix, now announced by B and C, so all three members route
  // it: the pass checks its nine classes alone and reports the whole proof.
  // A's three classes now hit three rules; B's and C's one each.
  rt.announce(3, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  const auto incr = rt.last_safety_report();
  ASSERT_TRUE(incr.incremental);
  EXPECT_EQ(incr.classes_checked, 21u);
  EXPECT_EQ(incr.edges_walked, 21u);
  EXPECT_EQ(incr.work.classes, 9u);
  EXPECT_EQ(incr.work.lookups, 9u);
  EXPECT_EQ(incr.work.edges, 5u);
  EXPECT_EQ(incr.work.framings, 3u);

  EXPECT_EQ(counter(rt, "sdx_verify_classes_total"),
            full.work.classes + incr.work.classes);
  EXPECT_EQ(counter(rt, "sdx_verify_edges_total"),
            full.work.edges + incr.work.edges);
  EXPECT_EQ(counter(rt, "sdx_verify_framings_total"),
            full.work.framings + incr.work.framings);
  EXPECT_EQ(counter(rt, "sdx_verify_lookups_total"),
            full.work.lookups + incr.work.lookups);
  auto& metrics = rt.telemetry().metrics;
  EXPECT_EQ(metrics.gauge("sdx_verify_classes").value(),
            static_cast<double>(incr.classes_checked));
  EXPECT_EQ(metrics.gauge("sdx_verify_edges").value(),
            static_cast<double>(incr.edges_walked));
}

TEST(SafetyVerify, IncrementalStageNeverEnumeratesTheDeployment) {
  SdxRuntime rt;
  auto p1 = rt.add_participant("P1", 65001);
  auto p2 = rt.add_participant("P2", 65002);
  const auto q = Ipv4Prefix::parse("203.0.113.0/24");
  const auto other = Ipv4Prefix::parse("198.51.100.0/24");
  rt.announce(p1, q, net::AsPath{65001, 900});
  rt.announce(p2, q, net::AsPath{65002, 901});
  rt.announce(p2, other, net::AsPath{65002});
  rt.set_outbound(p1, {OutboundClause{ClauseMatch{}.dst_port(53), p2}});
  rt.set_outbound(p2, {OutboundClause{ClauseMatch{}.dst_port(53), p1}});
  rt.install();

  std::size_t enumerations = 0;
  std::size_t membership_queries = 0;
  auto view = rt.deployment_view();
  view.known_prefixes = [&, inner = view.known_prefixes] {
    ++enumerations;
    return inner();
  };
  view.is_known = [&, inner = view.is_known](Ipv4Prefix p) {
    ++membership_queries;
    return inner(p);
  };
  verify::SafetyChecker checker;
  ASSERT_TRUE(checker.full(view).ok());
  EXPECT_EQ(enumerations, 1u) << "the full pass enumerates once";

  rt.route_server().withdraw(p1, q);
  rt.route_server().withdraw(p2, q);
  enumerations = 0;
  const auto gone = Ipv4Prefix::parse("192.0.2.0/24");
  const auto report = checker.incremental(view, {q, other, q, gone, other});
  EXPECT_EQ(enumerations, 0u);
  EXPECT_EQ(membership_queries, 3u) << "once per distinct dirty prefix";
  ASSERT_GE(report.count(ViolationKind::kLoop), 1u) << report.to_string();

  for (const auto& v : report.violations) {
    if (!v.counterexample) continue;
    EXPECT_TRUE(verify::replay(view, *v.counterexample).reproduces(v.kind))
        << v.what;
  }
  EXPECT_EQ(enumerations, 0u) << "replay must not enumerate either";
}

constexpr std::size_t kRingMembers = 5;
constexpr std::uint32_t kRingPrefixes = 24;

/// Disjoint /24s: 100.7.<i>.0/24.
Ipv4Prefix ring_prefix(std::uint32_t i) {
  return Ipv4Prefix(net::Ipv4Address((100u << 24) | (7u << 16) | (i << 8)),
                    24);
}

/// kRingMembers members, every other one steering ports 80 and 443 at its
/// clockwise neighbour, and every other ring prefix announced; installed,
/// with each update queued until the next flush.
void deploy_ring(SdxRuntime& rt) {
  for (std::size_t j = 1; j <= kRingMembers; ++j) {
    rt.add_participant("P" + std::to_string(j),
                       static_cast<net::Asn>(65000 + j));
  }
  for (std::size_t j = 1; j <= kRingMembers; j += 2) {
    const auto to = static_cast<bgp::ParticipantId>(j % kRingMembers + 1);
    rt.set_outbound(static_cast<bgp::ParticipantId>(j),
                    {OutboundClause{ClauseMatch{}.dst_port(80), to},
                     OutboundClause{ClauseMatch{}.dst_port(443), to}});
  }
  for (std::uint32_t i = 0; i < kRingPrefixes; i += 2) {
    rt.announce(
        static_cast<bgp::ParticipantId>(i % kRingMembers + 1), ring_prefix(i),
        net::AsPath{static_cast<net::Asn>(65000 + i % kRingMembers + 1)});
  }
  rt.install();
  rt.enable_batching({0, 0});
}

constexpr std::uint32_t kChurnSeed = 20240517;
constexpr int kChurnSteps = 200;

/// One step of the seeded ring churn: an announce, a withdrawal or a
/// flush. True when the step flushed.
bool churn_step(SdxRuntime& rt, std::mt19937& rng) {
  const auto who = static_cast<bgp::ParticipantId>(rng() % kRingMembers + 1);
  const auto prefix = ring_prefix(rng() % kRingPrefixes);
  switch (rng() % 3) {
    case 0:
      rt.announce(who, prefix,
                  net::AsPath{static_cast<net::Asn>(65000 + who),
                              static_cast<net::Asn>(1000 + rng() % 5)});
      return false;
    case 1:
      rt.withdraw(who, prefix);
      return false;
    default:
      rt.flush();
      return true;
  }
}

TEST(SafetyVerify, ChurnIncrementalReportsEqualFreshFullPasses) {
  SdxRuntime rt;
  rt.enable_verification();
  deploy_ring(rt);

  const auto graph_violations = [](const verify::SafetyReport& r) {
    std::vector<std::pair<ViolationKind, std::string>> out;
    for (const auto& v : r.violations) {
      if (v.counterexample) out.emplace_back(v.kind, v.what);
    }
    return out;
  };
  std::mt19937 rng(kChurnSeed);
  std::size_t compared = 0;
  for (int op = 0; op < kChurnSteps; ++op) {
    if (!churn_step(rt, rng)) continue;
    const auto staged = rt.last_safety_report();
    const auto fresh = rt.verify_now();
    EXPECT_EQ(staged.prefixes_checked, fresh.prefixes_checked) << op;
    EXPECT_EQ(staged.classes_checked, fresh.classes_checked) << op;
    EXPECT_EQ(staged.edges_walked, fresh.edges_walked) << op;
    EXPECT_EQ(graph_violations(staged), graph_violations(fresh)) << op;
    compared += staged.incremental ? 1 : 0;
  }
  EXPECT_GT(compared, 20u) << "the churn must stage incremental checks";
}

/// The checker frames one representative per (sender, prefix) and copies
/// its source MAC, destination MAC, ethertype and port onto every header
/// variant of the prefix (DeploymentView::forward). That is sound only
/// while framing reads the destination address and nothing else, and
/// writes those four fields and nothing else. Over a churned deployment
/// with a FIB-only prefix and an ARP-less next hop, every local sender must
/// frame every known prefix alike, whatever the rest of the payload holds.
TEST(SafetyVerify, FramingReadsOnlyTheDestination) {
  SdxRuntime rt;
  deploy_ring(rt);
  std::mt19937 rng(5);
  for (int op = 0; op < 120; ++op) {
    const auto who = static_cast<bgp::ParticipantId>(rng() % kRingMembers + 1);
    const auto prefix = ring_prefix(rng() % kRingPrefixes);
    if (rng() % 2 == 0) {
      rt.announce(who, prefix,
                  net::AsPath{static_cast<net::Asn>(65000 + who),
                              static_cast<net::Asn>(1000 + rng() % 5)});
    } else {
      rt.withdraw(who, prefix);
    }
    if (op % 8 == 7) rt.flush();
  }
  rt.flush();
  // Stale state: drop a prefix behind the runtime's back (only FIBs still
  // hold it), and the ARP answer of one next hop some router uses.
  const auto view = rt.deployment_view();
  const auto known = view.known_prefixes();
  const auto sole = std::find_if(known.begin(), known.end(), [&](auto prefix) {
    const auto* routes = rt.route_server().candidates(prefix);
    return routes != nullptr && routes->size() == 1;
  });
  ASSERT_NE(sole, known.end());
  rt.route_server().withdraw(
      rt.route_server().candidates(*sole)->front().learned_from, *sole);
  const bgp::RouteAttributes* route = nullptr;
  for (const auto& p : rt.participants()) {
    if ((route = rt.router(p.id).rib().find(known.back())) != nullptr) break;
  }
  ASSERT_NE(route, nullptr);
  ASSERT_TRUE(rt.fabric().arp().unbind(route->next_hop));

  // Each deployed clause's transport fields; every field but the
  // destination set alone to a few small values; then random headers with
  // every field but the destination scrambled.
  std::vector<net::PacketHeader> payloads;
  for (const std::uint16_t port : {80, 443}) {
    payloads.push_back(PacketBuilder().proto(6).dst_port(port).build());
  }
  for (auto field : net::kAllFields) {
    for (std::uint64_t value : {1, 6, 7, 17, 53, 80, 443, 8080, 0x0800}) {
      net::PacketHeader h;
      h.set(field, value);
      payloads.push_back(h);
    }
  }
  for (int i = 0; i < 8; ++i) {
    net::PacketHeader h;
    for (auto field : net::kAllFields) h.set(field, rng() & 0xffff'ffffu);
    payloads.push_back(h);
  }
  constexpr std::array kL2 = {net::Field::kSrcMac, net::Field::kDstMac,
                              net::Field::kEthType, net::Field::kPort};
  std::size_t framed = 0, unframed = 0, unrouted = 0;
  for (const auto& p : rt.participants()) {
    for (auto prefix : known) {
      net::PacketHeader bare;
      bare.set_dst_ip(net::Ipv4Address(prefix.network().value() | 1u));
      const auto want = view.forward(p.id, bare);
      ++(want.frame ? framed : want.routed ? unframed : unrouted);
      for (auto payload : payloads) {
        payload.set_dst_ip(bare.dst_ip());
        const auto got = view.forward(p.id, payload);
        ASSERT_EQ(got.routed, want.routed) << prefix.to_string();
        ASSERT_EQ(got.frame.has_value(), want.frame.has_value())
            << prefix.to_string();
        if (!got.frame) continue;
        for (auto field : net::kAllFields) {
          const bool l2 = std::find(kL2.begin(), kL2.end(), field) != kL2.end();
          EXPECT_EQ(got.frame->get(field),
                    (l2 ? *want.frame : payload).get(field))
              << net::field_name(field) << " from " << p.name << " for "
              << prefix.to_string();
        }
      }
    }
  }
  EXPECT_GT(framed, 0u);
  EXPECT_GT(unframed, 0u);
  EXPECT_GT(unrouted, 0u);
}

// --- one walk per rule hit ---------------------------------------------------

/// \p view with a fresh rule identity for every lookup: no two classes
/// share a walk, so the checker walks each one itself.
verify::DeploymentView ungrouped(verify::DeploymentView view) {
  view.rule_of = [next = std::uintptr_t{0}](const net::PacketHeader&) mutable {
    return ++next;
  };
  return view;
}

/// A full pass over \p view must report exactly what the same pass reports
/// when it walks every class: the same text and the same counterexamples.
/// Returns the grouped report.
verify::SafetyReport expect_grouping_invisible(
    const verify::DeploymentView& view, const std::string& where) {
  verify::SafetyChecker grouped_checker;
  verify::SafetyChecker each_checker;
  const auto grouped = grouped_checker.full(view);
  const auto each = each_checker.full(ungrouped(view));
  EXPECT_EQ(grouped.to_string(), each.to_string()) << where;
  // The reference really walked every class, and grouping only saves.
  EXPECT_EQ(each.work.edges, each.edges_walked) << where;
  EXPECT_LE(grouped.work.edges, each.work.edges) << where;
  EXPECT_EQ(grouped.work.lookups, each.work.lookups) << where;
  EXPECT_EQ(grouped.violations.size(), each.violations.size()) << where;
  for (std::size_t i = 0;
       i < std::min(grouped.violations.size(), each.violations.size()); ++i) {
    const auto& got = grouped.violations[i].counterexample;
    const auto& want = each.violations[i].counterexample;
    EXPECT_EQ(got.has_value(), want.has_value()) << where << " #" << i;
    if (!got || !want) continue;
    for (auto field : net::kAllFields) {
      EXPECT_EQ(got->packet.get(field), want->packet.get(field))
          << where << " #" << i << " " << net::field_name(field);
    }
    EXPECT_EQ(got->ingress_port, want->ingress_port) << where << " #" << i;
    EXPECT_EQ(got->sender, want->sender) << where << " #" << i;
    EXPECT_EQ(got->prefix, want->prefix) << where << " #" << i;
    EXPECT_EQ(got->hops, want->hops) << where << " #" << i;
  }
  return grouped;
}

/// Walking once per rule hit is invisible in every report: on the planted
/// per-variant faults; on classes that share their first rule, re-enter a
/// router and part ways at the second hop; and after every flush of the
/// seeded ring churn.
TEST(SafetyVerify, GroupedWalksEqualPerVariantWalks) {
  {
    SdxRuntime rt;
    plant_per_variant_faults(rt);
    expect_grouping_invisible(rt.deployment_view(), "per-variant faults");
  }
  {
    // A's best route for q is X's. X steers port 80 at B and port 443 at
    // C; behind the control loop's back X and C stop advertising q. Every
    // class A sends for q hits A's one default rule toward X and re-enters
    // through X's FIB; there port 443 goes to C, which re-enters toward X
    // again (a loop), while the rest reach the origin B.
    SdxRuntime rt;
    const auto pa = rt.add_participant("A", 65001);
    const auto px = rt.add_participant("X", 65002);
    const auto pb = rt.add_participant("B", 65003);
    const auto pc = rt.add_participant("C", 65004);
    const auto q = Ipv4Prefix::parse("100.1.0.0/16");
    rt.announce(px, q, net::AsPath{65002});
    rt.announce(pb, q, net::AsPath{65003, 7});
    rt.announce(pc, q, net::AsPath{65004, 7, 8});
    rt.set_outbound(px, {OutboundClause{ClauseMatch{}.dst_port(80), pb},
                         OutboundClause{ClauseMatch{}.dst_port(443), pc}});
    rt.install();
    ASSERT_TRUE(rt.verify_now().ok());
    rt.route_server().withdraw(px, q);
    rt.route_server().withdraw(pc, q);

    const auto view = rt.deployment_view();
    net::PacketHeader payload;
    payload.set_dst_ip(net::Ipv4Address::parse("100.1.0.1"));
    const auto framed = view.forward(pa, payload);
    ASSERT_TRUE(framed.frame.has_value());
    auto to_443 = *framed.frame;
    to_443.set(net::Field::kDstPort, 443);
    ASSERT_EQ(view.rule_of(*framed.frame), view.rule_of(to_443))
        << "A's classes must share their first rule";

    const auto report = expect_grouping_invisible(view, "re-entry split");
    const std::string from_a = "class dst=100.1.0.0/16 variant#";
    const auto kinds_of = [&](const std::string& cls) {
      std::vector<ViolationKind> kinds;
      for (const auto& v : report.violations) {
        if (v.what.starts_with(cls + ":")) kinds.push_back(v.kind);
      }
      return kinds;
    };
    // Variants in canonical order: #0 the default, #1 port 80, #2 port 443.
    EXPECT_EQ(kinds_of(from_a + "0 from A"),
              std::vector{ViolationKind::kIsolation})
        << report.to_string();
    EXPECT_EQ(kinds_of(from_a + "1 from A"),
              std::vector{ViolationKind::kIsolation})
        << report.to_string();
    EXPECT_EQ(kinds_of(from_a + "2 from A"),
              (std::vector{ViolationKind::kIsolation, ViolationKind::kIsolation,
                           ViolationKind::kIsolation, ViolationKind::kLoop}))
        << report.to_string();
  }
  {
    SdxRuntime rt;
    deploy_ring(rt);
    std::mt19937 rng(kChurnSeed);
    std::size_t shared = 0;
    for (int op = 0; op < kChurnSteps; ++op) {
      if (!churn_step(rt, rng)) continue;
      const auto report = expect_grouping_invisible(
          rt.deployment_view(), "churn step " + std::to_string(op));
      shared += report.edges_walked - report.work.edges;
    }
    EXPECT_GT(shared, 0u) << "the churn must share some walks";
  }
}

// --- report plumbing --------------------------------------------------------

TEST(SafetyVerify, ReportFoldsLocalAuditAndRendersCounterexamples) {
  SdxRuntime rt;
  auto p1 = rt.add_participant("P1", 65001);
  auto p2 = rt.add_participant("P2", 65002);
  const auto q = Ipv4Prefix::parse("203.0.113.0/24");
  rt.announce(p1, q, net::AsPath{65001, 900});
  rt.announce(p2, q, net::AsPath{65002, 901});
  rt.set_outbound(p1, {OutboundClause{ClauseMatch{}.dst_port(53), p2}});
  rt.set_outbound(p2, {OutboundClause{ClauseMatch{}.dst_port(53), p1}});
  rt.install();
  rt.route_server().withdraw(p1, q);
  rt.route_server().withdraw(p2, q);

  const auto report = rt.verify_now();
  EXPECT_GT(report.local_rules_checked, 0u)
      << "local audit must run through the same entry point";
  const auto text = report.to_string();
  EXPECT_NE(text.find("loop"), std::string::npos) << text;
  EXPECT_NE(text.find("counterexample"), std::string::npos) << text;
  EXPECT_NE(text.find("203.0.113"), std::string::npos) << text;
}

TEST(SafetyVerify, ViolationTelemetryCountsByKind) {
  SdxRuntime rt;
  auto pa = rt.add_participant("A", 65001);
  auto px = rt.add_participant("X", 65002);
  const auto p = Ipv4Prefix::parse("100.5.0.0/16");
  rt.announce(px, p);
  rt.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(8080), px}});
  rt.install();
  rt.enable_verification();
  EXPECT_TRUE(rt.last_safety_report().ok());
  EXPECT_EQ(
      counter(rt, "sdx_verify_violations_total", {{"kind", "blackhole"}}),
      0u);
  // The behind-the-back withdrawal survives even a full recompile: the
  // deploy re-advertises only prefixes the server still knows, so A's router keeps
  // its stale route and the new table has no rules for the vanished group.
  rt.route_server().withdraw(px, p);
  rt.background_recompile();
  const auto& report = rt.last_safety_report();
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.count(ViolationKind::kBlackhole), 1u)
      << report.to_string();
  EXPECT_GE(
      counter(rt, "sdx_verify_violations_total", {{"kind", "blackhole"}}),
      1u);
  EXPECT_GE(counter(rt, "sdx_verify_runs_total", {{"mode", "full"}}), 2u);
}

TEST(SafetyVerify, VariantsPastTheCapAreCountedAndNotOk) {
  // Each distinct dst-port clause is one header variant, and the default
  // class is one more. A pass walks at most 64: 63 clauses fit, 70 leave 7
  // unchecked, and a report that leaves any unchecked is not clean.
  const auto deploy = [](SdxRuntime& r, std::uint16_t clauses) {
    auto pa = r.add_participant("A", 65001);
    auto pb = r.add_participant("B", 65002);
    std::vector<OutboundClause> out;
    for (std::uint16_t i = 0; i < clauses; ++i) {
      out.push_back(OutboundClause{ClauseMatch{}.dst_port(1000 + i), pb});
    }
    r.set_outbound(pa, std::move(out));
    r.announce(pb, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002});
    r.install();
    r.enable_verification();
  };
  SdxRuntime at_cap;
  deploy(at_cap, 63);
  EXPECT_TRUE(at_cap.last_safety_report().ok())
      << at_cap.last_safety_report().to_string();
  EXPECT_EQ(at_cap.last_safety_report().variants, 64u);
  EXPECT_EQ(at_cap.last_safety_report().unchecked_variants, 0u);
  EXPECT_EQ(counter(at_cap, "sdx_verify_unchecked_variants_total"), 0u);

  SdxRuntime past;
  deploy(past, 70);
  const auto& full = past.last_safety_report();
  EXPECT_TRUE(full.violations.empty()) << full.to_string();
  EXPECT_FALSE(full.ok());
  EXPECT_EQ(full.variants, 64u);
  EXPECT_EQ(full.unchecked_variants, 7u);
  EXPECT_NE(full.to_string().find("64 variants (7 unchecked)"),
            std::string::npos)
      << full.to_string();
  EXPECT_EQ(counter(past, "sdx_verify_unchecked_variants_total"), 7u);

  // The incremental stage and the one-shot check count them too.
  past.announce(2, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002});
  ASSERT_TRUE(past.last_safety_report().incremental);
  EXPECT_EQ(past.last_safety_report().unchecked_variants, 7u);
  EXPECT_FALSE(past.last_safety_report().ok());
  EXPECT_EQ(counter(past, "sdx_verify_unchecked_variants_total"), 14u);
  EXPECT_EQ(past.verify_now().unchecked_variants, 7u);
}

}  // namespace
}  // namespace sdx::core
