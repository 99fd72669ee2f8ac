/// Policy safety verification (verify/): the inter-participant forwarding
/// graph checker. Clean deployments prove loop-free/isolated/delivered at
/// every compile width; the three planted stale-state scenarios (a
/// two-participant forwarding loop, a prefix steered to a non-exporting
/// participant, a next-hop withdrawal blackhole) are each detected with a
/// counterexample packet that reproduces through FlowTable::process; the
/// incremental re-check covers exactly the dirty prefixes and answers its
/// "is this prefix known?" questions from live state, never by enumerating
/// the deployment.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

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
    SdxRuntime rt;
    rt.set_compile_threads(threads);
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

TEST(SafetyVerify, ChurnIncrementalReportsEqualFreshFullPasses) {
  SdxRuntime rt;
  rt.enable_verification();
  constexpr std::size_t kMembers = 5;
  for (std::size_t j = 1; j <= kMembers; ++j) {
    rt.add_participant("P" + std::to_string(j),
                       static_cast<net::Asn>(65000 + j));
  }
  for (std::size_t j = 1; j <= kMembers; j += 2) {
    const auto to = static_cast<bgp::ParticipantId>(j % kMembers + 1);
    rt.set_outbound(static_cast<bgp::ParticipantId>(j),
                    {OutboundClause{ClauseMatch{}.dst_port(80), to},
                     OutboundClause{ClauseMatch{}.dst_port(443), to}});
  }
  // Disjoint /24s: 100.7.<i>.0/24.
  const auto slash24 = [](std::uint32_t i) {
    return Ipv4Prefix(net::Ipv4Address((100u << 24) | (7u << 16) | (i << 8)),
                      24);
  };
  constexpr std::uint32_t kPrefixes = 24;
  for (std::uint32_t i = 0; i < kPrefixes; i += 2) {
    rt.announce(static_cast<bgp::ParticipantId>(i % kMembers + 1), slash24(i),
                net::AsPath{static_cast<net::Asn>(65000 + i % kMembers + 1)});
  }
  rt.install();
  rt.enable_batching({0, 0});

  const auto graph_violations = [](const verify::SafetyReport& r) {
    std::vector<std::pair<ViolationKind, std::string>> out;
    for (const auto& v : r.violations) {
      if (v.counterexample) out.emplace_back(v.kind, v.what);
    }
    return out;
  };
  std::mt19937 rng(20240517);
  std::size_t compared = 0;
  for (int op = 0; op < 200; ++op) {
    const auto who = static_cast<bgp::ParticipantId>(rng() % kMembers + 1);
    const auto prefix = slash24(rng() % kPrefixes);
    switch (rng() % 3) {
      case 0:
        rt.announce(who, prefix,
                    net::AsPath{static_cast<net::Asn>(65000 + who),
                                static_cast<net::Asn>(1000 + rng() % 5)});
        break;
      case 1:
        rt.withdraw(who, prefix);
        break;
      default: {
        rt.flush();
        const auto staged = rt.last_safety_report();
        const auto fresh = rt.verify_now();
        EXPECT_EQ(staged.prefixes_checked, fresh.prefixes_checked) << op;
        EXPECT_EQ(staged.classes_checked, fresh.classes_checked) << op;
        EXPECT_EQ(staged.edges_walked, fresh.edges_walked) << op;
        EXPECT_EQ(graph_violations(staged), graph_violations(fresh)) << op;
        compared += staged.incremental ? 1 : 0;
      }
    }
  }
  EXPECT_GT(compared, 20u) << "the churn must stage incremental checks";
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
  // The behind-the-back withdrawal survives even a full recompile: deploy()
  // re-advertises only prefixes the server still knows, so A's router keeps
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

}  // namespace
}  // namespace sdx::core
