/// Acceptance tests for the runtime's telemetry wiring (ISSUE tentpole):
/// a full install() plus one fast-path announce() must surface route-server,
/// compiler-stage, fast-path, frontend and flow-table series in one
/// Prometheus dump; the trace must nest the five compiler stages under one
/// compile span; and the counter series must be byte-identical across
/// CompileOptions::threads values.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using telemetry::SpanTracer;

/// The shared workload: wire distribution, an outbound policy, two
/// announcements before install, one fast-path announcement and a withdraw
/// after, and a couple of data-plane packets.
void drive(SdxRuntime& rt) {
  rt.use_wire_distribution();
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  auto c = rt.add_participant("C", 65003);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 9});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.install();
  rt.announce(c, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  rt.withdraw(b, Ipv4Prefix::parse("100.1.0.0/16"));
  for (std::uint64_t port : {80u, 53u}) {
    auto payload = net::PacketBuilder()
                       .src_ip("96.25.160.5")
                       .dst_ip("100.1.2.3")
                       .proto(net::kProtoTcp)
                       .dst_port(port)
                       .build();
    rt.send(a, payload);
  }
}

/// The byte-stability contract covers the counter series: every sample (and
/// header) line of a `_total` family, in exposition order.
std::vector<std::string> counter_lines(const std::string& dump) {
  std::vector<std::string> out;
  std::istringstream is(dump);
  for (std::string line; std::getline(is, line);) {
    if (line.find("_total") != std::string::npos) out.push_back(line);
  }
  return out;
}

TEST(RuntimeTelemetry, InstallPlusFastPathSurfacesEverySeries) {
  SdxRuntime rt;
  drive(rt);
  const std::string dump = rt.dump_metrics();

  // Route server: churn counters and the occupancy gauge. Three
  // announcements, one withdrawal; 100.1.0.0/16 best-route changes on the
  // second announce and on the withdrawal.
  EXPECT_NE(dump.find("sdx_route_server_announcements_total 3"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("sdx_route_server_withdrawals_total 1"),
            std::string::npos);
  EXPECT_NE(dump.find("sdx_route_server_prefixes 2"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE sdx_route_server_best_changes_total counter"),
            std::string::npos);

  // Compiler: one full pipeline run, every stage priced once. Default
  // vectors are read from the live route server inside fec_vnh: there is
  // no best-route snapshot stage.
  EXPECT_NE(dump.find("sdx_compile_runs_total 1"), std::string::npos);
  for (const char* stage : {"reach", "fec_vnh", "synth", "compose"}) {
    EXPECT_NE(dump.find("sdx_compile_stage_seconds_count{stage=\"" +
                        std::string(stage) + "\"} 1"),
              std::string::npos)
        << stage;
  }
  EXPECT_EQ(dump.find("stage=\"snapshot\""), std::string::npos);

  // §4.3.2 fast path: the post-install announce and withdraw ran it.
  EXPECT_NE(dump.find("sdx_fast_path_updates_total 2"), std::string::npos);
  EXPECT_NE(dump.find("# TYPE sdx_fast_path_seconds histogram"),
            std::string::npos);
  EXPECT_NE(dump.find("sdx_fast_path_seconds_count 2"), std::string::npos);

  // Frontend: pre-install announcements change only the route server, so
  // install's readvertisement (1 prefix × 3 peers) and two fast-path
  // readvertisements (2 × 3) are what crossed the wire.
  EXPECT_NE(dump.find("sdx_frontend_updates_total 9"), std::string::npos);
  EXPECT_GT(rt.telemetry().metrics.counter("sdx_frontend_bytes_total").value(),
            0u);
  EXPECT_NE(dump.find("sdx_frontend_session_drops_total 0"),
            std::string::npos);

  // Data plane: one delivered packet per port-80 send, occupancy gauges
  // refreshed by dump_metrics().
  EXPECT_NE(dump.find("sdx_flow_table_matched_total"), std::string::npos);
  EXPECT_GT(rt.telemetry().metrics.counter("sdx_flow_table_matched_total")
                .value(),
            0u);
  EXPECT_GT(rt.telemetry().metrics.gauge("sdx_flow_table_rules").value(), 0);
  EXPECT_NE(dump.find("# TYPE sdx_arp_queries_total counter"),
            std::string::npos);
}

TEST(RuntimeTelemetry, EveryFamilyExistsOnAFreshRuntime) {
  // Every family the runtime and its stages own is registered at
  // construction, so a dump's shape does not depend on which features ran.
  SdxRuntime rt;
  const std::string dump = rt.dump_metrics();
  for (const char* family :
       {"sdx_fast_path_updates_total", "sdx_fast_path_seconds",
        "sdx_fast_path_rules_total", "sdx_fast_path_bindings",
        "sdx_partitions_recompiled_total", "sdx_update_stage_seconds",
        "sdx_frontend_updates_total", "sdx_ingest_reconnects_total",
        "sdx_verify_runs_total", "sdx_verify_seconds",
        "sdx_verify_classes_total", "sdx_verify_edges_total",
        "sdx_verify_framings_total", "sdx_verify_lookups_total",
        "sdx_verify_classes", "sdx_verify_edges",
        "sdx_verify_unchecked_variants_total", "sdx_verify_violations_total",
        "sdx_journal_records_total", "sdx_journal_bytes_total",
        "sdx_journal_checkpoints_total", "sdx_journal_fsync_seconds",
        "sdx_recovery_warm_total", "sdx_recovery_cold_total",
        "sdx_recovery_replayed_records_total", "sdx_recovery_seconds",
        "sdx_flow_table_rules", "sdx_arp_bindings"}) {
    EXPECT_NE(dump.find("# TYPE " + std::string(family) + " "),
              std::string::npos)
        << family;
  }
  for (const char* stage : {"install", "advertise"}) {
    EXPECT_NE(dump.find("sdx_update_stage_seconds_count{stage=\"" +
                        std::string(stage) + "\"} 0"),
              std::string::npos)
        << stage;
  }
}

TEST(RuntimeTelemetry, OneStageCallObservesEachStageOnce) {
  SdxRuntime rt;
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b}});
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"));
  rt.install();
  const auto count = [&rt](const char* stage) {
    return rt.telemetry()
        .metrics.histogram("sdx_update_stage_seconds", "", {},
                           {{"stage", stage}})
        .count();
  };
  // install() is one full deploy.
  EXPECT_EQ(count("install"), 1u);
  EXPECT_EQ(count("advertise"), 1u);
  // One flush steps each stage by exactly one.
  rt.enable_batching({0, 0});
  rt.announce(b, Ipv4Prefix::parse("100.2.0.0/16"));
  rt.announce(a, Ipv4Prefix::parse("100.3.0.0/16"));
  ASSERT_EQ(rt.flush(), 2u);
  EXPECT_EQ(count("install"), 2u);
  EXPECT_EQ(count("advertise"), 2u);
  // So does a full deploy.
  rt.background_recompile();
  EXPECT_EQ(count("install"), 3u);
  EXPECT_EQ(count("advertise"), 3u);
}

TEST(RuntimeTelemetry, CompilerStageSpansNestUnderOneCompileSpan) {
  SdxRuntime rt;
  drive(rt);
  const auto records = rt.telemetry().tracer.records();

  std::vector<SpanTracer::Record> compiles;
  for (const auto& r : records) {
    if (r.name == "compile") compiles.push_back(r);
  }
  ASSERT_EQ(compiles.size(), 1u);  // one install() → one pipeline run
  const auto& compile = compiles.front();

  for (const char* stage : {"reach", "fec_vnh", "synth", "compose"}) {
    auto it = std::find_if(
        records.begin(), records.end(),
        [stage](const SpanTracer::Record& r) { return r.name == stage; });
    ASSERT_NE(it, records.end()) << stage;
    EXPECT_TRUE(compile.encloses(*it)) << stage;
  }
  EXPECT_TRUE(std::none_of(
      records.begin(), records.end(),
      [](const SpanTracer::Record& r) { return r.name == "snapshot"; }));
  // The compile itself sits inside the install() span, and the post-install
  // updates recorded fast_update spans.
  auto install = std::find_if(
      records.begin(), records.end(),
      [](const SpanTracer::Record& r) { return r.name == "install"; });
  ASSERT_NE(install, records.end());
  EXPECT_TRUE(install->encloses(compile));
  auto fast_update_spans = [&rt] {
    const auto now = rt.telemetry().tracer.records();
    return std::count_if(now.begin(), now.end(),
                         [](const SpanTracer::Record& r) {
                           return r.name == "fast_update";
                         });
  };
  EXPECT_EQ(fast_update_spans(), 2);
  // A batched flush runs the same fast stage, under the same span name.
  rt.enable_batching();
  rt.announce(rt.find("C")->id, Ipv4Prefix::parse("100.3.0.0/16"),
              net::AsPath{65003});
  ASSERT_EQ(rt.flush(), 1u);
  EXPECT_EQ(fast_update_spans(), 3);

  // And the exported Chrome JSON carries them as complete events.
  const std::string json = rt.dump_trace();
  EXPECT_NE(json.find("\"name\":\"compile\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"compose\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST(RuntimeTelemetry, CounterSeriesByteStableAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    CompileOptions opt;
    opt.threads = threads;
    SdxRuntime rt({}, opt);
    drive(rt);
    return rt.dump_metrics();
  };
  const auto serial = counter_lines(run(1));
  const auto parallel = counter_lines(run(8));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(RuntimeTelemetry, PartitionedCompileSurfacesPerParticipantSeries) {
  CompileOptions opt;
  opt.partitioned = true;
  SdxRuntime rt({}, opt);
  drive(rt);
  const std::string dump = rt.dump_metrics();

  // One full compile priced every physical partition once, labelled by
  // participant.
  for (const char* name : {"A", "B", "C"}) {
    EXPECT_NE(
        dump.find("sdx_partition_compile_seconds_count{participant=\"" +
                  std::string(name) + "\"} 1"),
        std::string::npos)
        << name << "\n"
        << dump;
  }
  // No policy changed after install, so nothing recompiled in place.
  EXPECT_NE(dump.find("sdx_partitions_recompiled_total 0"), std::string::npos);

  // One outbound change → exactly one partition recompiled: the counter
  // ticks once and only the dirty participant's histogram gains a sample.
  rt.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(8080), 2}});
  const std::string after = rt.dump_metrics();
  EXPECT_NE(after.find("sdx_partitions_recompiled_total 1"),
            std::string::npos);
  EXPECT_NE(
      after.find("sdx_partition_compile_seconds_count{participant=\"A\"} 2"),
      std::string::npos)
      << after;
  for (const char* name : {"B", "C"}) {
    EXPECT_NE(
        after.find("sdx_partition_compile_seconds_count{participant=\"" +
                   std::string(name) + "\"} 1"),
        std::string::npos)
        << name;
  }
  // The recompile ran under its own span, not the full pipeline's.
  const auto records = rt.telemetry().tracer.records();
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const SpanTracer::Record& r) {
                            return r.name == "partition_recompile";
                          }),
            1);
  EXPECT_EQ(std::count_if(records.begin(), records.end(),
                          [](const SpanTracer::Record& r) {
                            return r.name == "compile";
                          }),
            1);
}

TEST(RuntimeTelemetry, PartitionedCounterSeriesByteStableAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    CompileOptions opt;
    opt.partitioned = true;
    opt.threads = threads;
    SdxRuntime rt({}, opt);
    drive(rt);
    return rt.dump_metrics();
  };
  const auto serial = counter_lines(run(1));
  const auto parallel = counter_lines(run(8));
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, parallel);
}

TEST(RuntimeTelemetry, AdvanceClockSurfacesSessionDrops) {
  SdxRuntime rt;
  rt.use_wire_distribution();
  auto a = rt.add_participant("A", 65001);
  auto b = rt.add_participant("B", 65002);
  rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002});
  rt.install();
  ASSERT_EQ(rt.route_server().prefix_count(), 1u);

  // One jump past the 90 s hold time kills both sessions. The runtime
  // surfaces the drops: returned ids, counted drops, withdrawn routes.
  auto dropped = rt.advance_clock(1000.0);
  std::sort(dropped.begin(), dropped.end());
  EXPECT_EQ(dropped, (std::vector<ParticipantId>{a, b}));
  EXPECT_FALSE(rt.frontend()->established(a));
  EXPECT_EQ(rt.route_server().prefix_count(), 0u);
  EXPECT_NE(rt.dump_metrics().find("sdx_frontend_session_drops_total 2"),
            std::string::npos);
  // The sessions are gone, not zombies: another tick reports nothing new.
  EXPECT_TRUE(rt.advance_clock(1000.0).empty());

  // Without wire distribution the clock is a no-op.
  SdxRuntime direct;
  EXPECT_TRUE(direct.advance_clock(1000.0).empty());
}

}  // namespace
}  // namespace sdx::core
