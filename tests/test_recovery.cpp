// Crash-recovery tests for the journaled runtime: warm restart (persisted
// tables adopted with zero recompiles, VNH/VMAC bindings preserved), cold
// replay from a genesis WAL, checkpoint+tail recovery, the torn-tail
// truncation sweep against an ixp::UpdateTrace (at compile widths 1 and 8),
// forced-cold fallback, warm and cold restarts held to a never-crashed
// twin's FIBs, flow table and ARP, the full safety check after a warm
// restart, session_down record collapsing, error paths, and the
// scenario-language save/recover/journal round trip.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "deployment_state.hpp"
#include "ixp/update_trace.hpp"
#include "netbase/rng.hpp"
#include "persist/journal.hpp"
#include "persist/wal.hpp"
#include "sdx/runtime.hpp"
#include "sdx/scenario.hpp"

namespace fs = std::filesystem;

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using net::PacketBuilder;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sdx_recovery_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

class RecoveryFixture : public ::testing::Test {
 protected:
  /// The reproducible base exchange: A steers port-80 traffic to B and
  /// port-443 traffic to C; B and C announce. Deterministic participant
  /// state (ids, MACs, router IPs) is what lets a checkpoint re-register
  /// byte-identical participants on recovery.
  static void build(SdxRuntime& r) {
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

  static std::uint64_t counter(SdxRuntime& r, const char* name) {
    return r.telemetry().metrics.counter(name).value();
  }

  static net::PortId egress(SdxRuntime& r, ParticipantId from,
                            const char* dst_ip, std::uint16_t dst_port) {
    auto out = r.send(
        from, PacketBuilder().dst_ip(dst_ip).dst_port(dst_port).build());
    return out.size() == 1 ? out[0].port : net::PortId{0};
  }

  /// Forwarding probes covering both policy clauses and default routing.
  static std::vector<net::PortId> probes(SdxRuntime& r) {
    return {egress(r, 1, "100.1.2.3", 80), egress(r, 1, "100.1.2.3", 443),
            egress(r, 1, "100.2.4.5", 80), egress(r, 1, "100.9.6.7", 53),
            egress(r, 1, "100.1.2.3", 53)};
  }

  ParticipantId a = 1, b = 2, c = 3;
};

}  // namespace

// --- warm restart -----------------------------------------------------------

TEST_F(RecoveryFixture, WarmRestartAdoptsTablesWithoutCompiling) {
  TempDir dir;
  SdxRuntime rt;
  build(rt);
  // Attaching to an already-built runtime writes the anchoring checkpoint
  // itself — no explicit checkpoint() needed for recoverability.
  rt.attach_journal(dir.path);
  ASSERT_TRUE(rt.journaling());
  const std::string fp = rt.compiled().fingerprint();
  const auto expected = probes(rt);

  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_TRUE(report.warm);
  EXPECT_TRUE(report.had_checkpoint);
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(report.torn_bytes, 0u);
  // The acceptance gate: a warm restart installs zero recompiled rules.
  EXPECT_EQ(counter(rt2, "sdx_compile_runs_total"), 0u);
  EXPECT_EQ(counter(rt2, "sdx_recovery_warm_total"), 1u);
  EXPECT_EQ(counter(rt2, "sdx_recovery_cold_total"), 0u);
  EXPECT_TRUE(rt2.installed());
  EXPECT_EQ(rt2.compiled().fingerprint(), fp);
  EXPECT_EQ(probes(rt2), expected);
  // Every advertised VNH→VMAC binding survives, so border-router ARP
  // caches stay valid across the restart.
  for (const char* p : {"100.1.0.0/16", "100.2.0.0/16", "100.9.0.0/16"}) {
    const auto prefix = Ipv4Prefix::parse(p);
    EXPECT_EQ(rt2.current_binding(prefix), rt.current_binding(prefix)) << p;
  }
  // Recovery resumes recording: new mutations land in the journal.
  EXPECT_TRUE(rt2.journaling());
  const auto before = counter(rt2, "sdx_journal_records_total");
  rt2.announce(c, Ipv4Prefix::parse("100.3.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(counter(rt2, "sdx_journal_records_total"), before + 1);
}

TEST_F(RecoveryFixture, WarmRestartPreservesFastPathBindings) {
  TempDir dir;
  SdxRuntime rt;
  build(rt);
  rt.attach_journal(dir.path);
  // Post-install fast-path updates allocate fresh VNH bindings; the
  // checkpoint must carry them so the warm restart reuses them.
  const auto p4 = Ipv4Prefix::parse("100.4.0.0/16");
  rt.announce(c, p4, net::AsPath{65003});
  rt.checkpoint();
  const auto binding = rt.current_binding(p4);
  ASSERT_TRUE(binding.has_value());

  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_TRUE(report.warm);
  EXPECT_EQ(report.replayed, 0u);  // the announce is inside the checkpoint
  EXPECT_EQ(counter(rt2, "sdx_compile_runs_total"), 0u);
  EXPECT_EQ(rt2.current_binding(p4), binding);
  EXPECT_EQ(egress(rt2, a, "100.4.1.1", 443), egress(rt, a, "100.4.1.1", 443));
  EXPECT_EQ(egress(rt2, a, "100.4.1.1", 53), egress(rt, a, "100.4.1.1", 53));
}

TEST_F(RecoveryFixture, WarmRestartRunsTheFullSafetyCheck) {
  TempDir dir;
  SdxRuntime rt;
  build(rt);
  rt.attach_journal(dir.path);

  SdxRuntime rt2;
  rt2.enable_verification();
  const auto report = rt2.recover(dir.path);
  ASSERT_TRUE(report.warm);
  // Adopted tables are checked like freshly compiled ones: one full pass
  // that walks real classes, not a clean report over an empty cache.
  EXPECT_EQ(rt2.telemetry()
                .metrics.counter("sdx_verify_runs_total", "", {{"mode", "full"}})
                .value(),
            1u);
  EXPECT_GT(rt2.last_safety_report().classes_checked, 0u);
  EXPECT_TRUE(rt2.last_safety_report().ok())
      << rt2.last_safety_report().to_string();
}

TEST_F(RecoveryFixture, RecoveredDeploymentEqualsNeverCrashedTwin) {
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  const auto p4 = Ipv4Prefix::parse("100.4.0.0/16");
  const auto p5 = Ipv4Prefix::parse("100.5.0.0/16");
  // With `policy`, the tail also holds a post-install outbound and inbound
  // change: each redeploys when it is replayed, as it did live.
  for (const auto [warm, policy] :
       {std::pair{true, false}, std::pair{false, false}, std::pair{true, true},
        std::pair{false, true}}) {
    SCOPED_TRACE(std::string(warm ? "warm" : "cold") +
                 (policy ? ", policy tail" : ""));
    TempDir dir;
    SdxRuntime twin;
    build(twin);
    twin.attach_journal(dir.path);
    // Recovery replays the WAL tail as one batch; the twin runs it as one
    // batch too, so both lay the same fast-path rules on the same base.
    twin.enable_batching({0, 0});
    if (warm) {
      // Fast-path residue inside the checkpoint: rules above the base
      // tables and their VNH bindings, which the warm restart reinstalls.
      twin.announce(c, p4, net::AsPath{65003});
      twin.announce(c, p1, net::AsPath{65003});
      twin.checkpoint();
    }
    twin.withdraw(b, p2);
    if (policy) {
      twin.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(22), b},
                            OutboundClause{ClauseMatch{}.dst_port(443), c}});
    }
    twin.announce(b, p5, net::AsPath{65002});
    if (policy) {
      twin.set_inbound(
          c, {InboundClause{ClauseMatch{}.dst_port(443),
                            {{net::Field::kDstPort, 8443}}, std::nullopt}});
    }
    twin.flush();
    if (!warm) {
      // A fingerprint that does not match forces the cold install.
      for (const auto& entry : fs::directory_iterator(dir.path)) {
        if (entry.path().extension() != ".ckpt") continue;
        auto st = persist::try_load_checkpoint(entry.path());
        ASSERT_TRUE(st.has_value());
        st->fingerprint = "not-the-real-fingerprint";
        persist::write_checkpoint_file(entry.path(), *st);
      }
    }

    SdxRuntime rt2;
    const auto report = rt2.recover(dir.path);
    ASSERT_EQ(report.warm, warm);
    EXPECT_EQ(report.replayed, policy ? 4u : 2u);
    EXPECT_EQ(rt2.compiled().fingerprint(), twin.compiled().fingerprint());
    EXPECT_EQ(test::fib_crc(rt2), test::fib_crc(twin));
    EXPECT_EQ(test::flow_table_dump(rt2), test::flow_table_dump(twin));
    EXPECT_EQ(test::arp_dump(rt2), test::arp_dump(twin));
    EXPECT_EQ(rt2.fabric().arp().size(), twin.fabric().arp().size());
    EXPECT_EQ(probes(rt2), probes(twin));
  }
}

TEST_F(RecoveryFixture, WarmRestartRebuildsTheBindingTable) {
  // Churn that makes, joins and retires fast-path bindings — in the second
  // case around a post-install policy change, which redeploys and drops
  // every binding made before it — then a checkpoint and a crash. The recovered runtime must carry on exactly like the
  // never-crashed twin: the same joins, the same fresh bindings, the same
  // bands.
  const auto churn = [](SdxRuntime& r, std::uint64_t seed, int updates) {
    net::SplitMix64 rng(seed);
    for (int i = 0; i < updates; ++i) {
      const Ipv4Prefix prefix(
          net::Ipv4Address((100u << 24) |
                           (static_cast<std::uint32_t>(rng.below(8)) << 16)),
          16);
      const auto who = static_cast<ParticipantId>(1 + rng.below(3));
      if (rng.chance(0.3)) {
        r.withdraw(who, prefix);
      } else {
        std::vector<net::Asn> path{r.participant(who).asn};
        for (std::size_t k = 0, n = rng.below(3); k < n; ++k) {
          path.push_back(static_cast<net::Asn>(64512 + rng.below(3)));
        }
        r.announce(who, prefix, net::AsPath(std::move(path)));
      }
      if (rng.chance(0.3)) r.flush();
    }
    r.flush();
  };
  for (const bool policy_change : {false, true}) {
    SCOPED_TRACE(policy_change ? "policy change" : "churn only");
    TempDir dir;
    SdxRuntime twin;
    build(twin);
    twin.attach_journal(dir.path);
    twin.enable_batching({0, 0});
    churn(twin, 11, 200);
    if (policy_change) {
      // The same clause layout with another port: every old signature is
      // still a valid key, so a binding that outlived the change would be
      // joined by the churn after it.
      twin.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(22), b},
                            OutboundClause{ClauseMatch{}.dst_port(443), c}});
      churn(twin, 12, 60);
    }
    twin.checkpoint();

    SdxRuntime rt2;
    const auto report = rt2.recover(dir.path);
    ASSERT_TRUE(report.warm);
    EXPECT_EQ(report.replayed, 0u);
    rt2.enable_batching({0, 0});
    const auto live = [](SdxRuntime& r) {
      return r.telemetry().metrics.gauge("sdx_fast_path_bindings").value();
    };
    EXPECT_GT(live(twin), 0.0);
    EXPECT_EQ(live(rt2), live(twin));
    EXPECT_EQ(test::flow_table_dump(rt2), test::flow_table_dump(twin));

    churn(twin, 13, 200);
    churn(rt2, 13, 200);
    EXPECT_EQ(test::fib_crc(rt2), test::fib_crc(twin));
    EXPECT_EQ(test::flow_table_dump(rt2), test::flow_table_dump(twin));
    EXPECT_EQ(test::arp_table_dump(rt2), test::arp_table_dump(twin));
    EXPECT_EQ(live(rt2), live(twin));
    EXPECT_EQ(probes(rt2), probes(twin));
  }
}

// --- cold replay ------------------------------------------------------------

TEST_F(RecoveryFixture, ColdReplayFromGenesisWalRebuildsEverything) {
  TempDir dir;
  std::string fp;
  std::vector<net::PortId> expected;
  {
    SdxRuntime rt;
    rt.attach_journal(dir.path);  // fresh runtime: genesis WAL, no checkpoint
    build(rt);
    fp = rt.compiled().fingerprint();
    expected = probes(rt);
  }
  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_FALSE(report.warm);
  EXPECT_FALSE(report.had_checkpoint);
  // 3 participants + 1 policy + 3 announces + 1 install.
  EXPECT_EQ(report.replayed, 8u);
  EXPECT_EQ(counter(rt2, "sdx_recovery_cold_total"), 1u);
  EXPECT_EQ(counter(rt2, "sdx_recovery_replayed_records_total"), 8u);
  EXPECT_EQ(rt2.compiled().fingerprint(), fp);
  EXPECT_EQ(probes(rt2), expected);
}

TEST_F(RecoveryFixture, CheckpointPlusTailReplaysThroughBatchedFastPath) {
  TempDir dir;
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  std::vector<net::PortId> expected;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
    // Tail records past the checkpoint: C takes over 100.1/16, B withdraws
    // 100.2/16.
    rt.announce(c, p1, net::AsPath{65003});
    rt.withdraw(b, Ipv4Prefix::parse("100.2.0.0/16"));
    expected = probes(rt);
  }
  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_TRUE(report.had_checkpoint);
  EXPECT_TRUE(report.warm);  // the checkpointed tables themselves adopt warm
  EXPECT_EQ(report.replayed, 2u);
  EXPECT_EQ(probes(rt2), expected);

  // Canonicalize both sides with a full recompile: the replayed timeline
  // must be state-equivalent to a runtime that lived through the updates.
  SdxRuntime golden;
  build(golden);
  golden.announce(c, p1, net::AsPath{65003});
  golden.withdraw(b, Ipv4Prefix::parse("100.2.0.0/16"));
  golden.background_recompile();
  rt2.background_recompile();
  EXPECT_EQ(rt2.compiled().fingerprint(), golden.compiled().fingerprint());
}

// --- forced cold fallback ---------------------------------------------------

TEST_F(RecoveryFixture, FingerprintMismatchFallsBackToColdInstall) {
  TempDir dir;
  std::string fp;
  std::vector<net::PortId> expected;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
    fp = rt.compiled().fingerprint();
    expected = probes(rt);
  }
  // Tamper with the stored fingerprint (models code drift or a corrupted
  // artifact that still decodes): recovery must not trust the tables.
  std::string ckpt_path;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".ckpt") ckpt_path = entry.path();
  }
  ASSERT_FALSE(ckpt_path.empty());
  auto st = persist::try_load_checkpoint(ckpt_path);
  ASSERT_TRUE(st.has_value());
  st->fingerprint = "not-the-real-fingerprint";
  persist::write_checkpoint_file(ckpt_path, *st);

  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_FALSE(report.warm);
  EXPECT_EQ(counter(rt2, "sdx_recovery_cold_total"), 1u);
  EXPECT_GE(counter(rt2, "sdx_compile_runs_total"), 1u);
  // The cold install recompiles from the restored inputs — same state,
  // same tables, just paid for.
  EXPECT_EQ(rt2.compiled().fingerprint(), fp);
  EXPECT_EQ(probes(rt2), expected);
}

// --- session_down -----------------------------------------------------------

TEST_F(RecoveryFixture, SessionDownIsOneRecordAndReplays) {
  TempDir dir;
  std::vector<net::PortId> expected;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
    const auto before = counter(rt, "sdx_journal_records_total");
    // The compound teardown (two withdrawals + policy removal) must log as
    // a single kSessionDown record, not its derived inner mutations.
    EXPECT_EQ(rt.session_down(b), 2u);
    EXPECT_EQ(counter(rt, "sdx_journal_records_total"), before + 1);
    expected = probes(rt);
  }
  SdxRuntime rt2;
  const auto report = rt2.recover(dir.path);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_EQ(probes(rt2), expected);

  SdxRuntime golden;
  build(golden);
  golden.session_down(b);
  golden.background_recompile();
  rt2.background_recompile();
  EXPECT_EQ(rt2.compiled().fingerprint(), golden.compiled().fingerprint());
}

TEST_F(RecoveryFixture, RejectedMutationsLeaveTheJournalRecoverable) {
  // A mutation the runtime rejects must not reach the WAL: replay would
  // throw the same error and the journal could never be recovered. Each
  // rejected call is followed by one accepted update, and the recovered
  // runtime must equal a twin that only made the accepted one.
  const auto p4 = Ipv4Prefix::parse("100.4.0.0/16");
  const auto p7 = Ipv4Prefix::parse("100.7.0.0/16");
  const std::pair<const char*, void (*)(SdxRuntime&)> rejected[] = {
      {"withdraw from an unknown id",
       [](SdxRuntime& r) {
         EXPECT_THROW(r.withdraw(99, Ipv4Prefix::parse("100.1.0.0/16")),
                      std::out_of_range);
       }},
      {"announce from an unknown id",
       [](SdxRuntime& r) {
         EXPECT_THROW(r.announce(99, Ipv4Prefix::parse("100.4.0.0/16"),
                                 net::AsPath{65003}),
                      std::out_of_range);
       }},
      {"RPKI-invalid announce",
       [](SdxRuntime& r) {
         // The ROA names AS 65003 as 100.7.0.0/16's only origin.
         EXPECT_THROW(r.announce(3, Ipv4Prefix::parse("100.7.0.0/16"),
                                 net::AsPath{65003, 64666}),
                      std::invalid_argument);
       }},
      {"set_outbound toward an unknown id",
       [](SdxRuntime& r) {
         EXPECT_THROW(
             r.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(80),
                                               99}}),
             std::invalid_argument);
       }},
  };

  SdxRuntime twin;
  build(twin);
  twin.announce(c, p4, net::AsPath{65003});
  // Dumped before probing: flow_table_dump() includes hit counts.
  const std::string fingerprint = twin.compiled().fingerprint();
  const auto fib = test::fib_crc(twin);
  const std::string flows = test::flow_table_dump(twin);
  const std::string arp = test::arp_dump(twin);
  const auto expected = probes(twin);

  for (const auto& [what, reject] : rejected) {
    SCOPED_TRACE(what);
    TempDir dir;
    {
      SdxRuntime rt;
      build(rt);
      bgp::RoaTable roas;
      roas.add(p7, 65003);
      rt.enable_rpki(std::move(roas), SdxRuntime::RpkiMode::kStrict);
      rt.attach_journal(dir.path);
      const auto records = counter(rt, "sdx_journal_records_total");
      reject(rt);
      EXPECT_EQ(counter(rt, "sdx_journal_records_total"), records);
      rt.announce(c, p4, net::AsPath{65003});
    }
    SdxRuntime rt2;
    std::optional<SdxRuntime::RecoveryReport> report;
    ASSERT_NO_THROW(report = rt2.recover(dir.path));
    EXPECT_EQ(report->replayed, 1u);
    EXPECT_EQ(rt2.compiled().fingerprint(), fingerprint);
    EXPECT_EQ(test::fib_crc(rt2), fib);
    EXPECT_EQ(test::flow_table_dump(rt2), flows);
    EXPECT_EQ(test::arp_dump(rt2), arp);
    EXPECT_EQ(probes(rt2), expected);
  }
}

// --- truncation sweep -------------------------------------------------------

namespace {

/// Byte offsets of every record boundary in a WAL segment file:
/// boundaries[k] is where record k starts; boundaries.back() is the clean
/// end of file.
std::vector<std::uint64_t> record_boundaries(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  std::vector<std::uint64_t> out;
  std::uint64_t pos = persist::kWalHeaderBytes;
  while (pos < bytes.size()) {
    out.push_back(pos);
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= std::uint32_t(std::uint8_t(bytes[pos + i])) << (8 * i);
    }
    pos += persist::kWalFrameBytes + len;
  }
  out.push_back(pos);
  return out;
}

}  // namespace

TEST_F(RecoveryFixture, TruncationSweepMatchesPrefixReplay) {
  // A synthetic RIS-like tail: announce/withdraw events from the paper's
  // burst model, applied by C over a small prefix universe.
  ixp::TraceConfig cfg;
  cfg.seed = 7;
  cfg.duration_s = 4 * 3600.0;
  cfg.prefix_count = 24;
  cfg.frac_prefixes_updated = 0.5;
  auto events = ixp::generate_trace_vector(cfg);
  ASSERT_GE(events.size(), 4u);
  if (events.size() > 10) events.resize(10);
  const auto event_prefix = [](const ixp::TraceEvent& ev) {
    return Ipv4Prefix::parse("100." + std::to_string(10 + ev.prefix_index) +
                             ".0.0/16");
  };
  const auto apply = [&](SdxRuntime& r, const ixp::TraceEvent& ev) {
    if (ev.withdrawal) {
      r.withdraw(3, event_prefix(ev));
    } else {
      r.announce(3, event_prefix(ev),
                 net::AsPath{65003, net::Asn(100 + ev.prefix_index)});
    }
  };

  // Journal the reference timeline: checkpoint at install, every event a
  // tail record.
  TempDir dir;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
    for (const auto& ev : events) apply(rt, ev);
  }
  std::string seg_path;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".log") seg_path = entry.path();
  }
  ASSERT_FALSE(seg_path.empty());
  const auto bounds = record_boundaries(seg_path);
  const std::size_t n = bounds.size() - 1;
  ASSERT_EQ(n, events.size());

  // Reference fingerprints: a runtime that lived through the first k
  // events, canonicalized by a full recompile.
  std::vector<std::string> ref_fp(n + 1);
  for (std::size_t k = 0; k <= n; ++k) {
    SdxRuntime ref;
    build(ref);
    for (std::size_t i = 0; i < k; ++i) apply(ref, events[i]);
    ref.background_recompile();
    ref_fp[k] = ref.compiled().fingerprint();
  }

  const auto recover_fp = [&](const std::string& journal_dir,
                              unsigned threads, std::size_t want_replayed,
                              std::uint64_t want_torn) {
    SdxRuntime rt(bgp::DecisionConfig{}, CompileOptions{.threads = threads});
    const auto report = rt.recover(journal_dir);
    EXPECT_TRUE(report.warm);
    EXPECT_EQ(report.replayed, want_replayed);
    EXPECT_EQ(report.torn_bytes, want_torn);
    rt.background_recompile();
    return rt.compiled().fingerprint();
  };

  for (const unsigned threads : {1u, 8u}) {
    // Whole-record truncation: cutting at the k-th boundary must recover
    // exactly the first k events.
    for (std::size_t k = 0; k <= n; ++k) {
      TempDir cut_dir;
      fs::copy(dir.path, cut_dir.path,
               fs::copy_options::overwrite_existing |
                   fs::copy_options::recursive);
      const std::string seg =
          cut_dir.path + "/" + fs::path(seg_path).filename().string();
      fs::resize_file(seg, bounds[k]);
      EXPECT_EQ(recover_fp(cut_dir.path, threads, k, 0), ref_fp[k])
          << "threads=" << threads << " boundary k=" << k;
    }
    // Byte-wise truncation inside the last record: every cut must be
    // detected as a torn tail and recover the surviving prefix of events.
    for (std::uint64_t cut = bounds[n - 1] + 1; cut < bounds[n]; ++cut) {
      TempDir cut_dir;
      fs::copy(dir.path, cut_dir.path,
               fs::copy_options::overwrite_existing |
                   fs::copy_options::recursive);
      const std::string seg =
          cut_dir.path + "/" + fs::path(seg_path).filename().string();
      fs::resize_file(seg, cut);
      EXPECT_EQ(recover_fp(cut_dir.path, threads, n - 1,
                           cut - bounds[n - 1]),
                ref_fp[n - 1])
          << "threads=" << threads << " cut=" << cut;
    }
  }
}

// --- error paths ------------------------------------------------------------

TEST_F(RecoveryFixture, RecoverRequiresAFreshRuntime) {
  TempDir dir;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
  }
  SdxRuntime rt2;
  build(rt2);
  EXPECT_THROW(rt2.recover(dir.path), std::logic_error);
}

TEST_F(RecoveryFixture, RecoverFromEmptyDirectoryThrows) {
  TempDir dir;
  SdxRuntime rt;
  EXPECT_THROW(rt.recover(dir.path), std::runtime_error);
}

TEST_F(RecoveryFixture, DoubleAttachThrows) {
  TempDir dir1, dir2;
  SdxRuntime rt;
  build(rt);
  rt.attach_journal(dir1.path);
  EXPECT_THROW(rt.attach_journal(dir2.path), std::logic_error);
}

TEST_F(RecoveryFixture, AttachToPopulatedDirectoryThrows) {
  TempDir dir;
  {
    SdxRuntime rt;
    build(rt);
    rt.attach_journal(dir.path);
  }
  SdxRuntime rt2;
  build(rt2);
  EXPECT_THROW(rt2.attach_journal(dir.path), std::logic_error);
}

// --- scenario language ------------------------------------------------------

TEST_F(RecoveryFixture, ScenarioSaveRecoverJournalRoundTrip) {
  TempDir dir;
  {
    ScenarioInterpreter interp;
    std::istringstream script(
        "participant A 65001\n"
        "participant B 65002\n"
        "participant C 65003\n"
        "outbound A match dstport=80 -> B\n"
        "announce B 100.1.0.0/16 path 65002 900 10\n"
        "announce C 100.9.0.0/16 path 65003\n"
        "install\n"
        "save " + dir.path + "\n"
        // A tail record past the checkpoint: C takes over 100.1/16 with a
        // shorter path, flipping default (non-policy) traffic to C.
        "announce C 100.1.0.0/16 path 65003\n"
        "send A srcip=1.2.3.4 dstip=100.1.2.3 ipproto=17 dstport=53\n"
        "expect port C 0\n");
    std::ostringstream out;
    EXPECT_EQ(interp.run(script, out), 0u) << out.str();
    EXPECT_NE(out.str().find("checkpoint written at lsn"), std::string::npos);
  }
  ScenarioInterpreter interp;
  std::istringstream script(
      "recover " + dir.path + "\n"
      "journal\n"
      // The tail announce must have replayed: default traffic goes to C,
      // policy traffic still to B.
      "send A srcip=1.2.3.4 dstip=100.1.2.3 ipproto=17 dstport=53\n"
      "expect port C 0\n"
      "send A srcip=1.2.3.4 dstip=100.1.2.3 ipproto=6 dstport=80\n"
      "expect port B 0\n");
  std::ostringstream out;
  EXPECT_EQ(interp.run(script, out), 0u) << out.str();
  EXPECT_NE(out.str().find("restart from " + dir.path), std::string::npos);
  EXPECT_NE(out.str().find("journal " + dir.path), std::string::npos);
}

}  // namespace sdx::core
