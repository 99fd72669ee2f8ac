/// Restart-time benchmark — the price of coming back after a crash, across
/// Table-1-sized RIBs, in three modes:
///
///   cold       — genesis WAL only: recovery replays every mutation since
///                birth, including the full install() compilation;
///   ckpt-only  — a checkpoint and an empty tail: recovery decodes the
///                checkpoint and (fingerprint permitting) adopts the
///                compiled tables without compiling — the warm restart;
///   warm       — checkpoint plus a WAL tail of post-install updates:
///                adoption followed by one batched fast-path replay pass.
///
/// The interesting gap is cold vs warm: a warm restart skips the full
/// pipeline entirely (`sdx_compile_runs_total` stays 0 — visible in the
/// metrics snapshot) and reuses every persisted VNH→VMAC binding, so
/// border-router ARP caches survive the restart.
///
/// CSV: mode,participants,prefixes,tail_updates,recover_ms,replayed,warm

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "netbase/rng.hpp"
#include "sdx/runtime.hpp"

namespace {

using namespace sdx;

/// Deterministic /24 universe: index i → 100.<i/256>.<i%256>.0/24.
net::Ipv4Prefix prefix_of(std::size_t i) {
  return net::Ipv4Prefix(
      net::Ipv4Address((100u << 24) | static_cast<std::uint32_t>(i << 8)),
      24);
}

/// Builds the exchange through the runtime API (the journal records runtime
/// mutations, so the workload must be driven through the runtime — a
/// pre-generated IXP snapshot would bypass the WAL). Participants are
/// registered with deterministic ids/MACs/IPs, prefixes are originated
/// round-robin, and every third participant installs outbound clauses so
/// compilation has policy work to do.
void build_base(core::SdxRuntime& rt, std::size_t participants,
                std::size_t prefixes) {
  for (std::size_t j = 1; j <= participants; ++j) {
    rt.add_participant("P" + std::to_string(j),
                       static_cast<net::Asn>(65000 + j));
  }
  for (std::size_t j = 1; j <= participants; j += 3) {
    const auto to = static_cast<bgp::ParticipantId>(j % participants + 1);
    rt.set_outbound(
        static_cast<bgp::ParticipantId>(j),
        {core::OutboundClause{core::ClauseMatch{}.dst_port(80), to},
         core::OutboundClause{core::ClauseMatch{}.dst_port(443), to}});
  }
  for (std::size_t i = 0; i < prefixes; ++i) {
    const auto owner = static_cast<bgp::ParticipantId>(i % participants + 1);
    rt.announce(owner, prefix_of(i),
                net::AsPath{static_cast<net::Asn>(65000 + owner),
                            static_cast<net::Asn>(1000 + i % 7)});
  }
  rt.install();
}

/// Post-install churn: announcements from rotating participants (best-route
/// flips) with an occasional withdrawal, mirroring the §4.3 burst mix.
void apply_tail(core::SdxRuntime& rt, std::size_t participants,
                std::size_t prefixes, std::size_t updates) {
  net::SplitMix64 rng(99);
  for (std::size_t u = 0; u < updates; ++u) {
    const std::size_t i = rng.below(prefixes);
    const auto owner = static_cast<bgp::ParticipantId>(i % participants + 1);
    if (rng.below(10) < 3) {
      rt.withdraw(owner, prefix_of(i));
    } else {
      const auto via =
          static_cast<bgp::ParticipantId>(rng.below(participants) + 1);
      rt.announce(via, prefix_of(i),
                  net::AsPath{static_cast<net::Asn>(65000 + via)});
    }
  }
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sdx_bench_restart_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  core::CompileOptions options;
  options.threads = bench::bench_threads();
  const std::size_t prefixes = smoke ? 2000 : 25000;
  const std::size_t tail_updates = smoke ? 32 : 512;
  const auto participant_counts = smoke ? std::vector<std::size_t>{20}
                                        : std::vector<std::size_t>{100, 300};

  std::printf("# restart time — cold vs warm vs checkpoint-only recovery\n");
  std::printf("mode,participants,prefixes,tail_updates,recover_ms,replayed,warm\n");

  for (const std::size_t participants : participant_counts) {
    // cold: the journal is attached before any state exists, so recovery
    // is a full genesis replay (every announce plus the install compile).
    {
      TempDir dir;
      {
        core::SdxRuntime rt(bgp::DecisionConfig{}, options);
        rt.attach_journal(dir.path,
                          {persist::Journal::Options::Fsync::kNever});
        build_base(rt, participants, prefixes);
        apply_tail(rt, participants, prefixes, tail_updates);
      }
      core::SdxRuntime rt(bgp::DecisionConfig{}, options);
      const auto report = rt.recover(dir.path);
      std::printf("cold,%zu,%zu,%zu,%.3f,%zu,%d\n", participants, prefixes,
                  tail_updates, report.seconds * 1e3, report.replayed,
                  report.warm ? 1 : 0);
      std::fflush(stdout);
    }
    // ckpt-only: checkpoint at the installed state, empty tail — the pure
    // warm-restart cost (decode + fingerprint check + table adoption).
    {
      TempDir dir;
      {
        core::SdxRuntime rt(bgp::DecisionConfig{}, options);
        build_base(rt, participants, prefixes);
        apply_tail(rt, participants, prefixes, tail_updates);
        rt.attach_journal(dir.path,
                          {persist::Journal::Options::Fsync::kNever});
      }
      core::SdxRuntime rt(bgp::DecisionConfig{}, options);
      const auto report = rt.recover(dir.path);
      std::printf("ckpt-only,%zu,%zu,%zu,%.3f,%zu,%d\n", participants,
                  prefixes, tail_updates, report.seconds * 1e3,
                  report.replayed, report.warm ? 1 : 0);
      std::fflush(stdout);
    }
    // warm: checkpoint at install, then a churn tail — adoption plus one
    // batched fast-path replay of the tail.
    {
      TempDir dir;
      {
        core::SdxRuntime rt(bgp::DecisionConfig{}, options);
        build_base(rt, participants, prefixes);
        rt.attach_journal(dir.path,
                          {persist::Journal::Options::Fsync::kNever});
        apply_tail(rt, participants, prefixes, tail_updates);
      }
      core::SdxRuntime rt(bgp::DecisionConfig{}, options);
      const auto report = rt.recover(dir.path);
      std::printf("warm,%zu,%zu,%zu,%.3f,%zu,%d\n", participants, prefixes,
                  tail_updates, report.seconds * 1e3, report.replayed,
                  report.warm ? 1 : 0);
      std::fflush(stdout);
      // The snapshot of the last warm recovery is the artifact CI scrapes:
      // sdx_recovery_warm_total=1 and sdx_compile_runs_total absent/0
      // prove the restart skipped the pipeline.
      if (participants == participant_counts.back()) {
        bench::emit_metrics_snapshot(rt.dump_metrics());
      }
    }
  }
  return 0;
}
