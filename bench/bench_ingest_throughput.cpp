/// Ingest throughput benchmark — the event-driven ingest subsystem end to
/// end: real loopback BGP sessions (and an MRT trace replay) through the
/// reactor, the spill queue and the batched fast path of an installed
/// runtime. Two sources, one row each:
///
///   tcp — N BgpReplayClients send UPDATEs concurrently while the control
///         thread drains; backpressure (not drops) absorbs any mismatch
///         between offered load and drain rate;
///   mrt — a synthesized BGP4MP trace replays at line rate into the same
///         spill queue through MrtReplaySource.
///
/// The acceptance bar is sustained throughput ≥ 1M updates/minute with the
/// ingest→install latency visible as a histogram
/// (sdx_ingest_install_latency_seconds); the CSV reports the interpolated
/// per-phase p99 from its buckets.
///
/// Smoke mode trades concurrency for determinism: each phase enqueues its
/// whole workload (the queue is sized above the offered load, every update
/// touches a distinct prefix) before the control thread drains, so the
/// counter series of the committed baseline
/// (bench/baselines/ingest-metrics.prom) are byte-stable run to run —
/// sheds and drops pinned at zero, one flush per full drain batch.
///
/// CSV: source,sessions,updates,seconds,updates_per_min,p99_ms,sheds,drops

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "bgp/mrt.hpp"
#include "ingest/mrt_source.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/replay_client.hpp"
#include "sdx/runtime.hpp"

namespace {

using namespace sdx;
using namespace std::chrono_literals;

/// Churn universe: 256 /24s per session under \p base. Smoke sends each
/// prefix exactly once (per_session <= 256), so the dirty set — and with it
/// every fast-path counter — is identical run to run; full mode wraps and
/// flips best routes, the §4.3 churn shape.
bgp::UpdateMessage churn_update(net::Asn asn, unsigned seq,
                                std::uint32_t base) {
  bgp::UpdateMessage u;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{asn};
  attrs.next_hop = net::Ipv4Address::parse("10.0.0.1");
  u.attrs = attrs;
  u.nlri = {net::Ipv4Prefix(
      net::Ipv4Address(base | ((asn & 0xffu) << 16) | ((seq & 0xffu) << 8)),
      24)};
  return u;
}

/// Interpolated p99 of the observations made since \p before (a
/// cumulative() snapshot taken at phase start). The +Inf bucket degrades
/// to the largest finite edge, like the regression gate's median.
double p99_ms(const telemetry::Histogram& h,
              const std::vector<std::uint64_t>& before) {
  const auto after = h.cumulative();
  const auto& bounds = h.bounds();
  std::vector<std::uint64_t> cum(after.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    cum[i] = after[i] - (i < before.size() ? before[i] : 0);
  }
  const auto total = cum.empty() ? 0 : cum.back();
  if (total == 0) return 0.0;
  const double need = 0.99 * static_cast<double>(total);
  double prev_le = 0.0, prev_cum = 0.0;
  for (std::size_t i = 0; i < cum.size(); ++i) {
    const bool inf = i >= bounds.size();
    const double le = inf ? 0.0 : bounds[i];
    const double c = static_cast<double>(cum[i]);
    if (c >= need) {
      if (inf) return prev_le * 1e3;
      const double span = c - prev_cum;
      const double frac = span > 0 ? (need - prev_cum) / span : 0.0;
      return (prev_le + frac * (le - prev_le)) * 1e3;
    }
    prev_le = le;
    prev_cum = c;
  }
  return prev_le * 1e3;
}

void print_row(const char* source, std::size_t sessions, std::size_t updates,
               double seconds, double p99, std::uint64_t sheds,
               std::uint64_t drops) {
  const double per_min = seconds > 0 ? updates / seconds * 60.0 : 0.0;
  std::printf("%s,%zu,%zu,%.3f,%.0f,%.3f,%llu,%llu\n", source, sessions,
              updates, seconds, per_min, p99,
              static_cast<unsigned long long>(sheds),
              static_cast<unsigned long long>(drops));
  std::fflush(stdout);
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  core::CompileOptions options;
  options.threads = bench::bench_threads();

  const std::size_t sessions = smoke ? 2 : 4;
  const std::size_t per_session = smoke ? 192 : 75000;
  const std::size_t mrt_peers = 2;
  const std::size_t per_peer = smoke ? 192 : 150000;

  core::SdxRuntime rt(bgp::DecisionConfig{}, options);
  std::vector<core::ParticipantId> ids;
  for (std::size_t j = 0; j < std::max(sessions, mrt_peers); ++j) {
    ids.push_back(rt.add_participant("P" + std::to_string(j + 1),
                                     static_cast<net::Asn>(65001 + j)));
  }
  // A little policy so the fast path compiles real clauses, and a small
  // installed base so ingest lands on the post-install path from update 1.
  rt.set_outbound(ids[0],
                  {core::OutboundClause{core::ClauseMatch{}.dst_port(80),
                                        ids[1]}});
  for (std::size_t j = 0; j < ids.size(); ++j) {
    for (unsigned i = 0; i < 4; ++i) {
      rt.announce(ids[j],
                  net::Ipv4Prefix(
                      net::Ipv4Address((99u << 24) |
                                       (static_cast<std::uint32_t>(j) << 16) |
                                       (i << 8)),
                      24),
                  net::AsPath{static_cast<net::Asn>(65001 + j)});
    }
  }
  rt.install();
  rt.enable_batching();

  ingest::IngestPipeline::Options opt;
  opt.listener.hold_time = 0;  // deterministic byte streams
  if (smoke) {
    // Above the offered load: nothing sheds, nothing blocks, the whole
    // workload sits queued before the first drain.
    opt.queue.capacity = 8192;
    opt.queue.per_peer_quota = 4096;
  } else {
    opt.drain_batch = 1024;
  }
  ingest::IngestPipeline pipeline(rt, opt);
  const auto port = pipeline.start();
  auto& latency = rt.telemetry().metrics.histogram(
      "sdx_ingest_install_latency_seconds", "", telemetry::time_buckets());

  std::printf(
      "# ingest throughput — TCP sessions and MRT replay into the batched "
      "fast path\n");
  std::printf("source,sessions,updates,seconds,updates_per_min,p99_ms,sheds,drops\n");

  // --- tcp: concurrent loopback sessions ------------------------------------
  {
    const std::size_t total = sessions * per_session;
    const auto target = pipeline.applied() + total;
    const auto sheds0 = pipeline.queue().shed_events();
    const auto before = latency.cumulative();

    std::vector<std::unique_ptr<ingest::BgpReplayClient>> clients;
    for (std::size_t j = 0; j < sessions; ++j) {
      ingest::BgpReplayClient::Options o;
      o.asn = static_cast<net::Asn>(65001 + j);
      o.router_id = net::Ipv4Address(0x0a000000u | o.asn);
      clients.push_back(std::make_unique<ingest::BgpReplayClient>(o));
      clients.back()->connect(port);
    }

    bench::Stopwatch sw;
    if (smoke) {
      for (unsigned seq = 0; seq < per_session; ++seq) {
        for (std::size_t j = 0; j < sessions; ++j) {
          clients[j]->send_update(churn_update(
              static_cast<net::Asn>(65001 + j), seq, 100u << 24));
        }
      }
      while (pipeline.queue().depth() < total) std::this_thread::sleep_for(1ms);
      pipeline.drain_until_idle();
    } else {
      std::vector<std::thread> producers;
      for (std::size_t j = 0; j < sessions; ++j) {
        producers.emplace_back([&, j] {
          for (unsigned seq = 0; seq < per_session; ++seq) {
            clients[j]->send_update(churn_update(
                static_cast<net::Asn>(65001 + j), seq, 100u << 24));
          }
        });
      }
      while (pipeline.applied() < target) {
        if (pipeline.drain() == 0) std::this_thread::sleep_for(100us);
      }
      for (auto& t : producers) t.join();
    }
    const double seconds = sw.seconds();
    print_row("tcp", sessions, total, seconds, p99_ms(latency, before),
              pipeline.queue().shed_events() - sheds0,
              pipeline.queue().drops());
    for (auto& c : clients) c->close();
  }

  // --- mrt: trace replay at line rate ----------------------------------------
  {
    const std::size_t total = mrt_peers * per_peer;
    std::stringstream trace;
    for (unsigned seq = 0; seq < per_peer; ++seq) {
      for (std::size_t p = 0; p < mrt_peers; ++p) {
        const auto asn = static_cast<net::Asn>(65001 + p);
        bgp::Bgp4mpMessage m;
        m.peer_as = asn;
        m.local_as = 64999;
        m.peer_ip = net::Ipv4Address(0x0a000000u | asn);
        m.local_ip = net::Ipv4Address::parse("10.0.0.254");
        m.message = churn_update(asn, seq, 101u << 24);
        bgp::write_record(trace, bgp::encode_bgp4mp(seq, m));
      }
    }
    ingest::MrtReplaySource source(
        {}, [&](net::Asn as,
                net::Ipv4Address) -> std::optional<core::ParticipantId> {
          const std::size_t p = as - 65001;
          if (p >= ids.size()) return std::nullopt;
          return ids[p];
        });

    const auto target = pipeline.applied() + total;
    const auto sheds0 = pipeline.queue().shed_events();
    const auto before = latency.cumulative();
    bench::Stopwatch sw;
    if (smoke) {
      const auto result = source.replay_trace(trace, pipeline.queue());
      if (!result.ok() || result.updates != total) {
        std::fprintf(stderr, "mrt replay fell short: %llu/%zu (%s)\n",
                     static_cast<unsigned long long>(result.updates), total,
                     result.error.c_str());
        return 1;
      }
      pipeline.drain_until_idle();
    } else {
      std::thread replay([&] { source.replay_trace(trace, pipeline.queue()); });
      while (pipeline.applied() < target) {
        if (pipeline.drain() == 0) std::this_thread::sleep_for(100us);
      }
      replay.join();
    }
    const double seconds = sw.seconds();
    print_row("mrt", mrt_peers, total, seconds, p99_ms(latency, before),
              pipeline.queue().shed_events() - sheds0,
              pipeline.queue().drops());
  }

  pipeline.stop();
  bench::emit_metrics_snapshot(rt.dump_metrics());
  return 0;
}
