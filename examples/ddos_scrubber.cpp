/// Reactive DoS scrubbing — the fourth §2 application, end to end: "when
/// traffic measurements suggest a possible denial-of-service attack, an
/// ISP can ... forward it through a traffic scrubber", except at the SDX
/// the redirect hits only the offending flows instead of hijacking whole
/// prefixes.
///
/// A transit network carries a mix of legitimate clients and one abusive
/// /24 hammering the victim. The TrafficMonitor watches per-source-block
/// rates; when the attacker crosses the threshold, the transit installs a
/// surgical clause steering *only that block* through the scrubber — the
/// scrubber re-advertises the victim's prefix, keeping the redirect
/// BGP-consistent. Legitimate traffic never changes path.

#include <cstdio>

#include "netbase/rng.hpp"
#include "sdx/monitor.hpp"
#include "sdx/runtime.hpp"

using namespace sdx;

int main() {
  core::SdxRuntime sdx;
  const auto transit = sdx.add_participant("transit", 65001);
  const auto victim = sdx.add_participant("victim", 65002);
  const auto scrubber = sdx.add_participant("scrubber", 65003);

  const auto victim_net = net::Ipv4Prefix::parse("203.0.113.0/24");
  sdx.announce(victim, victim_net, net::AsPath{65002});
  // The scrubber advertises a (longer) cleaning path for the victim — the
  // re-advertisement that makes surgical redirection BGP-consistent.
  sdx.announce(scrubber, victim_net, net::AsPath{65003, 65002});
  sdx.install();

  core::TrafficMonitor monitor(/*window_s=*/10.0);
  constexpr std::uint64_t kThreshold = 200;  // pkts per window per /24
  const auto attacker_block = net::Ipv4Prefix::parse("198.18.7.0/24");

  net::SplitMix64 rng(4);
  bool mitigated = false;
  std::printf("t_s,legit_pps_direct,attack_pps_direct,attack_pps_scrubbed\n");
  for (double t = 0; t < 30; t += 1.0) {
    std::uint64_t legit_direct = 0, attack_direct = 0, attack_scrubbed = 0;
    // 50 legitimate packets per second from scattered sources...
    for (int i = 0; i < 50; ++i) {
      auto pkt = net::PacketBuilder()
                     .src_ip(net::Ipv4Address(
                         static_cast<std::uint32_t>(rng())))
                     .dst_ip("203.0.113.10")
                     .proto(net::kProtoTcp)
                     .dst_port(443)
                     .build();
      auto d = sdx.send(transit, pkt);
      if (d.empty()) continue;
      monitor.observe(t, pkt, sdx.ports().phys_owner(d[0].port));
      legit_direct += d[0].port == sdx.participant(victim).ports[0].id;
    }
    // ...and, from t=8s, a 100-pps flood out of one /24.
    if (t >= 8.0) {
      for (int i = 0; i < 100; ++i) {
        auto pkt = net::PacketBuilder()
                       .src_ip(net::Ipv4Address(
                           attacker_block.network().value() |
                           static_cast<std::uint32_t>(rng.below(256))))
                       .dst_ip("203.0.113.10")
                       .proto(net::kProtoUdp)
                       .dst_port(53)
                       .build();
        auto d = sdx.send(transit, pkt);
        if (d.empty()) continue;
        monitor.observe(t, pkt, sdx.ports().phys_owner(d[0].port));
        attack_direct += d[0].port == sdx.participant(victim).ports[0].id;
        attack_scrubbed +=
            d[0].port == sdx.participant(scrubber).ports[0].id;
      }
    }

    // The control loop: redirect heavy hitters through the scrubber.
    if (!mitigated) {
      for (const auto& hh : monitor.heavy_hitters(t, kThreshold)) {
        if (hh.victim != victim) continue;
        core::OutboundClause steer;
        steer.match.src(hh.source_block);
        steer.match.dst(victim_net);
        steer.to = scrubber;
        auto clauses = sdx.participant(transit).outbound;
        clauses.push_back(steer);
        sdx.set_outbound(transit, std::move(clauses));
        mitigated = true;
        std::fprintf(stderr,
                     "[t=%2.0f] %s -> scrubber (%llu pkts in window)\n", t,
                     hh.source_block.to_string().c_str(),
                     static_cast<unsigned long long>(hh.packets));
      }
    }
    std::printf("%.0f,%llu,%llu,%llu\n", t,
                static_cast<unsigned long long>(legit_direct),
                static_cast<unsigned long long>(attack_direct),
                static_cast<unsigned long long>(attack_scrubbed));
  }
  return mitigated ? 0 : 1;
}
