/// Figure 5 — traffic patterns for the two "live" SDX applications
/// (§5.2), regenerated over the emulated data plane.
///
/// 5a: application-specific peering. Policy install at t=565 s shifts
///     port-80 traffic from AS A to AS B; B's route withdrawal at t=1253 s
///     shifts everything back to A. Each 30 s tick offers a generated
///     96-packet traffic mix (12 flows × {80, 443, 8080}, every flow
///     repeated 8× per burst) through the batched data-plane path
///     (send_batch → process_batch), with a TrafficMonitor tallying the
///     deliveries the way the DDoS-scrubber application would.
/// 5b: wide-area load balance. Policy install at t=246 s splits anycast
///     request traffic across the two AWS instances.
///
/// Output: both CSV series (coarse 30 s buckets; the standalone examples
/// app_specific_peering / wide_area_load_balancer print the full-resolution
/// versions), followed by a shape check of the step transitions.

#include <cstdio>
#include <vector>

#include "sdx/monitor.hpp"
#include "sdx/runtime.hpp"

using namespace sdx;

namespace {

bool fig5a() {
  core::SdxRuntime sdx;
  const auto A = sdx.add_participant("A", 65001);
  const auto B = sdx.add_participant("B", 65002);
  const auto C = sdx.add_participant("C", 65003);
  const auto aws = net::Ipv4Prefix::parse("72.252.0.0/16");
  sdx.announce(A, aws, net::AsPath{65001, 16509});
  sdx.announce(B, aws, net::AsPath{65002, 7018, 16509});
  sdx.announce(C, net::Ipv4Prefix::parse("198.51.100.0/24"),
               net::AsPath{65003});
  sdx.install();

  // The per-tick traffic mix: 12 flows (4 per application port), each flow
  // repeated 8× per burst — the duplicate structure the batched lookup's
  // dedup/memo pass exploits.
  constexpr std::uint64_t kPorts[3] = {80, 443, 8080};
  constexpr std::size_t kBurst = 96;
  std::vector<net::PacketHeader> burst;
  burst.reserve(kBurst);
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t k = 0; k < 32; ++k) {
      const std::size_t flow = c * 4 + k % 4;
      burst.push_back(net::PacketBuilder()
                          .src_ip(net::Ipv4Address(
                              net::Ipv4Address::parse("198.51.100.0").value() +
                              7 + static_cast<std::uint32_t>(flow)))
                          .src_port(1024 + flow)
                          .dst_ip("72.252.1.1")
                          .proto(net::kProtoUdp)
                          .dst_port(kPorts[c])
                          .build());
    }
  }

  const auto port_a = sdx.participant(A).primary_port().id;
  const auto port_b = sdx.participant(B).primary_port().id;
  core::TrafficMonitor monitor(3600.0);
  std::uint64_t delivered = 0;

  std::printf("# Figure 5a — application-specific peering\n");
  std::printf("time_s,via_AS_A_mbps,via_AS_B_mbps\n");
  bool policy = false, withdrawn = false;
  double pre_a = -1, mid_b = -1, post_a = -1;
  for (double t = 0; t < 1800; t += 30) {
    if (!policy && t >= 565) {
      sdx.set_outbound(
          C, {core::OutboundClause{core::ClauseMatch{}.dst_port(80), B}});
      policy = true;
    }
    if (!withdrawn && t >= 1253) {
      sdx.withdraw(B, aws);
      withdrawn = true;
    }
    double via_a = 0, via_b = 0;
    const auto res = sdx.send_batch(C, burst);
    for (std::size_t i = 0; i < res.packets(); ++i) {
      const auto d = res.of(i);
      if (d.empty()) continue;
      via_a += d[0].port == port_a ? 1 : 0;
      via_b += d[0].port == port_b ? 1 : 0;
      monitor.observe(t, d[0].frame, d[0].port == port_b ? B : A);
      ++delivered;
    }
    std::printf("%.0f,%.1f,%.1f\n", t, via_a, via_b);
    if (t < 565) pre_a = via_a;
    if (t > 600 && t < 1253) mid_b = via_b;
    if (t > 1290) post_a = via_a;
  }
  const bool shape = pre_a == 96 && mid_b == 32 && post_a == 96;
  const bool counted = monitor.observed_total() == delivered;
  const auto hh = monitor.heavy_hitters(1800.0, delivered / 4 + 1);
  std::printf(
      "# shape: pre=96 pkts via A (%s), policy diverts the 32 port-80 pkts "
      "to B (%s), withdrawal restores A (%s); monitor saw %llu/%llu (%s), "
      "top block %s\n",
      pre_a == 96 ? "ok" : "FAIL", mid_b == 32 ? "ok" : "FAIL",
      post_a == 96 ? "ok" : "FAIL",
      static_cast<unsigned long long>(monitor.observed_total()),
      static_cast<unsigned long long>(delivered), counted ? "ok" : "FAIL",
      hh.empty() ? "none" : hh[0].source_block.to_string().c_str());
  return shape && counted && !hh.empty();
}

bool fig5b() {
  core::SdxRuntime sdx;
  const auto A = sdx.add_participant("A", 65001);
  const auto B = sdx.add_participant("B", 65002);
  const auto T = sdx.add_remote_participant("aws-tenant", 65010);
  (void)B;
  const auto anycast = net::Ipv4Address::parse("74.125.1.1");
  const auto i2 = net::Ipv4Address::parse("74.125.137.139");
  sdx.announce(B, net::Ipv4Prefix::parse("74.125.0.0/16"),
               net::AsPath{65002, 16509});
  sdx.announce(A, net::Ipv4Prefix::parse("204.57.0.0/16"),
               net::AsPath{65001});
  sdx.install();

  std::printf("\n# Figure 5b — wide-area load balance\n");
  std::printf("time_s,instance1_mbps,instance2_mbps\n");
  bool policy = false;
  double pre_1 = -1, post_1 = -1, post_2 = -1;
  // Frames addressed anywhere but the two instances: instance 1 answers
  // the unrewritten anycast address, instance 2 the rewritten one.
  int stray = 0;
  for (double t = 0; t < 600; t += 30) {
    if (!policy && t >= 246) {
      sdx.set_inbound(
          T, {core::InboundClause{
                  core::ClauseMatch{}
                      .dst(net::Ipv4Prefix::host(anycast))
                      .src(net::Ipv4Prefix::parse("204.57.0.0/16")),
                  {{net::Field::kDstIp, i2.value()}},
                  std::nullopt}});
      policy = true;
    }
    double to_1 = 0, to_2 = 0;
    for (const char* src : {"96.25.160.10", "204.57.0.67"}) {
      auto d = sdx.send(A, net::PacketBuilder()
                               .src_ip(src)
                               .dst_ip(anycast)
                               .proto(net::kProtoTcp)
                               .dst_port(80)
                               .build());
      if (d.empty()) continue;
      const auto dst = d[0].frame.dst_ip();
      if (dst == anycast) {
        to_1 += 1.5;
      } else if (dst == i2) {
        to_2 += 1.5;
      } else {
        ++stray;
      }
    }
    std::printf("%.0f,%.1f,%.1f\n", t, to_1, to_2);
    if (t < 246) pre_1 = to_1;
    if (t > 270) {
      post_1 = to_1;
      post_2 = to_2;
    }
  }
  const bool ok =
      pre_1 == 3.0 && post_1 == 1.5 && post_2 == 1.5 && stray == 0;
  std::printf("# shape: pre-policy all to instance 1 (%s), post-policy "
              "split 1.5/1.5 (%s), %d frames to neither instance (%s)\n",
              pre_1 == 3.0 ? "ok" : "FAIL",
              post_1 == 1.5 && post_2 == 1.5 ? "ok" : "FAIL", stray,
              stray == 0 ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  const bool a = fig5a();
  const bool b = fig5b();
  return a && b ? 0 : 1;
}
