/// Application-specific peering in the wide area — the deployment of paper
/// §5.2 / Figure 4a, reproduced over the emulated data plane.
///
/// AS C hosts a client that sends three 1 Mbps UDP flows toward an AWS
/// prefix reachable via both AS A and AS B. The timeline follows Figure 5a:
///
///   t=565 s   AS C installs `match(dstport=80) >> fwd(B)`: port-80 traffic
///             shifts from the BGP default (via A) to AS B;
///   t=1253 s  AS B withdraws its route (emulating a failure): the SDX
///             resynchronizes the data plane and all traffic returns to A.
///
/// Output: one CSV row per 10-second bucket with the traffic rate seen on
/// each path, i.e. the series plotted in Figure 5a.

#include <cstdio>

#include "sdx/runtime.hpp"

using namespace sdx;

int main() {
  core::SdxRuntime sdx;
  const auto A = sdx.add_participant("A", 65001);   // Transit Portal @ Wisconsin
  const auto B = sdx.add_participant("B", 65002);   // Transit Portal @ Clemson
  const auto C = sdx.add_participant("C", 65003);   // ISP hosting the client

  const auto aws = net::Ipv4Prefix::parse("72.252.0.0/16");
  sdx.announce(A, aws, net::AsPath{65001, 16509});
  sdx.announce(B, aws, net::AsPath{65002, 7018, 16509});  // longer: backup
  sdx.announce(C, net::Ipv4Prefix::parse("198.51.100.0/24"),
               net::AsPath{65003});
  sdx.install();

  constexpr double kDuration = 1800.0;
  constexpr double kPolicyInstall = 565.0;
  constexpr double kWithdrawal = 1253.0;
  constexpr double kBucket = 10.0;
  constexpr double kFlowMbps = 1.0;

  // Three 1 Mbps UDP flows, per Figure 4a: port 80, port 443 and port 8080.
  const std::uint64_t flow_ports[3] = {80, 443, 8080};

  std::printf("# Figure 5a — application-specific peering\n");
  std::printf("time_s,via_AS_A_mbps,via_AS_B_mbps\n");

  bool policy_installed = false;
  bool withdrawn = false;
  for (double t = 0; t < kDuration; t += kBucket) {
    if (!policy_installed && t >= kPolicyInstall) {
      // The participant pushes a new policy; the controller redeploys it.
      sdx.set_outbound(
          C, {core::OutboundClause{core::ClauseMatch{}.dst_port(80), B}});
      policy_installed = true;
      std::fprintf(stderr, "[t=%4.0f] AS C installed application-specific "
                           "peering policy\n", t);
    }
    if (!withdrawn && t >= kWithdrawal) {
      sdx.withdraw(B, aws);  // route withdrawal → fast-path resync
      withdrawn = true;
      std::fprintf(stderr, "[t=%4.0f] AS B withdrew its route to AWS "
                           "(%zu fast-path rules)\n",
                   t, sdx.update_log().empty()
                          ? std::size_t{0}
                          : sdx.update_log().back().additional_rules);
    }

    double via_a = 0, via_b = 0;
    for (std::uint64_t port : flow_ports) {
      auto deliveries = sdx.send(C, net::PacketBuilder()
                                           .src_ip("198.51.100.7")
                                           .dst_ip("72.252.1.1")
                                           .proto(net::kProtoUdp)
                                           .dst_port(port)
                                           .build());
      if (deliveries.empty()) continue;
      if (deliveries[0].port == sdx.participant(A).primary_port().id) via_a += kFlowMbps;
      if (deliveries[0].port == sdx.participant(B).primary_port().id) via_b += kFlowMbps;
    }
    std::printf("%.0f,%.1f,%.1f\n", t, via_a, via_b);
  }
  return 0;
}
