/// Wide-area server load balancing — paper §5.2 / Figure 4b.
///
/// An AWS tenant with no physical presence at the exchange (a *remote
/// participant*) balances anycast request traffic across two instances by
/// rewriting the destination address at the SDX, keyed on the client's
/// source block. The timeline follows Figure 5b: at t=246 s the tenant
/// installs the load-balance policy and traffic that all went to instance
/// #1 splits across both instances.
///
/// Output: one CSV row per 10-second bucket with the rate reaching each
/// AWS instance — the series plotted in Figure 5b.

#include <cstdio>

#include "sdx/runtime.hpp"

using namespace sdx;

int main() {
  core::SdxRuntime sdx;
  const auto A = sdx.add_participant("A", 65001);  // network hosting the clients
  const auto B = sdx.add_participant("B", 65002);  // transit toward AWS
  const auto T = sdx.add_remote_participant("aws-tenant", 65010);
  (void)A;

  const auto aws16 = net::Ipv4Prefix::parse("74.125.0.0/16");
  const auto anycast = net::Ipv4Address::parse("74.125.1.1");
  const auto instance1 = net::Ipv4Address::parse("74.125.224.161");
  const auto instance2 = net::Ipv4Address::parse("74.125.137.139");

  sdx.announce(B, aws16, net::AsPath{65002, 16509});
  sdx.announce(A, net::Ipv4Prefix::parse("204.57.0.0/16"),
               net::AsPath{65001});
  sdx.install();

  constexpr double kDuration = 600.0;
  constexpr double kPolicyInstall = 246.0;
  constexpr double kBucket = 10.0;

  // Two client populations, 1.5 Mbps each, all requesting the anycast IP.
  struct Client {
    const char* src;
    double mbps;
  };
  const Client clients[2] = {{"96.25.160.10", 1.5}, {"204.57.0.67", 1.5}};

  std::printf("# Figure 5b — wide-area load balance\n");
  std::printf("time_s,instance1_mbps,instance2_mbps\n");

  bool installed = false;
  for (double t = 0; t < kDuration; t += kBucket) {
    if (!installed && t >= kPolicyInstall) {
      // The remote tenant installs its rewrite policy (paper §3.1):
      //   match(dstip=74.125.1.1) >> (match(srcip=...) >> mod(dstip=...)) + ...
      sdx.set_inbound(
          T,
          {core::InboundClause{
               core::ClauseMatch{}
                   .dst(net::Ipv4Prefix::host(anycast))
                   .src(net::Ipv4Prefix::parse("96.25.160.0/24")),
               {{net::Field::kDstIp, instance1.value()}},
               std::nullopt},
           core::InboundClause{
               core::ClauseMatch{}
                   .dst(net::Ipv4Prefix::host(anycast))
                   .src(net::Ipv4Prefix::parse("204.57.0.0/16")),
               {{net::Field::kDstIp, instance2.value()}},
               std::nullopt}});
      installed = true;
      std::fprintf(stderr, "[t=%4.0f] AWS tenant installed the "
                           "load-balance policy remotely\n", t);
    }

    double to_1 = 0, to_2 = 0;
    for (const auto& c : clients) {
      auto deliveries = sdx.send(A, net::PacketBuilder()
                                           .src_ip(c.src)
                                           .dst_ip(anycast)
                                           .proto(net::kProtoTcp)
                                           .dst_port(80)
                                           .build());
      if (deliveries.empty()) continue;
      // Before the policy: requests keep the anycast address and land on
      // whatever host terminates it — instance #1 in the deployment.
      const auto final_dst = deliveries[0].frame.dst_ip();
      if (final_dst == instance2) {
        to_2 += c.mbps;
      } else {
        to_1 += c.mbps;
      }
    }
    std::printf("%.0f,%.1f,%.1f\n", t, to_1, to_2);
  }
  return 0;
}
