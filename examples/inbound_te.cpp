/// Inbound traffic engineering — paper §2.
///
/// AS B has two ports at the exchange and wants to control which one its
/// inbound traffic uses — something BGP can only approximate with AS-path
/// prepending or selective advertisements. At the SDX, B simply installs
/// inbound policies on source blocks (or any other header field) and the
/// fabric steers traffic before it ever reaches B's routers.
///
/// The demo sends traffic from two peers, shows the default port
/// selection, then installs and flips an inbound TE policy and prints the
/// per-port packet counters after each phase.

#include <cstdio>

#include "sdx/runtime.hpp"

using namespace sdx;

namespace {

void blast(core::SdxRuntime& sdx, bgp::ParticipantId from, const char* src,
           int packets) {
  for (int i = 0; i < packets; ++i) {
    sdx.send(from, net::PacketBuilder()
                       .src_ip(src)
                       .dst_ip("100.1.2.3")
                       .proto(net::kProtoTcp)
                       .src_port(40000 + static_cast<std::uint64_t>(i))
                       .dst_port(443)
                       .build());
  }
}

void report(core::SdxRuntime& sdx, bgp::ParticipantId b,
            const char* phase) {
  const auto& sw = sdx.fabric().sdx_switch();
  const auto& ports = sdx.participant(b).ports;
  std::printf("%-34s  B1: %4llu pkts   B2: %4llu pkts\n", phase,
              static_cast<unsigned long long>(sw.tx_packets(ports[0].id)),
              static_cast<unsigned long long>(sw.tx_packets(ports[1].id)));
  sdx.fabric().sdx_switch().reset_counters();
}

}  // namespace

int main() {
  core::SdxRuntime sdx;
  const auto A = sdx.add_participant("A", 65001);
  const auto B = sdx.add_participant("B", 65002, /*port_count=*/2);
  const auto C = sdx.add_participant("C", 65003);

  sdx.announce(B, net::Ipv4Prefix::parse("100.1.0.0/16"),
               net::AsPath{65002});
  sdx.announce(A, net::Ipv4Prefix::parse("20.0.0.0/16"),
               net::AsPath{65001});
  sdx.announce(C, net::Ipv4Prefix::parse("30.0.0.0/16"),
               net::AsPath{65003});
  sdx.install();

  std::printf("AS B is reachable on two ports: B1=%u, B2=%u\n\n",
              sdx.participant(B).ports[0].id, sdx.participant(B).ports[1].id);

  // Phase 1: no inbound policy — BGP's next hop (B's primary port) wins.
  blast(sdx, A, "20.0.0.7", 50);
  blast(sdx, C, "30.0.0.7", 50);
  report(sdx, B, "no policy (BGP default):");

  // Phase 2: split by peer — A's traffic on B1, C's on B2.
  sdx.set_inbound(
      B,
      {core::InboundClause{
           core::ClauseMatch{}.src(net::Ipv4Prefix::parse("20.0.0.0/16")),
           {},
           0},
       core::InboundClause{
           core::ClauseMatch{}.src(net::Ipv4Prefix::parse("30.0.0.0/16")),
           {},
           1}});
  blast(sdx, A, "20.0.0.7", 50);
  blast(sdx, C, "30.0.0.7", 50);
  report(sdx, B, "split by source network:");

  // Phase 3: drain B1 for maintenance — everything over B2.
  sdx.set_inbound(B, {core::InboundClause{core::ClauseMatch{}, {}, 1}});
  blast(sdx, A, "20.0.0.7", 50);
  blast(sdx, C, "30.0.0.7", 50);
  report(sdx, B, "drain port B1:");

  return 0;
}
