#include "dataplane/border_router.hpp"

namespace sdx::dp {

void BorderRouter::process_update(const bgp::UpdateMessage& update) {
  for (auto prefix : update.withdrawn) rib_.withdraw(prefix);
  if (!update.attrs.has_value() || update.nlri.empty()) return;
  auto& table = rib_.table();
  const bgp::AttrHandle attrs = table.make(*update.attrs);
  for (auto prefix : update.nlri) rib_.add(prefix, attrs);
  table.release(attrs);
}

std::optional<net::PacketHeader> BorderRouter::forward(
    net::PacketHeader payload, const ArpResponder& arp) const {
  const Framing f = frame(payload, arp);
  if (f.routed) arp.count_query(f.framed);
  if (!f.framed) {
    ++blackholed_;
    return std::nullopt;
  }
  ++forwarded_;
  return payload;
}

BorderRouter::Framing BorderRouter::frame(net::PacketHeader& packet,
                                          const ArpResponder& arp) const {
  Framing out;
  const auto route = rib_.lookup(packet.dst_ip());
  if (!route) return out;
  out.routed = true;
  out.route = route->prefix;
  const net::MacAddress* next_hop_mac = arp.lookup(route->attrs.next_hop);
  if (next_hop_mac == nullptr) return out;
  packet.set_src_mac(mac_);
  packet.set_dst_mac(*next_hop_mac);
  packet.set(net::Field::kEthType, net::kEthTypeIpv4);
  packet.set_port(port_);
  out.framed = true;
  return out;
}

}  // namespace sdx::dp
