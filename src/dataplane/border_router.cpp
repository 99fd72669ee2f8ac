#include "dataplane/border_router.hpp"

namespace sdx::dp {

void BorderRouter::process_update(const bgp::UpdateMessage& update) {
  for (auto prefix : update.withdrawn) withdraw(prefix);
  if (!update.attrs.has_value() || update.nlri.empty()) return;
  auto& table = rib_.table();
  const bgp::AttrHandle attrs = table.make(*update.attrs);
  for (auto prefix : update.nlri) announce(prefix, attrs);
  table.release(attrs);
}

std::optional<net::PacketHeader> BorderRouter::forward(
    net::PacketHeader payload, const ArpResponder& arp) const {
  const auto route = rib_.lookup(payload.dst_ip());
  if (!route) {
    ++blackholed_;
    return std::nullopt;
  }
  auto next_hop_mac = arp.resolve(route->attrs.next_hop);
  if (!next_hop_mac) {
    ++blackholed_;
    return std::nullopt;
  }
  payload.set_src_mac(mac_);
  payload.set_dst_mac(*next_hop_mac);
  payload.set(net::Field::kEthType, net::kEthTypeIpv4);
  payload.set_port(port_);
  ++forwarded_;
  return payload;
}

}  // namespace sdx::dp
