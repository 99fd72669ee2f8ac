#include "dataplane/border_router.hpp"

namespace sdx::dp {

void BorderRouter::process_update(const bgp::UpdateMessage& update) {
  for (auto prefix : update.withdrawn) rib_.withdraw(prefix);
  if (update.attrs.has_value()) {
    for (auto prefix : update.nlri) {
      // A re-advertisement (every fast-path update gives the prefix a new
      // VNH) overwrites the stored attributes in place; only a fresh prefix
      // builds a Route.
      if (bgp::Route* stored = rib_.find(prefix)) {
        stored->attrs = *update.attrs;
        continue;
      }
      bgp::Route r;
      r.prefix = prefix;
      r.attrs = *update.attrs;
      rib_.add(std::move(r));
    }
  }
}

std::optional<net::PacketHeader> BorderRouter::forward(
    net::PacketHeader payload, const ArpResponder& arp) const {
  const bgp::Route* route = rib_.lookup(payload.dst_ip());
  if (route == nullptr) {
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
