#include "dataplane/border_router.hpp"

#include <algorithm>
#include <array>

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
  count(1, f.routed, f.framed, arp);
  if (!f.framed) return std::nullopt;
  return payload;
}

void BorderRouter::forward(std::span<const net::PacketHeader> payloads,
                           const ArpResponder& arp,
                           std::vector<net::PacketHeader>& frames,
                           std::vector<std::uint32_t>& origin) const {
  std::array<Framing, kLockstep> found;
  std::size_t routed = 0, framed = 0;
  for (std::size_t base = 0; base < payloads.size(); base += kLockstep) {
    const std::size_t n = std::min(kLockstep, payloads.size() - base);
    // Frame the chunk in place at the end of frames, then close the gaps
    // the unframed payloads leave.
    const std::size_t first = frames.size();
    const auto chunk = payloads.subspan(base, n);
    frames.insert(frames.end(), chunk.begin(), chunk.end());
    frame<kLockstep>(std::span(frames).subspan(first, n),
                     std::span(found).first(n), arp);
    std::size_t kept = first;
    for (std::size_t k = 0; k < n; ++k) {
      routed += found[k].routed;
      if (!found[k].framed) continue;
      if (kept != first + k) frames[kept] = frames[first + k];
      ++kept;
      origin.push_back(static_cast<std::uint32_t>(base + k));
    }
    framed += kept - first;
    frames.resize(kept);
  }
  count(payloads.size(), routed, framed, arp);
}

BorderRouter::Framing BorderRouter::frame(net::PacketHeader& packet,
                                          const ArpResponder& arp) const {
  Framing out;
  frame<1>(std::span(&packet, 1), std::span(&out, 1), arp);
  return out;
}

template <std::size_t N>
void BorderRouter::frame(std::span<net::PacketHeader> packets,
                         std::span<Framing> out,
                         const ArpResponder& arp) const {
  std::array<net::Ipv4Address, N> dst;
  std::array<bgp::Rib::Hit, N> hit;
  const std::size_t n = packets.size();
  for (std::size_t k = 0; k < n; ++k) dst[k] = packets[k].dst_ip();
  rib_.lookup(std::span(dst).first(n), std::span(hit).first(n));
  const bgp::AttrTable& attrs = rib_.table();
  for (std::size_t k = 0; k < n; ++k) {
    Framing& f = out[k];
    f = Framing{};
    if (hit[k].attrs == bgp::Rib::kNoRoute) continue;
    f.routed = true;
    f.route = rib_.index().prefix(hit[k].slot);
    const net::MacAddress* next_hop_mac =
        arp.lookup(attrs[hit[k].attrs].next_hop);
    if (next_hop_mac == nullptr) continue;
    net::PacketHeader& packet = packets[k];
    packet.set_src_mac(mac_);
    packet.set_dst_mac(*next_hop_mac);
    packet.set(net::Field::kEthType, net::kEthTypeIpv4);
    packet.set_port(port_);
    f.framed = true;
  }
}

void BorderRouter::count(std::size_t packets, std::size_t routed,
                         std::size_t framed, const ArpResponder& arp) const {
  arp.count_queries(routed, routed - framed);
  forwarded_ += framed;
  blackholed_ += packets - framed;
}

}  // namespace sdx::dp
