#include "dataplane/fabric.hpp"

#include <stdexcept>

namespace sdx::dp {

void Fabric::attach(BorderRouter& router) {
  auto [it, fresh] = routers_.emplace(router.port(), &router);
  if (!fresh) {
    throw std::invalid_argument("port " + std::to_string(router.port()) +
                                " already attached");
  }
  arp_.bind(router.ip(), router.mac());
}

const BorderRouter* Fabric::router_at(net::PortId port) const {
  auto it = routers_.find(port);
  return it == routers_.end() ? nullptr : it->second;
}

std::vector<Fabric::Delivery> Fabric::send(const BorderRouter& src,
                                           net::PacketHeader payload) {
  auto frame = src.forward(std::move(payload), arp_);
  if (!frame) return {};
  return inject(*frame);
}

std::vector<Fabric::Delivery> Fabric::inject(const net::PacketHeader& frame) {
  std::vector<Delivery> out;
  for (auto& egress : switch_.inject(frame)) {
    Delivery d;
    d.port = egress.port();
    d.receiver = router_at(d.port);
    d.accepted = d.receiver != nullptr && d.receiver->accepts(egress);
    d.frame = std::move(egress);
    out.push_back(std::move(d));
  }
  return out;
}

Fabric::BatchDeliveries Fabric::send_batch(
    const BorderRouter& src, std::span<const net::PacketHeader> payloads) {
  // Frame what the router can forward, remembering which payload each
  // frame came from so router-dropped payloads keep an empty range.
  std::vector<net::PacketHeader> frames;
  std::vector<std::uint32_t> origin;
  frames.reserve(payloads.size());
  origin.reserve(payloads.size());
  src.forward(payloads, arp_, frames, origin);
  const FlowTable::BatchResult egress = switch_.inject_batch(frames);
  BatchDeliveries out;
  out.offsets.reserve(payloads.size() + 1);
  out.offsets.push_back(0);
  std::size_t fi = 0;
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (fi < origin.size() && origin[fi] == i) {
      for (const auto& frame : egress.frames_of(fi)) {
        Delivery d;
        d.port = frame.port();
        d.receiver = router_at(d.port);
        d.accepted = d.receiver != nullptr && d.receiver->accepts(frame);
        d.frame = frame;
        out.deliveries.push_back(std::move(d));
      }
      ++fi;
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.deliveries.size()));
  }
  return out;
}

Fabric::BatchDeliveries Fabric::inject_batch(
    std::span<const net::PacketHeader> frames) {
  const FlowTable::BatchResult egress = switch_.inject_batch(frames);
  BatchDeliveries out;
  out.offsets.reserve(frames.size() + 1);
  out.offsets.push_back(0);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    for (const auto& frame : egress.frames_of(i)) {
      Delivery d;
      d.port = frame.port();
      d.receiver = router_at(d.port);
      d.accepted = d.receiver != nullptr && d.receiver->accepts(frame);
      d.frame = frame;
      out.deliveries.push_back(std::move(d));
    }
    out.offsets.push_back(static_cast<std::uint32_t>(out.deliveries.size()));
  }
  return out;
}

}  // namespace sdx::dp
