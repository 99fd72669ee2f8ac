#pragma once

/// \file fabric.hpp
/// End-to-end IXP data-plane harness: border routers attached to the SDX
/// switch ports, plus the shared ARP responder. Used by integration tests,
/// the examples, and the Figure 5 deployment benchmark to trace real
/// packet journeys (router FIB → VMAC tag → fabric rules → egress rewrite
/// → receiving router).

#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/arp.hpp"
#include "dataplane/border_router.hpp"
#include "dataplane/switch.hpp"

namespace sdx::dp {

class Fabric {
 public:
  ArpResponder& arp() { return arp_; }
  const ArpResponder& arp() const { return arp_; }
  SwitchSim& sdx_switch() { return switch_; }
  const SwitchSim& sdx_switch() const { return switch_; }

  /// Attaches a router to its IXP port and publishes its real MAC in the
  /// ARP table. The router must outlive the fabric registration.
  void attach(BorderRouter& router);

  const BorderRouter* router_at(net::PortId port) const;

  /// One delivered (or undeliverable) frame at an egress port.
  struct Delivery {
    net::PortId port = 0;
    const BorderRouter* receiver = nullptr;  ///< nullptr: no router there
    net::PacketHeader frame;
    bool accepted = false;  ///< receiver exists and the dst MAC is its own
  };

  /// Full journey of one IP packet: \p src forwards it (FIB+ARP), the
  /// switch processes the frame, and every egress copy is offered to the
  /// router on that port. An empty result means the packet was dropped at
  /// the source router (no route / no ARP) or inside the fabric.
  std::vector<Delivery> send(const BorderRouter& src,
                             net::PacketHeader payload);

  /// Injects an already-framed packet at its current port.
  std::vector<Delivery> inject(const net::PacketHeader& frame);

  /// Flattened deliveries of a burst: packet i's deliveries are
  /// deliveries[offsets[i] .. offsets[i+1]). A packet dropped at the
  /// source router or inside the fabric gets an empty range, exactly as
  /// send()/inject() would return an empty vector.
  struct BatchDeliveries {
    std::vector<Delivery> deliveries;
    std::vector<std::uint32_t> offsets;  ///< burst size + 1 entries

    std::size_t packets() const {
      return offsets.empty() ? 0 : offsets.size() - 1;
    }
    std::span<const Delivery> of(std::size_t i) const {
      return {deliveries.data() + offsets[i], offsets[i + 1] - offsets[i]};
    }
  };

  /// Burst counterpart of send(): frames the burst through \p src's burst
  /// forward() (one lockstep FIB walk per BorderRouter::kLockstep payloads,
  /// then ARP), then runs every framed packet through the switch in one
  /// process_batch pass. Per-payload results and every counter match one
  /// send() per payload exactly.
  BatchDeliveries send_batch(const BorderRouter& src,
                             std::span<const net::PacketHeader> payloads);

  /// Burst counterpart of inject().
  BatchDeliveries inject_batch(std::span<const net::PacketHeader> frames);

 private:
  ArpResponder arp_;
  SwitchSim switch_;
  std::unordered_map<net::PortId, BorderRouter*> routers_;
};

}  // namespace sdx::dp
