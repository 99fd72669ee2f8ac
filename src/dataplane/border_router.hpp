#pragma once

/// \file border_router.hpp
/// An unmodified BGP border router, as the SDX sees one (paper §4.2): it
/// receives BGP UPDATEs from the route server, installs a FIB entry per
/// prefix, and when forwarding a packet it (1) looks up the longest-prefix
/// match, (2) extracts the BGP next-hop IP, (3) ARPs for it, and (4) writes
/// the answer into the destination MAC before emitting the frame on its IXP
/// port. The SDX exploits exactly this mechanic to have routers tag packets
/// with the VMAC of their prefix group — "without any additional table
/// space" and with no router modification.
///
/// FIB storage. A router's FIB (bgp::Rib) is its column in a prefix index
/// that all routers of one runtime share (bgp::FibIndex, see rib.hpp): the
/// trie is walked once per prefix for every router, and the LPM in forward()
/// and frame() keeps the deepest prefix on the path that this router holds,
/// so it never matches a longer prefix only another member was advertised.
/// A slot freed by its last holder is reused by the next new prefix. The
/// attributes a lookup returns stay valid until the next AttrTable::make(),
/// i.e. until the next FIB write that makes a set.
///
/// Bursts. There is one framing routine, over up to kLockstep packets: one
/// lockstep walk of the shared trie for all their destinations
/// (bgp::Rib::lookup), then per packet the next hop's ARP binding and the
/// frame written in place. The burst forward() frames a whole burst through
/// it and books the router's and the ARP responder's counters once, by the
/// totals one forward() per packet would add; forward() and frame() of a
/// single packet are its one-packet case.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/wire.hpp"
#include "dataplane/arp.hpp"
#include "netbase/mac.hpp"
#include "netbase/packet.hpp"

namespace sdx::dp {

class BorderRouter {
 public:
  /// \p fib is the prefix index and attribute table the router's FIB is a
  /// column of (bgp::FibIndex); a runtime shares one among all its routers,
  /// so a re-advertised prefix is resolved once for all of them and an
  /// update group's routers hold one attribute set. Without one the router
  /// owns its own.
  BorderRouter(net::Asn asn, net::PortId ixp_port, net::MacAddress mac,
               net::Ipv4Address ip,
               std::shared_ptr<bgp::FibIndex> fib =
                   std::make_shared<bgp::FibIndex>())
      : asn_(asn),
        port_(ixp_port),
        mac_(mac),
        ip_(ip),
        rib_(std::move(fib)) {}

  net::Asn asn() const { return asn_; }
  net::PortId port() const { return port_; }
  net::MacAddress mac() const { return mac_; }
  net::Ipv4Address ip() const { return ip_; }

  /// Applies a BGP UPDATE received over the route-server session: its
  /// attributes become one set that every announced prefix points at.
  void process_update(const bgp::UpdateMessage& update);

  /// Installs the prefix behind \p slot, which the caller holds in this
  /// router's index, with the attribute set \p attrs (from the index's
  /// table): the runtime's update-group fan-out resolves a prefix once
  /// for all routers and writes each by slot.
  void announce_at(bgp::FibIndex::Slot slot, bgp::AttrHandle attrs) {
    rib_.add_at(slot, attrs);
  }
  void withdraw_at(bgp::FibIndex::Slot slot) { rib_.withdraw_at(slot); }

  const bgp::Rib& rib() const { return rib_; }

  /// Forwards an IP packet toward \p payload's destination: LPM → next-hop
  /// IP → ARP → frame on the IXP port. Returns std::nullopt when the router
  /// has no route or the ARP query goes unanswered (packet blackholed).
  /// This is frame() plus the router's and the ARP responder's accounting.
  std::optional<net::PacketHeader> forward(net::PacketHeader payload,
                                           const ArpResponder& arp) const;

  /// forward() for a burst: appends the frame of every payload that is
  /// routed and whose next hop resolves to \p frames, and its index in
  /// \p payloads to \p origin, in payload order. The FIB is walked in
  /// lockstep per kLockstep payloads, and the counters move once, by the
  /// same totals as one forward() per payload.
  void forward(std::span<const net::PacketHeader> payloads,
               const ArpResponder& arp, std::vector<net::PacketHeader>& frames,
               std::vector<std::uint32_t>& origin) const;

  /// Packets one framing pass walks the FIB for together.
  static constexpr std::size_t kLockstep = 64;

  /// What frame() found.
  struct Framing {
    bool routed = false;    ///< a FIB entry covers the destination
    bool framed = false;    ///< and its next hop's ARP query was answered
    net::Ipv4Prefix route;  ///< the longest-prefix match, when routed
  };

  /// forward() without the accounting: frames \p packet in place for the
  /// IXP port when it is routed and its next hop resolves, and leaves it
  /// untouched otherwise. No router or ARP counter moves. Safety probes and
  /// explanations frame through this.
  Framing frame(net::PacketHeader& packet, const ArpResponder& arp) const;

  /// True when a frame arriving at this router is addressed to it (the
  /// fabric must have rewritten the VMAC back to the router's real MAC —
  /// "without rewriting, AS B would drop the traffic", §4.1).
  bool accepts(const net::PacketHeader& frame) const {
    return frame.dst_mac() == mac_ || frame.dst_mac() == net::MacAddress::broadcast();
  }

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t blackholed() const { return blackholed_; }

 private:
  /// The one framing routine: frame() for each of \p packets (at most N),
  /// out[i] for packets[i], with one lockstep FIB walk. N is 1 for a single
  /// packet and kLockstep for a burst's chunks.
  template <std::size_t N>
  void frame(std::span<net::PacketHeader> packets, std::span<Framing> out,
             const ArpResponder& arp) const;
  /// Books \p packets forwarded, \p routed of them asked ARP and
  /// \p framed of those answered; the rest are blackholed.
  void count(std::size_t packets, std::size_t routed, std::size_t framed,
             const ArpResponder& arp) const;

  net::Asn asn_;
  net::PortId port_;
  net::MacAddress mac_;
  net::Ipv4Address ip_;
  bgp::Rib rib_;
  mutable std::uint64_t forwarded_ = 0;
  mutable std::uint64_t blackholed_ = 0;
};

}  // namespace sdx::dp
