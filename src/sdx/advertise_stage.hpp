#pragma once

/// \file advertise_stage.hpp
/// The runtime's advertise stage: re-advertisement from the route server to
/// the participants' border routers. It owns the routers and their index by
/// participant slot, the FibIndex every router's FIB is a column of, the
/// wire distribution (BgpFrontend) and the wire counters; each next hop is
/// the install stage's (InstallStage::next_hop()). Receivers with the same
/// best route and next hop form one update group: one attribute set for all
/// its in-process routers, written by FIB slot, and one UPDATE for all its
/// wire sessions.

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "bgp/route_server.hpp"
#include "dataplane/fabric.hpp"
#include "sdx/bgp_frontend.hpp"
#include "sdx/install_stage.hpp"
#include "sdx/participant.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::core {

class AdvertiseStage {
 public:
  AdvertiseStage(const std::vector<Participant>& participants,
                 const bgp::RouteServer& server, const InstallStage& install,
                 dp::Fabric& fabric, telemetry::MetricRegistry& reg);

  /// Adds \p p's border routers, one per port, attached to the fabric and
  /// (with wire distribution) to a session. A remote participant has none.
  void add_routers(const Participant& p);
  dp::BorderRouter& router(ParticipantId id, std::size_t port_index) {
    return routers_.at(router_index_.at(id - 1).at(port_index));
  }

  /// Re-advertises each of \p prefixes to every physical participant or,
  /// with \p receivers (receiver_words() words per prefix, one bit per
  /// participant slot), only to the slots set in its mask; a prefix with an
  /// empty mask is skipped.
  void readvertise(const std::vector<Ipv4Prefix>& prefixes,
                   const std::uint64_t* receivers = nullptr);
  std::size_t receiver_words() const {
    return (participants_.size() + 63) / 64;
  }

  void use_wire_distribution();
  const BgpFrontend* frontend() const { return frontend_.get(); }
  /// Throws std::logic_error without wire distribution.
  void enable_auto_reconnect(BgpFrontend::ReconnectPolicy policy);
  /// Advances the wire sessions' clocks, counts the sessions dropped and
  /// redialed, and returns the dropped participants.
  std::vector<ParticipantId> advance_clock(double seconds);

  const bgp::FibIndex& fib() const { return *fib_; }

 private:
  void readvertise(Ipv4Prefix prefix, const std::uint64_t* receivers);

  const std::vector<Participant>& participants_;
  const bgp::RouteServer& server_;
  const InstallStage& install_;
  dp::Fabric& fabric_;
  std::shared_ptr<bgp::FibIndex> fib_ = std::make_shared<bgp::FibIndex>();
  /// One router per physical port, in participant slot order; a deque keeps
  /// addresses stable for fabric attachment.
  std::deque<dp::BorderRouter> routers_;
  /// Indices into routers_ by participant slot (id - 1).
  std::vector<std::vector<std::size_t>> router_index_;
  std::unique_ptr<BgpFrontend> frontend_;
  /// Last frontend reconnect count synced into the reconnect counter.
  std::uint64_t synced_reconnects_ = 0;

  telemetry::Counter* updates_;
  telemetry::Counter* bytes_;
  telemetry::Counter* drops_;
  telemetry::Counter* reconnects_;
  telemetry::Histogram* seconds_;
};

}  // namespace sdx::core
