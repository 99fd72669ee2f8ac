#pragma once

/// \file bgp_frontend.hpp
/// Wire-level BGP distribution: the glue the paper's ExaBGP deployment
/// provides between the SDX controller and participant border routers.
///
/// For every physical participant, the frontend maintains a pair of RFC
/// 4271 sessions (route-server side and router side) connected
/// back-to-back: controller re-advertisements are marshalled into real
/// framed UPDATE messages, travel through both FSMs byte-by-byte, and land
/// in the router's RIB via BorderRouter::process_update. Integration tests
/// hold the resulting FIBs equal to the runtime's direct (in-process)
/// distribution path.

#include <unordered_map>
#include <vector>

#include "bgp/session.hpp"
#include "dataplane/border_router.hpp"
#include "netbase/backoff.hpp"
#include "sdx/participant.hpp"

namespace sdx::core {

class BgpFrontend {
 public:
  /// ASN of the route server itself (appears in its OPEN messages).
  explicit BgpFrontend(net::Asn server_asn = 64999,
                       net::Ipv4Address server_id =
                           net::Ipv4Address::parse("192.0.2.254"));

  /// Brings up the session pair toward one router. The router reference
  /// must outlive the frontend. Throws if the handshake fails.
  void connect(ParticipantId participant, dp::BorderRouter& router);

  bool established(ParticipantId participant) const;

  /// Marshals one UPDATE to a participant's router through the session
  /// pair. Returns the number of bytes that crossed the "wire".
  std::size_t distribute(ParticipantId participant,
                         const bgp::UpdateMessage& update);

  /// Advances both sides' hold/keepalive clocks and pumps any keepalives.
  /// Returns the participants whose sessions dropped. A dropped session's
  /// link is torn down (established() turns false; the runtime falls back
  /// to in-process delivery) — reconnect with connect() to bring it back,
  /// or enable_auto_reconnect() to have the frontend redial on its own.
  std::vector<ParticipantId> advance_clock(double seconds);

  /// Capped exponential backoff for automatic redial of dropped sessions.
  struct ReconnectPolicy {
    double initial_backoff_seconds = 1.0;
    double max_backoff_seconds = 64.0;
  };

  /// From now on a session dropped by advance_clock() is redialed
  /// automatically: the first attempt after initial_backoff_seconds of
  /// clock time, doubling up to the cap while attempts keep failing.
  /// Successful redials are counted in reconnects().
  void enable_auto_reconnect(ReconnectPolicy policy);
  bool auto_reconnect() const { return auto_reconnect_; }

  /// Sessions automatically re-established after a drop.
  std::uint64_t reconnects() const { return reconnects_; }
  /// Participants currently waiting out a reconnect backoff.
  std::size_t pending_reconnects() const { return pending_.size(); }

  std::uint64_t updates_distributed() const { return updates_; }
  /// Wire bytes moved by distribute() — UPDATE frames
  /// plus any keepalives pumped alongside them (handshake traffic from
  /// connect() and pure keepalive ticks are not distribution and don't
  /// count).
  std::uint64_t bytes_distributed() const { return bytes_; }
  /// Sessions that dropped across all advance_clock() calls.
  std::uint64_t session_drops() const { return drops_; }

 private:
  struct Link {
    bgp::Session server_side;
    bgp::Session router_side;
    dp::BorderRouter* router = nullptr;

    Link(bgp::Session s, bgp::Session r, dp::BorderRouter* rt)
        : server_side(std::move(s)), router_side(std::move(r)), router(rt) {}
  };

  /// Shuttles queued bytes both ways until quiet; applies UPDATE events to
  /// the router. Returns total bytes moved.
  std::size_t pump(Link& link);

  /// One dropped session waiting out its backoff.
  struct PendingReconnect {
    dp::BorderRouter* router;
    net::Backoff backoff;
    double wait;  ///< clock time until the next attempt
  };

  net::Asn server_asn_;
  net::Ipv4Address server_id_;
  std::unordered_map<ParticipantId, Link> links_;
  bool auto_reconnect_ = false;
  ReconnectPolicy policy_;
  std::unordered_map<ParticipantId, PendingReconnect> pending_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t updates_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t drops_ = 0;
};

}  // namespace sdx::core
