#pragma once

/// \file route_server.hpp
/// The SDX route server (paper §3.2, Figure 3 right pipeline).
///
/// Participants advertise routes to the server; the server runs the BGP
/// decision process *per participant* (honoring loop prevention) and exposes:
///
///   * best_route(participant, prefix) — the default route BGP would use,
///     which the SDX compiler turns into default forwarding;
///   * exports_to(via, to, prefix) — whether `via` exported `prefix` to
///     `to`, the relation behind the BGP-consistency policy filters ("the
///     SDX should not direct traffic to a next-hop AS that does not want to
///     receive it");
///   * change events on announce/withdraw, which drive incremental
///     recompilation and the re-advertisements the runtime marshals into
///     BGP UPDATE messages.

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bgp/decision.hpp"
#include "bgp/route.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::bgp {

class RouteServer {
 public:
  struct Peer {
    ParticipantId id = 0;
    Asn asn = 0;
    Ipv4Address router_id;
  };

  /// A change in some participant's best route for a prefix — the event
  /// granularity at which the SDX recompiles (paper §4.3.2). The old and
  /// new best are named by their advertiser (a prefix holds at most one
  /// candidate per advertiser; std::nullopt: no eligible route). Both can
  /// name the same advertiser when that advertiser replaced its route with
  /// a different one; candidates() holds the new route.
  struct BestChange {
    ParticipantId participant = 0;
    Ipv4Prefix prefix;
    std::optional<ParticipantId> old_from;
    std::optional<ParticipantId> new_from;
  };

  explicit RouteServer(DecisionConfig cfg = {}) : cfg_(cfg) {}

  /// Registers a participant session. Throws std::invalid_argument on a
  /// duplicate participant id.
  void add_peer(Peer peer);

  /// Hooks the server into a metric registry (nullptr detaches). Exposes
  /// `sdx_route_server_announcements_total` / `_withdrawals_total`, the
  /// best-route churn counter `sdx_route_server_best_changes_total` (one
  /// increment per per-participant BestChange produced), and the RIB-size
  /// gauge `sdx_route_server_prefixes`. The registry must outlive the hook.
  void set_telemetry(telemetry::MetricRegistry* registry);

  const std::vector<Peer>& peers() const { return peers_; }
  const Peer* peer(ParticipantId id) const;

  /// Processes an announcement (route.learned_from must be a registered
  /// peer). Returns every per-participant best-route change it caused.
  std::vector<BestChange> announce(Route route);

  /// Processes a withdrawal of \p prefix by \p from.
  std::vector<BestChange> withdraw(ParticipantId from, Ipv4Prefix prefix);

  /// The best route the server advertises to \p for_participant for
  /// \p prefix (std::nullopt when it has no eligible candidate).
  std::optional<Route> best_route(ParticipantId for_participant,
                                  Ipv4Prefix prefix) const;

  /// Longest-prefix-match variant: the best route covering \p addr from
  /// \p for_participant's view, scanning from the most specific covering
  /// prefix outward. Used to resolve where rewritten (load-balanced)
  /// destinations exit the exchange.
  std::optional<Route> best_route_lpm(ParticipantId for_participant,
                                      Ipv4Address addr) const;

  /// True when participant \p via advertised \p prefix and the server may
  /// re-export that route to \p to (loop prevention passes). Participants
  /// may forward traffic along any such feasible route, not just the best
  /// one (paper §3.2).
  bool exports_to(ParticipantId via, ParticipantId to,
                  Ipv4Prefix prefix) const;

  /// All prefixes that \p via exports to \p to — the reach set that the
  /// compiler inserts into `to`'s outbound policies toward `via`.
  std::vector<Ipv4Prefix> reachable_via(ParticipantId to,
                                        ParticipantId via) const;

  /// Prefixes advertised by \p via (regardless of export eligibility).
  std::vector<Ipv4Prefix> advertised_by(ParticipantId via) const;

  /// Every prefix known to the server.
  std::vector<Ipv4Prefix> all_prefixes() const;

  /// Full RIB dump: every candidate route of every prefix, prefixes in
  /// sorted order and candidates in ranked (best-first) order. Re-announcing
  /// the dump into a fresh server with the same peers reproduces the RIB
  /// exactly (the decision process is a total order), which is what
  /// checkpoint/restore relies on.
  std::vector<Route> dump_routes() const;

  /// Candidate routes for a prefix, best first (nullptr when unknown).
  const std::vector<Route>* candidates(Ipv4Prefix prefix) const;

  /// Every receiver's best route for one prefix in one pass: calls
  /// \p fn(i, best) for each position i of peers(), in order, where best
  /// points into \p ranked (the prefix's candidates(); nullptr when it has
  /// none) or is nullptr when nothing there may be exported to peers()[i].
  /// best_route() for all peers at once, without a copy or a peer lookup
  /// per receiver — the one per-receiver decision behind the update diff,
  /// the default vectors of the full compile and the fast path, and
  /// re-advertisement.
  template <typename Fn>
  void for_each_best(const std::vector<Route>* ranked, Fn&& fn) const {
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      fn(i, ranked == nullptr ? nullptr : best_for(*ranked, peers_[i]));
    }
  }

  std::size_t prefix_count() const { return rib_.size(); }

  /// §3.2 "grouping traffic based on BGP attributes": the prefixes whose
  /// best route (from \p viewer's perspective) satisfies \p pred.
  std::vector<Ipv4Prefix> filter_prefixes(
      ParticipantId viewer,
      const std::function<bool(const Route&)>& pred) const;

 private:
  /// Export policy: loop prevention plus the standard route-server
  /// community conventions — RFC 1997 NO_EXPORT / NO_ADVERTISE suppress
  /// re-advertisement entirely, and "0:<asn>" blocks export to one peer
  /// (the control knob real IXP route servers give their members).
  bool eligible(const Route& r, const Peer& to) const {
    if (r.learned_from == to.id || r.attrs.as_path.contains(to.asn)) {
      return false;
    }
    for (Community c : r.attrs.communities) {
      if (c == kNoExport || c == kNoAdvertise) return false;
      if (c == make_community(0, static_cast<std::uint16_t>(to.asn)) &&
          to.asn <= 0xFFFF) {
        return false;
      }
    }
    return true;
  }

  /// The best of \p ranked that the server may export to \p to, by
  /// pointer into \p ranked (nullptr when none is eligible).
  const Route* best_for(const std::vector<Route>& ranked,
                        const Peer& to) const {
    for (const Route& r : ranked) {
      if (eligible(r, to)) return &r;
    }
    return nullptr;
  }

  /// Runs \p mutate, which adds, replaces or removes \p mutator's
  /// candidate for \p prefix and returns true only when it replaced that
  /// candidate with an equal route, and reports every participant whose
  /// best route for it changed.
  template <typename Mutate>
  std::vector<BestChange> apply_and_diff(Ipv4Prefix prefix,
                                         ParticipantId mutator,
                                         Mutate&& mutate);

  DecisionConfig cfg_;
  std::vector<Peer> peers_;
  telemetry::Counter* announcements_ = nullptr;
  telemetry::Counter* withdrawals_ = nullptr;
  telemetry::Counter* best_changes_ = nullptr;
  telemetry::Gauge* prefixes_gauge_ = nullptr;
  std::unordered_map<ParticipantId, std::size_t> peer_index_;
  /// prefix → candidates ranked best-first by the decision process.
  std::unordered_map<Ipv4Prefix, std::vector<Route>> rib_;
  /// per-peer advertised prefix set (Adj-RIB-In index).
  std::unordered_map<ParticipantId, std::unordered_set<Ipv4Prefix>> adv_;
};

}  // namespace sdx::bgp
