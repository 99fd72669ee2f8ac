#include "sdx/bgp_frontend.hpp"

#include <stdexcept>

namespace sdx::core {

BgpFrontend::BgpFrontend(net::Asn server_asn, net::Ipv4Address server_id)
    : server_asn_(server_asn), server_id_(server_id) {}

std::size_t BgpFrontend::pump(Link& link) {
  std::size_t moved = 0;
  for (int round = 0; round < 8; ++round) {
    auto to_router = link.server_side.take_output();
    auto to_server = link.router_side.take_output();
    if (to_router.empty() && to_server.empty()) break;
    moved += to_router.size() + to_server.size();
    for (auto& ev : link.router_side.receive(to_router)) {
      if (ev.kind == bgp::Session::Event::Kind::kUpdate &&
          link.router != nullptr) {
        link.router->process_update(ev.update);
      }
    }
    // The route server side of these sessions is announce-only; events
    // from the router (keepalives) need no action here.
    (void)link.server_side.receive(to_server);
  }
  return moved;
}

void BgpFrontend::connect(ParticipantId participant,
                          dp::BorderRouter& router) {
  if (links_.contains(participant)) {
    throw std::invalid_argument("participant already connected: " +
                                std::to_string(participant));
  }
  bgp::Session server_side(bgp::Session::Config{server_asn_, server_id_});
  bgp::Session router_side(
      bgp::Session::Config{router.asn(), router.ip()});
  auto [it, _] = links_.emplace(
      participant, Link(std::move(server_side), std::move(router_side),
                        &router));
  it->second.server_side.start();
  it->second.router_side.start();
  pump(it->second);
  if (it->second.server_side.state() !=
          bgp::Session::State::kEstablished ||
      it->second.router_side.state() !=
          bgp::Session::State::kEstablished) {
    links_.erase(participant);
    throw std::runtime_error("BGP handshake failed for participant " +
                             std::to_string(participant));
  }
}

bool BgpFrontend::established(ParticipantId participant) const {
  auto it = links_.find(participant);
  return it != links_.end() &&
         it->second.server_side.state() ==
             bgp::Session::State::kEstablished;
}

std::size_t BgpFrontend::distribute(ParticipantId participant,
                                    const bgp::UpdateMessage& update) {
  auto it = links_.find(participant);
  if (it == links_.end()) {
    throw std::out_of_range("participant not connected: " +
                            std::to_string(participant));
  }
  it->second.server_side.send_update(update);
  ++updates_;
  const std::size_t moved = pump(it->second);
  bytes_ += moved;
  return moved;
}

void BgpFrontend::enable_auto_reconnect(ReconnectPolicy policy) {
  auto_reconnect_ = true;
  policy_ = policy;
}

std::vector<ParticipantId> BgpFrontend::advance_clock(double seconds) {
  std::vector<ParticipantId> dropped;
  for (auto& [id, link] : links_) {
    auto a = link.server_side.advance_clock(seconds);
    auto b = link.router_side.advance_clock(seconds);
    pump(link);
    if (!a.empty() || !b.empty()) dropped.push_back(id);
  }
  // A dead FSM pair can't carry further updates: tear the links down so
  // established() reflects reality and the drop can't be re-reported.
  for (auto id : dropped) {
    auto it = links_.find(id);
    if (auto_reconnect_ && it != links_.end() &&
        it->second.router != nullptr) {
      net::Backoff backoff(policy_.initial_backoff_seconds,
                           policy_.max_backoff_seconds);
      const double wait = backoff.next();
      pending_.insert_or_assign(
          id, PendingReconnect{it->second.router, backoff, wait});
    }
    links_.erase(id);
  }
  drops_ += dropped.size();

  // Redial sessions whose backoff has elapsed; failures re-arm with the
  // next (doubled, capped) wait.
  for (auto it = pending_.begin(); it != pending_.end();) {
    it->second.wait -= seconds;
    if (it->second.wait > 0) {
      ++it;
      continue;
    }
    const auto id = it->first;
    auto* router = it->second.router;
    try {
      connect(id, *router);
      ++reconnects_;
      it = pending_.erase(it);
    } catch (const std::exception&) {
      it->second.wait = it->second.backoff.next();
      ++it;
    }
  }
  return dropped;
}

}  // namespace sdx::core
