#include "bgp/route_server.hpp"

#include <algorithm>
#include <stdexcept>

namespace sdx::bgp {

void RouteServer::add_peer(Peer peer) {
  if (peer_index_.contains(peer.id)) {
    throw std::invalid_argument("duplicate participant id " +
                                std::to_string(peer.id));
  }
  peer_index_[peer.id] = peers_.size();
  peers_.push_back(peer);
}

void RouteServer::set_telemetry(telemetry::MetricRegistry* registry) {
  if (registry == nullptr) {
    announcements_ = withdrawals_ = best_changes_ = nullptr;
    prefixes_gauge_ = nullptr;
    return;
  }
  announcements_ = &registry->counter("sdx_route_server_announcements_total",
                                      "BGP announcements processed");
  withdrawals_ = &registry->counter("sdx_route_server_withdrawals_total",
                                    "BGP withdrawals processed");
  best_changes_ = &registry->counter(
      "sdx_route_server_best_changes_total",
      "per-participant best-route changes (churn driving recompilation)");
  prefixes_gauge_ = &registry->gauge("sdx_route_server_prefixes",
                                     "prefixes currently in the RIB");
  prefixes_gauge_->set(static_cast<double>(rib_.size()));
}

const RouteServer::Peer* RouteServer::peer(ParticipantId id) const {
  auto it = peer_index_.find(id);
  return it == peer_index_.end() ? nullptr : &peers_[it->second];
}

template <typename Mutate>
std::vector<RouteServer::BestChange> RouteServer::apply_and_diff(
    Ipv4Prefix prefix, ParticipantId mutator, Mutate&& mutate) {
  // A prefix holds at most one candidate per advertiser, so each
  // participant's best before the mutation is named by its advertiser. The
  // mutation only adds, removes or replaces the mutator's candidate: a best
  // from the same advertiser afterwards is the same route, unless that
  // advertiser is the mutator and its route changed.
  std::vector<std::optional<ParticipantId>> old_from(peers_.size());
  for_each_best(candidates(prefix), [&old_from](std::size_t i,
                                                const Route* best) {
    if (best != nullptr) old_from[i] = best->learned_from;
  });

  const bool mutator_kept = mutate();

  std::vector<BestChange> changes;
  for_each_best(candidates(prefix), [&](std::size_t i, const Route* best) {
    const auto was = old_from[i];
    const auto now = best != nullptr
                         ? std::optional<ParticipantId>(best->learned_from)
                         : std::nullopt;
    if (was == now && (!was || *was != mutator || mutator_kept)) return;
    changes.push_back(BestChange{peers_[i].id, prefix, was, now});
  });
  return changes;
}

std::vector<RouteServer::BestChange> RouteServer::announce(Route route) {
  if (!peer_index_.contains(route.learned_from)) {
    throw std::invalid_argument("announce from unknown participant " +
                                std::to_string(route.learned_from));
  }
  const Ipv4Prefix prefix = route.prefix;
  auto changes =
      apply_and_diff(prefix, route.learned_from, [this, &route, prefix]() {
        auto& ranked = rib_[prefix];
        bool kept = false;
        std::erase_if(ranked, [&route, &kept](const Route& r) {
          if (r.learned_from != route.learned_from) return false;
          kept = r == route;
          return true;
        });
        // Insert keeping the vector ranked best-first.
        auto pos = std::find_if(ranked.begin(), ranked.end(),
                                [this, &route](const Route& r) {
                                  return better(route, r, cfg_);
                                });
        adv_[route.learned_from].insert(prefix);
        ranked.insert(pos, std::move(route));
        return kept;
      });
  if (announcements_ != nullptr) {
    announcements_->inc();
    best_changes_->inc(changes.size());
    prefixes_gauge_->set(static_cast<double>(rib_.size()));
  }
  return changes;
}

std::vector<RouteServer::BestChange> RouteServer::withdraw(
    ParticipantId from, Ipv4Prefix prefix) {
  if (!peer_index_.contains(from)) {
    throw std::invalid_argument("withdraw from unknown participant " +
                                std::to_string(from));
  }
  auto changes = apply_and_diff(prefix, from, [this, from, prefix]() {
    auto it = rib_.find(prefix);
    if (it == rib_.end()) return false;
    std::erase_if(it->second, [from](const Route& r) {
      return r.learned_from == from;
    });
    if (it->second.empty()) rib_.erase(it);
    if (auto a = adv_.find(from); a != adv_.end()) a->second.erase(prefix);
    return false;
  });
  if (withdrawals_ != nullptr) {
    withdrawals_->inc();
    best_changes_->inc(changes.size());
    prefixes_gauge_->set(static_cast<double>(rib_.size()));
  }
  return changes;
}

std::optional<Route> RouteServer::best_route_lpm(
    ParticipantId for_participant, Ipv4Address addr) const {
  const Peer* to = peer(for_participant);
  if (to == nullptr) return std::nullopt;
  for (int len = 32; len >= 0; --len) {
    auto it = rib_.find(Ipv4Prefix(addr, len));
    if (it == rib_.end()) continue;
    if (const Route* best = best_for(it->second, *to)) return *best;
  }
  return std::nullopt;
}

std::optional<Route> RouteServer::best_route(ParticipantId for_participant,
                                             Ipv4Prefix prefix) const {
  const Peer* to = peer(for_participant);
  auto it = rib_.find(prefix);
  if (to == nullptr || it == rib_.end()) return std::nullopt;
  const Route* r = best_for(it->second, *to);
  if (r == nullptr) return std::nullopt;
  return *r;
}

bool RouteServer::exports_to(ParticipantId via, ParticipantId to,
                             Ipv4Prefix prefix) const {
  const Peer* to_peer = peer(to);
  if (to_peer == nullptr || via == to) return false;
  auto it = rib_.find(prefix);
  if (it == rib_.end()) return false;
  for (const Route& r : it->second) {
    if (r.learned_from == via) return eligible(r, *to_peer);
  }
  return false;
}

std::vector<Ipv4Prefix> RouteServer::reachable_via(ParticipantId to,
                                                   ParticipantId via) const {
  std::vector<Ipv4Prefix> out;
  auto a = adv_.find(via);
  if (a == adv_.end()) return out;
  out.reserve(a->second.size());
  for (auto prefix : a->second) {
    if (exports_to(via, to, prefix)) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Ipv4Prefix> RouteServer::advertised_by(ParticipantId via) const {
  std::vector<Ipv4Prefix> out;
  auto a = adv_.find(via);
  if (a == adv_.end()) return out;
  out.assign(a->second.begin(), a->second.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Ipv4Prefix> RouteServer::all_prefixes() const {
  std::vector<Ipv4Prefix> out;
  out.reserve(rib_.size());
  for (const auto& [prefix, _] : rib_) out.push_back(prefix);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Route> RouteServer::dump_routes() const {
  std::vector<Route> out;
  for (Ipv4Prefix prefix : all_prefixes()) {
    const auto& ranked = rib_.at(prefix);
    out.insert(out.end(), ranked.begin(), ranked.end());
  }
  return out;
}

const std::vector<Route>* RouteServer::candidates(Ipv4Prefix prefix) const {
  auto it = rib_.find(prefix);
  return it == rib_.end() ? nullptr : &it->second;
}

std::vector<Ipv4Prefix> RouteServer::filter_prefixes(
    ParticipantId viewer,
    const std::function<bool(const Route&)>& pred) const {
  std::vector<Ipv4Prefix> out;
  const Peer* to = peer(viewer);
  if (to == nullptr) return out;
  for (const auto& [prefix, ranked] : rib_) {
    const Route* best = best_for(ranked, *to);
    if (best != nullptr && pred(*best)) out.push_back(prefix);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sdx::bgp
