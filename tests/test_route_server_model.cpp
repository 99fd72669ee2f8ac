/// Model-based fuzz testing of the route server: a deliberately naive
/// reference model (flat maps, best recomputed from scratch with the same
/// decision function) is driven with the same random announce/withdraw
/// sequence, and every observable — per-participant best routes, export
/// eligibility, reach sets, change events (which participants, and their
/// old and new best routes) — must agree at every step.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/route_server.hpp"
#include "netbase/rng.hpp"

namespace sdx::bgp {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;
using net::SplitMix64;

/// The reference model: no ranking, no caching, no incremental anything.
class ModelServer {
 public:
  void add_peer(RouteServer::Peer peer) { peers_.push_back(peer); }

  void announce(const Route& route) {
    table_[route.prefix][route.learned_from] = route;
  }

  void withdraw(ParticipantId from, Ipv4Prefix prefix) {
    auto it = table_.find(prefix);
    if (it == table_.end()) return;
    it->second.erase(from);
    if (it->second.empty()) table_.erase(it);
  }

  bool eligible(const Route& r, const RouteServer::Peer& to) const {
    if (r.learned_from == to.id || r.attrs.as_path.contains(to.asn)) {
      return false;
    }
    for (Community c : r.attrs.communities) {
      if (c == kNoExport || c == kNoAdvertise) return false;
      if (to.asn <= 0xFFFF &&
          c == make_community(0, static_cast<std::uint16_t>(to.asn))) {
        return false;
      }
    }
    return true;
  }

  std::optional<Route> best_route(ParticipantId id, Ipv4Prefix prefix) const {
    const RouteServer::Peer* to = nullptr;
    for (const auto& p : peers_) {
      if (p.id == id) to = &p;
    }
    auto it = table_.find(prefix);
    if (to == nullptr || it == table_.end()) return std::nullopt;
    std::optional<Route> best;
    for (const auto& [_, r] : it->second) {
      if (!eligible(r, *to)) continue;
      if (!best || better(r, *best)) best = r;
    }
    return best;
  }

  bool exports_to(ParticipantId via, ParticipantId to,
                  Ipv4Prefix prefix) const {
    const RouteServer::Peer* to_peer = nullptr;
    for (const auto& p : peers_) {
      if (p.id == to) to_peer = &p;
    }
    if (to_peer == nullptr || via == to) return false;
    auto it = table_.find(prefix);
    if (it == table_.end()) return false;
    auto r = it->second.find(via);
    return r != it->second.end() && eligible(r->second, *to_peer);
  }

  const std::vector<RouteServer::Peer>& peers() const { return peers_; }
  const std::map<Ipv4Prefix, std::map<ParticipantId, Route>>& table() const {
    return table_;
  }

 private:
  std::vector<RouteServer::Peer> peers_;
  std::map<Ipv4Prefix, std::map<ParticipantId, Route>> table_;
};

class RouteServerModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteServerModel, AgreesWithNaiveReferenceUnderFuzz) {
  SplitMix64 rng(GetParam() * 2654435761ull);
  RouteServer real;
  ModelServer model;
  constexpr int kPeers = 6;
  for (int i = 1; i <= kPeers; ++i) {
    RouteServer::Peer p{static_cast<ParticipantId>(i),
                        static_cast<Asn>(65000 + i),
                        Ipv4Address(static_cast<std::uint32_t>(i))};
    real.add_peer(p);
    model.add_peer(p);
  }
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 10; ++i) {
    universe.push_back(Ipv4Prefix(Ipv4Address((10u + i) << 24), 8));
  }

  for (int step = 0; step < 400; ++step) {
    const auto prefix = universe[rng.below(universe.size())];
    const auto who = static_cast<ParticipantId>(1 + rng.below(kPeers));
    std::map<ParticipantId, std::optional<Route>> before;
    for (const auto& p : model.peers()) {
      before[p.id] = model.best_route(p.id, prefix);
    }
    std::vector<RouteServer::BestChange> changes;
    std::string what;
    if (rng.chance(0.7)) {
      Route r;
      r.prefix = prefix;
      std::vector<Asn> path{static_cast<Asn>(65000 + who)};
      for (std::size_t k = 0, e = rng.below(3); k < e; ++k) {
        // Sometimes include another peer's ASN → loop filtering.
        path.push_back(rng.chance(0.3)
                           ? static_cast<Asn>(65001 + rng.below(kPeers))
                           : static_cast<Asn>(rng.range(100, 60000)));
      }
      r.attrs.as_path = net::AsPath(std::move(path));
      if (rng.chance(0.3)) r.attrs.local_pref = rng.range(90, 110);
      if (rng.chance(0.3)) r.attrs.med = rng.range(0, 3);
      if (rng.chance(0.15)) r.attrs.communities.push_back(kNoExport);
      if (rng.chance(0.15)) {
        r.attrs.communities.push_back(make_community(
            0, static_cast<std::uint16_t>(65001 + rng.below(kPeers))));
      }
      r.attrs.next_hop = Ipv4Address(static_cast<std::uint32_t>(who));
      r.learned_from = who;
      r.peer_router_id = Ipv4Address(static_cast<std::uint32_t>(who));
      what = "announce " + r.to_string();
      changes = real.announce(r);
      model.announce(r);
    } else {
      what = "withdraw " + prefix.to_string() + " by " + std::to_string(who);
      changes = real.withdraw(who, prefix);
      model.withdraw(who, prefix);
    }

    // Change events must fire exactly when a best route changes, once per
    // participant, and carry the model's best before and after.
    for (const auto& p : model.peers()) {
      const auto after = model.best_route(p.id, prefix);
      const auto n = std::count_if(
          changes.begin(), changes.end(),
          [&p](const RouteServer::BestChange& c) {
            return c.participant == p.id;
          });
      ASSERT_EQ(before[p.id] != after, n == 1)
          << "step " << step << " peer " << p.id << " " << what;
      ASSERT_LE(n, 1) << "step " << step << " peer " << p.id << " " << what;
    }
    for (const auto& c : changes) {
      EXPECT_EQ(c.prefix, prefix) << "step " << step << " " << what;
      EXPECT_EQ(c.old_best, before[c.participant])
          << "step " << step << " peer " << c.participant << " " << what;
      EXPECT_EQ(c.new_best, model.best_route(c.participant, prefix))
          << "step " << step << " peer " << c.participant << " " << what;
    }

    // Spot-check all observables over the touched prefix.
    for (const auto& p : model.peers()) {
      auto expect = model.best_route(p.id, prefix);
      auto got = real.best_route(p.id, prefix);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << "step " << step << " peer " << p.id;
      if (expect) {
        EXPECT_EQ(expect->attrs, got->attrs);
        EXPECT_EQ(expect->learned_from, got->learned_from);
      }
      for (const auto& q : model.peers()) {
        EXPECT_EQ(model.exports_to(q.id, p.id, prefix),
                  real.exports_to(q.id, p.id, prefix))
            << "step " << step << " via " << q.id << " to " << p.id;
      }
    }
  }

  // Final global agreement: every prefix, every peer, plus reach sets.
  for (auto prefix : universe) {
    for (const auto& p : model.peers()) {
      auto expect = model.best_route(p.id, prefix);
      auto got = real.best_route(p.id, prefix);
      ASSERT_EQ(expect.has_value(), got.has_value());
      if (expect) {
        EXPECT_EQ(expect->learned_from, got->learned_from);
      }
    }
  }
  for (const auto& p : model.peers()) {
    for (const auto& q : model.peers()) {
      if (p.id == q.id) continue;
      auto reach = real.reachable_via(p.id, q.id);
      for (auto prefix : universe) {
        const bool in_reach =
            std::find(reach.begin(), reach.end(), prefix) != reach.end();
        EXPECT_EQ(in_reach, model.exports_to(q.id, p.id, prefix));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteServerModel,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace sdx::bgp
