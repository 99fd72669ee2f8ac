/// Model-based fuzz testing of the route server: a deliberately naive
/// reference model (flat maps, best recomputed from scratch with the same
/// decision function) is driven with the same random announce/withdraw
/// sequence, and every observable — per-participant best routes, export
/// eligibility, reach sets, change events (which participants, and the
/// advertisers of their old and new best routes) — must agree at every
/// step. The same model, driven through an SdxRuntime, also checks the
/// fast path's default vectors and the best-route churn counter, and that
/// a full compile's FEC groups are the fast path's signatures.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bgp/route_server.hpp"
#include "ixp/ixp_generator.hpp"
#include "netbase/rng.hpp"
#include "sdx/compiler.hpp"
#include "sdx/incremental.hpp"
#include "sdx/runtime.hpp"

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

    // Change events must fire exactly when a best route changes (any
    // attribute, not just its advertiser), once per participant, and name
    // the advertisers of the model's best before and after; the new best
    // they name is the model's route.
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
    const auto advertiser = [](const std::optional<Route>& r) {
      return r ? std::optional<ParticipantId>(r->learned_from) : std::nullopt;
    };
    for (const auto& c : changes) {
      const auto after = model.best_route(c.participant, prefix);
      EXPECT_EQ(c.prefix, prefix) << "step " << step << " " << what;
      EXPECT_EQ(c.old_from, advertiser(before[c.participant]))
          << "step " << step << " peer " << c.participant << " " << what;
      EXPECT_EQ(c.new_from, advertiser(after))
          << "step " << step << " peer " << c.participant << " " << what;
      if (!c.new_from) continue;
      const auto* ranked = real.candidates(prefix);
      ASSERT_NE(ranked, nullptr) << "step " << step << " " << what;
      const auto named = std::find_if(
          ranked->begin(), ranked->end(),
          [&c](const Route& r) { return r.learned_from == *c.new_from; });
      ASSERT_NE(named, ranked->end()) << "step " << step << " " << what;
      EXPECT_EQ(*named, *after)
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

// --- through the SDX runtime -------------------------------------------------

/// An exchange of five local participants and one remote one (AS 65006),
/// all registered with the runtime's route server and mirrored into
/// \p model, plus one outbound clause so the fast path has work.
std::vector<ParticipantId> build_exchange(core::SdxRuntime& rt,
                                          ModelServer& model) {
  std::vector<ParticipantId> ids;
  for (int i = 1; i <= 5; ++i) {
    ids.push_back(rt.add_participant("P" + std::to_string(i),
                                     static_cast<Asn>(65000 + i)));
  }
  ids.push_back(rt.add_remote_participant("R", 65006));
  rt.set_outbound(ids[0], {core::OutboundClause{
                              core::ClauseMatch{}.dst_port(80), ids[1]}});
  for (const auto& p : rt.route_server().peers()) model.add_peer(p);
  return ids;
}

/// A random announcement of \p prefix by \p from: paths that sometimes
/// carry another participant's ASN (a loop for that receiver), and the
/// NO_EXPORT, NO_ADVERTISE and "0:<asn>" communities.
struct RandomAnnouncement {
  net::AsPath path;
  std::vector<Community> communities;
};

RandomAnnouncement random_announcement(SplitMix64& rng, Asn from_asn,
                                       std::size_t peers) {
  std::vector<Asn> hops{from_asn};
  for (std::size_t k = 0, e = rng.below(3); k < e; ++k) {
    hops.push_back(rng.chance(0.3)
                       ? static_cast<Asn>(65001 + rng.below(peers))
                       : static_cast<Asn>(rng.range(100, 60000)));
  }
  RandomAnnouncement a{net::AsPath(std::move(hops)), {}};
  if (rng.chance(0.1)) a.communities.push_back(kNoExport);
  if (rng.chance(0.1)) a.communities.push_back(kNoAdvertise);
  if (rng.chance(0.2)) {
    a.communities.push_back(make_community(
        0, static_cast<std::uint16_t>(65001 + rng.below(peers))));
  }
  return a;
}

/// The route the runtime builds for an announcement, for the model.
Route route_of(const core::SdxRuntime& rt, ParticipantId from,
               Ipv4Prefix prefix, const RandomAnnouncement& a) {
  const auto& p = rt.participant(from);
  Route r;
  r.prefix = prefix;
  r.attrs.as_path = a.path;
  r.attrs.communities = a.communities;
  r.attrs.next_hop =
      p.is_remote() ? Ipv4Address{} : p.primary_port().router_ip;
  r.learned_from = from;
  r.peer_router_id = rt.route_server().peer(from)->router_id;
  return r;
}

class RuntimeRouteServerModel
    : public ::testing::TestWithParam<std::uint64_t> {};

// The fast path's default vector is best_route()'s advertiser for every
// participant, in participant-slot order, whatever order the compiler's
// participant list takes.
TEST_P(RuntimeRouteServerModel, DefaultsForEqualsBestRoutePerParticipant) {
  SplitMix64 rng(GetParam() * 0x9E3779B97F4A7C15ull);
  core::SdxRuntime rt;
  ModelServer model;
  const auto ids = build_exchange(rt, model);
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 12; ++i) {
    universe.push_back(Ipv4Prefix(Ipv4Address((20u + i) << 24), 8));
  }
  const Ipv4Prefix never(Ipv4Address(99u << 24), 8);  // no candidate, ever
  for (int step = 0; step < 150; ++step) {
    const auto prefix = universe[rng.below(universe.size())];
    const auto who = ids[rng.below(ids.size())];
    if (rng.chance(0.75)) {
      auto a = random_announcement(rng, rt.participant(who).asn, ids.size());
      rt.announce(who, prefix, a.path, a.communities);
    } else {
      rt.withdraw(who, prefix);
    }
  }
  std::vector<core::Participant> reversed(rt.participants().rbegin(),
                                          rt.participants().rend());
  const core::SdxCompiler in_order(rt.participants(), rt.ports(),
                                   rt.route_server());
  const core::SdxCompiler out_of_order(reversed, rt.ports(),
                                       rt.route_server());
  universe.push_back(never);
  std::size_t held = 0;
  for (auto prefix : universe) {
    for (const auto* compiler : {&in_order, &out_of_order}) {
      const auto defaults = compiler->defaults_for(prefix);
      const auto& list = compiler->participants();
      ASSERT_EQ(defaults.size(), list.size());
      for (std::size_t i = 0; i < list.size(); ++i) {
        const auto best = rt.route_server().best_route(list[i].id, prefix);
        const auto want = best ? std::optional<ParticipantId>(
                                     best->learned_from)
                               : std::nullopt;
        EXPECT_EQ(defaults[i], want)
            << prefix.to_string() << " for " << list[i].name;
        held += want.has_value();
      }
    }
  }
  EXPECT_EQ(rt.route_server().candidates(never), nullptr);
  EXPECT_GT(held, 0u);
}

// sdx_route_server_best_changes_total counts exactly the per-participant
// best-route changes the naive model derives, update by update, through
// the installed runtime's fast path and session drops.
TEST_P(RuntimeRouteServerModel, BestChangeCounterMatchesTheModel) {
  SplitMix64 rng(GetParam() * 0xD1B54A32D192ED03ull);
  core::SdxRuntime rt;
  ModelServer model;
  const auto ids = build_exchange(rt, model);
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 8; ++i) {
    universe.push_back(Ipv4Prefix(Ipv4Address((30u + i) << 24), 8));
  }
  auto& counter = rt.telemetry().metrics.counter(
      "sdx_route_server_best_changes_total");
  std::uint64_t expected = 0;
  const auto apply = [&](const auto& mutate, Ipv4Prefix prefix) {
    std::map<ParticipantId, std::optional<Route>> before;
    for (const auto& p : model.peers()) {
      before[p.id] = model.best_route(p.id, prefix);
    }
    mutate();
    for (const auto& p : model.peers()) {
      expected += before[p.id] != model.best_route(p.id, prefix);
    }
  };
  for (int step = 0; step < 300; ++step) {
    if (step == 40) rt.install();
    const auto prefix = universe[rng.below(universe.size())];
    const auto who = ids[rng.below(ids.size())];
    std::string what;
    if (rng.chance(0.65)) {
      auto a = random_announcement(rng, rt.participant(who).asn, ids.size());
      const Route r = route_of(rt, who, prefix, a);
      what = "announce " + r.to_string();
      rt.announce(who, prefix, a.path, a.communities);
      apply([&] { model.announce(r); }, prefix);
    } else if (rng.chance(0.95)) {
      what = "withdraw " + prefix.to_string() + " by " + std::to_string(who);
      rt.withdraw(who, prefix);
      apply([&] { model.withdraw(who, prefix); }, prefix);
    } else {
      what = "session down " + std::to_string(who);
      const auto advertised = rt.route_server().advertised_by(who);
      rt.session_down(who);
      for (auto p : advertised) {
        apply([&] { model.withdraw(who, p); }, p);
      }
    }
    ASSERT_EQ(counter.value(), expected) << "step " << step << " " << what;
  }
  EXPECT_GT(expected, 0u);
}

/// Compiles the exchange pairwise and checks that every grouped prefix's
/// restricted signature is its FEC group's (clauses, defaults). The binding
/// table interns compiled groups under this key, so a disagreement would
/// rebind a prefix whose forwarding did not change. Returns the number of
/// grouped prefixes checked.
std::size_t expect_signatures_match_groups(
    const std::vector<core::Participant>& participants,
    const core::PortMap& ports, const RouteServer& server) {
  core::CompileOptions options;
  options.threads = 1;
  core::IncrementalEngine engine(
      core::SdxCompiler(participants, ports, server, options));
  core::VnhAllocator vnh;
  const core::FecResult& fecs = engine.full_recompile(vnh).fecs;
  for (const auto& [prefix, g] : fecs.group_of) {
    const auto sig = engine.signature(prefix);
    if (!sig.has_value()) {
      ADD_FAILURE() << prefix.to_string() << " is grouped but has no signature";
      continue;
    }
    EXPECT_EQ(sig->clauses, fecs.groups[g].clauses) << prefix.to_string();
    EXPECT_EQ(sig->defaults, fecs.groups[g].defaults) << prefix.to_string();
  }
  return fecs.group_of.size();
}

TEST_P(RuntimeRouteServerModel, CompiledGroupsAreTheFastPathSignatures) {
  SplitMix64 rng(GetParam() * 0x94D049BB133111EBull);
  core::SdxRuntime rt;
  ModelServer model;
  const auto ids = build_exchange(rt, model);
  std::vector<Ipv4Prefix> universe;
  for (std::uint32_t i = 0; i < 12; ++i) {
    universe.push_back(Ipv4Prefix(Ipv4Address((40u + i) << 24), 8));
  }
  // Clauses from every local participant: unrestricted, and restricted to
  // a block covering half the universe, so groups split on both.
  const Ipv4Prefix block(Ipv4Address(40u << 24), 6);
  for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
    rt.set_outbound(
        ids[i],
        {core::OutboundClause{core::ClauseMatch{}.dst_port(443),
                              ids[(i + 1) % (ids.size() - 1)]},
         core::OutboundClause{core::ClauseMatch{}.dst_port(80).dst(block),
                              ids[(i + 2) % (ids.size() - 1)]}});
  }
  for (int step = 0; step < 150; ++step) {
    const auto prefix = universe[rng.below(universe.size())];
    const auto who = ids[rng.below(ids.size())];
    if (rng.chance(0.75)) {
      auto a = random_announcement(rng, rt.participant(who).asn, ids.size());
      rt.announce(who, prefix, a.path, a.communities);
    } else {
      rt.withdraw(who, prefix);
    }
  }
  EXPECT_GT(expect_signatures_match_groups(rt.participants(), rt.ports(),
                                           rt.route_server()),
            0u);
}

TEST(CompiledSignatures, GeneratedIxpGroupsAreTheFastPathSignatures) {
  ixp::GeneratorConfig cfg;
  cfg.participants = 16;
  cfg.prefixes = 240;
  cfg.seed = 21;
  auto ixp = ixp::generate_ixp(cfg);
  ixp::PolicySynthConfig pcfg;
  pcfg.seed = 23;
  pcfg.policy_prefixes = ixp::sample_policy_prefixes(ixp, 60, 29);
  ixp::synthesize_policies(ixp, pcfg);
  EXPECT_GT(
      expect_signatures_match_groups(ixp.participants, ixp.ports, ixp.server),
      0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RuntimeRouteServerModel,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace sdx::bgp
