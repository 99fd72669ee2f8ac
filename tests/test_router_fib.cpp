/// Border-router FIB contents pinned end to end: a generated exchange is
/// installed and then churned by a seeded announce/withdraw/flush sequence
/// under each re-advertisement mode (pairwise bindings, partitioned
/// per-receiver bindings, wire distribution). Every router's FIB — prefix,
/// next hop, AS path, origin, MED, LOCAL_PREF and communities, in prefix
/// order — is folded into one CRC-32C per mode and held to a golden
/// constant, so any change to how routes reach the routers shows up here.
/// The routers' shared attribute table and prefix index are held to exact
/// accounting: every live set is referenced by some FIB entry, and neither
/// a set nor an indexed prefix outlives the routes.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "deployment_state.hpp"
#include "ixp/ixp_generator.hpp"
#include "netbase/rng.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using test::fib_crc;
using test::put_entry;

ixp::GeneratedIxp make_ixp() {
  ixp::GeneratorConfig cfg;
  cfg.participants = 16;
  cfg.prefixes = 240;
  cfg.seed = 21;
  auto ixp = ixp::generate_ixp(cfg);
  ixp::PolicySynthConfig pcfg;
  pcfg.seed = 23;
  pcfg.policy_prefixes = ixp::sample_policy_prefixes(ixp, 60, 29);
  ixp::synthesize_policies(ixp, pcfg);
  return ixp;
}

/// kWireAtInstall switches to wire distribution after the announcements
/// but before install(): routers hear of nothing until install(), so it
/// must reach exactly what kWire reaches.
enum class Mode { kPairwise, kPartitioned, kWire, kWireAtInstall };

void churn(SdxRuntime& rt, const ixp::GeneratedIxp& ixp,
           std::size_t updates, std::uint64_t seed);

/// Loads \p ixp into a fresh runtime, installs, and runs a seeded churn of
/// \p updates announcements and withdrawals, flushing every few updates.
std::unique_ptr<SdxRuntime> build(const ixp::GeneratedIxp& ixp, Mode mode,
                                  std::size_t updates, std::uint64_t seed) {
  CompileOptions options;
  options.threads = 1;
  options.partitioned = mode == Mode::kPartitioned;
  auto rt = std::make_unique<SdxRuntime>(bgp::DecisionConfig{}, options);
  if (mode == Mode::kWire) rt->use_wire_distribution();
  for (const auto& p : ixp.participants) {
    const auto id = p.is_remote()
                        ? rt->add_remote_participant(p.name, p.asn)
                        : rt->add_participant(p.name, p.asn, p.ports.size());
    EXPECT_EQ(id, p.id);
  }
  for (const auto& p : ixp.participants) {
    if (!p.outbound.empty()) rt->set_outbound(p.id, p.outbound);
    if (!p.inbound.empty()) rt->set_inbound(p.id, p.inbound);
  }
  for (const auto& r : ixp.server.dump_routes()) {
    rt->announce(r.learned_from, r.prefix, r.attrs.as_path,
                 r.attrs.communities);
  }
  // A remote participant originating every twentieth prefix: routers whose
  // best is its route learn the remote binding's next hop.
  const auto remote = rt->add_remote_participant("remote", 64900);
  for (std::size_t i = 0; i < ixp.prefixes.size(); i += 20) {
    rt->announce(remote, ixp.prefixes[i], net::AsPath{64900});
  }
  if (mode == Mode::kWireAtInstall) rt->use_wire_distribution();
  rt->install();
  rt->enable_batching({/*max_pending=*/0, /*max_delay_seconds=*/0});
  churn(*rt, ixp, updates, seed);
  return rt;
}

void churn(SdxRuntime& rt, const ixp::GeneratedIxp& ixp,
           std::size_t updates, std::uint64_t seed) {
  net::SplitMix64 rng(seed);
  const auto& parts = ixp.participants;
  for (std::size_t i = 0; i < updates; ++i) {
    const auto& from = parts[rng.below(parts.size())];
    const Ipv4Prefix prefix = ixp.prefixes[rng.below(ixp.prefixes.size())];
    if (rng.chance(0.3)) {
      rt.withdraw(from.id, prefix);
    } else {
      // Paths of varying length, sometimes through another member (loop
      // prevention hides the route from it) and sometimes carrying a
      // per-peer block or NO_EXPORT, so receivers disagree on the best.
      std::vector<net::Asn> path = {from.asn};
      const std::size_t extra = rng.below(3);
      for (std::size_t k = 0; k < extra; ++k) {
        path.push_back(rng.chance(0.2) ? parts[rng.below(parts.size())].asn
                                       : 64512 + rng.below(100));
      }
      std::vector<bgp::Community> communities;
      if (rng.chance(0.1)) {
        const auto& blocked = parts[rng.below(parts.size())];
        communities.push_back(bgp::make_community(
            0, static_cast<std::uint16_t>(blocked.asn)));
      }
      if (rng.chance(0.03)) communities.push_back(bgp::kNoExport);
      rt.announce(from.id, prefix, net::AsPath(std::move(path)),
                   std::move(communities));
    }
    if (rng.chance(0.25)) rt.flush();
  }
  rt.flush();
}

TEST(RouterFibGolden, InstallPlusChurnIsPinnedInEveryMode) {
  const auto ixp = make_ixp();
  struct Case {
    const char* name;
    Mode mode;
    std::uint32_t crc;
    std::size_t entries;
  };
  const Case cases[] = {
      {"pairwise", Mode::kPairwise, 148243021u, 4470},
      {"partitioned", Mode::kPartitioned, 982009393u, 4470},
      {"wire", Mode::kWire, 148243021u, 4470},
      {"wire-at-install", Mode::kWireAtInstall, 148243021u, 4470},
  };
  for (const Case& c : cases) {
    auto rt = build(ixp, c.mode, 600, 31);
    std::size_t entries = 0;
    EXPECT_EQ(fib_crc(*rt, entries), c.crc) << c.name;
    EXPECT_EQ(entries, c.entries) << c.name;
  }
}

/// What the routers' shared attribute table must account for.
struct FibSets {
  std::size_t live = 0;      ///< sets the table holds
  std::size_t held = 0;      ///< distinct sets FIB entries point at
  std::size_t distinct = 0;  ///< distinct (prefix, attributes) entries
  std::size_t entries = 0;   ///< FIB entries over all routers
  std::size_t indexed = 0;   ///< prefixes the shared FIB index holds
};

FibSets fib_sets(SdxRuntime& rt) {
  std::set<const bgp::RouteAttributes*> held;
  std::set<std::pair<Ipv4Prefix, std::string>> distinct;
  std::set<Ipv4Prefix> prefixes;
  FibSets out;
  const bgp::FibIndex* index = nullptr;
  for (const auto& p : rt.participants()) {
    for (std::size_t k = 0; k < p.ports.size(); ++k) {
      const auto& rib = rt.router(p.id, k).rib();
      if (index == nullptr) index = &rib.index();
      EXPECT_EQ(&rib.index(), index) << "routers must share one index";
      rib.for_each(
          [&](Ipv4Prefix prefix, const bgp::RouteAttributes& attrs) {
            held.insert(&attrs);
            std::string bytes;
            put_entry(bytes, prefix, attrs);
            distinct.emplace(prefix, std::move(bytes));
            prefixes.insert(prefix);
          });
      out.entries += rib.size();
    }
  }
  out.live = index == nullptr ? 0 : index->attrs().live();
  out.indexed = index == nullptr ? 0 : index->size();
  // The index holds exactly the union of the FIBs, nothing withdrawn.
  EXPECT_EQ(out.indexed, prefixes.size());
  out.held = held.size();
  out.distinct = distinct.size();
  return out;
}

TEST(RouterFibAttrSets, BoundedUnderChurnAndReleasedOnWithdrawal) {
  const auto ixp = make_ixp();
  for (Mode mode : {Mode::kPairwise, Mode::kPartitioned, Mode::kWire}) {
    auto rt = build(ixp, mode, 0, 0);
    for (std::uint64_t round = 0; round < 4; ++round) {
      churn(*rt, ixp, 500, 100 + round);
      const FibSets sets = fib_sets(*rt);
      // Exact accounting: every live set is some FIB entry's, and a
      // (prefix, group) pair never holds two sets — except on the wire,
      // where each router decodes its own UPDATE into its own set. Either
      // way the count follows what the FIBs hold now over the fixed prefix
      // set, not how many updates led there.
      EXPECT_EQ(sets.live, sets.held) << "round " << round;
      if (mode == Mode::kWire) {
        EXPECT_LE(sets.live, sets.entries) << "round " << round;
      } else {
        EXPECT_LE(sets.live, sets.distinct) << "round " << round;
        EXPECT_LT(sets.live * 4, sets.entries) << "round " << round;
      }
    }

    // Withdraw every route: no FIB entry, set or indexed prefix survives.
    for (auto prefix : rt->route_server().all_prefixes()) {
      std::vector<ParticipantId> holders;
      for (const auto& r : *rt->route_server().candidates(prefix)) {
        holders.push_back(r.learned_from);
      }
      for (auto id : holders) rt->withdraw(id, prefix);
    }
    rt->flush();
    const FibSets sets = fib_sets(*rt);
    EXPECT_EQ(sets.entries, 0u);
    EXPECT_EQ(sets.live, 0u);
    EXPECT_EQ(sets.indexed, 0u);
  }
}

}  // namespace
}  // namespace sdx::core
