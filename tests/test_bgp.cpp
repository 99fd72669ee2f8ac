/// Tests for the BGP substrate: wire codec round trips (property-tested),
/// decision process ordering, border-router FIBs over one shared prefix
/// index (model-fuzzed), route-server behavior (per-participant best
/// routes, export/loop rules, change events), AS-path filters and update
/// stream statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "bgp/aspath_regex.hpp"
#include "bgp/decision.hpp"
#include "bgp/rib.hpp"
#include "bgp/route_server.hpp"
#include "bgp/update_stream.hpp"
#include "bgp/wire.hpp"
#include "netbase/rng.hpp"

namespace sdx::bgp {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;
using net::SplitMix64;

RouteAttributes attrs(std::initializer_list<Asn> path,
                      const char* next_hop = "10.0.0.1") {
  RouteAttributes a;
  a.as_path = AsPath(path);
  a.next_hop = Ipv4Address::parse(next_hop);
  return a;
}

Route make_route(const char* prefix, std::initializer_list<Asn> path,
                 ParticipantId from, const char* router_id = "1.1.1.1") {
  Route r;
  r.prefix = Ipv4Prefix::parse(prefix);
  r.attrs = attrs(path);
  r.learned_from = from;
  r.peer_router_id = Ipv4Address::parse(router_id);
  return r;
}

// ---------------------------------------------------------------------------
// Wire codec

TEST(Wire, KeepaliveRoundTrip) {
  auto bytes = encode(KeepaliveMessage{});
  EXPECT_EQ(bytes.size(), 19u);
  auto result = decode(bytes);
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(*result.message));
  EXPECT_EQ(result.bytes_consumed, 19u);
}

TEST(Wire, OpenRoundTrip) {
  OpenMessage open;
  open.my_as = 65001;
  open.hold_time = 180;
  open.bgp_id = Ipv4Address::parse("192.0.2.1");
  open.opt_params = {0x02, 0x00};
  auto result = decode(encode(open));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(std::get<OpenMessage>(*result.message), open);
}

TEST(Wire, OpenWithWideAsnUsesAsTrans) {
  OpenMessage open;
  open.my_as = 4200000000;  // does not fit in 16 bits
  open.bgp_id = Ipv4Address::parse("192.0.2.1");
  auto result = decode(encode(open));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(std::get<OpenMessage>(*result.message).my_as, kAsTrans);
}

TEST(Wire, UpdateRoundTripWithAllAttributes) {
  UpdateMessage u;
  u.withdrawn = {Ipv4Prefix::parse("198.51.100.0/24")};
  RouteAttributes a;
  a.origin = Origin::kEgp;
  a.as_path = AsPath{65001, 65002, 43515};
  a.next_hop = Ipv4Address::parse("203.0.113.7");
  a.med = 50;
  a.local_pref = 200;
  a.communities = {0xFFFFFF01u, (65001u << 16) | 100u};
  u.attrs = a;
  u.nlri = {Ipv4Prefix::parse("10.0.0.0/8"), Ipv4Prefix::parse("0.0.0.0/0"),
            Ipv4Prefix::parse("192.0.2.128/25")};
  auto result = decode(encode(u));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(std::get<UpdateMessage>(*result.message), u);
}

TEST(Wire, PureWithdrawalHasNoAttributes) {
  UpdateMessage u;
  u.withdrawn = {Ipv4Prefix::parse("10.0.0.0/8")};
  auto result = decode(encode(u));
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& got = std::get<UpdateMessage>(*result.message);
  EXPECT_FALSE(got.attrs.has_value());
  EXPECT_EQ(got.withdrawn, u.withdrawn);
}

TEST(Wire, NotificationRoundTrip) {
  NotificationMessage n{6, 2, {0xDE, 0xAD}};
  auto result = decode(encode(n));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(std::get<NotificationMessage>(*result.message), n);
}

TEST(Wire, RejectsCorruptedMarker) {
  auto bytes = encode(KeepaliveMessage{});
  bytes[3] = 0x00;
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(Wire, RejectsTruncatedMessage) {
  auto bytes = encode(KeepaliveMessage{});
  bytes.pop_back();
  // Length field says 19 but only 18 bytes present.
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(Wire, RejectsBadPrefixLength) {
  UpdateMessage u;
  u.withdrawn = {Ipv4Prefix::parse("10.0.0.0/8")};
  auto bytes = encode(u);
  // Withdrawn block starts right after the header + 2-byte length:
  // byte 21 is the prefix length. Corrupt it to 33.
  bytes[21] = 33;
  EXPECT_FALSE(decode(bytes).ok());
}

TEST(Wire, RejectsNlriWithoutAttributes) {
  // Hand-craft an UPDATE with NLRI but an empty attribute block.
  UpdateMessage u;
  u.nlri = {Ipv4Prefix::parse("10.0.0.0/8")};
  RouteAttributes a;
  a.as_path = AsPath{65001};
  a.next_hop = Ipv4Address::parse("10.0.0.1");
  u.attrs = a;
  auto bytes = encode(u);
  // Zero the attribute-block length and splice the NLRI right after it.
  UpdateMessage bare;
  auto hdr = encode(bare);  // minimal update: wd_len=0, attr_len=0
  // Build: header(19) + wd_len(2)=0 + attr_len(2)=0 + one NLRI prefix.
  std::vector<std::uint8_t> crafted(hdr.begin(), hdr.end());
  crafted.push_back(8);     // prefix length bits
  crafted.push_back(10);    // 10.0.0.0/8 → one octet
  const std::uint16_t len = static_cast<std::uint16_t>(crafted.size());
  crafted[16] = static_cast<std::uint8_t>(len >> 8);
  crafted[17] = static_cast<std::uint8_t>(len);
  EXPECT_FALSE(decode(crafted).ok());
}

TEST(Wire, AsSetSegmentsFoldIntoTheFlatPath) {
  // Hand-craft an UPDATE whose AS_PATH is SEQUENCE{65001} SET{7, 8}: the
  // decoder must accept it and surface all three ASNs for loop detection.
  UpdateMessage u;
  RouteAttributes a;
  a.as_path = AsPath{65001, 7, 8};
  a.next_hop = Ipv4Address::parse("10.0.0.1");
  u.attrs = a;
  u.nlri = {Ipv4Prefix::parse("100.0.0.0/8")};
  auto bytes = encode(u);
  // The encoded AS_PATH body is SEQUENCE(type 2), len 3, 3×4 bytes at a
  // fixed offset: header(19) + wd_len(2) + attr_len(2) + ORIGIN(4) +
  // AS_PATH header(3). Rewrite it into two segments in place.
  const std::size_t seg = 19 + 2 + 2 + 4 + 3;
  ASSERT_EQ(bytes[seg], 2);      // AS_SEQUENCE
  ASSERT_EQ(bytes[seg + 1], 3);  // 3 ASNs
  bytes[seg + 1] = 1;            // SEQUENCE{65001}
  // Overwrite the second ASN's first byte region with a SET header by
  // shifting: simpler — rebuild the attribute body manually.
  std::vector<std::uint8_t> crafted(bytes.begin(), bytes.begin() + seg - 3);
  auto push_attr_hdr = [&crafted](std::uint8_t len) {
    crafted.push_back(0x40);  // transitive
    crafted.push_back(2);     // AS_PATH
    crafted.push_back(len);
  };
  push_attr_hdr(2 + 4 + 2 + 8);  // two segment headers + 3 ASNs
  auto push_u32 = [&crafted](std::uint32_t v) {
    crafted.push_back(static_cast<std::uint8_t>(v >> 24));
    crafted.push_back(static_cast<std::uint8_t>(v >> 16));
    crafted.push_back(static_cast<std::uint8_t>(v >> 8));
    crafted.push_back(static_cast<std::uint8_t>(v));
  };
  crafted.push_back(2);  // AS_SEQUENCE
  crafted.push_back(1);
  push_u32(65001);
  crafted.push_back(1);  // AS_SET
  crafted.push_back(2);
  push_u32(7);
  push_u32(8);
  // NEXT_HOP attribute + NLRI, copied from a minimal reference message.
  crafted.push_back(0x40);
  crafted.push_back(3);
  crafted.push_back(4);
  push_u32(Ipv4Address::parse("10.0.0.1").value());
  // ORIGIN attribute (well-known mandatory).
  crafted.insert(crafted.begin() + 19 + 2 + 2,
                 {0x40, 1, 1, 0});
  crafted.push_back(8);
  crafted.push_back(100);
  // Fix the attribute-block length and total length.
  const std::uint16_t attrs_len = static_cast<std::uint16_t>(
      crafted.size() - (19 + 2 + 2) - 2);
  crafted[19 + 2] = static_cast<std::uint8_t>(attrs_len >> 8);
  crafted[19 + 2 + 1] = static_cast<std::uint8_t>(attrs_len);
  const std::uint16_t total = static_cast<std::uint16_t>(crafted.size());
  crafted[16] = static_cast<std::uint8_t>(total >> 8);
  crafted[17] = static_cast<std::uint8_t>(total);

  auto result = decode(crafted);
  ASSERT_TRUE(result.ok()) << result.error;
  const auto& got = std::get<UpdateMessage>(*result.message);
  ASSERT_TRUE(got.attrs.has_value());
  EXPECT_EQ(got.attrs->as_path, (AsPath{65001, 7, 8}));
}

class WireRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireRoundTrip, RandomUpdatesSurviveEncodeDecode) {
  SplitMix64 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    UpdateMessage u;
    const std::size_t n_wd = rng.below(4);
    for (std::size_t i = 0; i < n_wd; ++i) {
      u.withdrawn.push_back(
          Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())),
                     static_cast<int>(rng.range(0, 32))));
    }
    const std::size_t n_nlri = rng.below(5);
    if (n_nlri > 0 || rng.chance(0.5)) {
      RouteAttributes a;
      a.origin = static_cast<Origin>(rng.below(3));
      std::vector<Asn> path;
      for (std::size_t i = 0, e = rng.range(1, 300); i < e; ++i) {
        path.push_back(static_cast<Asn>(rng.range(1, 4000000000ull)));
      }
      a.as_path = AsPath(std::move(path));
      a.next_hop = Ipv4Address(static_cast<std::uint32_t>(rng()));
      if (rng.chance(0.5)) a.med = static_cast<std::uint32_t>(rng());
      if (rng.chance(0.5)) a.local_pref = static_cast<std::uint32_t>(rng());
      for (std::size_t i = 0, e = rng.below(4); i < e; ++i) {
        a.communities.push_back(static_cast<std::uint32_t>(rng()));
      }
      u.attrs = std::move(a);
    }
    for (std::size_t i = 0; i < n_nlri; ++i) {
      u.nlri.push_back(
          Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(rng())),
                     static_cast<int>(rng.range(0, 32))));
    }
    auto result = decode(encode(u));
    ASSERT_TRUE(result.ok()) << result.error;
    EXPECT_EQ(std::get<UpdateMessage>(*result.message), u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireRoundTrip,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Decision process

TEST(Decision, LocalPrefDominates) {
  Route a = make_route("10.0.0.0/8", {1, 2, 3}, 1);
  Route b = make_route("10.0.0.0/8", {1}, 2);
  a.attrs.local_pref = 200;  // longer path but higher local-pref
  EXPECT_TRUE(better(a, b));
  EXPECT_FALSE(better(b, a));
}

TEST(Decision, ShorterAsPathWins) {
  Route a = make_route("10.0.0.0/8", {1, 2}, 1);
  Route b = make_route("10.0.0.0/8", {1, 2, 3}, 2);
  EXPECT_TRUE(better(a, b));
}

TEST(Decision, OriginOrdering) {
  Route a = make_route("10.0.0.0/8", {1, 2}, 1);
  Route b = make_route("10.0.0.0/8", {3, 4}, 2);
  a.attrs.origin = Origin::kIgp;
  b.attrs.origin = Origin::kIncomplete;
  EXPECT_TRUE(better(a, b));
}

TEST(Decision, MedOnlyComparedForSameNeighborAs) {
  Route a = make_route("10.0.0.0/8", {7, 2}, 1);
  Route b = make_route("10.0.0.0/8", {7, 3}, 2, "2.2.2.2");
  a.attrs.med = 100;
  b.attrs.med = 10;
  EXPECT_TRUE(better(b, a));  // same neighbor AS 7: lower MED wins

  Route c = make_route("10.0.0.0/8", {8, 3}, 2, "0.0.0.2");
  c.attrs.med = 10;
  a.peer_router_id = Ipv4Address::parse("0.0.0.1");
  // Different neighbor AS: MED skipped, falls through to router-id.
  EXPECT_TRUE(better(a, c));
  // With always-compare-med, the lower MED wins regardless.
  EXPECT_TRUE(better(c, a, DecisionConfig{.always_compare_med = true}));
}

TEST(Decision, RouterIdBreaksTies) {
  Route a = make_route("10.0.0.0/8", {1, 2}, 1, "1.1.1.1");
  Route b = make_route("10.0.0.0/8", {1, 3}, 2, "2.2.2.2");
  EXPECT_TRUE(better(a, b));
}

TEST(Decision, StrictWeakOrderOnRandomRoutes) {
  SplitMix64 rng(99);
  std::vector<Route> routes;
  for (int i = 0; i < 60; ++i) {
    Route r = make_route("10.0.0.0/8", {}, static_cast<ParticipantId>(i));
    std::vector<Asn> path;
    for (std::size_t k = 0, e = rng.range(1, 4); k < e; ++k) {
      path.push_back(static_cast<Asn>(rng.range(1, 5)));
    }
    r.attrs.as_path = AsPath(std::move(path));
    if (rng.chance(0.5)) r.attrs.local_pref = rng.range(100, 102);
    if (rng.chance(0.5)) r.attrs.med = rng.range(0, 2);
    r.attrs.origin = static_cast<Origin>(rng.below(3));
    r.peer_router_id = Ipv4Address(static_cast<std::uint32_t>(rng.below(4)));
    routes.push_back(r);
  }
  // Irreflexivity and asymmetry.
  for (const auto& a : routes) {
    EXPECT_FALSE(better(a, a));
    for (const auto& b : routes) {
      if (better(a, b)) {
        EXPECT_FALSE(better(b, a));
      }
    }
  }
  // select_best returns a maximal element.
  const Route* best = select_best(routes);
  ASSERT_NE(best, nullptr);
  for (const auto& r : routes) EXPECT_FALSE(better(r, *best));
}

// ---------------------------------------------------------------------------
// Rib

TEST(RibTest, AddWithdrawLpm) {
  Rib rib;
  // Each add takes its own reference; the writer drops the one make() gave.
  auto add = [&rib](const Route& r) {
    const AttrHandle h = rib.table().make(r.attrs);
    const bool fresh = rib.add(r.prefix, h);
    rib.table().release(h);
    return fresh;
  };
  EXPECT_TRUE(add(make_route("10.0.0.0/8", {1}, 1)));
  EXPECT_FALSE(add(make_route("10.0.0.0/8", {2}, 2)));  // replace
  EXPECT_TRUE(add(make_route("10.20.0.0/16", {3}, 3)));
  EXPECT_EQ(rib.size(), 2u);
  EXPECT_EQ(rib.table().live(), 2u);  // the replaced set was released

  const auto specific = rib.lookup(Ipv4Address::parse("10.20.1.1"));
  ASSERT_TRUE(specific.has_value());
  EXPECT_EQ(specific->prefix, Ipv4Prefix::parse("10.20.0.0/16"));

  const auto covering = rib.lookup(Ipv4Address::parse("10.99.1.1"));
  ASSERT_TRUE(covering.has_value());
  EXPECT_EQ(covering->attrs.as_path, AsPath{2});

  EXPECT_TRUE(rib.withdraw(Ipv4Prefix::parse("10.20.0.0/16")));
  EXPECT_EQ(rib.lookup(Ipv4Address::parse("10.20.1.1"))->prefix,
            Ipv4Prefix::parse("10.0.0.0/8"));
  EXPECT_EQ(rib.table().live(), 1u);
  EXPECT_TRUE(rib.withdraw(Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(rib.withdraw(Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_EQ(rib.table().live(), 0u);
}

TEST(RibTest, RoutersSharingATableShareOneSetPerWrite) {
  auto index = std::make_shared<FibIndex>();
  AttrTable* table = &index->attrs();
  Rib a(index);
  Rib b(index);
  const auto p = Ipv4Prefix::parse("10.0.0.0/8");
  const AttrHandle first = table->make(make_route("10.0.0.0/8", {1}, 1).attrs);
  a.add(p, first);
  b.add(p, first);
  table->release(first);
  EXPECT_EQ(table->live(), 1u);
  EXPECT_EQ(a.find(p), b.find(p));  // one set, two entries
  EXPECT_EQ(index->size(), 1u);     // one prefix, two columns

  // Re-advertising to one router moves only that router's entry.
  const AttrHandle second =
      table->make(make_route("10.0.0.0/8", {2}, 2).attrs);
  a.add(p, second);
  table->release(second);
  EXPECT_EQ(table->live(), 2u);
  EXPECT_EQ(a.find(p)->as_path, AsPath{2});
  EXPECT_EQ(b.find(p)->as_path, AsPath{1});
  {
    Rib moved(std::move(b));  // the entry moves with it, no extra reference
    EXPECT_EQ(table->live(), 2u);
  }
  EXPECT_EQ(table->live(), 1u);  // destroying a Rib releases its entries
  EXPECT_EQ(index->size(), 1u);
  a.withdraw(p);
  EXPECT_EQ(table->live(), 0u);
  EXPECT_EQ(index->size(), 0u);  // the last holder's withdrawal erases it
}

TEST(RibTest, LongestMatchIsPerRouterInASharedIndex) {
  auto index = std::make_shared<FibIndex>();
  Rib a(index);
  Rib b(index);
  const auto wide = Ipv4Prefix::parse("10.0.0.0/8");
  const auto narrow = Ipv4Prefix::parse("10.1.0.0/16");
  const AttrHandle h = index->attrs().make(attrs({1}));
  a.add(wide, h);
  b.add(narrow, h);
  index->attrs().release(h);

  // The trie holds both prefixes, but each router matches only its own.
  const auto addr = Ipv4Address::parse("10.1.2.3");
  ASSERT_TRUE(a.lookup(addr).has_value());
  EXPECT_EQ(a.lookup(addr)->prefix, wide);
  ASSERT_TRUE(b.lookup(addr).has_value());
  EXPECT_EQ(b.lookup(addr)->prefix, narrow);
  EXPECT_EQ(a.find(narrow), nullptr);
  EXPECT_EQ(b.find(wide), nullptr);
  EXPECT_FALSE(b.lookup(Ipv4Address::parse("10.2.0.1")).has_value());
  EXPECT_EQ(index->size(), 2u);
}

/// Model fuzz of several Ribs over one FibIndex: seeded announcements and
/// withdrawals, by prefix and by slot (the runtime's fan-out), over nested
/// prefixes of every length 0–32, against one std::map per router. After
/// every operation each router's find, lookup, for_each and size must
/// match its model, and the index must hold exactly the models' union.
TEST(RibTest, SharedIndexModelFuzzAtEveryPrefixLength) {
  constexpr std::size_t kRouters = 4;
  SplitMix64 rng(4242);
  // Two chains of nested prefixes (every length over one address each)
  // plus scattered prefixes of random length.
  std::vector<Ipv4Prefix> pool;
  for (const std::uint32_t base : {0x0A010203u, 0xC0A80A01u}) {
    for (int len = 0; len <= 32; ++len) {
      pool.emplace_back(Ipv4Address(base), len);
    }
  }
  for (int i = 0; i < 40; ++i) {
    pool.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng())),
                      static_cast<int>(rng.range(0, 32)));
  }

  auto index = std::make_shared<FibIndex>();
  AttrTable& table = index->attrs();
  std::vector<Rib> ribs;
  for (std::size_t r = 0; r < kRouters; ++r) ribs.emplace_back(index);
  // Per router: prefix → the next hop its entry carries.
  std::vector<std::map<Ipv4Prefix, std::uint32_t>> models(kRouters);
  std::size_t high_water = 0;  // the largest union so far

  auto check = [&](int step) {
    std::set<Ipv4Prefix> united;
    for (std::size_t r = 0; r < kRouters; ++r) {
      const Rib& rib = ribs[r];
      const auto& model = models[r];
      ASSERT_EQ(rib.size(), model.size()) << "step " << step;
      std::vector<std::pair<Ipv4Prefix, std::uint32_t>> seen;
      rib.for_each([&seen](Ipv4Prefix p, const RouteAttributes& a) {
        seen.emplace_back(p, a.next_hop.value());
      });
      ASSERT_EQ(seen, (std::vector<std::pair<Ipv4Prefix, std::uint32_t>>(
                          model.begin(), model.end())))
          << "step " << step << " router " << r;
      for (const auto& p : pool) {
        const RouteAttributes* found = rib.find(p);
        const auto it = model.find(p);
        ASSERT_EQ(found != nullptr, it != model.end()) << "step " << step;
        if (found != nullptr) {
          ASSERT_EQ(found->next_hop.value(), it->second);
        }
      }
      // Random addresses, plus one inside every held prefix.
      std::vector<Ipv4Address> probes;
      for (int i = 0; i < 8; ++i) {
        probes.emplace_back(static_cast<std::uint32_t>(rng()));
      }
      for (const auto& [p, _] : model) {
        probes.emplace_back(p.network().value() |
                            (static_cast<std::uint32_t>(rng()) & ~p.mask()));
        united.insert(p);
      }
      for (const Ipv4Address addr : probes) {
        std::optional<Ipv4Prefix> best;
        for (const auto& [p, _] : model) {
          if (p.contains(addr) && (!best || p.length() > best->length())) {
            best = p;
          }
        }
        const auto hit = rib.lookup(addr);
        ASSERT_EQ(hit.has_value(), best.has_value())
            << "step " << step << " addr " << addr.to_string();
        if (best) {
          ASSERT_EQ(hit->prefix, *best);
          ASSERT_EQ(hit->attrs.next_hop.value(), model.at(*best));
        }
      }
    }
    // The index tracks the live union (its LPM is the union's), and slots
    // freed by the last holder's withdrawal are reused instead of growing
    // past it.
    ASSERT_EQ(index->size(), united.size()) << "step " << step;
    for (const auto& p : united) {
      const Ipv4Address addr(p.network().value() |
                             (static_cast<std::uint32_t>(rng()) & ~p.mask()));
      std::optional<Ipv4Prefix> best;
      for (const auto& q : united) {
        if (q.contains(addr) && (!best || q.length() > best->length())) {
          best = q;
        }
      }
      ASSERT_EQ(index->lookup(addr), best) << "step " << step;
    }
    high_water = std::max(high_water, united.size());
    ASSERT_LE(index->slots(), high_water) << "step " << step;
  };

  std::uint32_t next_hop = 1;
  for (int step = 0; step < 2500; ++step) {
    const Ipv4Prefix p = pool[rng.below(pool.size())];
    if (rng.below(2) == 0) {
      // One router, by prefix (a decoded UPDATE).
      const std::size_t r = rng.below(kRouters);
      if (rng.below(3) == 0) {
        ASSERT_EQ(ribs[r].withdraw(p), models[r].erase(p) > 0);
      } else {
        RouteAttributes a;
        a.next_hop = Ipv4Address(next_hop);
        const AttrHandle h = table.make(a);
        const bool fresh = models[r].insert_or_assign(p, next_hop++).second;
        ASSERT_EQ(ribs[r].add(p, h), fresh);
        table.release(h);
      }
    } else {
      // Every router, by slot (an update-group fan-out): some withdraw,
      // the rest take one shared set. A prefix no router will hold gets
      // no slot, as in SdxRuntime::readvertise.
      std::vector<bool> announce(kRouters);
      bool any = false;
      for (std::size_t r = 0; r < kRouters; ++r) {
        announce[r] = rng.below(3) != 0;
        any = any || announce[r];
      }
      std::optional<FibIndex::Slot> slot;
      if (any || index->find(p) != nullptr) slot = index->acquire(p);
      RouteAttributes a;
      a.next_hop = Ipv4Address(next_hop);
      const AttrHandle h = table.make(a);
      for (std::size_t r = 0; r < kRouters; ++r) {
        if (announce[r]) {
          models[r].insert_or_assign(p, next_hop);
          ribs[r].add_at(*slot, h);
        } else {
          models[r].erase(p);
          if (slot) ribs[r].withdraw_at(*slot);
        }
      }
      ++next_hop;
      table.release(h);
      if (slot) index->release(*slot);
    }
    check(step);
    if (HasFatalFailure()) return;
  }

  // Withdraw everything: no prefix, set or column entry survives, and
  // re-announcing reuses the freed slots.
  const std::size_t slots = index->slots();
  for (std::size_t r = 0; r < kRouters; ++r) {
    for (const auto& [p, _] : models[r]) ASSERT_TRUE(ribs[r].withdraw(p));
    models[r].clear();
  }
  check(-1);
  EXPECT_EQ(index->size(), 0u);
  EXPECT_EQ(table.live(), 0u);
  const AttrHandle h = table.make(attrs({1}));
  for (const auto& p : pool) ribs[0].add(p, h);
  table.release(h);
  EXPECT_EQ(index->size(), std::set<Ipv4Prefix>(pool.begin(), pool.end()).size());
  EXPECT_LE(index->slots(), std::max(slots, index->size()));
}

// ---------------------------------------------------------------------------
// Route server

class RouteServerFixture : public ::testing::Test {
 protected:
  RouteServerFixture() {
    server.add_peer({1, 65001, Ipv4Address::parse("10.0.0.1")});
    server.add_peer({2, 65002, Ipv4Address::parse("10.0.0.2")});
    server.add_peer({3, 65003, Ipv4Address::parse("10.0.0.3")});
  }
  RouteServer server;
};

TEST_F(RouteServerFixture, RejectsDuplicatePeerAndUnknownAnnouncer) {
  EXPECT_THROW(server.add_peer({1, 65009, Ipv4Address{}}),
               std::invalid_argument);
  EXPECT_THROW(server.announce(make_route("10.0.0.0/8", {65009}, 9)),
               std::invalid_argument);
  EXPECT_THROW(server.withdraw(9, Ipv4Prefix::parse("10.0.0.0/8")),
               std::invalid_argument);
}

TEST_F(RouteServerFixture, BestRouteExcludesOwnAnnouncement) {
  server.announce(make_route("10.0.0.0/8", {65001, 7}, 1));
  auto best_for_2 = server.best_route(2, Ipv4Prefix::parse("10.0.0.0/8"));
  ASSERT_TRUE(best_for_2.has_value());
  EXPECT_EQ(best_for_2->learned_from, 1u);
  // The announcer itself gets nothing back for its own route.
  EXPECT_FALSE(server.best_route(1, Ipv4Prefix::parse("10.0.0.0/8")));
}

TEST_F(RouteServerFixture, LoopPreventionFiltersPathsContainingPeerAsn) {
  // Path traverses 65002 — the server must not export it to participant 2.
  server.announce(make_route("10.0.0.0/8", {65001, 65002, 7}, 1));
  EXPECT_FALSE(server.best_route(2, Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(server.best_route(3, Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(server.exports_to(1, 2, Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(server.exports_to(1, 3, Ipv4Prefix::parse("10.0.0.0/8")));
}

TEST_F(RouteServerFixture, PerParticipantBestDiffers) {
  // Participant 1 and 2 both announce p; 1's route is better (shorter).
  server.announce(make_route("20.0.0.0/8", {65001}, 1));
  server.announce(make_route("20.0.0.0/8", {65002, 7}, 2));
  auto p = Ipv4Prefix::parse("20.0.0.0/8");
  EXPECT_EQ(server.best_route(3, p)->learned_from, 1u);
  // For participant 1, its own route is ineligible → 2's route.
  EXPECT_EQ(server.best_route(1, p)->learned_from, 2u);
  EXPECT_EQ(server.best_route(2, p)->learned_from, 1u);
}

TEST_F(RouteServerFixture, AnnounceEmitsChangeEventsOnlyOnRealChanges) {
  auto p = Ipv4Prefix::parse("30.0.0.0/8");
  auto changes = server.announce(make_route("30.0.0.0/8", {65001, 7}, 1));
  // Participants 2 and 3 gain a best route; participant 1 does not (own).
  ASSERT_EQ(changes.size(), 2u);
  for (const auto& c : changes) {
    EXPECT_FALSE(c.old_from.has_value());
    EXPECT_EQ(c.new_from, std::optional<ParticipantId>(1));
    EXPECT_EQ(c.prefix, p);
  }
  // Re-announcing the identical route is a no-op.
  EXPECT_TRUE(server.announce(make_route("30.0.0.0/8", {65001, 7}, 1)).empty());

  // A worse route from 2 changes only participant 1's best.
  changes = server.announce(make_route("30.0.0.0/8", {65002, 8, 7}, 2));
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].participant, 1u);
  EXPECT_EQ(changes[0].old_from, std::optional<ParticipantId>());
  EXPECT_EQ(changes[0].new_from, std::optional<ParticipantId>(2));
}

TEST_F(RouteServerFixture, WithdrawFallsBackToNextBest) {
  auto p = Ipv4Prefix::parse("40.0.0.0/8");
  server.announce(make_route("40.0.0.0/8", {65001}, 1));
  server.announce(make_route("40.0.0.0/8", {65002, 7}, 2));
  auto changes = server.withdraw(1, p);
  // Participants 2 and 3 shift to 2's route; participant 2's own best was
  // 1's route which disappears... participant 2 loses eligibility of its own
  // route so its best becomes nothing.
  ASSERT_FALSE(changes.empty());
  EXPECT_EQ(server.best_route(3, p)->learned_from, 2u);
  EXPECT_FALSE(server.best_route(2, p).has_value());
  // Withdrawing everything empties the table.
  server.withdraw(2, p);
  EXPECT_FALSE(server.best_route(3, p).has_value());
  EXPECT_EQ(server.candidates(p), nullptr);
}

TEST_F(RouteServerFixture, ReachableViaListsExportedPrefixes) {
  server.announce(make_route("50.0.0.0/8", {65001}, 1));
  server.announce(make_route("51.0.0.0/8", {65001, 65003}, 1));  // loops to 3
  server.announce(make_route("52.0.0.0/8", {65002}, 2));
  auto reach = server.reachable_via(3, 1);
  ASSERT_EQ(reach.size(), 1u);
  EXPECT_EQ(reach[0], Ipv4Prefix::parse("50.0.0.0/8"));
  auto adv = server.advertised_by(1);
  EXPECT_EQ(adv.size(), 2u);
}

TEST_F(RouteServerFixture, NoExportCommunitySuppressesReAdvertisement) {
  Route r = make_route("70.0.0.0/8", {65001, 7}, 1);
  r.attrs.communities = {kNoExport};
  server.announce(r);
  EXPECT_FALSE(server.best_route(2, Ipv4Prefix::parse("70.0.0.0/8")));
  EXPECT_FALSE(server.best_route(3, Ipv4Prefix::parse("70.0.0.0/8")));
  EXPECT_FALSE(server.exports_to(1, 2, Ipv4Prefix::parse("70.0.0.0/8")));
}

TEST_F(RouteServerFixture, NoAdvertiseCommunityBehavesLikeNoExport) {
  Route r = make_route("71.0.0.0/8", {65001, 7}, 1);
  r.attrs.communities = {kNoAdvertise};
  server.announce(r);
  EXPECT_FALSE(server.best_route(3, Ipv4Prefix::parse("71.0.0.0/8")));
}

TEST_F(RouteServerFixture, PerPeerBlockingCommunity) {
  // "0:65002" — do not export to AS 65002 (participant 2).
  Route r = make_route("72.0.0.0/8", {65001, 7}, 1);
  r.attrs.communities = {make_community(0, 65002)};
  server.announce(r);
  EXPECT_FALSE(server.best_route(2, Ipv4Prefix::parse("72.0.0.0/8")));
  ASSERT_TRUE(server.best_route(3, Ipv4Prefix::parse("72.0.0.0/8")));
  EXPECT_FALSE(server.exports_to(1, 2, Ipv4Prefix::parse("72.0.0.0/8")));
  EXPECT_TRUE(server.exports_to(1, 3, Ipv4Prefix::parse("72.0.0.0/8")));
}

TEST_F(RouteServerFixture, OrdinaryCommunitiesDoNotAffectExport) {
  Route r = make_route("73.0.0.0/8", {65001, 7}, 1);
  r.attrs.communities = {make_community(65001, 100)};
  server.announce(r);
  EXPECT_TRUE(server.best_route(2, Ipv4Prefix::parse("73.0.0.0/8")));
}

TEST_F(RouteServerFixture, FilterPrefixesByAsPath) {
  server.announce(make_route("60.0.0.0/8", {65001, 43515}, 1));
  server.announce(make_route("61.0.0.0/8", {65001, 143515}, 1));
  server.announce(make_route("62.0.0.0/8", {65001, 43515, 9}, 1));
  auto yt = filter_rib(server, 3, AsPathFilter::originated_by(43515));
  ASSERT_EQ(yt.size(), 1u);
  EXPECT_EQ(yt[0], Ipv4Prefix::parse("60.0.0.0/8"));
  auto through = filter_rib(server, 3, AsPathFilter::traverses(43515));
  EXPECT_EQ(through.size(), 2u);
}

TEST(AsPathFilterTest, TokenizedAnchoringAvoidsSubstringMatches) {
  auto f = AsPathFilter::originated_by(3515);
  EXPECT_TRUE(f.matches(AsPath{100, 3515}));
  EXPECT_FALSE(f.matches(AsPath{100, 43515}));
  EXPECT_TRUE(f.matches(AsPath{3515}));
  auto t = AsPathFilter::traverses(200);
  EXPECT_TRUE(t.matches(AsPath{200, 300}));
  EXPECT_TRUE(t.matches(AsPath{100, 200, 300}));
  EXPECT_TRUE(t.matches(AsPath{100, 200}));
  EXPECT_FALSE(t.matches(AsPath{100, 1200, 300}));
}

TEST(AsPathFilterTest, RawRegexAsInPaper) {
  AsPathFilter f(".*43515$");  // the paper's YouTube example, verbatim
  EXPECT_TRUE(f.matches(AsPath{100, 200, 43515}));
  EXPECT_FALSE(f.matches(AsPath{100, 43515, 200}));
}

// ---------------------------------------------------------------------------
// Update streams

TEST(UpdateStream, SegmentsBurstsOnQuietGaps) {
  std::vector<TimedUpdate> stream;
  auto push = [&stream](double t, const char* p) {
    TimedUpdate u;
    u.timestamp = t;
    u.prefix = Ipv4Prefix::parse(p);
    stream.push_back(u);
  };
  push(0.0, "10.0.0.0/8");
  push(1.0, "11.0.0.0/8");
  push(2.0, "10.0.0.0/8");  // same prefix again
  push(30.0, "12.0.0.0/8");
  push(31.0, "13.0.0.0/8");
  push(100.0, "14.0.0.0/8");

  auto bursts = segment_bursts(stream, 10.0);
  ASSERT_EQ(bursts.size(), 3u);
  EXPECT_EQ(bursts[0].update_count, 3u);
  EXPECT_EQ(bursts[0].distinct_prefixes, 2u);
  EXPECT_EQ(bursts[1].update_count, 2u);
  EXPECT_EQ(bursts[2].update_count, 1u);
  EXPECT_DOUBLE_EQ(bursts[1].start_time, 30.0);
}

TEST(UpdateStream, EmptyStream) {
  EXPECT_TRUE(segment_bursts({}, 10.0).empty());
  auto s = compute_stats({}, 10.0);
  EXPECT_EQ(s.total_updates, 0u);
  EXPECT_EQ(s.burst_count, 0u);
}

TEST(UpdateStream, StatsCountAnnouncementsAndWithdrawals) {
  std::vector<TimedUpdate> stream;
  TimedUpdate a;
  a.timestamp = 0;
  a.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  a.attrs = attrs({65001});
  stream.push_back(a);
  TimedUpdate w;
  w.timestamp = 100;
  w.prefix = Ipv4Prefix::parse("10.0.0.0/8");
  stream.push_back(w);
  auto s = compute_stats(stream, 10.0);
  EXPECT_EQ(s.total_updates, 2u);
  EXPECT_EQ(s.announcement_count, 1u);
  EXPECT_EQ(s.withdrawal_count, 1u);
  EXPECT_EQ(s.distinct_prefixes, 1u);
  EXPECT_EQ(s.burst_count, 2u);
}

TEST(UpdateStream, QuantileLinearInterpolation) {
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile({1, 2, 3, 4}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile({5}, 0.75), 5.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

}  // namespace
}  // namespace sdx::bgp
