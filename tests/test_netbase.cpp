/// Unit tests for the netbase substrate: addresses, prefixes, MACs,
/// AS paths, the prefix trie and the ternary match algebra.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "netbase/as_path.hpp"
#include "netbase/field_match.hpp"
#include "netbase/ip.hpp"
#include "netbase/mac.hpp"
#include "netbase/packet.hpp"
#include "netbase/prefix_trie.hpp"
#include "netbase/rng.hpp"

namespace sdx::net {
namespace {

TEST(Ipv4Address, ParseAndFormatRoundTrip) {
  auto a = Ipv4Address::parse("74.125.1.1");
  EXPECT_EQ(a.to_string(), "74.125.1.1");
  EXPECT_EQ(a.octet(0), 74);
  EXPECT_EQ(a.octet(3), 1);
  EXPECT_EQ(Ipv4Address::from_octets(74, 125, 1, 1), a);
}

TEST(Ipv4Address, RejectsMalformedInput) {
  EXPECT_FALSE(Ipv4Address::try_parse(""));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3"));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3.4.5"));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3.256"));
  EXPECT_FALSE(Ipv4Address::try_parse("1.2.3.4 "));
  EXPECT_FALSE(Ipv4Address::try_parse("a.b.c.d"));
  EXPECT_THROW(Ipv4Address::parse("nope"), std::invalid_argument);
}

TEST(Ipv4Address, Ordering) {
  EXPECT_LT(Ipv4Address::parse("1.0.0.0"), Ipv4Address::parse("2.0.0.0"));
  EXPECT_LT(Ipv4Address::parse("9.255.255.255"),
            Ipv4Address::parse("10.0.0.0"));
}

TEST(Ipv4Prefix, NormalizesHostBits) {
  Ipv4Prefix p(Ipv4Address::parse("10.1.2.3"), 8);
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
  EXPECT_EQ(p.network(), Ipv4Address::parse("10.0.0.0"));
}

TEST(Ipv4Prefix, ParseRejectsMalformedInput) {
  EXPECT_FALSE(Ipv4Prefix::try_parse("10.0.0.0"));
  EXPECT_FALSE(Ipv4Prefix::try_parse("10.0.0.0/33"));
  EXPECT_FALSE(Ipv4Prefix::try_parse("10.0.0.0/"));
  EXPECT_FALSE(Ipv4Prefix::try_parse("10.0.0.0/8x"));
  EXPECT_TRUE(Ipv4Prefix::try_parse("0.0.0.0/0"));
}

TEST(Ipv4Prefix, ContainmentAndOverlap) {
  auto p8 = Ipv4Prefix::parse("10.0.0.0/8");
  auto p16 = Ipv4Prefix::parse("10.20.0.0/16");
  auto other = Ipv4Prefix::parse("11.0.0.0/8");
  EXPECT_TRUE(p8.contains(p16));
  EXPECT_FALSE(p16.contains(p8));
  EXPECT_TRUE(p8.contains(p8));
  EXPECT_TRUE(p8.overlaps(p16));
  EXPECT_FALSE(p8.overlaps(other));
  EXPECT_TRUE(p8.contains(Ipv4Address::parse("10.255.0.1")));
  EXPECT_FALSE(p8.contains(Ipv4Address::parse("11.0.0.1")));
}

TEST(Ipv4Prefix, IntersectionIsTheMoreSpecific) {
  auto p8 = Ipv4Prefix::parse("10.0.0.0/8");
  auto p16 = Ipv4Prefix::parse("10.20.0.0/16");
  EXPECT_EQ(p8.intersect(p16), p16);
  EXPECT_EQ(p16.intersect(p8), p16);
  EXPECT_EQ(p8.intersect(Ipv4Prefix::parse("12.0.0.0/8")), std::nullopt);
}

TEST(Ipv4Prefix, HalfSpacesFromThePaper) {
  // Paper §3.1: AS B splits traffic on srcip 0.0.0.0/1 vs 128.0.0.0/1.
  auto low = Ipv4Prefix::parse("0.0.0.0/1");
  auto high = Ipv4Prefix::parse("128.0.0.0/1");
  EXPECT_TRUE(low.contains(Ipv4Address::parse("96.25.160.1")));
  EXPECT_TRUE(high.contains(Ipv4Address::parse("128.125.163.1")));
  EXPECT_FALSE(low.overlaps(high));
  EXPECT_EQ(low.size() + high.size(), std::uint64_t{1} << 32);
}

TEST(Ipv4Prefix, AddressRange) {
  auto p = Ipv4Prefix::parse("192.168.4.0/22");
  EXPECT_EQ(p.first_address().to_string(), "192.168.4.0");
  EXPECT_EQ(p.last_address().to_string(), "192.168.7.255");
  EXPECT_EQ(p.size(), 1024u);
}

TEST(MacAddress, ParseFormatRoundTrip) {
  auto m = MacAddress::parse("Aa:bB:cC:00:01:ff");
  EXPECT_EQ(m.to_string(), "aa:bb:cc:00:01:ff");
  EXPECT_EQ(m.octet(0), 0xaa);
  EXPECT_EQ(m.octet(5), 0xff);
}

TEST(MacAddress, RejectsMalformedInput) {
  EXPECT_FALSE(MacAddress::try_parse("aa:bb:cc:00:01"));
  EXPECT_FALSE(MacAddress::try_parse("aa-bb-cc-00-01-ff"));
  EXPECT_FALSE(MacAddress::try_parse("aa:bb:cc:00:01:fg"));
  EXPECT_FALSE(MacAddress::try_parse(""));
}

TEST(MacAddress, MasksTo48Bits) {
  MacAddress m(0xFFFF'AABB'CCDD'EEFFull);
  EXPECT_EQ(m.bits(), 0xAABB'CCDD'EEFFull);
}

TEST(MacAddress, LocallyAdministeredBit) {
  EXPECT_TRUE(MacAddress(0x02'00'00'00'00'01ull).locally_administered());
  EXPECT_FALSE(MacAddress(0x00'00'00'00'00'01ull).locally_administered());
}

TEST(AsPath, BasicAccessorsAndPrepend) {
  AsPath p{100, 200, 43515};
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.first(), 100u);
  EXPECT_EQ(p.origin_as(), 43515u);
  EXPECT_TRUE(p.contains(200));
  EXPECT_FALSE(p.contains(300));
  AsPath q = p.prepended(65000);
  EXPECT_EQ(q.to_string(), "65000 100 200 43515");
  EXPECT_EQ(p.to_string(), "100 200 43515");  // prepended() is pure
}

TEST(PrefixTrie, InsertFindErase) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 2));  // overwrite
  EXPECT_EQ(*trie.find(Ipv4Prefix::parse("10.0.0.0/8")), 2);
  EXPECT_EQ(trie.find(Ipv4Prefix::parse("10.0.0.0/9")), nullptr);
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_TRUE(trie.erase(Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_FALSE(trie.erase(Ipv4Prefix::parse("10.0.0.0/8")));
  EXPECT_TRUE(trie.empty());
}

TEST(PrefixTrie, LongestPrefixMatch) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("0.0.0.0/0"), 0);
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(Ipv4Prefix::parse("10.20.0.0/16"), 16);
  trie.insert(Ipv4Prefix::parse("10.20.30.0/24"), 24);

  auto hit = trie.lookup(Ipv4Address::parse("10.20.30.40"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 24);
  EXPECT_EQ(hit->first.to_string(), "10.20.30.0/24");

  hit = trie.lookup(Ipv4Address::parse("10.20.99.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 16);

  hit = trie.lookup(Ipv4Address::parse("10.99.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 8);

  hit = trie.lookup(Ipv4Address::parse("99.0.0.1"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit->second, 0);
}

TEST(PrefixTrie, LookupWithoutDefaultRouteCanMiss) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 8);
  EXPECT_FALSE(trie.lookup(Ipv4Address::parse("11.0.0.1")).has_value());
}

TEST(PrefixTrie, ForEachVisitsAllInOrder) {
  PrefixTrie<int> trie;
  std::vector<std::string> inserted = {"10.0.0.0/8", "10.128.0.0/9",
                                       "192.168.0.0/16", "0.0.0.0/0"};
  for (std::size_t i = 0; i < inserted.size(); ++i) {
    trie.insert(Ipv4Prefix::parse(inserted[i]), static_cast<int>(i));
  }
  std::vector<std::string> seen;
  trie.for_each([&](Ipv4Prefix p, int) { seen.push_back(p.to_string()); });
  EXPECT_EQ(seen, (std::vector<std::string>{"0.0.0.0/0", "10.0.0.0/8",
                                            "10.128.0.0/9",
                                            "192.168.0.0/16"}));
}

TEST(PrefixTrie, ForEachCoveringVisitsEveryCoveringPrefix) {
  PrefixTrie<int> trie;
  trie.insert(Ipv4Prefix::parse("0.0.0.0/0"), 1);
  trie.insert(Ipv4Prefix::parse("10.0.0.0/8"), 2);
  trie.insert(Ipv4Prefix::parse("10.20.0.0/16"), 4);
  trie.insert(Ipv4Prefix::parse("10.20.30.0/24"), 8);
  trie.insert(Ipv4Prefix::parse("192.168.0.0/16"), 16);

  int acc = 0;
  trie.for_each_covering(Ipv4Address::parse("10.20.30.40"),
                         [&](int v) { acc |= v; });
  EXPECT_EQ(acc, 1 | 2 | 4 | 8);  // everything on the path, nothing else

  acc = 0;
  trie.for_each_covering(Ipv4Address::parse("10.99.0.1"),
                         [&](int v) { acc |= v; });
  EXPECT_EQ(acc, 1 | 2);

  acc = 0;
  trie.for_each_covering(Ipv4Address::parse("172.16.0.1"),
                         [&](int v) { acc |= v; });
  EXPECT_EQ(acc, 1);
}

TEST(FieldMatch, CidrPrefixLengthRecognizesOnlyCidrMasks) {
  EXPECT_EQ(FieldMatch::wildcard().cidr_prefix_length(), 0);
  EXPECT_EQ(FieldMatch::prefix(Ipv4Prefix::parse("10.0.0.0/8"))
                .cidr_prefix_length(),
            8);
  EXPECT_EQ(FieldMatch::prefix(Ipv4Prefix::parse("10.1.2.3/32"))
                .cidr_prefix_length(),
            32);
  // A full 64-bit exact mask is not an IPv4 CIDR shape.
  EXPECT_EQ(FieldMatch::exact(80).cidr_prefix_length(), std::nullopt);
  // Non-contiguous and non-high-aligned masks are rejected.
  EXPECT_EQ(FieldMatch::masked(0, 0x00FF0000).cidr_prefix_length(),
            std::nullopt);
  EXPECT_EQ(FieldMatch::masked(0, 0xF0F00000).cidr_prefix_length(),
            std::nullopt);
  // The all-ones 32-bit mask is /32.
  EXPECT_EQ(FieldMatch::masked(1, 0xFFFFFFFFull).cidr_prefix_length(), 32);
}

TEST(PrefixTrie, RandomizedLpmAgainstLinearScan) {
  SplitMix64 rng(42);
  PrefixTrie<int> trie;
  std::vector<Ipv4Prefix> prefixes;
  for (int i = 0; i < 500; ++i) {
    Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng())),
                 static_cast<int>(rng.range(1, 28)));
    if (trie.insert(p, i)) prefixes.push_back(p);
  }
  for (int i = 0; i < 2000; ++i) {
    Ipv4Address addr(static_cast<std::uint32_t>(rng()));
    std::optional<Ipv4Prefix> best;
    for (auto p : prefixes) {
      if (p.contains(addr) && (!best || p.length() > best->length())) {
        best = p;
      }
    }
    auto hit = trie.lookup(addr);
    ASSERT_EQ(hit.has_value(), best.has_value());
    if (best) {
      EXPECT_EQ(hit->first, *best);
    }
  }
}

/// Model-based fuzz against std::map: random insert/overwrite/erase
/// interleaved with exact-find and LPM queries. \p make_value maps a random
/// number to a stored value, so one walk covers both trivially copyable and
/// heap-owning values (whose erased slots are reset and recycled).
template <typename V, typename MakeValue>
void model_fuzz_insert_erase_lookup(std::uint64_t seed, MakeValue make_value) {
  SplitMix64 rng(seed);
  PrefixTrie<V> trie;
  std::map<Ipv4Prefix, V> model;
  auto random_prefix = [&rng]() {
    return Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(
                          rng.below(16) << 28)),
                      static_cast<int>(rng.range(0, 8)));
  };
  for (int step = 0; step < 3000; ++step) {
    const auto p = random_prefix();
    switch (rng.below(3)) {
      case 0: {
        const V v = make_value(rng.below(1000));
        const bool fresh_trie = trie.insert(p, v);
        const bool fresh_model = model.insert_or_assign(p, v).second;
        ASSERT_EQ(fresh_trie, fresh_model);
        break;
      }
      case 1:
        ASSERT_EQ(trie.erase(p), model.erase(p) > 0);
        break;
      default: {
        const V* found = trie.find(p);
        auto it = model.find(p);
        ASSERT_EQ(found != nullptr, it != model.end());
        if (found != nullptr) {
          ASSERT_EQ(*found, it->second);
        }
        // LPM vs linear scan over the model.
        const Ipv4Address addr(static_cast<std::uint32_t>(rng()));
        auto hit = trie.lookup(addr);
        std::optional<Ipv4Prefix> best;
        for (const auto& [mp, _] : model) {
          if (mp.contains(addr) &&
              (!best || mp.length() > best->length())) {
            best = mp;
          }
        }
        ASSERT_EQ(hit.has_value(), best.has_value());
        if (best) {
          ASSERT_EQ(hit->first, *best);
          ASSERT_EQ(*hit->second, model.at(*best));
        }
        break;
      }
    }
    ASSERT_EQ(trie.size(), model.size());
  }
  std::vector<std::pair<Ipv4Prefix, V>> visited;
  trie.for_each([&](Ipv4Prefix p, const V& v) { visited.emplace_back(p, v); });
  EXPECT_EQ(visited, (std::vector<std::pair<Ipv4Prefix, V>>(model.begin(),
                                                             model.end())));
}

TEST(PrefixTrie, ModelFuzzWithInsertEraseLookup) {
  model_fuzz_insert_erase_lookup<int>(
      2718, [](std::uint64_t r) { return static_cast<int>(r); });
}

TEST(PrefixTrie, ModelFuzzWithHeapOwningValues) {
  // Strings longer than the small-string buffer, so every recycled slot
  // held heap memory that erase must release and insert must replace.
  model_fuzz_insert_erase_lookup<std::string>(2719, [](std::uint64_t r) {
    return std::string(24 + r % 40, static_cast<char>('a' + r % 26));
  });
}

/// The lockstep covering walk against a linear scan: for every address of
/// a burst, exactly the stored values whose prefixes cover it, shortest
/// first, with prefixes of every length 0-32 nested over two addresses and
/// bursts on both sides of the walk's 64-address chunk.
TEST(PrefixTrie, BurstCoveringWalkMatchesLinearScanAtEveryLength) {
  SplitMix64 rng(31337);
  std::vector<Ipv4Prefix> pool;
  for (const std::uint32_t base : {0x0A010203u, 0xC0A80A01u}) {
    for (int len = 0; len <= 32; ++len) {
      pool.emplace_back(Ipv4Address(base), len);
    }
  }
  for (int i = 0; i < 60; ++i) {
    pool.emplace_back(Ipv4Address(static_cast<std::uint32_t>(rng())),
                      static_cast<int>(rng.range(0, 32)));
  }
  PrefixTrie<int> trie;
  std::map<Ipv4Prefix, int> model;
  for (int step = 0; step < 300; ++step) {
    const Ipv4Prefix p = pool[rng.below(pool.size())];
    if (rng.below(3) == 0) {
      trie.erase(p);
      model.erase(p);
    } else {
      const int v = static_cast<int>(rng.below(1000));
      trie.insert(p, v);
      model.insert_or_assign(p, v);
    }
    const std::size_t sizes[] = {0, 1, 2, 63, 64, 65, 130};
    const std::size_t n = sizes[step % std::size(sizes)];
    std::vector<Ipv4Address> burst;
    while (burst.size() < n) {
      // Inside a pool prefix (held or not), or anywhere.
      const Ipv4Prefix q = pool[rng.below(pool.size())];
      const auto r = static_cast<std::uint32_t>(rng());
      burst.emplace_back(rng.below(4) == 0
                             ? r
                             : q.network().value() | (r & ~q.mask()));
    }
    std::vector<std::vector<int>> walked(n);
    trie.for_each_covering(
        std::span<const Ipv4Address>(burst),
        [&](std::size_t i, int v) { walked[i].push_back(v); });
    for (std::size_t i = 0; i < n; ++i) {
      // One covering prefix per length, so ordering by length is total.
      std::vector<std::pair<int, int>> by_length;
      for (const auto& [mp, v] : model) {
        if (mp.contains(burst[i])) by_length.emplace_back(mp.length(), v);
      }
      std::sort(by_length.begin(), by_length.end());
      std::vector<int> scanned;
      for (const auto& [len, v] : by_length) scanned.push_back(v);
      ASSERT_EQ(walked[i], scanned)
          << "step " << step << " addr " << burst[i].to_string();
      std::vector<int> single;
      trie.for_each_covering(burst[i], [&](int v) { single.push_back(v); });
      ASSERT_EQ(single, scanned) << "step " << step;
    }
  }
}

TEST(PrefixTrie, ErasedSlotsAreRecycled) {
  PrefixTrie<std::string> trie;
  const auto a = Ipv4Prefix::parse("10.0.0.0/8");
  const auto b = Ipv4Prefix::parse("10.1.0.0/16");
  const auto c = Ipv4Prefix::parse("192.168.0.0/16");
  EXPECT_TRUE(trie.insert(a, "a"));
  EXPECT_TRUE(trie.insert(b, "b"));
  EXPECT_TRUE(trie.insert(c, "c"));

  // Erase then re-insert: the prefix is fresh again and reads the new value.
  EXPECT_TRUE(trie.erase(b));
  EXPECT_EQ(trie.find(b), nullptr);
  EXPECT_EQ(trie.size(), 2u);
  EXPECT_TRUE(trie.insert(b, "b2"));
  ASSERT_NE(trie.find(b), nullptr);
  EXPECT_EQ(*trie.find(b), "b2");
  EXPECT_EQ(trie.lookup(Ipv4Address::parse("10.1.2.3"))->first, b);

  // A different prefix can take the slot an erase freed.
  EXPECT_TRUE(trie.erase(a));
  const auto d = Ipv4Prefix::parse("172.16.0.0/12");
  EXPECT_TRUE(trie.insert(d, "d"));
  EXPECT_EQ(trie.find(a), nullptr);
  EXPECT_EQ(*trie.find(d), "d");
  EXPECT_EQ(trie.size(), 3u);

  std::vector<std::pair<Ipv4Prefix, std::string>> visited;
  trie.for_each([&](Ipv4Prefix p, const std::string& v) {
    visited.emplace_back(p, v);
  });
  const std::vector<std::pair<Ipv4Prefix, std::string>> expected = {
      {b, "b2"}, {d, "d"}, {c, "c"}};
  EXPECT_EQ(visited, expected);

  // clear() empties the trie, and it is reusable afterwards.
  trie.clear();
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.find(b), nullptr);
  EXPECT_FALSE(trie.lookup(Ipv4Address::parse("10.1.2.3")).has_value());
  EXPECT_TRUE(trie.insert(c, "c2"));
  EXPECT_TRUE(trie.insert(a, "a2"));
  EXPECT_EQ(trie.size(), 2u);
  visited.clear();
  trie.for_each([&](Ipv4Prefix p, const std::string& v) {
    visited.emplace_back(p, v);
  });
  const std::vector<std::pair<Ipv4Prefix, std::string>> after_clear = {
      {a, "a2"}, {c, "c2"}};
  EXPECT_EQ(visited, after_clear);
}

TEST(FieldMatch, SubsumesAgreesWithMatchSemantics) {
  // Property: a.subsumes(b) ⇔ every value matching b also matches a —
  // verified by sampling within the small universes our fields use.
  SplitMix64 rng(31415);
  auto random_fm = [&rng]() {
    switch (rng.below(3)) {
      case 0: return FieldMatch::wildcard();
      case 1: return FieldMatch::exact(rng.below(8));
      default:
        return FieldMatch::prefix(Ipv4Prefix(
            Ipv4Address(static_cast<std::uint32_t>(rng.below(8) << 29)),
            static_cast<int>(rng.range(0, 3))));
    }
  };
  for (int trial = 0; trial < 500; ++trial) {
    const FieldMatch a = random_fm();
    const FieldMatch b = random_fm();
    bool counterexample = false;
    for (int s = 0; s < 64 && !counterexample; ++s) {
      const std::uint64_t v = rng.chance(0.5)
                                  ? rng.below(8)
                                  : (rng.below(8) << 29);
      if (b.matches(v) && !a.matches(v)) counterexample = true;
    }
    if (a.subsumes(b)) {
      EXPECT_FALSE(counterexample);
    }
    // (The sampled converse is not asserted: absence of a sampled
    // counterexample does not prove subsumption.)
  }
}

TEST(FieldMatch, WildcardMatchesEverything) {
  FieldMatch w;
  EXPECT_TRUE(w.is_wildcard());
  EXPECT_TRUE(w.matches(0));
  EXPECT_TRUE(w.matches(~std::uint64_t{0}));
}

TEST(FieldMatch, ExactAndPrefixSemantics) {
  auto e = FieldMatch::exact(80);
  EXPECT_TRUE(e.matches(80));
  EXPECT_FALSE(e.matches(443));

  auto p = FieldMatch::prefix(Ipv4Prefix::parse("10.0.0.0/8"));
  EXPECT_TRUE(p.matches(Ipv4Address::parse("10.1.2.3").value()));
  EXPECT_FALSE(p.matches(Ipv4Address::parse("11.1.2.3").value()));
}

TEST(FieldMatch, IntersectNestsPrefixes) {
  auto p8 = FieldMatch::prefix(Ipv4Prefix::parse("10.0.0.0/8"));
  auto p16 = FieldMatch::prefix(Ipv4Prefix::parse("10.20.0.0/16"));
  auto both = p8.intersect(p16);
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(*both, p16);
  auto disjoint =
      p16.intersect(FieldMatch::prefix(Ipv4Prefix::parse("10.21.0.0/16")));
  EXPECT_FALSE(disjoint.has_value());
}

TEST(FieldMatch, SubsumptionIsReflexiveAndDirectional) {
  auto p8 = FieldMatch::prefix(Ipv4Prefix::parse("10.0.0.0/8"));
  auto p16 = FieldMatch::prefix(Ipv4Prefix::parse("10.20.0.0/16"));
  EXPECT_TRUE(p8.subsumes(p16));
  EXPECT_FALSE(p16.subsumes(p8));
  EXPECT_TRUE(p8.subsumes(p8));
  EXPECT_TRUE(FieldMatch::wildcard().subsumes(p8));
  EXPECT_FALSE(p8.subsumes(FieldMatch::wildcard()));
}

TEST(FlowMatch, MatchesConjunction) {
  FlowMatch m = FlowMatch::on(Field::kDstPort, 80)
                    .with_prefix(Field::kDstIp,
                                 Ipv4Prefix::parse("74.125.0.0/16"));
  auto hit = PacketBuilder().dst_ip("74.125.1.1").dst_port(80).build();
  auto miss_port = PacketBuilder().dst_ip("74.125.1.1").dst_port(443).build();
  auto miss_ip = PacketBuilder().dst_ip("8.8.8.8").dst_port(80).build();
  EXPECT_TRUE(m.matches(hit));
  EXPECT_FALSE(m.matches(miss_port));
  EXPECT_FALSE(m.matches(miss_ip));
}

TEST(FlowMatch, IntersectAgreesWithMatchSemantics) {
  SplitMix64 rng(7);
  for (int trial = 0; trial < 300; ++trial) {
    auto random_match = [&rng]() {
      FlowMatch m;
      if (rng.chance(0.5)) {
        m.with(Field::kDstPort, rng.range(0, 3));
      }
      if (rng.chance(0.5)) {
        m.with_prefix(Field::kDstIp,
                      Ipv4Prefix(Ipv4Address(static_cast<std::uint32_t>(
                                     rng.range(0, 3) << 30)),
                                 static_cast<int>(rng.range(0, 4))));
      }
      if (rng.chance(0.3)) {
        m.with(Field::kPort, rng.range(0, 2));
      }
      return m;
    };
    FlowMatch a = random_match();
    FlowMatch b = random_match();
    auto meet = a.intersect(b);
    for (int i = 0; i < 20; ++i) {
      PacketHeader h = PacketBuilder()
                           .port(static_cast<PortId>(rng.range(0, 2)))
                           .dst_ip(Ipv4Address(static_cast<std::uint32_t>(
                               rng.range(0, 3) << 30)))
                           .dst_port(rng.range(0, 3))
                           .build();
      const bool expect = a.matches(h) && b.matches(h);
      const bool got = meet.has_value() && meet->matches(h);
      EXPECT_EQ(expect, got) << a.to_string() << " ∩ " << b.to_string();
    }
  }
}

TEST(FlowMatch, ToStringListsConstrainedFields) {
  FlowMatch m = FlowMatch::on(Field::kDstPort, 80);
  EXPECT_EQ(m.to_string(), "match(dstport=80)");
  EXPECT_EQ(FlowMatch::any().to_string(), "match(*)");
}

TEST(Rng, DeterministicAcrossInstances) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, BelowStaysInRange) {
  SplitMix64 rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(7), 7u);
    auto v = rng.range(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    auto u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PacketHeader, GenericAndTypedAccessorsAgree) {
  PacketHeader h;
  h.set_dst_ip(Ipv4Address::parse("1.2.3.4"));
  EXPECT_EQ(h.get(Field::kDstIp), Ipv4Address::parse("1.2.3.4").value());
  h.set(Field::kDstMac, 0xBEEF);
  EXPECT_EQ(h.dst_mac(), MacAddress(0xBEEF));
}

}  // namespace
}  // namespace sdx::net
