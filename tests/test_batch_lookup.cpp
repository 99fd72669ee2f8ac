/// Batch/per-packet equivalence fuzz for the burst lookup path: random
/// rule tables (overlapping masks, priority ties, adversarial shapes) ×
/// random bursts salted with duplicate and near-duplicate packets, checked
/// for identical rule hits and identical counter totals at burst sizes
/// {1, 7, 64, 1024}, plus 4-thread concurrent process_batch (the TSan
/// target) and the oracle's planted-desync seam.

#include <gtest/gtest.h>

#include <thread>
#include <unordered_map>
#include <vector>

#include "dataplane/flow_table.hpp"
#include "netbase/rng.hpp"

namespace sdx::dp {
namespace {

using net::Field;
using net::FieldMatch;
using net::FlowMatch;
using net::Ipv4Prefix;
using net::PacketHeader;
using net::SplitMix64;
using policy::ActionSeq;

VmacLaneSpec default_spec() {
  VmacLaneSpec s;
  s.enabled = true;
  s.top_value = 0x02ull << 40;
  s.top_mask = 0xFFull << 40;
  s.group_bits = 20;
  s.nexthop_bits = 12;
  s.attr_bits = 8;
  return s;
}

std::uint64_t encode_vmac(const VmacLaneSpec& s, std::uint64_t group,
                          std::uint64_t nh, std::uint64_t attrs) {
  return s.top_value | (attrs << s.attr_shift()) |
         (nh << s.nexthop_shift()) | group;
}

/// The shape a pairwise compile installs for most of its table: an exact
/// VMAC drawn from a small pool, so each MAC's bucket holds several rules,
/// plus any of in-port, IP protocol and dst-port. With none of the three
/// it is the bucket's exact-MAC-only default.
FlowMatch pairwise_rule_match(SplitMix64& rng, const VmacLaneSpec& spec) {
  FlowMatch m = FlowMatch::on(
      Field::kDstMac,
      encode_vmac(spec, rng.below(4), rng.below(2), rng.below(2)));
  if (rng.below(4) != 0) {
    m.set(Field::kPort, FieldMatch::exact(rng.range(1, 4)));
  }
  if (rng.below(2) == 0) {
    m.set(Field::kIpProto, FieldMatch::exact(rng.below(2) == 0 ? 6 : 17));
  }
  if (rng.below(2) == 0) {
    m.set(Field::kDstPort, FieldMatch::exact(rng.below(4) * 100));
  }
  return m;
}

/// Same shape population as test_packet_classifier's generator: compiled
/// SDX shapes plus adversarial extras, narrow priorities so ties are
/// common, occasional drop rules.
FlowRule random_rule(SplitMix64& rng, const VmacLaneSpec& spec, int i) {
  const auto prio = static_cast<std::uint32_t>(rng.range(0, 8));
  const auto out = static_cast<net::PortId>(i + 1);
  const std::uint64_t cookie = rng.range(1, 4);
  FlowMatch m;
  switch (rng.below(10)) {
    case 0:
      m = FlowMatch::on(Field::kDstMac,
                        encode_vmac(spec, rng.below(64), rng.below(8),
                                    rng.below(16)));
      break;
    case 1:
      m.set(Field::kDstMac,
            FieldMatch::masked(
                spec.top_value | (rng.below(8) << spec.nexthop_shift()),
                spec.top_mask | spec.nexthop_field_mask()));
      break;
    case 2: {
      const std::uint64_t b = 1ull << (spec.attr_shift() + rng.below(8));
      m.set(Field::kDstMac,
            FieldMatch::masked(spec.top_value | b, spec.top_mask | b));
      break;
    }
    case 3: {
      const std::uint64_t b = 1ull << (spec.attr_shift() + rng.below(8));
      m.set(Field::kPort, FieldMatch::exact(rng.range(1, 4)));
      m.set(Field::kDstMac,
            FieldMatch::masked(spec.top_value | b, spec.top_mask | b));
      if (rng.below(2) == 0) {
        m.set(Field::kDstPort, FieldMatch::exact(rng.below(4) * 100));
      }
      break;
    }
    case 4:
      m.set(Field::kDstIp,
            FieldMatch::prefix(Ipv4Prefix(
                net::Ipv4Address(static_cast<std::uint32_t>(rng()) &
                                 0xFFFF0000u),
                static_cast<int>(rng.range(8, 24)))));
      break;
    case 5:
      m.set(Field::kSrcIp,
            FieldMatch::prefix(Ipv4Prefix(
                net::Ipv4Address(static_cast<std::uint32_t>(rng()) &
                                 0xFF000000u),
                8)));
      m.set(Field::kDstIp,
            FieldMatch::prefix(Ipv4Prefix(
                net::Ipv4Address(static_cast<std::uint32_t>(rng()) &
                                 0xFFFFFF00u),
                static_cast<int>(rng.range(16, 28)))));
      break;
    case 6: {  // adversarial: arbitrary mask over the dst-MAC, no guard
      const std::uint64_t mask = rng() & ((1ull << 48) - 1);
      m.set(Field::kDstMac, FieldMatch::masked(rng(), mask));
      break;
    }
    case 7:
    case 8:  // pairwise clause rule: exact VMAC + in-port + proto/dstport
      m = pairwise_rule_match(rng, spec);
      break;
    default:  // wildcard catch-all
      break;
  }
  FlowRule r;
  r.priority = prio;
  r.match = std::move(m);
  r.actions = {ActionSeq::set(Field::kPort, out)};
  r.cookie = cookie;
  if (rng.below(8) == 0) r.actions.clear();
  return r;
}

PacketHeader packet_matching(SplitMix64& rng, const FlowMatch& m) {
  PacketHeader h;
  for (auto f : net::kAllFields) {
    const FieldMatch& fm = m.field(f);
    std::uint64_t v = rng();
    if (f == Field::kDstMac || f == Field::kSrcMac) v &= (1ull << 48) - 1;
    if (net::is_ip_field(f)) v &= 0xFFFFFFFFull;
    if (f == Field::kPort) v = rng.range(1, 4);
    h.set(f, (fm.value() & fm.mask()) | (v & ~fm.mask()));
  }
  return h;
}

PacketHeader random_packet(SplitMix64& rng, const VmacLaneSpec& spec) {
  PacketHeader h;
  for (auto f : net::kAllFields) h.set(f, rng());
  if (rng.below(2) == 0) {
    h.set(Field::kDstMac,
          encode_vmac(spec, rng.below(64), rng.below(8), rng.below(16)));
  } else {
    h.set(Field::kDstMac, h.get(Field::kDstMac) & ((1ull << 48) - 1));
  }
  return h;
}

/// Burst with the duplicate structure of real traffic: ~25% exact
/// duplicates of earlier packets, ~20% near-duplicates (one field
/// flipped), the rest a mix of rule-targeted and random packets.
std::vector<PacketHeader> make_burst(SplitMix64& rng, std::size_t n,
                                     const std::vector<FlowMatch>& matches,
                                     const VmacLaneSpec& spec) {
  std::vector<PacketHeader> burst;
  burst.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t roll = rng.below(16);
    if (!burst.empty() && roll < 4) {
      burst.push_back(burst[rng.below(burst.size())]);
    } else if (!burst.empty() && roll < 7) {
      PacketHeader h = burst[rng.below(burst.size())];
      const auto f = net::kAllFields[rng.below(net::kAllFields.size())];
      h.set(f, h.get(f) ^ (1ull << rng.below(16)));
      burst.push_back(h);
    } else if (roll < 12 && !matches.empty()) {
      burst.push_back(
          packet_matching(rng, matches[rng.below(matches.size())]));
    } else {
      burst.push_back(random_packet(rng, spec));
    }
  }
  return burst;
}

bool same_header(const PacketHeader& a, const PacketHeader& b) {
  for (auto f : net::kAllFields) {
    if (a.get(f) != b.get(f)) return false;
  }
  return true;
}

constexpr std::size_t kBurstSizes[] = {1, 7, 64, 1024};

TEST(BatchLookup, RandomizedBurstsMatchPerPacketLookup) {
  SplitMix64 rng(20260809);
  const VmacLaneSpec spec = default_spec();
  for (const std::size_t burst_size : kBurstSizes) {
    for (int round = 0; round < 4; ++round) {
      FlowTable t;
      t.set_vmac_lanes(spec);
      std::vector<FlowMatch> matches;
      const int n = 16 << (2 * round);  // 16 .. 1024 rules
      for (int i = 0; i < n; ++i) {
        FlowRule r = random_rule(rng, spec, i);
        matches.push_back(r.match);
        t.install(std::move(r));
      }
      const auto burst = make_burst(rng, burst_size, matches, spec);

      std::vector<const FlowRule*> batched(burst.size(), nullptr);
      t.lookup_batch(burst, batched);
      for (std::size_t i = 0; i < burst.size(); ++i) {
        ASSERT_EQ(batched[i], t.lookup(burst[i]))
            << "burst=" << burst_size << " rules=" << n << " packet " << i
            << " " << burst[i].to_string();
      }

      // The reference scan over rules() must agree too, packet by packet.
      const auto ordered = t.rules();
      for (std::size_t i = 0; i < burst.size(); ++i) {
        ASSERT_EQ(batched[i], reference_lookup(ordered, burst[i]))
            << "burst=" << burst_size << " rules=" << n << " packet " << i;
      }
    }
  }
}

TEST(BatchLookup, CounterTotalsAndFramesMatchPerPacketProcessing) {
  const VmacLaneSpec spec = default_spec();
  for (const std::size_t burst_size : kBurstSizes) {
    // Two identical tables from the same seed: one processes the burst
    // packet by packet, the other in one process_batch call.
    const std::uint64_t seed = 77000 + burst_size;
    SplitMix64 ra(seed), rb(seed);
    FlowTable a, b;
    a.set_vmac_lanes(spec);
    b.set_vmac_lanes(spec);
    std::vector<FlowMatch> matches;
    for (int i = 0; i < 256; ++i) {
      FlowRule r = random_rule(ra, spec, i);
      matches.push_back(r.match);
      a.install(std::move(r));
      b.install(random_rule(rb, spec, i));
    }
    SplitMix64 rng(seed ^ 0xBEEF);
    const auto burst = make_burst(rng, burst_size, matches, spec);

    std::vector<PacketHeader> single_frames;
    for (const auto& h : burst) {
      for (auto& out : a.process(h)) single_frames.push_back(out);
    }
    const FlowTable::BatchResult res = b.process_batch(burst);

    EXPECT_EQ(a.total_matched(), b.total_matched()) << "burst=" << burst_size;
    EXPECT_EQ(a.total_missed(), b.total_missed()) << "burst=" << burst_size;
    ASSERT_EQ(res.packets(), burst.size());
    ASSERT_EQ(res.frames.size(), single_frames.size());
    for (std::size_t i = 0; i < res.frames.size(); ++i) {
      EXPECT_TRUE(same_header(res.frames[i], single_frames[i]))
          << "frame " << i << ": " << res.frames[i].to_string() << " vs "
          << single_frames[i].to_string();
    }

    // Per-rule packet counts line up table-to-table (rules() orders both
    // tables identically — same priorities, same insertion sequence).
    const auto rules_a = a.rules();
    const auto rules_b = b.rules();
    ASSERT_EQ(rules_a.size(), rules_b.size());
    for (std::size_t i = 0; i < rules_a.size(); ++i) {
      EXPECT_EQ(rules_a[i]->packet_count.value(),
                rules_b[i]->packet_count.value())
          << "rule " << i << ": " << rules_a[i]->to_string();
    }
  }
}

TEST(BatchLookup, ConcurrentProcessBatchReconcilesCounters) {
  SplitMix64 rng(424242);
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  std::vector<FlowMatch> matches;
  for (int i = 0; i < 512; ++i) {
    FlowRule r = random_rule(rng, spec, i);
    matches.push_back(r.match);
    t.install(std::move(r));
  }
  const auto burst = make_burst(rng, 64, matches, spec);

  // Per-packet reference, computed before any concurrency.
  std::vector<const FlowRule*> expected(burst.size(), nullptr);
  std::uint64_t expected_matched = 0;
  std::unordered_map<const FlowRule*, std::uint64_t> per_rule;
  for (std::size_t i = 0; i < burst.size(); ++i) {
    expected[i] = t.lookup(burst[i]);
    if (expected[i] != nullptr) {
      ++expected_matched;
      ++per_rule[expected[i]];
    }
  }

  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  const std::uint64_t matched0 = t.total_matched();
  const std::uint64_t missed0 = t.total_missed();
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, &burst, &expected] {
      for (int r = 0; r < kRounds; ++r) {
        std::vector<const FlowRule*> hits(burst.size(), nullptr);
        t.lookup_batch(burst, hits);
        ASSERT_EQ(hits.size(), expected.size());
        for (std::size_t i = 0; i < hits.size(); ++i) {
          ASSERT_EQ(hits[i], expected[i]);
        }
        t.process_batch(burst);
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kRounds * burst.size();
  EXPECT_EQ(t.total_matched() - matched0,
            static_cast<std::uint64_t>(kThreads) * kRounds * expected_matched);
  EXPECT_EQ((t.total_matched() - matched0) + (t.total_missed() - missed0),
            total);
  for (const auto& [rule, hits] : per_rule) {
    EXPECT_EQ(rule->packet_count.value(),
              static_cast<std::uint64_t>(kThreads) * kRounds * hits)
        << rule->to_string();
  }
}

TEST(BatchLookup, EmptyAndUniformBurstsAreHandled) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  t.install([] {
    FlowRule r;
    r.priority = 5;
    r.match = FlowMatch::on(Field::kDstMac, 0x02ull << 40 | 42);
    r.actions = {ActionSeq::set(Field::kPort, 9)};
    return r;
  }());

  t.lookup_batch({}, {});
  const auto empty = t.process_batch({});
  EXPECT_EQ(empty.packets(), 0u);

  // All-duplicate burst: one classification, scattered to everyone.
  const PacketHeader h = net::PacketBuilder()
                             .dst_mac(net::MacAddress(0x02ull << 40 | 42))
                             .port(1)
                             .build();
  const std::vector<PacketHeader> burst(257, h);
  std::vector<const FlowRule*> hits(burst.size(), nullptr);
  t.lookup_batch(burst, hits);
  for (const FlowRule* r : hits) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->priority, 5u);
  }
  const auto res = t.process_batch(burst);
  EXPECT_EQ(res.frames.size(), burst.size());
  EXPECT_EQ(t.total_matched(), burst.size());
}

TEST(BatchLookup, PlantedDesyncSeamOnlyAffectsBatchPath) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  t.install([] {
    FlowRule r;
    r.priority = 1;
    r.match = FlowMatch::on(Field::kDstMac, 0x02ull << 40 | 7);
    r.actions = {ActionSeq::set(Field::kPort, 3)};
    return r;
  }());
  const PacketHeader h = net::PacketBuilder()
                             .dst_mac(net::MacAddress(0x02ull << 40 | 7))
                             .port(1)
                             .build();

  t.plant_batch_desync_for_test();
  std::vector<const FlowRule*> hits(1, nullptr);
  t.lookup_batch({&h, 1}, hits);
  EXPECT_EQ(hits[0], nullptr) << "desync seam must starve the batch path";
  EXPECT_NE(t.lookup(h), nullptr) << "per-packet path must stay correct";
}

}  // namespace
}  // namespace sdx::dp
