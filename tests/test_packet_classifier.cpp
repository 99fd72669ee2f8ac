/// Tests for the data-plane classification pipeline: randomized
/// differential equivalence against the linear reference scan, VMAC lane
/// semantics under the active bit layout, arena invariants across
/// remove_by_cookie/clear, and multi-threaded lookup accounting (the TSan
/// target for the satellite counter fix).

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "dataplane/flow_table.hpp"
#include "netbase/rng.hpp"

namespace sdx::dp {
namespace {

using net::Field;
using net::FieldMatch;
using net::FlowMatch;
using net::Ipv4Prefix;
using net::PacketBuilder;
using net::PacketHeader;
using net::SplitMix64;
using policy::ActionSeq;

/// The default iSDX geometry, described straight to the data plane (the
/// runtime derives the same spec from core::VmacLayout::lane_spec()).
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

FlowRule rule(std::uint32_t priority, FlowMatch match, net::PortId out,
              std::uint64_t cookie = 0) {
  FlowRule r;
  r.priority = priority;
  r.match = std::move(match);
  r.actions = {ActionSeq::set(Field::kPort, out)};
  r.cookie = cookie;
  return r;
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

/// Draws a random rule from the shape population a compiled SDX table
/// actually contains, plus adversarial extras (overlapping masks, ties).
FlowRule random_rule(SplitMix64& rng, const VmacLaneSpec& spec, int i) {
  // Narrow priority range on purpose: ties must be common.
  const auto prio = static_cast<std::uint32_t>(rng.range(0, 8));
  const auto out = static_cast<net::PortId>(i + 1);
  const std::uint64_t cookie = rng.range(1, 4);
  FlowMatch m;
  switch (rng.below(10)) {
    case 0:  // per-group default: exact VMAC
      m = FlowMatch::on(Field::kDstMac,
                        encode_vmac(spec, rng.below(64), rng.below(8),
                                    rng.below(16)));
      break;
    case 1:  // next-hop lane shape
      m.set(Field::kDstMac,
            FieldMatch::masked(
                spec.top_value | (rng.below(8) << spec.nexthop_shift()),
                spec.top_mask | spec.nexthop_field_mask()));
      break;
    case 2: {  // attribute-bit shape
      const std::uint64_t b = 1ull << (spec.attr_shift() + rng.below(8));
      m.set(Field::kDstMac,
            FieldMatch::masked(spec.top_value | b, spec.top_mask | b));
      break;
    }
    case 3: {  // clause rule: port + attribute bit + transport field
      const std::uint64_t b = 1ull << (spec.attr_shift() + rng.below(8));
      m.set(Field::kPort, FieldMatch::exact(rng.range(1, 4)));
      m.set(Field::kDstMac,
            FieldMatch::masked(spec.top_value | b, spec.top_mask | b));
      if (rng.below(2) == 0) {
        m.set(Field::kDstPort, FieldMatch::exact(rng.below(4) * 100));
      }
      break;
    }
    case 4:  // FIB-style CIDR rule
      m.set(Field::kDstIp,
            FieldMatch::prefix(Ipv4Prefix(
                net::Ipv4Address(static_cast<std::uint32_t>(rng()) &
                                 0xFFFF0000u),
                static_cast<int>(rng.range(8, 24)))));
      break;
    case 5:  // src+dst CIDR pair
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
    default:  // wildcard catch-all (every table has one)
      break;
  }
  FlowRule r = rule(prio, std::move(m), out, cookie);
  if (rng.below(8) == 0) r.actions.clear();  // some rules drop
  return r;
}

/// A packet biased to hit \p target: constrained bits come from the rule,
/// free bits are random.
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
  // Half the traffic is VMAC-tagged — the common case in deployment.
  if (rng.below(2) == 0) {
    h.set(Field::kDstMac,
          encode_vmac(spec, rng.below(64), rng.below(8), rng.below(16)));
  } else {
    h.set(Field::kDstMac, h.get(Field::kDstMac) & ((1ull << 48) - 1));
  }
  return h;
}

/// Compares the classified answer with the reference scan over the same
/// table's rules() (taken once per table state); the strictest possible
/// check — same rule object, not just same action.
void expect_equivalent(const FlowTable& t,
                       std::span<const FlowRule* const> ordered,
                       const PacketHeader& h) {
  const FlowRule* classified = t.lookup(h);
  const FlowRule* reference = reference_lookup(ordered, h);
  ASSERT_EQ(classified, reference)
      << "packet " << h.to_string() << "\nclassified: "
      << (classified != nullptr ? classified->to_string() : "miss")
      << "\nreference:  "
      << (reference != nullptr ? reference->to_string() : "miss");
}

TEST(PacketClassifierDiff, RandomizedRulesAndPacketsMatchLinearReference) {
  SplitMix64 rng(20260808);
  const VmacLaneSpec spec = default_spec();
  for (int round = 0; round < 8; ++round) {
    FlowTable t;
    t.set_vmac_lanes(spec);
    std::vector<FlowMatch> matches;
    const int n = 8 << round;  // 8 .. 1024 rules
    for (int i = 0; i < n; ++i) {
      FlowRule r = random_rule(rng, spec, i);
      matches.push_back(r.match);
      t.install(std::move(r));
    }
    const auto ordered = t.rules();
    for (int i = 0; i < 400; ++i) {
      const PacketHeader h =
          i % 2 == 0 ? packet_matching(
                           rng, matches[rng.below(matches.size())])
                     : random_packet(rng, spec);
      expect_equivalent(t, ordered, h);
    }
  }
}

TEST(PacketClassifierDiff, EquivalenceHoldsAcrossRemovalAndClear) {
  SplitMix64 rng(77);
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  std::vector<FlowMatch> matches;
  for (int i = 0; i < 300; ++i) {
    FlowRule r = random_rule(rng, spec, i);
    matches.push_back(r.match);
    t.install(std::move(r));
  }
  auto verify = [&] {
    const auto ordered = t.rules();
    for (int i = 0; i < 200; ++i) {
      const PacketHeader h =
          i % 2 == 0 ? packet_matching(
                           rng, matches[rng.below(matches.size())])
                     : random_packet(rng, spec);
      expect_equivalent(t, ordered, h);
    }
  };
  verify();
  for (std::uint64_t cookie = 1; cookie <= 4; ++cookie) {
    const std::size_t before = t.size();
    const std::size_t removed = t.remove_by_cookie(cookie);
    EXPECT_EQ(t.size(), before - removed);
    EXPECT_EQ(t.remove_by_cookie(cookie), 0u);  // idempotent
    verify();
  }
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.lookup(random_packet(rng, spec)), nullptr);

  // Slots are recycled after clear/removal; the table must behave as new.
  for (int i = 0; i < 100; ++i) t.install(random_rule(rng, spec, i));
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  for (int i = 0; i < 100; ++i) {
    FlowRule r = random_rule(rng, spec, i);
    matches[static_cast<std::size_t>(i)] = r.match;
    t.install(std::move(r));
  }
  EXPECT_EQ(t.size(), 100u);
  verify();
}

TEST(PacketClassifierLanes, ExactVmacBeatsAttrBitByPriorityNotLane) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  const std::uint64_t vmac = encode_vmac(spec, 7, 0, /*attrs=*/0b1000);
  const std::uint64_t bit = 1ull << (spec.attr_shift() + 3);
  FlowMatch attr;
  attr.set(Field::kDstMac,
           FieldMatch::masked(spec.top_value | bit, spec.top_mask | bit));
  t.install(rule(10, attr, 1));
  t.install(rule(20, FlowMatch::on(Field::kDstMac, vmac), 2));

  // Overlap: the exact rule has higher priority and must win even though
  // the attr lane would also match.
  auto out = t.process(PacketBuilder().dst_mac(net::MacAddress(vmac)).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 2u);

  // A different group carrying the bit falls through to the masked rule.
  const std::uint64_t other = encode_vmac(spec, 9, 0, 0b1000);
  out = t.process(PacketBuilder().dst_mac(net::MacAddress(other)).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 1u);

  // No attribute bit → miss.
  const std::uint64_t plain = encode_vmac(spec, 9, 0, 0);
  EXPECT_TRUE(
      t.process(PacketBuilder().dst_mac(net::MacAddress(plain)).build())
          .empty());

  const auto stats = t.classifier().stats();
  EXPECT_EQ(stats.exact_mac_rules, 1u);
  EXPECT_EQ(stats.attr_lane_rules, 1u);
  EXPECT_EQ(stats.tuple_rules, 0u);
}

TEST(PacketClassifierLanes, MacBucketWalksPastPortRulesButYieldsToBetterLanes) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  const std::uint64_t vmac = encode_vmac(spec, 5, 0, /*attrs=*/0b0100);
  const auto on_vmac = [vmac](std::uint64_t in_port) {
    FlowMatch m = FlowMatch::on(Field::kDstMac, vmac);
    m.set(Field::kPort, FieldMatch::exact(in_port));
    return m;
  };
  // One bucket: two port-specific clause rules above the exact-MAC-only
  // default, installed default first so the chain order is the sort's.
  t.install(rule(10, FlowMatch::on(Field::kDstMac, vmac), 13));
  FlowMatch web = on_vmac(1);
  web.set(Field::kDstPort, FieldMatch::exact(80));
  t.install(rule(20, web, 11));
  FlowMatch tcp = on_vmac(2);
  tcp.set(Field::kIpProto, FieldMatch::exact(6));
  t.install(rule(20, tcp, 12));

  auto stats = t.classifier().stats();
  EXPECT_EQ(stats.exact_mac_rules, 3u);
  EXPECT_EQ(stats.mac_buckets, 1u);
  EXPECT_EQ(stats.max_mac_bucket, 3u);
  EXPECT_EQ(stats.tuple_rules, 0u);

  const auto pkt = [vmac](net::PortId in_port, std::uint8_t proto,
                          std::uint16_t dport) {
    return PacketBuilder()
        .port(in_port)
        .dst_mac(net::MacAddress(vmac))
        .proto(proto)
        .dst_port(dport)
        .build();
  };
  const std::vector<PacketHeader> pkts = {
      pkt(1, 17, 80),   // web rule
      pkt(2, 6, 443),   // tcp rule
      pkt(3, 17, 443),  // walks past both to the default
      pkt(1, 6, 81),    // wrong dst-port: default
  };
  const auto expect_out = [&](std::vector<net::PortId> want) {
    const auto ordered = t.rules();
    std::vector<const FlowRule*> batched(pkts.size(), nullptr);
    t.lookup_batch(pkts, batched);
    for (std::size_t i = 0; i < pkts.size(); ++i) {
      const FlowRule* single = t.lookup(pkts[i]);
      ASSERT_NE(single, nullptr) << pkts[i].to_string();
      EXPECT_EQ(single, reference_lookup(ordered, pkts[i]))
          << pkts[i].to_string();
      EXPECT_EQ(batched[i], single) << pkts[i].to_string();
      const auto frames = t.process(pkts[i]);
      ASSERT_EQ(frames.size(), 1u);
      EXPECT_EQ(frames[0].port(), want[i]) << pkts[i].to_string();
    }
  };
  expect_out({11, 12, 13, 13});

  // A tuple rule (no dst-MAC) above the whole bucket wins for its port; a
  // tuple rule tied with the tcp rule but installed later loses the tie.
  FlowMatch https;
  https.set(Field::kPort, FieldMatch::exact(3));
  https.set(Field::kDstPort, FieldMatch::exact(443));
  t.install(rule(30, https, 21));
  FlowMatch tie;
  tie.set(Field::kPort, FieldMatch::exact(2));
  t.install(rule(20, tie, 22));
  EXPECT_EQ(t.classifier().stats().tuple_rules, 2u);
  expect_out({11, 12, 21, 13});

  // A lane-2 attribute rule above the bucket's clause rules wins for every
  // packet carrying its bit, except where the tuple rule beats it.
  const std::uint64_t bit = 1ull << (spec.attr_shift() + 2);
  FlowMatch attr;
  attr.set(Field::kDstMac,
           FieldMatch::masked(spec.top_value | bit, spec.top_mask | bit));
  t.install(rule(25, attr, 31));
  stats = t.classifier().stats();
  EXPECT_EQ(stats.attr_lane_rules, 1u);
  EXPECT_EQ(stats.exact_mac_rules, 3u);
  expect_out({31, 31, 21, 31});
}

TEST(PacketClassifierLanes, RouterMacsNeverHitAttrLanes) {
  // 00:16:3e:… has bits set in attribute positions; the top-octet guard in
  // the lane probe must keep untagged MACs out.
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  const std::uint64_t bit = 1ull << (spec.attr_shift() + 4);
  FlowMatch attr;
  attr.set(Field::kDstMac,
           FieldMatch::masked(spec.top_value | bit, spec.top_mask | bit));
  t.install(rule(10, attr, 1));
  const std::uint64_t router = 0x00'16'3E'00'00'01ull | bit;
  EXPECT_EQ(t.lookup(PacketBuilder()
                         .dst_mac(net::MacAddress(router))
                         .build()),
            nullptr);
}

TEST(PacketClassifierLanes, NexthopLaneDecodesField) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  FlowMatch nh;
  nh.set(Field::kDstMac,
         FieldMatch::masked(spec.top_value | (5ull << spec.nexthop_shift()),
                            spec.top_mask | spec.nexthop_field_mask()));
  t.install(rule(10, nh, 1));
  EXPECT_EQ(t.classifier().stats().nexthop_lane_rules, 1u);

  const std::uint64_t tagged = encode_vmac(spec, 123, 5, 0b101);
  const FlowRule* hit =
      t.lookup(PacketBuilder().dst_mac(net::MacAddress(tagged)).build());
  ASSERT_NE(hit, nullptr);
  const std::uint64_t wrong_nh = encode_vmac(spec, 123, 6, 0b101);
  EXPECT_EQ(
      t.lookup(PacketBuilder().dst_mac(net::MacAddress(wrong_nh)).build()),
      nullptr);
}

TEST(PacketClassifierLanes, SettingLanesAfterInstallReindexesRules) {
  SplitMix64 rng(99);
  const VmacLaneSpec spec = default_spec();
  FlowTable t;  // spec disabled: everything lands in tuples
  std::vector<FlowRule> installed;
  for (int i = 0; i < 200; ++i) {
    FlowRule r = random_rule(rng, spec, i);
    installed.push_back(r);
    t.install(std::move(r));
  }
  EXPECT_EQ(t.classifier().stats().nexthop_lane_rules, 0u);
  EXPECT_EQ(t.classifier().stats().attr_lane_rules, 0u);

  std::vector<PacketHeader> probes;
  std::vector<const FlowRule*> before;
  for (int i = 0; i < 300; ++i) {
    probes.push_back(
        i % 2 == 0
            ? packet_matching(rng,
                              installed[rng.below(installed.size())].match)
            : random_packet(rng, spec));
    before.push_back(t.lookup(probes.back()));
  }
  t.set_vmac_lanes(spec);  // re-index everything against the layout
  const auto ordered = t.rules();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(t.lookup(probes[i]), before[i]);
    expect_equivalent(t, ordered, probes[i]);
  }
  // The masked layout shapes must actually have moved into the lanes.
  const auto stats = t.classifier().stats();
  EXPECT_GT(stats.nexthop_lane_rules + stats.attr_lane_rules, 0u);
  EXPECT_GT(stats.exact_mac_rules, 0u);
}

TEST(PacketClassifierConcurrency, ParallelProcessKeepsCountsConsistent) {
  const VmacLaneSpec spec = default_spec();
  FlowTable t;
  t.set_vmac_lanes(spec);
  constexpr int kRules = 64;
  for (int i = 0; i < kRules; ++i) {
    t.install(rule(10, FlowMatch::on(Field::kDstMac,
                                     encode_vmac(spec, i, 0, 0)),
                   static_cast<net::PortId>(i + 1)));
  }
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int w = 0; w < kThreads; ++w) {
    workers.emplace_back([&t, &spec, w] {
      SplitMix64 rng(static_cast<std::uint64_t>(w) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        // ~3/4 hits (existing groups), ~1/4 misses (group out of range).
        const std::uint64_t group = rng.below(kRules + kRules / 3);
        t.process(PacketBuilder()
                      .dst_mac(net::MacAddress(encode_vmac(spec, group, 0, 0)))
                      .build());
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(t.total_matched() + t.total_missed(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t per_rule = 0;
  for (const FlowRule* r : t.rules()) per_rule += r->packet_count.value();
  EXPECT_EQ(per_rule, t.total_matched());
  EXPECT_GT(t.total_matched(), 0u);
  EXPECT_GT(t.total_missed(), 0u);
}

TEST(PacketClassifierCorruption, TestSeamMakesClassifiedDivergeFromLinear) {
  FlowTable t;
  t.install(rule(10, FlowMatch::on(Field::kDstPort, 80), 1));
  const auto h = PacketBuilder().dst_port(80).build();
  ASSERT_NE(t.lookup(h), nullptr);
  t.corrupt_classifier_for_test();
  EXPECT_EQ(t.lookup(h), nullptr);  // classified view lost the rule
  EXPECT_NE(reference_lookup(t.rules(), h), nullptr);  // reference sees it
}

}  // namespace
}  // namespace sdx::dp
