/// Tests for partitioned per-participant compilation and attribute-encoded
/// VMACs: layout encode/decode round trips at many field widths, allocator
/// group-budget enforcement, masked dst-MAC matching through FieldMatch /
/// Classifier / FlowTable, pairwise ≡ partitioned forwarding on a small
/// exchange, single-partition recompilation on a policy change (telemetry
/// counted), fingerprint determinism across thread counts, and the warm
/// restart gates (partitioned artifacts round trip; a layout change forces
/// a cold install).

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "dataplane/fabric.hpp"
#include "sdx/runtime.hpp"
#include "sdx/vmac_layout.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::core {
namespace {

namespace fs = std::filesystem;

using net::Field;
using net::FieldMatch;
using net::FlowMatch;
using net::Ipv4Prefix;
using net::MacAddress;
using net::PacketBuilder;
using policy::ActionSeq;
using policy::Classifier;
using policy::Rule;

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sdx_vmac_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

// --- VMAC layout -------------------------------------------------------------

TEST(VmacLayoutTest, DefaultLayoutKeepsLegacyEncoding) {
  VmacLayout l;
  // With zero attributes the default layout is the pre-layout encoding,
  // bit for bit: 0x02 top octet, counter in the low bits.
  EXPECT_EQ(l.encode(7, 0, 0).bits(), (0x02ull << 40) | 7);
  EXPECT_EQ(l.encode(0, 0, 0).bits(), 0x02ull << 40);
  EXPECT_EQ(l.descriptor(), "vmac-layout/v1 group=20 nexthop=12 attr=8");
}

TEST(VmacLayoutTest, EncodeDecodeRoundTripsAtManyWidths) {
  const VmacLayout layouts[] = {
      {},                                                    // default 20/12/8
      {.group_bits = 10, .nexthop_bits = 6, .attr_bits = 24},
      {.group_bits = 30, .nexthop_bits = 10, .attr_bits = 0},
      {.group_bits = 40, .nexthop_bits = 0, .attr_bits = 0},
      {.group_bits = 1, .nexthop_bits = 20, .attr_bits = 19},
      {.group_bits = 16, .nexthop_bits = 16, .attr_bits = 8},
  };
  for (const auto& l : layouts) {
    ASSERT_NO_THROW(l.validate()) << l.descriptor();
    // Deterministic samples across each field's range, including the
    // boundaries.
    const std::uint64_t groups[] = {0, 1, l.group_mask() / 3, l.group_mask()};
    const std::uint64_t nexthops[] = {0, l.nexthop_capacity() / 2,
                                      l.nexthop_capacity()};
    const std::uint64_t attr_cap =
        l.attr_bits == 0 ? 0 : (1ull << l.attr_bits) - 1;
    const std::uint64_t attrs[] = {0, attr_cap / 5, attr_cap};
    for (std::uint64_t g : groups) {
      for (std::uint64_t nh : nexthops) {
        for (std::uint64_t at : attrs) {
          const MacAddress mac = l.encode(g, nh, at);
          EXPECT_EQ(mac.bits() & VmacLayout::kTopOctetMask,
                    VmacLayout::kTopOctetValue)
              << l.descriptor();
          EXPECT_EQ(l.group_of(mac), g) << l.descriptor();
          EXPECT_EQ(l.nexthop_of(mac), nh) << l.descriptor();
          EXPECT_EQ(l.attrs_of(mac), at) << l.descriptor();
        }
      }
    }
  }
}

TEST(VmacLayoutTest, ValidateRejectsDegenerateAndOversizedWidths) {
  EXPECT_THROW(
      (VmacLayout{.group_bits = 0, .nexthop_bits = 12, .attr_bits = 8})
          .validate(),
      std::invalid_argument);
  // 24 + 12 + 8 = 44 > 40 usable bits.
  EXPECT_THROW(
      (VmacLayout{.group_bits = 24, .nexthop_bits = 12, .attr_bits = 8})
          .validate(),
      std::invalid_argument);
  try {
    VmacLayout{.group_bits = 24, .nexthop_bits = 12, .attr_bits = 8}
        .validate();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("44"), std::string::npos) << e.what();
  }
}

TEST(VmacLayoutTest, MaskedHelpersGuardAgainstRouterMacs) {
  VmacLayout l;
  // Router MACs carry the 00:16:3e OUI — bits set in the attribute and
  // next-hop positions — so every masked helper must pin the top octet.
  const std::uint64_t router = 0x00'16'3E'00'00'05ull;

  const FieldMatch attr3 = l.attr_bit_match(3);
  EXPECT_TRUE(attr3.matches(l.encode(5, 2, 1u << 3).bits()));
  EXPECT_TRUE(attr3.matches(l.encode(9, 0, (1u << 3) | (1u << 1)).bits()));
  EXPECT_FALSE(attr3.matches(l.encode(5, 2, 1u << 2).bits()));
  EXPECT_FALSE(attr3.matches(router));

  const FieldMatch nh2 = l.nexthop_match(2);
  EXPECT_TRUE(nh2.matches(l.encode(0, 2, 0).bits()));
  EXPECT_TRUE(nh2.matches(l.encode(77, 2, 0xFF).bits()));
  EXPECT_FALSE(nh2.matches(l.encode(77, 3, 0xFF).bits()));
  EXPECT_FALSE(nh2.matches(router));
  // Slot 0 ("no default") matches only tags with a zero next-hop field.
  const FieldMatch nh0 = l.nexthop_match(0);
  EXPECT_TRUE(nh0.matches(l.encode(4, 0, 1).bits()));
  EXPECT_FALSE(nh0.matches(l.encode(4, 1, 1).bits()));
}

// --- VNH allocator (satellite: group-budget boundary) ------------------------

TEST(VnhAllocatorTest, GroupBudgetBoundaryIsEnforced) {
  const VmacLayout small{.group_bits = 4, .nexthop_bits = 4, .attr_bits = 4};
  VnhAllocator alloc(Ipv4Prefix::parse("172.16.0.0/12"), small);
  std::vector<MacAddress> macs;
  for (int i = 0; i < 16; ++i) macs.push_back(alloc.allocate().vmac);
  for (std::size_t i = 0; i < macs.size(); ++i) {
    for (std::size_t j = i + 1; j < macs.size(); ++j) {
      EXPECT_NE(macs[i], macs[j]);
    }
  }
  // Allocation #16 does not fit 4 group bits: the counter would spill into
  // the next-hop field. The error names the allocation, the budget and the
  // layout.
  try {
    alloc.allocate();
    FAIL() << "expected std::length_error";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("group-id field exhausted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("#16"), std::string::npos) << what;
    EXPECT_NE(what.find("4 group bits"), std::string::npos) << what;
  }
}

TEST(VnhAllocatorTest, AttributeOverflowsAreRejected) {
  const VmacLayout small{.group_bits = 8, .nexthop_bits = 3, .attr_bits = 2};
  VnhAllocator alloc(Ipv4Prefix::parse("172.16.0.0/12"), small);
  // In range: slot+1 up to 7, attrs up to 0b11.
  EXPECT_NO_THROW(alloc.allocate_attributed(7, 0b11));
  EXPECT_THROW(alloc.allocate_attributed(8, 0), std::invalid_argument);
  EXPECT_THROW(alloc.allocate_attributed(0, 0b100), std::invalid_argument);
  // Failed allocations must not burn group ids.
  const auto before = alloc.allocated();
  EXPECT_THROW(alloc.allocate_attributed(8, 0), std::invalid_argument);
  EXPECT_EQ(alloc.allocated(), before);
}

TEST(VnhAllocatorTest, RestoreValidatesGroupBudget) {
  const VmacLayout small{.group_bits = 4, .nexthop_bits = 4, .attr_bits = 4};
  VnhAllocator alloc(Ipv4Prefix::parse("172.16.0.0/12"), small);
  EXPECT_NO_THROW(alloc.restore(16));  // full watermark is fine...
  EXPECT_THROW(alloc.allocate(), std::length_error);  // ...but it is full
  EXPECT_THROW(alloc.restore(17), std::length_error);
}

TEST(VnhAllocatorTest, InvalidLayoutRejectedAtConstruction) {
  EXPECT_THROW(
      VnhAllocator(Ipv4Prefix::parse("172.16.0.0/12"),
                   VmacLayout{.group_bits = 0, .nexthop_bits = 4,
                              .attr_bits = 4}),
      std::invalid_argument);
}

// --- masked dst-MAC matching in the classifier and flow table ----------------

TEST(MaskedMatchTest, IntersectAndSubsumeAreExactForArbitraryMasks) {
  VmacLayout l;
  const FieldMatch a = l.attr_bit_match(0);
  const FieldMatch b = l.attr_bit_match(1);
  // Two single-bit constraints on different bits intersect: the result
  // requires both bits.
  const auto both = a.intersect(b);
  ASSERT_TRUE(both.has_value());
  EXPECT_TRUE(both->matches(l.encode(3, 0, 0b11).bits()));
  EXPECT_FALSE(both->matches(l.encode(3, 0, 0b01).bits()));
  EXPECT_FALSE(both->matches(l.encode(3, 0, 0b10).bits()));
  // A bit-set constraint conflicts with the same bit required clear.
  const FieldMatch a_clear =
      FieldMatch::masked(VmacLayout::kTopOctetValue,
                         VmacLayout::kTopOctetMask | (1ull << l.attr_shift()));
  EXPECT_FALSE(a.intersect(a_clear).has_value());
  // The masked constraint subsumes every exact VMAC carrying the bit.
  EXPECT_TRUE(a.subsumes(FieldMatch::exact(l.encode(9, 5, 0b101).bits())));
  EXPECT_FALSE(a.subsumes(FieldMatch::exact(l.encode(9, 5, 0b100).bits())));
}

TEST(MaskedMatchTest, FlowTablePriorityDecidesMaskedVsExactOverlap) {
  VmacLayout l;
  dp::FlowTable t;
  const MacAddress tagged = l.encode(5, 2, 1u << 3);

  dp::FlowRule masked;
  masked.priority = 10;
  masked.match.set(Field::kDstMac, l.attr_bit_match(3));
  masked.actions = {ActionSeq::set(Field::kPort, 1)};
  t.install(masked);

  dp::FlowRule exact;
  exact.priority = 20;
  exact.match = FlowMatch::on(Field::kDstMac, tagged.bits());
  exact.actions = {ActionSeq::set(Field::kPort, 2)};
  t.install(exact);

  // The overlapping VMAC hits the higher-priority exact rule; any other
  // tag carrying bit 3 falls to the masked rule; a tag without the bit —
  // and a router MAC — miss both.
  auto out = t.process(PacketBuilder().dst_mac(tagged).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 2u);
  out = t.process(
      PacketBuilder().dst_mac(l.encode(6, 0, 1u << 3)).build());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].port(), 1u);
  EXPECT_TRUE(
      t.process(PacketBuilder().dst_mac(l.encode(5, 2, 0)).build()).empty());
  EXPECT_TRUE(
      t.process(PacketBuilder().dst_mac(MacAddress(0x00'16'3E'00'00'05ull))
                    .build())
          .empty());
}

TEST(MaskedMatchTest, ClassifierOptimizeDedupsMaskedDuplicates) {
  VmacLayout l;
  FlowMatch masked;
  masked.set(Field::kDstMac, l.attr_bit_match(2));
  FlowMatch exact = FlowMatch::on(Field::kDstMac, l.encode(0, 0, 1u << 2).bits());

  Classifier c({
      Rule{masked, {ActionSeq::set(Field::kPort, 1)}},
      Rule{masked, {ActionSeq::set(Field::kPort, 9)}},  // duplicate match
      Rule{exact, {ActionSeq::set(Field::kPort, 2)}},   // same value, full mask
  });
  c.optimize(false);
  ASSERT_EQ(c.size(), 2u);  // duplicate masked rule dropped, first wins
  EXPECT_EQ(c.rules()[0].actions.front().written(Field::kPort), 1u);
  EXPECT_EQ(c.rules()[1].match.field(Field::kDstMac),
            FieldMatch::exact(l.encode(0, 0, 1u << 2).bits()));
}

// --- partitioned runtime -----------------------------------------------------

/// The reproducible exchange: A steers port-80 traffic to B and port-443
/// traffic to C; B announces two prefixes, C one.
void build_exchange(SdxRuntime& r) {
  auto pa = r.add_participant("A", 65001);
  auto pb = r.add_participant("B", 65002);
  auto pc = r.add_participant("C", 65003);
  r.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pb},
                      OutboundClause{ClauseMatch{}.dst_port(443), pc}});
  r.set_outbound(pc, {OutboundClause{ClauseMatch{}.dst_port(80), pa}});
  r.announce(pb, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 7});
  r.announce(pb, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002, 7});
  // C also announces 100.1/16 with a longer path: B stays the best route,
  // but steering clauses targeting C now reach the prefix — steered and
  // default forwarding become observably different.
  r.announce(pc, Ipv4Prefix::parse("100.1.0.0/16"),
             net::AsPath{65003, 8, 9});
  r.announce(pc, Ipv4Prefix::parse("100.9.0.0/16"), net::AsPath{65003});
  r.announce(pa, Ipv4Prefix::parse("100.7.0.0/16"), net::AsPath{65001});
  r.install();
}

/// Forwarding signature over every (sender, prefix, port) probe: egress
/// port and acceptance, like the differential oracle's probes. VMACs are
/// deliberately excluded — the two pipelines tag differently by design.
std::vector<std::string> probe_all(SdxRuntime& r) {
  std::vector<std::string> out;
  for (ParticipantId s : {1, 2, 3}) {
    for (const char* dst :
         {"100.1.2.3", "100.2.4.5", "100.9.6.7", "100.7.8.9", "100.250.0.1"}) {
      for (std::uint16_t port : {80, 443, 53}) {
        auto deliveries = r.send(s, PacketBuilder()
                                        .src_ip("192.0.2.1")
                                        .dst_ip(dst)
                                        .proto(net::kProtoTcp)
                                        .dst_port(port)
                                        .build());
        std::ostringstream line;
        line << s << "->" << dst << ":" << port << " =";
        if (deliveries.empty()) line << " drop";
        for (const auto& d : deliveries) {
          line << " port" << d.port << (d.accepted ? "+" : "-");
        }
        out.push_back(line.str());
      }
    }
  }
  return out;
}

CompileOptions partitioned_options() {
  CompileOptions opt;
  opt.partitioned = true;
  return opt;
}

TEST(PartitionedRuntime, ForwardsIdenticallyToPairwise) {
  SdxRuntime pairwise;
  build_exchange(pairwise);
  SdxRuntime parted({}, partitioned_options());
  build_exchange(parted);
  EXPECT_FALSE(pairwise.compiled().partitioned);
  EXPECT_TRUE(parted.compiled().partitioned);
  EXPECT_EQ(probe_all(pairwise), probe_all(parted));
}

TEST(PartitionedRuntime, CompiledArtifactCarriesPartitions) {
  SdxRuntime rt({}, partitioned_options());
  build_exchange(rt);
  const CompiledSdx& c = rt.compiled();
  ASSERT_EQ(c.partitions.size(), 3u);
  EXPECT_EQ(c.layout, VmacLayout{});
  // The pairwise cross-product artifacts stay empty in partitioned mode.
  EXPECT_TRUE(c.fecs.groups.empty());
  EXPECT_TRUE(c.reaches.empty());
  // A (slot 0) has two clauses → masked stage-1 rules; its partition's
  // bindings carry the clause-membership attribute bits.
  EXPECT_GT(c.partitions[0].stage1_rules, 0u);
  EXPECT_EQ(c.partitions[0].owner, 1u);
  bool saw_attr = false;
  for (const auto& b : c.partitions[0].bindings) {
    saw_attr |= c.layout.attrs_of(b.vmac) != 0;
  }
  EXPECT_TRUE(saw_attr);
  // B (slot 1) has no outbound clauses: no composed partition rules, its
  // traffic rides the shared band's masked next-hop defaults.
  EXPECT_EQ(c.partitions[1].stage1_rules, 0u);
  EXPECT_GT(c.shared_rules.size(), 0u);
  // The fabric is exactly the slot-ordered partition concat + shared band.
  std::size_t expected = c.shared_rules.size();
  for (const auto& part : c.partitions) expected += part.rules.size();
  EXPECT_EQ(c.fabric.size(), expected);
}

TEST(PartitionedRuntime, FingerprintStableAcrossThreadCounts) {
  auto fingerprint = [](unsigned threads) {
    CompileOptions opt = partitioned_options();
    opt.threads = threads;
    SdxRuntime rt({}, opt);
    build_exchange(rt);
    return rt.compiled().fingerprint();
  };
  const std::string serial = fingerprint(1);
  EXPECT_EQ(serial, fingerprint(4));
  EXPECT_EQ(serial, fingerprint(8));
  EXPECT_NE(serial.find("partitioned"), std::string::npos);
  EXPECT_NE(serial.find("vmac-layout/v1"), std::string::npos);
}

TEST(PartitionedRuntime, PolicyChangeRecompilesOnlyTheDirtyPartition) {
  SdxRuntime rt({}, partitioned_options());
  build_exchange(rt);
  auto counter = [&rt](const char* name) {
    return rt.telemetry().metrics.counter(name).value();
  };
  ASSERT_EQ(counter("sdx_partitions_recompiled_total"), 0u);
  ASSERT_EQ(counter("sdx_compile_runs_total"), 1u);
  const std::string b_rules = rt.compiled().partitions[1].rules.to_string();
  const std::string c_rules = rt.compiled().partitions[2].rules.to_string();
  const std::string shared = rt.compiled().shared_rules.to_string();

  // Swap A's steering: port 80 now goes to C, 443 unsteered.
  rt.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(80), 3}});

  // Exactly one partition recompiled, zero full pipeline runs; B's and C's
  // partitions and the shared band are byte-identical.
  EXPECT_EQ(counter("sdx_partitions_recompiled_total"), 1u);
  EXPECT_EQ(counter("sdx_compile_runs_total"), 1u);
  EXPECT_EQ(rt.compiled().partitions[1].rules.to_string(), b_rules);
  EXPECT_EQ(rt.compiled().partitions[2].rules.to_string(), c_rules);
  EXPECT_EQ(rt.compiled().shared_rules.to_string(), shared);

  // And the data plane follows the new policy: A's port-80 traffic to B's
  // prefix now egresses at C, port-443 falls back to the default (B).
  auto egress = [&rt](std::uint16_t port) {
    auto out = rt.send(1, PacketBuilder()
                              .dst_ip("100.1.2.3")
                              .proto(net::kProtoTcp)
                              .dst_port(port)
                              .build());
    return out.size() == 1 ? out[0].port : net::PortId{0};
  };
  SdxRuntime want;  // pairwise reference for the changed policy
  build_exchange(want);
  want.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(80), 3}});
  want.background_recompile();
  auto want_egress = [&want](std::uint16_t port) {
    auto out = want.send(1, PacketBuilder()
                                .dst_ip("100.1.2.3")
                                .proto(net::kProtoTcp)
                                .dst_port(port)
                                .build());
    return out.size() == 1 ? out[0].port : net::PortId{0};
  };
  EXPECT_EQ(egress(80), want_egress(80));
  EXPECT_EQ(egress(443), want_egress(443));
  EXPECT_NE(egress(80), egress(443));
}

TEST(PartitionedRuntime, InPlaceRecompileEqualsAFreshCompileOfTheSlot) {
  SdxRuntime rt({}, partitioned_options());
  build_exchange(rt);
  // More clauses than the layout's attribute bits, so the partition has
  // both masked rules and the exact-VMAC overflow tail.
  std::vector<OutboundClause> clauses;
  for (std::uint16_t i = 0; i < 10; ++i) {
    clauses.push_back(OutboundClause{ClauseMatch{}.dst_port(1000 + i),
                                     ParticipantId{i % 2 == 0 ? 3u : 2u}});
  }
  ASSERT_GT(clauses.size(), VmacLayout{}.attr_bits);
  rt.set_outbound(1, clauses);
  SdxCompiler compiler(rt.participants(), rt.ports(), rt.route_server(),
                       partitioned_options());
  VnhAllocator vnh;
  const CompiledSdx fresh = compiler.compile(vnh);
  const CompiledPartition& got = rt.compiled().partitions[0];
  const CompiledPartition& want = fresh.partitions[0];

  ASSERT_EQ(got.fecs.groups.size(), want.fecs.groups.size());
  for (std::size_t g = 0; g < want.fecs.groups.size(); ++g) {
    EXPECT_EQ(got.fecs.groups[g].prefixes, want.fecs.groups[g].prefixes);
    EXPECT_EQ(got.fecs.groups[g].clauses, want.fecs.groups[g].clauses);
  }
  EXPECT_GT(want.stage1_rules, 0u);
  EXPECT_EQ(got.stage1_rules, want.stage1_rules);
  EXPECT_EQ(got.pair_compositions, want.pair_compositions);
  EXPECT_EQ(got.rules.size(), want.rules.size());

  // The in-place bindings continue the allocator's watermark, so only the
  // VMAC values differ: name every binding by its group index instead.
  auto by_group = [](const CompiledPartition& part) {
    std::string s = part.rules.to_string();
    for (std::size_t g = 0; g < part.bindings.size(); ++g) {
      const std::string vmac = part.bindings[g].vmac.to_string();
      const std::string name = "group" + std::to_string(g);
      for (auto at = s.find(vmac); at != std::string::npos;
           at = s.find(vmac, at + name.size())) {
        s.replace(at, vmac.size(), name);
      }
    }
    return s;
  };
  EXPECT_NE(by_group(want).find("group"), std::string::npos);
  EXPECT_EQ(by_group(got), by_group(want));
}

TEST(PartitionedRuntime, WarmRestartRoundTripsPartitionedArtifact) {
  TempDir dir;
  SdxRuntime rt({}, partitioned_options());
  build_exchange(rt);
  rt.attach_journal(dir.path);
  const std::string fp = rt.compiled().fingerprint();
  const auto expected = probe_all(rt);

  SdxRuntime rt2({}, partitioned_options());
  const auto report = rt2.recover(dir.path);
  EXPECT_TRUE(report.warm);
  EXPECT_EQ(rt2.telemetry().metrics.counter("sdx_compile_runs_total").value(),
            0u);
  ASSERT_TRUE(rt2.installed());
  EXPECT_TRUE(rt2.compiled().partitioned);
  EXPECT_EQ(rt2.compiled().partitions.size(), 3u);
  EXPECT_EQ(rt2.compiled().fingerprint(), fp);
  EXPECT_EQ(probe_all(rt2), expected);

  // The adopted bands stay live: a post-recovery policy change still
  // recompiles exactly one partition.
  rt2.set_outbound(1, {OutboundClause{ClauseMatch{}.dst_port(80), 3}});
  EXPECT_EQ(rt2.telemetry()
                .metrics.counter("sdx_partitions_recompiled_total")
                .value(),
            1u);
}

TEST(PartitionedRuntime, LayoutChangeForcesColdInstall) {
  TempDir dir;
  SdxRuntime rt;
  build_exchange(rt);
  rt.attach_journal(dir.path);
  const auto expected = probe_all(rt);

  // Same inputs, different VMAC layout: the persisted tables encode tags
  // under the old layout, so the warm gate must refuse them.
  CompileOptions opt;
  opt.vmac_layout = VmacLayout{.group_bits = 16, .nexthop_bits = 16,
                               .attr_bits = 8};
  SdxRuntime rt2({}, opt);
  const auto report = rt2.recover(dir.path);
  EXPECT_FALSE(report.warm);
  EXPECT_EQ(rt2.telemetry().metrics.counter("sdx_recovery_cold_total").value(),
            1u);
  // The cold install recompiles the same forwarding behaviour from the
  // replayed inputs.
  EXPECT_EQ(probe_all(rt2), expected);
}

TEST(PartitionedRuntime, ModeChangeForcesColdInstall) {
  TempDir dir;
  SdxRuntime rt;  // pairwise
  build_exchange(rt);
  rt.attach_journal(dir.path);
  const auto expected = probe_all(rt);

  SdxRuntime rt2({}, partitioned_options());
  const auto report = rt2.recover(dir.path);
  EXPECT_FALSE(report.warm);
  ASSERT_TRUE(rt2.installed());
  EXPECT_TRUE(rt2.compiled().partitioned);
  EXPECT_EQ(probe_all(rt2), expected);
}

}  // namespace
}  // namespace sdx::core
