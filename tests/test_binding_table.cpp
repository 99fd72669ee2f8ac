/// The runtime's binding table under churn: a long seeded announce/withdraw
/// sequence, with a partition swap and a checkpoint-and-recover mid-way,
/// held to the reference forwarding semantics after every flush and to
/// exact flow-table and ARP accounting after the swap, after the recovery
/// and at the end; a rejected
/// policy change that must leave the policy and the bindings as they were;
/// an AS-path-only re-announcement that must touch nothing but the changed
/// receivers' FIBs.

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "deployment_state.hpp"
#include "netbase/rng.hpp"
#include "sdx/oracle.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;
using net::PacketBuilder;

/// A, B (two ports), C and D. A steers web traffic to B and HTTPS to C,
/// and port-8080 traffic toward 100.0.0.0/14 to D; C steers web traffic to
/// A; B splits its inbound traffic by source half.
std::vector<ParticipantId> build(SdxRuntime& rt) {
  const auto a = rt.add_participant("A", 65001);
  const auto b = rt.add_participant("B", 65002, 2);
  const auto c = rt.add_participant("C", 65003);
  const auto d = rt.add_participant("D", 65004);
  rt.set_outbound(
      a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
          OutboundClause{ClauseMatch{}.dst_port(443), c},
          OutboundClause{
              ClauseMatch{}.dst_port(8080).dst(Ipv4Prefix::parse("100.0.0.0/14")),
              d}});
  rt.set_outbound(c, {OutboundClause{ClauseMatch{}.dst_port(80), a}});
  rt.set_inbound(
      b, {InboundClause{ClauseMatch{}.src(Ipv4Prefix::parse("0.0.0.0/1")),
                        {},
                        1}});
  return {a, b, c, d};
}

Ipv4Prefix universe_prefix(std::size_t i) {
  return Ipv4Prefix(Ipv4Address((100u << 24) | (static_cast<std::uint32_t>(i)
                                                << 16)),
                    16);
}

constexpr std::size_t kUniverse = 10;

/// One random announcement (0–2 transit hops, sometimes a per-peer block)
/// or withdrawal.
void random_update(SdxRuntime& rt, const std::vector<ParticipantId>& ids,
                   net::SplitMix64& rng) {
  const auto prefix = universe_prefix(rng.below(kUniverse));
  const auto who = ids[rng.below(ids.size())];
  if (rng.chance(0.3)) {
    rt.withdraw(who, prefix);
    return;
  }
  std::vector<net::Asn> path{rt.participant(who).asn};
  for (std::size_t k = 0, n = rng.below(3); k < n; ++k) {
    path.push_back(static_cast<net::Asn>(64512 + rng.below(4)));
  }
  std::vector<bgp::Community> communities;
  if (rng.chance(0.1)) {
    const auto& blocked = rt.participant(ids[rng.below(ids.size())]);
    communities.push_back(
        bgp::make_community(0, static_cast<std::uint16_t>(blocked.asn)));
  }
  rt.announce(who, prefix, net::AsPath(std::move(path)),
              std::move(communities));
}

/// Sends \p n random packets and compares each delivery with
/// core::oracle_forward.
void expect_oracle_agreement(SdxRuntime& rt,
                             const std::vector<ParticipantId>& ids,
                             net::SplitMix64& rng, int n,
                             const std::string& where) {
  for (int i = 0; i < n; ++i) {
    const ParticipantId sender = ids[rng.below(ids.size())];
    const std::size_t port = rng.below(rt.participant(sender).ports.size());
    const std::uint16_t dst_ports[] = {80, 443, 8080, 53};
    auto h = PacketBuilder()
                 .src_ip(Ipv4Address(static_cast<std::uint32_t>(rng())))
                 .dst_ip(Ipv4Address(universe_prefix(rng.below(kUniverse + 1))
                                         .network()
                                         .value() |
                                     0x0101))
                 .proto(net::kProtoTcp)
                 .dst_port(dst_ports[rng.below(4)])
                 .build();
    const auto want = oracle_forward(rt.participants(), rt.ports(),
                                     rt.route_server(), sender, port, h);
    const auto got = rt.send(sender, h, port);
    ASSERT_EQ(got.size(), want.size()) << where << " " << h.to_string();
    if (!want.empty()) {
      ASSERT_EQ(got[0].port, want[0].egress) << where << " " << h.to_string();
      ASSERT_EQ(got[0].frame, want[0].frame) << where << " " << h.to_string();
    }
  }
}

/// Exact accounting. The live fast-path bindings are the bindings some
/// prefix holds that no compiled group has; each owns one band, whose rules
/// all match its VMAC, and one ARP entry. Returns how many there are.
std::size_t expect_exact_accounting(SdxRuntime& rt) {
  const CompiledSdx& compiled = rt.compiled();
  std::set<std::uint64_t> compiled_macs;
  for (const auto& b : compiled.bindings) compiled_macs.insert(b.vmac.bits());
  std::set<std::uint64_t> fast_macs;
  for (std::size_t i = 0; i < kUniverse; ++i) {
    const auto binding = rt.current_binding(universe_prefix(i));
    if (binding && !compiled_macs.contains(binding->vmac.bits())) {
      fast_macs.insert(binding->vmac.bits());
    }
  }
  EXPECT_EQ(rt.telemetry().metrics.gauge("sdx_fast_path_bindings").value(),
            static_cast<double>(fast_macs.size()));
  const auto& table = rt.fabric().sdx_switch().table();
  std::size_t fast_rules = 0;
  std::map<std::uint64_t, std::set<std::uint64_t>> macs_of_cookie;
  for (const dp::FlowRule* r : table.rules()) {
    if (r->priority < (1u << 24)) continue;  // the base bands
    ++fast_rules;
    const auto& m = r->match.field(net::Field::kDstMac);
    EXPECT_TRUE(m.is_exact()) << r->to_string();
    EXPECT_TRUE(fast_macs.contains(m.value())) << r->to_string();
    macs_of_cookie[r->cookie].insert(m.value());
  }
  EXPECT_EQ(macs_of_cookie.size(), fast_macs.size());
  for (const auto& [cookie, macs] : macs_of_cookie) {
    EXPECT_EQ(macs.size(), 1u) << "cookie " << cookie;
  }
  EXPECT_EQ(table.size(), compiled.fabric.size() + fast_rules);
  std::size_t partition_bindings = 0;
  for (const auto& part : compiled.partitions) {
    partition_bindings += part.bindings.size();
  }
  const std::size_t routers = 5;  // A, B twice, C, D
  EXPECT_EQ(rt.fabric().arp().size(),
            routers + compiled.bindings.size() + partition_bindings +
                fast_macs.size());
  return fast_macs.size();
}

struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sdx_binding_table_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

TEST(BindingTable, LongChurnStaysBoundedAndMatchesTheOracle) {
  for (const bool partitioned : {false, true}) {
    SCOPED_TRACE(partitioned ? "partitioned" : "pairwise");
    CompileOptions options;
    options.partitioned = partitioned;
    auto rt = std::make_unique<SdxRuntime>(bgp::DecisionConfig{}, options);
    const auto ids = build(*rt);
    net::SplitMix64 rng(partitioned ? 77 : 76);
    for (std::size_t i = 0; i < kUniverse; ++i) {
      rt->announce(ids[rng.below(ids.size())], universe_prefix(i));
    }
    rt->install();
    rt->enable_batching({0, 0});
    TempDir journal;
    std::size_t flushes = 0;
    for (int update = 0; update < 3000; ++update) {
      const std::string where = "update " + std::to_string(update);
      if (update == 1000 && partitioned) {
        // The install stage's partition swap, mid-churn: A now sends
        // HTTPS to D instead of C.
        rt->flush();
        rt->set_outbound(
            ids[0],
            {OutboundClause{ClauseMatch{}.dst_port(80), ids[1]},
             OutboundClause{ClauseMatch{}.dst_port(443), ids[3]},
             OutboundClause{ClauseMatch{}.dst_port(8080).dst(
                                Ipv4Prefix::parse("100.0.0.0/14")),
                            ids[3]}});
        EXPECT_GT(expect_exact_accounting(*rt), 0u);  // re-flushed
        expect_oracle_agreement(*rt, ids, rng, 50, "after swap");
      }
      if (update == 2000) {
        // The install stage's checkpoint capture and warm restore: a fresh
        // runtime recovered from the journal carries on the churn.
        rt->attach_journal(journal.path);
        rt->checkpoint();
        auto recovered =
            std::make_unique<SdxRuntime>(bgp::DecisionConfig{}, options);
        EXPECT_TRUE(recovered->recover(journal.path).warm);
        rt = std::move(recovered);
        rt->enable_batching({0, 0});
        EXPECT_GT(expect_exact_accounting(*rt), 0u);  // residue restored
        expect_oracle_agreement(*rt, ids, rng, 50, "after recovery");
      }
      if (::testing::Test::HasFailure()) return;
      random_update(*rt, ids, rng);
      if (!rng.chance(0.3)) continue;
      rt->flush();
      ++flushes;
      expect_oracle_agreement(*rt, ids, rng, 6, where);
      if (::testing::Test::HasFatalFailure()) return;
    }
    rt->flush();
    ASSERT_GT(flushes, 500u);
    // Bindings were made and retired along the way: every fresh binding
    // composed at least one rule.
    std::size_t made = 0;
    for (const auto& report : rt->update_log()) {
      made += report.additional_rules > 0 ? 1 : 0;
    }
    const std::size_t live = expect_exact_accounting(*rt);
    EXPECT_GT(made, live + 50);

    // The recompile drops every fast-path binding.
    rt->background_recompile();
    EXPECT_EQ(rt->telemetry().metrics.gauge("sdx_fast_path_bindings").value(),
              0.0);
    EXPECT_EQ(rt->fabric().sdx_switch().table().size(),
              rt->compiled().fabric.size());
    expect_oracle_agreement(*rt, ids, rng, 50, "after recompile");
  }
}

TEST(BindingTable, RejectedPolicyChangeLeavesPolicyAndBindingsIntact) {
  for (const bool partitioned : {false, true}) {
    SCOPED_TRACE(partitioned ? "partitioned" : "pairwise");
    CompileOptions options;
    options.partitioned = partitioned;
    SdxRuntime rt({}, options);
    const auto ids = build(rt);
    const auto a = ids[0], b = ids[1], c = ids[2];
    for (std::size_t i = 0; i < kUniverse; ++i) {
      rt.announce(ids[i % ids.size()], universe_prefix(i));
    }
    rt.install();
    rt.announce(b, universe_prefix(0), net::AsPath{65002, 7});
    const Participant a_before = rt.participant(a);
    const Participant b_before = rt.participant(b);
    const std::string flows = test::flow_table_dump(rt);
    // A clause forwarding to its owner, and one to an unknown participant;
    // an inbound clause selecting a missing port.
    EXPECT_THROW(
        rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(22), a}}),
        std::invalid_argument);
    EXPECT_THROW(
        rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(22), 99}}),
        std::invalid_argument);
    EXPECT_THROW(
        rt.set_inbound(b, {InboundClause{ClauseMatch{}.dst_port(22), {}, 5}}),
        std::invalid_argument);
    EXPECT_TRUE(rt.participant(a) == a_before);
    EXPECT_TRUE(rt.participant(b) == b_before);
    EXPECT_EQ(test::flow_table_dump(rt), flows);
    // The next flushes signature and compose against the kept policy.
    rt.announce(c, universe_prefix(1), net::AsPath{65003, 8});
    rt.announce(b, universe_prefix(2));
    net::SplitMix64 rng(5);
    expect_oracle_agreement(rt, ids, rng, 200, "after rejected change");
  }
}

TEST(BindingTable, AsPathOnlyReannouncementTouchesOnlyChangedReceivers) {
  SdxRuntime rt;
  rt.use_wire_distribution();
  const auto ids = build(rt);
  const auto a = ids[0], b = ids[1], c = ids[2], d = ids[3];
  const auto p = Ipv4Prefix::parse("100.1.0.0/16");
  const auto q = Ipv4Prefix::parse("100.9.0.0/16");
  // B's route is everyone's best except D's: B blocks D, which falls back
  // to C's longer path.
  rt.announce(b, p, net::AsPath{65002, 7},
              {bgp::make_community(0, 65004)});
  rt.announce(c, p, net::AsPath{65003, 8, 9});
  rt.announce(c, q, net::AsPath{65003});
  rt.install();

  SdxRuntime twin;  // the same deployment without the re-announcement
  twin.use_wire_distribution();
  build(twin);
  twin.announce(b, p, net::AsPath{65002, 7},
                {bgp::make_community(0, 65004)});
  twin.announce(c, p, net::AsPath{65003, 8, 9});
  twin.announce(c, q, net::AsPath{65003});
  twin.install();

  const auto path_at = [&rt, p](ParticipantId id, std::size_t port) {
    std::string out = "-";
    rt.router(id, port).rib().for_each(
        [&](Ipv4Prefix prefix, const bgp::RouteAttributes& attrs) {
          if (prefix == p) out = attrs.as_path.to_string();
        });
    return out;
  };
  const std::string flows = test::flow_table_dump(rt);
  const std::string arp = test::arp_table_dump(rt);
  const std::string d_path = path_at(d, 0);
  const std::string b_path = path_at(b, 1);
  const auto updates = [&rt] {
    return rt.telemetry().metrics.counter("sdx_frontend_updates_total").value();
  };
  const auto compositions = [&rt] {
    return rt.telemetry()
        .metrics.counter("sdx_fast_path_compositions_total")
        .value();
  };
  const auto updates_before = updates();
  const auto compositions_before = compositions();

  // B prepends: A's and C's best change attributes, D's and B's do not.
  rt.announce(b, p, net::AsPath{65002, 65002, 7},
              {bgp::make_community(0, 65004)});
  ASSERT_EQ(rt.update_log().back().prefix, p);
  EXPECT_EQ(rt.update_log().back().additional_rules, 0u);
  EXPECT_EQ(compositions(), compositions_before);
  EXPECT_EQ(test::flow_table_dump(rt), flows);
  EXPECT_EQ(test::arp_table_dump(rt), arp);
  // One UPDATE for each changed receiver, none for the others.
  EXPECT_EQ(updates() - updates_before, 2u);
  EXPECT_EQ(path_at(a, 0), "65002 65002 7");
  EXPECT_EQ(path_at(c, 0), "65002 65002 7");
  EXPECT_EQ(path_at(d, 0), d_path);
  EXPECT_EQ(path_at(b, 1), b_path);

  // The VNH watermark did not move: the next fresh binding is the twin's.
  rt.announce(a, q, net::AsPath{65001});
  twin.announce(a, q, net::AsPath{65001});
  ASSERT_TRUE(rt.current_binding(q).has_value());
  EXPECT_GT(rt.update_log().back().additional_rules, 0u);
  EXPECT_EQ(rt.current_binding(q), twin.current_binding(q));
  EXPECT_EQ(test::arp_table_dump(rt), test::arp_table_dump(twin));

  // A rebound prefix still reaches every router.
  const auto rebound_before = updates();
  rt.withdraw(c, p);  // A's, B's, C's and D's defaults change: new signature
  EXPECT_EQ(updates() - rebound_before, 4u);
}

}  // namespace
}  // namespace sdx::core
