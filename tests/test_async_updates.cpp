/// Burst batching and the background recompile (§4.3.2): flush triggers
/// and equivalence with the inline fast path, composition-sharing across a
/// batch (counter-verified), what a recompile absorbs and drops, the
/// bounded update log, and the thread-pool task API.

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "deployment_state.hpp"
#include "netbase/parallel.hpp"
#include "sdx/incremental.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Prefix;
using net::PacketBuilder;

class AsyncUpdatesFixture : public ::testing::Test {
 protected:
  AsyncUpdatesFixture() { build(rt); }

  /// The fixture topology, reproducible into a second runtime for golden
  /// comparisons: A applies an outbound policy toward B and C, B and C
  /// announce. Without \p install the caller installs after its own churn.
  void build(SdxRuntime& r, bool install = true) {
    auto pa = r.add_participant("A", 65001);
    auto pb = r.add_participant("B", 65002);
    auto pc = r.add_participant("C", 65003);
    r.set_outbound(pa, {OutboundClause{ClauseMatch{}.dst_port(80), pb},
                        OutboundClause{ClauseMatch{}.dst_port(443), pc}});
    r.announce(pb, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65002, 7});
    r.announce(pb, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65002, 7});
    r.announce(pc, Ipv4Prefix::parse("100.9.0.0/16"), net::AsPath{65003});
    if (install) r.install();
  }

  std::uint64_t counter(SdxRuntime& r, const char* name) {
    return r.telemetry().metrics.counter(name).value();
  }

  net::PortId egress(SdxRuntime& r, ParticipantId from, const char* dst_ip,
                     std::uint16_t dst_port) {
    auto out = r.send(
        from, PacketBuilder().dst_ip(dst_ip).dst_port(dst_port).build());
    return out.size() == 1 ? out[0].port : net::PortId{0};
  }

  SdxRuntime rt;
  ParticipantId a = 1, b = 2, c = 3;
};

// --- burst batching ---------------------------------------------------------

TEST_F(AsyncUpdatesFixture, FlushIsIdleWithoutDirtyPrefixes) {
  rt.enable_batching();
  EXPECT_EQ(rt.pending_updates(), 0u);
  EXPECT_EQ(rt.flush(), 0u);
}

TEST_F(AsyncUpdatesFixture, BatchedFlushMatchesInlineForwarding) {
  SdxRuntime inline_rt;
  build(inline_rt);

  // The same burst: C takes over both of B's prefixes.
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  inline_rt.announce(c, p1, net::AsPath{65003});
  inline_rt.announce(c, p2, net::AsPath{65003});

  rt.enable_batching({0, 0});  // explicit flushes only
  rt.announce(c, p1, net::AsPath{65003});
  rt.announce(c, p2, net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 2u);
  EXPECT_EQ(rt.flush(), 2u);
  EXPECT_EQ(rt.pending_updates(), 0u);

  // Policy traffic and default traffic land identically in both modes.
  for (const char* ip : {"100.1.1.1", "100.2.2.2", "100.9.9.9"}) {
    for (std::uint16_t port : {std::uint16_t{80}, std::uint16_t{443},
                               std::uint16_t{53}}) {
      EXPECT_EQ(egress(rt, a, ip, port), egress(inline_rt, a, ip, port))
          << ip << ":" << port;
    }
  }
}

TEST_F(AsyncUpdatesFixture, BatchSharesCompositionsAcrossEqualSignatures) {
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  // C takes over both of B's prefixes. p1 and p2 then share one restricted
  // signature (same clause hits, same default vector) that no live binding
  // has: exactly one composition walk, whether the updates flush one at a
  // time (p2 joins the binding p1's flush made) or as one batch (the two
  // are one group).
  SdxRuntime inline_rt;
  build(inline_rt);
  const auto inline_before =
      counter(inline_rt, "sdx_fast_path_compositions_total");
  inline_rt.announce(c, p1, net::AsPath{65003});
  inline_rt.announce(c, p2, net::AsPath{65003});
  const auto inline_cost =
      counter(inline_rt, "sdx_fast_path_compositions_total") - inline_before;
  ASSERT_GT(inline_cost, 0u);
  ASSERT_EQ(inline_rt.update_log().size(), 2u);
  EXPECT_GT(inline_rt.update_log()[0].additional_rules, 0u);
  EXPECT_EQ(inline_rt.update_log()[1].additional_rules, 0u);

  rt.enable_batching({0, 0});
  const auto batched_before = counter(rt, "sdx_fast_path_compositions_total");
  const auto flushes_before = counter(rt, "sdx_fast_path_batches_total");
  const auto flushed_before =
      counter(rt, "sdx_fast_path_batched_updates_total");
  rt.announce(c, p1, net::AsPath{65003});
  rt.announce(c, p2, net::AsPath{65003});
  EXPECT_EQ(rt.flush(), 2u);
  const auto batched_cost =
      counter(rt, "sdx_fast_path_compositions_total") - batched_before;
  EXPECT_EQ(batched_cost, inline_cost);  // exactly one shared walk
  EXPECT_EQ(counter(rt, "sdx_fast_path_batches_total") - flushes_before, 1u);
  EXPECT_EQ(
      counter(rt, "sdx_fast_path_batched_updates_total") - flushed_before,
      2u);
  EXPECT_EQ(test::flow_table_dump(rt), test::flow_table_dump(inline_rt));
  EXPECT_EQ(test::fib_crc(rt), test::fib_crc(inline_rt));

  // Shared signature ⇒ shared binding.
  ASSERT_TRUE(rt.current_binding(p1).has_value());
  EXPECT_EQ(rt.current_binding(p1)->vmac, rt.current_binding(p2)->vmac);
  EXPECT_EQ(inline_rt.current_binding(p1), inline_rt.current_binding(p2));
}

TEST_F(AsyncUpdatesFixture, SizeTriggeredAutoFlush) {
  rt.enable_batching({2, 0});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 1u);
  // A duplicate of a dirty prefix does not grow the batch.
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 1u);
  rt.announce(c, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 0u);  // hit max_pending → flushed
  EXPECT_EQ(counter(rt, "sdx_fast_path_batches_total"), 1u);
  EXPECT_EQ(egress(rt, a, "100.1.1.1", 53), rt.participant(c).ports[0].id);
}

TEST_F(AsyncUpdatesFixture, ClockTriggeredFlush) {
  rt.enable_batching({0, 1.0});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  rt.advance_clock(0.5);
  EXPECT_EQ(rt.pending_updates(), 1u);
  rt.advance_clock(0.6);  // 1.1s total > max_delay_seconds
  EXPECT_EQ(rt.pending_updates(), 0u);
  EXPECT_EQ(counter(rt, "sdx_fast_path_batches_total"), 1u);
}

TEST_F(AsyncUpdatesFixture, FlushPolicyOfOneFlushesAndReturnsInline) {
  rt.enable_batching({0, 0});
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 1u);
  rt.enable_batching({1, 0});
  EXPECT_EQ(rt.pending_updates(), 0u);
  // Subsequent updates run inline again.
  rt.announce(c, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003});
  EXPECT_EQ(rt.pending_updates(), 0u);
  EXPECT_EQ(egress(rt, a, "100.2.1.1", 53), rt.participant(c).ports[0].id);
}

TEST_F(AsyncUpdatesFixture, InlineUpdatesEqualExplicitFlushesOfOne) {
  // The default runtime flushes each update on arrival; the twin queues
  // every update and flushes it by hand. An inline update is a flush of
  // one, so both must deploy byte-identical tables, FIBs and ARP answers.
  SdxRuntime twin;
  build(twin);
  twin.enable_batching({0, 0});
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  const auto p3 = Ipv4Prefix::parse("100.3.0.0/16");
  const std::vector<std::function<void(SdxRuntime&)>> churn = {
      [&](SdxRuntime& r) { r.announce(c, p1, net::AsPath{65003}); },
      [&](SdxRuntime& r) { r.announce(c, p3, net::AsPath{65003}); },
      [&](SdxRuntime& r) { r.withdraw(b, p2); },
      [&](SdxRuntime& r) { r.announce(b, p3, net::AsPath{65002}); },
      [&](SdxRuntime& r) { r.withdraw(c, p1); },
      [&](SdxRuntime& r) { r.announce(b, p2, net::AsPath{65002, 7, 7}); },
  };
  for (const auto& update : churn) {
    update(rt);
    EXPECT_EQ(rt.pending_updates(), 0u);
    update(twin);
    ASSERT_EQ(twin.pending_updates(), 1u);
    EXPECT_EQ(twin.flush(), 1u);
  }
  EXPECT_EQ(test::flow_table_dump(rt), test::flow_table_dump(twin));
  EXPECT_EQ(test::fib_crc(rt), test::fib_crc(twin));
  EXPECT_EQ(test::arp_dump(rt), test::arp_dump(twin));
  // Both counted one flush of one per update.
  for (const char* name :
       {"sdx_fast_path_batches_total", "sdx_fast_path_batched_updates_total",
        "sdx_fast_path_updates_total"}) {
    EXPECT_EQ(counter(rt, name), churn.size()) << name;
    EXPECT_EQ(counter(twin, name), churn.size()) << name;
  }
}

TEST_F(AsyncUpdatesFixture, RecompileAdvertisesAPendingPrefixOnce) {
  // The swap re-advertises every RIB prefix; of the pending prefixes it
  // absorbs, only one that left the RIB needs a second pass.
  SdxRuntime wire;
  build(wire, /*install=*/false);
  wire.use_wire_distribution();
  wire.install();
  wire.enable_batching({0, 0});
  const std::size_t physical = wire.participants().size();

  // Pending, and still in the RIB: one UPDATE per prefix per participant.
  wire.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  ASSERT_EQ(wire.pending_updates(), 1u);
  auto before = counter(wire, "sdx_frontend_updates_total");
  wire.background_recompile();
  EXPECT_EQ(counter(wire, "sdx_frontend_updates_total") - before,
            wire.route_server().prefix_count() * physical);

  // Pending, and gone from the RIB: its withdrawal still goes out once.
  wire.withdraw(c, Ipv4Prefix::parse("100.9.0.0/16"));
  ASSERT_EQ(wire.pending_updates(), 1u);
  before = counter(wire, "sdx_frontend_updates_total");
  wire.background_recompile();
  EXPECT_EQ(counter(wire, "sdx_frontend_updates_total") - before,
            (wire.route_server().prefix_count() + 1) * physical);
  for (const auto& p : wire.participants()) {
    EXPECT_EQ(wire.router(p.id).rib().find(
                  Ipv4Prefix::parse("100.9.0.0/16")),
              nullptr);
  }
}

TEST_F(AsyncUpdatesFixture, SessionDownPurgesPendingBatch) {
  rt.enable_batching({0, 0});
  const auto pb1 = Ipv4Prefix::parse("100.1.0.0/16");
  rt.announce(b, pb1, net::AsPath{65002});           // pending, from B
  rt.announce(c, Ipv4Prefix::parse("100.9.0.0/16"),  // pending, from C
              net::AsPath{65003});
  ASSERT_EQ(rt.pending_updates(), 2u);

  // B's session drops while its update is still queued: the withdrawn
  // prefixes must leave the dirty set and shed their fast-path bindings —
  // no later flush may resurrect state for routes that no longer exist.
  rt.session_down(b);
  EXPECT_EQ(rt.pending_updates(), 0u);  // the rebuild absorbed the queue
  EXPECT_EQ(rt.flush(), 0u);
  EXPECT_EQ(rt.fabric().sdx_switch().table().size(),
            rt.compiled().fabric.size());  // no fast rules survived
  // B's prefixes are gone; C's announcement is live via the rebuild.
  EXPECT_EQ(egress(rt, a, "100.2.1.1", 53), net::PortId{0});
  EXPECT_EQ(egress(rt, a, "100.9.1.1", 53), rt.participant(c).ports[0].id);
}

TEST_F(AsyncUpdatesFixture, SessionDownEqualsWithdrawalsThenRecompile) {
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  for (const bool batched : {false, true}) {
    SCOPED_TRACE(batched ? "batched" : "inline");
    SdxRuntime drop;
    SdxRuntime twin;
    for (SdxRuntime* r : {&drop, &twin}) {
      build(*r);
      // B carries a policy the drop removes; C backs up B's first prefix,
      // so the drop moves it instead of removing it, and C's own update is
      // still queued when the drop lands in batched mode.
      r->set_outbound(b, {OutboundClause{ClauseMatch{}.dst_port(22), c}});
      r->background_recompile();
      if (batched) r->enable_batching({0, 0});
      r->announce(c, p1, net::AsPath{65003, 9, 9});
      r->announce(c, Ipv4Prefix::parse("100.3.0.0/16"), net::AsPath{65003});
    }
    const auto passes = counter(drop, "sdx_fast_path_updates_total");
    EXPECT_EQ(drop.session_down(b), 2u);
    // The recompile absorbs the withdrawals: no fast pass runs for them.
    EXPECT_EQ(counter(drop, "sdx_fast_path_updates_total"), passes);

    twin.set_outbound(b, {});
    twin.withdraw(b, p1);
    twin.withdraw(b, p2);
    twin.background_recompile();

    EXPECT_EQ(test::flow_table_dump(drop), test::flow_table_dump(twin));
    EXPECT_EQ(test::fib_crc(drop), test::fib_crc(twin));
    EXPECT_EQ(test::arp_dump(drop), test::arp_dump(twin));
    // The twin's inline fast passes bound VNHs that its recompile dropped.
    EXPECT_EQ(drop.fabric().arp().size(), twin.fabric().arp().size());
    EXPECT_EQ(test::arp_table_dump(drop), test::arp_table_dump(twin));
    EXPECT_EQ(drop.pending_updates(), 0u);
    EXPECT_EQ(twin.pending_updates(), 0u);
  }
}

TEST_F(AsyncUpdatesFixture, RecompileDropsSupersededFastPathBindings) {
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const auto p2 = Ipv4Prefix::parse("100.2.0.0/16");
  const auto p3 = Ipv4Prefix::parse("100.3.0.0/16");
  // C takes over B's prefixes one flush at a time, then B wins the first
  // back: p1's takeover binds one fresh VNH, p2 joins it, p3 (C's alone,
  // like 100.9/16) joins 100.9/16's compiled group, and p1's withdrawal
  // returns it to its compiled group.
  const auto churn = [&](SdxRuntime& r, bool flush) {
    r.announce(c, p1, net::AsPath{65003});
    if (flush) r.flush();
    r.announce(c, p2, net::AsPath{65003});
    r.announce(c, p3, net::AsPath{65003});
    if (flush) r.flush();
    r.withdraw(c, p1);
    if (flush) r.flush();
  };
  rt.enable_batching({0, 0});
  const std::size_t routers = 3;
  const std::size_t groups = rt.compiled().bindings.size();
  ASSERT_EQ(groups, 2u);  // {100.1, 100.2} and {100.9}
  churn(rt, true);
  // Exactly one fast-path binding is live, and nothing else was bound.
  EXPECT_EQ(rt.fabric().arp().size(), routers + groups + 1);
  EXPECT_EQ(rt.telemetry().metrics.gauge("sdx_fast_path_bindings").value(),
            1.0);
  ASSERT_TRUE(rt.current_binding(p2).has_value());
  EXPECT_NE(rt.current_binding(p2), rt.compiled().binding_for(p2));
  EXPECT_EQ(rt.current_binding(p1), rt.compiled().binding_for(p1));
  EXPECT_EQ(rt.current_binding(p3),
            rt.compiled().binding_for(Ipv4Prefix::parse("100.9.0.0/16")));
  rt.background_recompile();

  SdxRuntime twin;  // the same RIB and policies, installed once
  build(twin, false);
  churn(twin, false);
  twin.install();

  EXPECT_EQ(test::flow_table_dump(rt), test::flow_table_dump(twin));
  EXPECT_EQ(test::fib_crc(rt), test::fib_crc(twin));
  EXPECT_EQ(test::arp_table_dump(rt), test::arp_table_dump(twin));
  // The recompile drops the fast binding: {p1}, {p2} and {p3, 100.9/16}.
  EXPECT_EQ(rt.fabric().arp().size(), routers + 3);
  EXPECT_EQ(rt.fabric().sdx_switch().table().size(),
            rt.compiled().fabric.size());
}

TEST_F(AsyncUpdatesFixture, PostInstallPolicyChangeRedeploysAtOnce) {
  // Policies are compiled, not fast-pathed: in pairwise mode a change after
  // install() redeploys before the call returns, bit-for-bit what a runtime
  // holding the policy from the start installs. 100.1/16 is announced by B
  // and C, so both of A's clauses reach it and it stays in a base group
  // while its traffic moves with each change.
  const auto p1 = Ipv4Prefix::parse("100.1.0.0/16");
  const std::vector<OutboundClause> outbound = {
      OutboundClause{ClauseMatch{}.dst_port(80), c},
      OutboundClause{ClauseMatch{}.dst_port(443), b}};
  const std::vector<InboundClause> inbound = {
      InboundClause{ClauseMatch{}.dst_port(80), {}, 1}};
  // C has two ports here, so its inbound clause moves traffic between them.
  const auto setup = [&](SdxRuntime& r, bool with_outbound,
                         bool with_inbound) {
    r.add_participant("A", 65001);
    r.add_participant("B", 65002);
    r.add_participant("C", 65003, 2);
    r.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                       OutboundClause{ClauseMatch{}.dst_port(443), c}});
    if (with_outbound) r.set_outbound(a, outbound);
    if (with_inbound) r.set_inbound(c, inbound);
    r.announce(b, p1, net::AsPath{65002, 7});
    r.announce(c, p1, net::AsPath{65003, 7, 8});
    r.announce(c, Ipv4Prefix::parse("100.9.0.0/16"), net::AsPath{65003});
    r.install();
  };
  SdxRuntime live, golden_out, golden_both;
  setup(live, false, false);
  setup(golden_out, true, false);
  setup(golden_both, true, true);
  const auto port = [&](ParticipantId id, std::size_t k) {
    return live.participant(id).ports[k].id;
  };
  ASSERT_TRUE(live.current_group(p1).has_value());
  EXPECT_EQ(egress(live, a, "100.1.2.3", 80), port(b, 0));
  EXPECT_EQ(egress(live, a, "100.1.2.3", 443), port(c, 0));
  const auto compiles = [](SdxRuntime& r) {
    return r.telemetry().metrics.counter("sdx_compile_runs_total").value();
  };
  const auto runs = compiles(live);

  live.set_outbound(a, outbound);
  EXPECT_EQ(compiles(live), runs + 1);
  EXPECT_EQ(live.compiled().fingerprint(), golden_out.compiled().fingerprint());
  EXPECT_EQ(test::flow_table_dump(live), test::flow_table_dump(golden_out));
  EXPECT_TRUE(live.current_group(p1).has_value());
  EXPECT_EQ(egress(live, a, "100.1.2.3", 80), port(c, 0));
  EXPECT_EQ(egress(live, a, "100.1.2.3", 443), port(b, 0));

  live.set_inbound(c, inbound);
  EXPECT_EQ(compiles(live), runs + 2);
  EXPECT_EQ(live.compiled().fingerprint(),
            golden_both.compiled().fingerprint());
  EXPECT_EQ(test::flow_table_dump(live), test::flow_table_dump(golden_both));
  EXPECT_TRUE(live.current_group(p1).has_value());
  EXPECT_EQ(egress(live, a, "100.1.2.3", 80), port(c, 1));
  EXPECT_EQ(egress(live, a, "100.1.2.3", 443), port(b, 0));
}

// --- bounded update log -----------------------------------------------------

TEST_F(AsyncUpdatesFixture, UpdateLogIsBoundedRing) {
  // Two updates more than the ring holds, in one flush: the oldest two
  // drop, and the ring never grows past its capacity.
  constexpr std::size_t kCap = SdxRuntime::kUpdateLogCapacity;
  std::vector<Ipv4Prefix> prefixes;
  for (std::uint32_t i = 0; i < kCap + 2; ++i) {
    prefixes.emplace_back(net::Ipv4Address((101u << 24) | (i << 8)), 24);
  }
  rt.enable_batching({0, 0});
  for (auto prefix : prefixes) rt.announce(c, prefix, net::AsPath{65003});
  EXPECT_EQ(rt.flush(), kCap + 2);
  ASSERT_EQ(rt.update_log().size(), kCap);
  EXPECT_EQ(rt.update_log().front().prefix, prefixes[2]);
  EXPECT_EQ(rt.update_log().back().prefix, prefixes.back());

  // One more inline update still holds the ring at capacity.
  rt.enable_batching({1, 0});
  rt.announce(c, prefixes[0], net::AsPath{65003, 7});
  ASSERT_EQ(rt.update_log().size(), kCap);
  EXPECT_EQ(rt.update_log().front().prefix, prefixes[3]);
  EXPECT_EQ(rt.update_log().back().prefix, prefixes[0]);
}

TEST_F(AsyncUpdatesFixture, RecompileClearsSupersededLogEntries) {
  rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003});
  ASSERT_FALSE(rt.update_log().empty());
  rt.background_recompile();
  EXPECT_TRUE(rt.update_log().empty());
}

// --- thread-pool task submission --------------------------------------------

TEST(ThreadPoolSubmit, RunsTaskAndCompletesFuture) {
  net::ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.submit([&] { ran.fetch_add(1); });
  f.wait();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPoolSubmit, RunsOffTheCallingThread) {
  net::ThreadPool pool(2);
  std::thread::id worker_id;
  pool.submit([&] { worker_id = std::this_thread::get_id(); }).wait();
  EXPECT_NE(worker_id, std::this_thread::get_id());
}

TEST(ThreadPoolSubmit, SerialPoolRunsInline) {
  net::ThreadPool pool(1);
  std::thread::id worker_id;
  auto f = pool.submit([&] { worker_id = std::this_thread::get_id(); });
  EXPECT_EQ(worker_id, std::this_thread::get_id());  // already ran
  f.wait();
}

TEST(ThreadPoolSubmit, ManyTasksAllComplete) {
  net::ThreadPool pool(4);
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 64; ++i) {
    futures.push_back(pool.submit([&] { ran.fetch_add(1); }));
  }
  for (auto& f : futures) f.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPoolSubmit, TaskExceptionSurfacesThroughFuture) {
  net::ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPoolSubmit, CoexistsWithParallelFor) {
  net::ThreadPool pool(4);
  std::atomic<int> ran{0};
  auto f = pool.submit([&] { ran.fetch_add(1); });
  std::atomic<int> sum{0};
  pool.parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
    sum.fetch_add(static_cast<int>(end - begin));
  });
  f.wait();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_EQ(sum.load(), 100);
}

}  // namespace
}  // namespace sdx::core
