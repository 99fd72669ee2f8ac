/// Tests for the event-driven BGP ingest subsystem: reactor primitives,
/// spill-queue backpressure and DRR fairness, the loopback TCP path end
/// to end into an SdxRuntime (sessions, framing, FSM, telemetry), the
/// zero-drop guarantee under a queue sized far below the offered load,
/// client auto-reconnect across a listener restart, and MRT replay as an
/// ingest source (trace + RIB flavors, torn-tail reporting).

#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>
#include <vector>

#include "bgp/mrt.hpp"
#include "ingest/mrt_source.hpp"
#include "ingest/pipeline.hpp"
#include "ingest/reactor.hpp"
#include "ingest/replay_client.hpp"
#include "ingest/spill_queue.hpp"
#include "sdx/runtime.hpp"

namespace sdx::ingest {
namespace {

using namespace std::chrono_literals;

// --- Reactor ----------------------------------------------------------------

TEST(Reactor, DispatchesReadableFds) {
  Reactor reactor;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int fired = 0;
  reactor.add(fds[0], EPOLLIN, [&](std::uint32_t) {
    char buf[8];
    EXPECT_GT(::read(fds[0], buf, sizeof buf), 0);
    ++fired;
  });
  EXPECT_EQ(reactor.fd_count(), 1u);

  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  EXPECT_EQ(reactor.run_once(100), 1);
  EXPECT_EQ(fired, 1);

  // Nothing pending: poll times out with no dispatch.
  EXPECT_EQ(reactor.run_once(0), 0);

  reactor.remove(fds[0]);
  EXPECT_EQ(reactor.fd_count(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, PostedTasksRunOnTheReactorThread) {
  Reactor reactor;
  std::thread::id reactor_tid;
  std::atomic<bool> ran{false};
  std::thread t([&] {
    reactor_tid = std::this_thread::get_id();
    reactor.run();
  });
  std::thread::id posted_tid;
  reactor.post([&] {
    posted_tid = std::this_thread::get_id();
    ran = true;
    reactor.stop();
  });
  t.join();
  EXPECT_TRUE(ran);
  EXPECT_EQ(posted_tid, reactor_tid);
}

TEST(Reactor, TimersFireInDeadlineOrder) {
  Reactor reactor;
  std::vector<int> order;
  reactor.add_timer(0.02, [&] { order.push_back(2); });
  reactor.add_timer(0.005, [&] { order.push_back(1); });
  const auto cancelled = reactor.add_timer(0.01, [&] { order.push_back(99); });
  reactor.cancel_timer(cancelled);
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (order.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    reactor.run_once(50);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Reactor, LatePollFiresDueTimersInDeadlineOrder) {
  // Both deadlines pass before the one poll that finds them due: the later
  // timer was added first, but the earlier deadline must still fire first.
  Reactor reactor;
  std::vector<int> order;
  reactor.add_timer(0.002, [&] { order.push_back(2); });
  reactor.add_timer(0.001, [&] { order.push_back(1); });
  std::this_thread::sleep_for(10ms);
  reactor.run_once(0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
}

TEST(Reactor, RestartAfterStop) {
  Reactor reactor;
  reactor.stop();
  EXPECT_TRUE(reactor.stopped());
  reactor.restart();
  EXPECT_FALSE(reactor.stopped());
  std::atomic<bool> ran{false};
  std::thread t([&] { reactor.run(); });
  reactor.post([&] {
    ran = true;
    reactor.stop();
  });
  t.join();
  EXPECT_TRUE(ran);
}

// --- SpillQueue -------------------------------------------------------------

IngestedUpdate make_update(core::ParticipantId peer, unsigned seq) {
  IngestedUpdate u;
  u.participant = peer;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{65000 + peer};
  attrs.next_hop = net::Ipv4Address::parse("10.0.0.1");
  u.update.attrs = attrs;
  u.update.nlri = {net::Ipv4Prefix(
      net::Ipv4Address((198u << 24) | (peer << 16) | (seq << 8)), 24)};
  u.enqueued = std::chrono::steady_clock::now();
  return u;
}

TEST(SpillQueue, RefusesAtPeerQuotaAndReportsShed) {
  SpillQueue::Options opt;
  opt.capacity = 100;
  opt.per_peer_quota = 4;
  SpillQueue q(opt);
  for (unsigned i = 0; i < 4; ++i) {
    auto u = make_update(1, i);
    EXPECT_TRUE(q.try_push(1, u));
  }
  auto refused = make_update(1, 99);
  EXPECT_FALSE(q.try_push(1, refused));
  // Refused updates are left intact for stashing.
  EXPECT_EQ(refused.participant, 1u);
  EXPECT_FALSE(refused.update.nlri.empty());
  EXPECT_TRUE(q.blocked(1));
  EXPECT_EQ(q.shed_events(), 1u);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.peer_depth(1), 4u);
  // Another peer still has room under the global bound.
  auto other = make_update(2, 0);
  EXPECT_TRUE(q.try_push(2, other));
  EXPECT_EQ(q.drops(), 0u);
}

TEST(SpillQueue, RefusesAtGlobalCapacity) {
  SpillQueue::Options opt;
  opt.capacity = 6;
  opt.per_peer_quota = 100;
  SpillQueue q(opt);
  for (unsigned i = 0; i < 6; ++i) {
    auto u = make_update(1 + (i % 3), i);
    EXPECT_TRUE(q.try_push(1 + (i % 3), u));
  }
  auto refused = make_update(9, 0);
  EXPECT_FALSE(q.try_push(9, refused));
  EXPECT_TRUE(q.blocked(9));
}

TEST(SpillQueue, SpaceCallbackFiresOnceDrainedBelowWatermark) {
  SpillQueue::Options opt;
  opt.capacity = 8;
  opt.per_peer_quota = 8;
  opt.drr_quantum = 8;
  SpillQueue q(opt);
  for (unsigned i = 0; i < 8; ++i) {
    auto u = make_update(1, i);
    ASSERT_TRUE(q.try_push(1, u));
  }
  auto refused = make_update(1, 99);
  ASSERT_FALSE(q.try_push(1, refused));

  std::vector<core::ParticipantId> resumed;
  q.set_space_callback([&](core::ParticipantId id) { resumed.push_back(id); });

  std::vector<IngestedUpdate> out;
  q.drain(2, out);  // depth 6 > capacity/2: still over the watermark
  EXPECT_TRUE(resumed.empty());
  q.drain(2, out);  // depth 4 == capacity/2: resumable now
  ASSERT_EQ(resumed.size(), 1u);
  EXPECT_EQ(resumed[0], 1u);
  EXPECT_FALSE(q.blocked(1));
}

TEST(SpillQueue, DeficitRoundRobinDoesNotStarveQuietPeers) {
  SpillQueue::Options opt;
  opt.drr_quantum = 8;
  SpillQueue q(opt);
  for (unsigned i = 0; i < 40; ++i) {
    auto u = make_update(1, i);  // noisy peer with a deep backlog
    ASSERT_TRUE(q.try_push(1, u));
  }
  for (unsigned i = 0; i < 8; ++i) {
    auto u = make_update(2, i);  // quiet peer
    ASSERT_TRUE(q.try_push(2, u));
  }
  std::vector<IngestedUpdate> out;
  EXPECT_EQ(q.drain(16, out), 16u);
  std::size_t from_quiet = 0;
  for (const auto& u : out) from_quiet += u.participant == 2;
  // One DRR round: 8 credits each — the quiet peer's whole backlog rides
  // the first batch despite the noisy peer's depth.
  EXPECT_EQ(from_quiet, 8u);
  // Everything eventually drains, in total.
  while (q.drain(16, out) > 0) {
  }
  EXPECT_EQ(out.size(), 48u);
  EXPECT_EQ(q.depth(), 0u);
  EXPECT_EQ(q.pushed(), 48u);
  EXPECT_EQ(q.drained(), 48u);
}

TEST(SpillQueue, BlockingPushWaitsForDrainAndHonorsGiveUp) {
  SpillQueue::Options opt;
  opt.capacity = 4;
  opt.per_peer_quota = 4;
  SpillQueue q(opt);
  for (unsigned i = 0; i < 4; ++i) {
    auto u = make_update(1, i);
    ASSERT_TRUE(q.try_push(1, u));
  }
  // give_up stops a push that would otherwise wait forever.
  EXPECT_FALSE(q.push_blocking(1, make_update(1, 90), [] { return true; }));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push_blocking(1, make_update(1, 91)));
    pushed = true;
  });
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(pushed);
  std::vector<IngestedUpdate> out;
  while (!pushed) {
    q.drain(4, out);
    std::this_thread::sleep_for(1ms);
  }
  producer.join();
  EXPECT_GE(out.size(), 4u);
}

// --- Loopback end-to-end ----------------------------------------------------

bgp::UpdateMessage announce_update(net::Asn asn, unsigned seq) {
  bgp::UpdateMessage u;
  bgp::RouteAttributes attrs;
  attrs.as_path = net::AsPath{asn};
  attrs.next_hop = net::Ipv4Address::parse("10.0.0.1");
  u.attrs = attrs;
  u.nlri = {net::Ipv4Prefix(
      net::Ipv4Address((100u << 24) | ((asn & 0xff) << 16) | (seq << 8)), 24)};
  return u;
}

/// Drains the pipeline until \p target updates have been applied (the
/// reactor thread decodes asynchronously) or the deadline passes.
void drain_until(IngestPipeline& pipeline, std::uint64_t target,
                 std::chrono::seconds budget = 10s) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  while (pipeline.applied() < target &&
         std::chrono::steady_clock::now() < deadline) {
    if (pipeline.drain() == 0) std::this_thread::sleep_for(1ms);
  }
}

class IngestLoopbackTest : public ::testing::Test {
 protected:
  IngestLoopbackTest() {
    p1_ = rt_.add_participant("a", 65001, 1);
    p2_ = rt_.add_participant("b", 65002, 1);
  }

  static BgpReplayClient::Options client_options(net::Asn asn) {
    BgpReplayClient::Options o;
    o.asn = asn;
    o.router_id = net::Ipv4Address(0x0a000000u | asn);
    return o;
  }

  core::SdxRuntime rt_;
  core::ParticipantId p1_ = 0;
  core::ParticipantId p2_ = 0;
};

TEST_F(IngestLoopbackTest, SessionsEstablishAndUpdatesInstall) {
  IngestPipeline::Options opt;
  opt.listener.hold_time = 0;  // deterministic: no keepalive ticking
  IngestPipeline pipeline(rt_, opt);
  const auto port = pipeline.start();
  ASSERT_GT(port, 0);

  BgpReplayClient c1(client_options(65001));
  BgpReplayClient c2(client_options(65002));
  c1.connect(port);
  c2.connect(port);
  EXPECT_TRUE(c1.established());
  EXPECT_TRUE(c2.established());

  constexpr unsigned kPerClient = 50;
  for (unsigned i = 0; i < kPerClient; ++i) {
    c1.send_update(announce_update(65001, i));
    c2.send_update(announce_update(65002, i));
  }
  drain_until(pipeline, 2 * kPerClient);
  EXPECT_EQ(pipeline.applied(), 2 * kPerClient);

  // Routes landed in the route server, attributed to the right peers.
  auto& server = rt_.route_server();
  const auto from_p1 = announce_update(65001, 7).nlri.front();
  const auto from_p2 = announce_update(65002, 3).nlri.front();
  auto best1 = server.best_route(p2_, from_p1);
  ASSERT_TRUE(best1.has_value());
  EXPECT_EQ(best1->learned_from, p1_);
  auto best2 = server.best_route(p1_, from_p2);
  ASSERT_TRUE(best2.has_value());
  EXPECT_EQ(best2->learned_from, p2_);

  EXPECT_EQ(pipeline.listener().sessions(), 2u);
  EXPECT_EQ(pipeline.listener().updates_received(), 2 * kPerClient);
  EXPECT_EQ(pipeline.queue().drops(), 0u);

  // Telemetry: every ingest series is exported, drops pinned at zero.
  pipeline.refresh_metrics();
  const auto metrics = rt_.dump_metrics();
  EXPECT_NE(metrics.find("sdx_ingest_sessions 2"), std::string::npos);
  EXPECT_NE(metrics.find("sdx_ingest_applied_total 100"), std::string::npos);
  EXPECT_NE(metrics.find("sdx_ingest_dropped_total 0"), std::string::npos);
  EXPECT_NE(metrics.find("sdx_ingest_install_latency_seconds_count"),
            std::string::npos);

  c1.close();
  c2.close();
  pipeline.stop();
}

TEST_F(IngestLoopbackTest, UnknownAsnIsRejectedWithCease) {
  IngestPipeline::Options opt;
  opt.listener.hold_time = 0;
  IngestPipeline pipeline(rt_, opt);
  const auto port = pipeline.start();

  auto o = client_options(64000);  // no participant speaks AS 64000
  o.max_attempts = 2;
  o.initial_backoff_seconds = 0.001;
  BgpReplayClient rejected(o);
  // RFC 4271 timing: the server validates the peer only once its side of
  // the handshake completes (the client's KEEPALIVE arrives), so the
  // client may observe a fully established session for an instant before
  // the Cease NOTIFICATION tears it down.
  try {
    rejected.connect(port);
  } catch (const std::runtime_error&) {
    // Also fine: the Cease raced ahead of the client's Established.
  }
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (pipeline.listener().open_rejected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GE(pipeline.listener().open_rejected(), 1u);
  while (rejected.poll_input() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_FALSE(rejected.established());
  EXPECT_EQ(pipeline.listener().sessions(), 0u);
  pipeline.refresh_metrics();
  EXPECT_NE(rt_.dump_metrics().find("sdx_ingest_open_rejected_total"),
            std::string::npos);
  pipeline.stop();
}

TEST_F(IngestLoopbackTest, BackpressureShedsReadsButDropsNothing) {
  IngestPipeline::Options opt;
  opt.listener.hold_time = 0;
  // A queue sized far below the offered load: backpressure must engage.
  opt.queue.capacity = 32;
  opt.queue.per_peer_quota = 16;
  opt.drain_batch = 16;
  IngestPipeline pipeline(rt_, opt);
  const auto port = pipeline.start();

  constexpr unsigned kUpdates = 1500;
  BgpReplayClient client(client_options(65001));
  client.connect(port);
  std::thread producer([&] {
    for (unsigned i = 0; i < kUpdates; ++i) {
      client.send_update(announce_update(65001, i % 200));
    }
  });

  drain_until(pipeline, kUpdates, 30s);
  producer.join();
  drain_until(pipeline, kUpdates, 30s);

  // Every update arrived exactly once; the only loss mechanism is TCP
  // backpressure, which loses nothing.
  EXPECT_EQ(pipeline.applied(), kUpdates);
  EXPECT_EQ(pipeline.listener().updates_received(), kUpdates);
  EXPECT_EQ(pipeline.queue().drops(), 0u);
  EXPECT_GT(pipeline.queue().shed_events(), 0u);
  pipeline.refresh_metrics();
  const auto metrics = rt_.dump_metrics();
  EXPECT_NE(metrics.find("sdx_ingest_dropped_total 0"), std::string::npos);
  pipeline.stop();
}

TEST_F(IngestLoopbackTest, ClientReconnectsAfterListenerRestart) {
  IngestPipeline::Options opt;
  opt.listener.hold_time = 0;
  IngestPipeline pipeline(rt_, opt);
  const auto port = pipeline.start();

  auto o = client_options(65001);
  o.initial_backoff_seconds = 0.005;
  BgpReplayClient client(o);
  client.connect(port);
  client.send_update(announce_update(65001, 0));
  drain_until(pipeline, 1);
  ASSERT_EQ(pipeline.applied(), 1u);
  EXPECT_EQ(client.reconnects(), 0u);

  // Bounce the listener: every session drops, the port is rebound.
  pipeline.stop();
  ASSERT_EQ(pipeline.start(port), port);

  // The client notices the close and transparently redials on next use.
  EXPECT_FALSE(client.poll_input());
  client.send_update(announce_update(65001, 1));
  EXPECT_EQ(client.reconnects(), 1u);
  EXPECT_TRUE(client.established());
  drain_until(pipeline, 2);
  EXPECT_EQ(pipeline.applied(), 2u);
  pipeline.stop();
}

TEST_F(IngestLoopbackTest, WithdrawalsFlowThroughTheSamePath) {
  IngestPipeline::Options opt;
  opt.listener.hold_time = 0;
  IngestPipeline pipeline(rt_, opt);
  const auto port = pipeline.start();
  BgpReplayClient client(client_options(65001));
  client.connect(port);

  const auto announced = announce_update(65001, 0);
  client.send_update(announced);
  drain_until(pipeline, 1);
  ASSERT_TRUE(
      rt_.route_server().best_route(p2_, announced.nlri.front()).has_value());

  bgp::UpdateMessage withdraw;
  withdraw.withdrawn = announced.nlri;
  client.send_update(withdraw);
  drain_until(pipeline, 2);
  EXPECT_FALSE(
      rt_.route_server().best_route(p2_, announced.nlri.front()).has_value());
  pipeline.stop();
}

// --- MRT replay as an ingest source -----------------------------------------

bgp::MrtRecord trace_record(std::uint32_t ts, net::Asn peer_as, unsigned seq,
                            const bgp::Message& message) {
  bgp::Bgp4mpMessage m;
  m.peer_as = peer_as;
  m.local_as = 64999;
  m.peer_ip = net::Ipv4Address(0x0a000000u | peer_as);
  m.local_ip = net::Ipv4Address::parse("10.0.0.254");
  m.message = message;
  static_cast<void>(seq);
  return bgp::encode_bgp4mp(ts, m);
}

TEST(MrtReplay, TraceStreamsIntoTheQueue) {
  std::stringstream ss;
  constexpr unsigned kUpdates = 25;
  for (unsigned i = 0; i < kUpdates; ++i) {
    bgp::write_record(ss, trace_record(i, 65001, i,
                                       announce_update(65001, i)));
  }
  // Non-UPDATE wrappers and unmapped peers are skipped, not errors.
  bgp::write_record(ss, trace_record(99, 65001, 0, bgp::KeepaliveMessage{}));
  bgp::write_record(ss, trace_record(99, 64000, 0, announce_update(64000, 0)));

  SpillQueue queue;
  MrtReplaySource source(
      {}, [](net::Asn as, net::Ipv4Address) -> std::optional<core::ParticipantId> {
        if (as == 65001) return 1;
        return std::nullopt;
      });
  const auto result = source.replay_trace(ss, queue);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.updates, kUpdates);
  EXPECT_EQ(result.skipped, 2u);
  EXPECT_EQ(result.records, kUpdates + 2);
  EXPECT_EQ(queue.depth(), kUpdates);

  std::vector<IngestedUpdate> out;
  while (queue.drain(64, out) > 0) {
  }
  ASSERT_EQ(out.size(), kUpdates);
  for (const auto& u : out) EXPECT_EQ(u.participant, 1u);
}

TEST(MrtReplay, TornTrailingRecordIsReportedNotThrown) {
  std::stringstream ss;
  for (unsigned i = 0; i < 5; ++i) {
    bgp::write_record(ss, trace_record(i, 65001, i,
                                       announce_update(65001, i)));
  }
  std::string data = ss.str();
  data.resize(data.size() - 7);  // tear the last record mid-body
  std::istringstream torn(data);

  SpillQueue queue;
  MrtReplaySource source(
      {}, [](net::Asn, net::Ipv4Address) { return std::optional<core::ParticipantId>(1); });
  const auto result = source.replay_trace(torn, queue);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.tail, bgp::MrtReadStatus::kTruncated);
  EXPECT_FALSE(result.error.empty());
  // Everything before the tear was still delivered.
  EXPECT_EQ(result.updates, 4u);
  EXPECT_EQ(queue.depth(), 4u);
}

TEST(MrtReplay, GiveUpStopsABlockedReplay) {
  std::stringstream ss;
  for (unsigned i = 0; i < 10; ++i) {
    bgp::write_record(ss, trace_record(i, 65001, i,
                                       announce_update(65001, i)));
  }
  SpillQueue::Options opt;
  opt.capacity = 4;
  SpillQueue queue(opt);
  MrtReplaySource source(
      {}, [](net::Asn, net::Ipv4Address) { return std::optional<core::ParticipantId>(1); });
  // Nothing drains, so the replay fills the queue and would block forever
  // on the fifth push; the give_up predicate stops it at the bound.
  const auto result =
      source.replay_trace(ss, queue, [&] { return queue.depth() >= 4; });
  EXPECT_TRUE(result.gave_up);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.updates, 4u);
  EXPECT_EQ(queue.depth(), 4u);
  EXPECT_EQ(queue.drops(), 0u);
}

TEST(MrtReplay, RibSnapshotReplaysAsAnnouncements) {
  bgp::RouteServer server;
  server.add_peer({1, 65001, net::Ipv4Address::parse("10.0.0.1")});
  server.add_peer({2, 65002, net::Ipv4Address::parse("10.0.0.2")});
  auto route = [](const char* prefix, std::initializer_list<net::Asn> path,
                  core::ParticipantId from, const char* id) {
    bgp::Route r;
    r.prefix = net::Ipv4Prefix::parse(prefix);
    r.attrs.as_path = net::AsPath(path);
    r.attrs.next_hop = net::Ipv4Address::parse(id);
    r.learned_from = from;
    r.peer_router_id = net::Ipv4Address::parse(id);
    return r;
  };
  server.announce(route("100.1.0.0/16", {65001, 7}, 1, "10.0.0.1"));
  server.announce(route("100.2.0.0/16", {65002}, 2, "10.0.0.2"));
  server.announce(route("100.3.0.0/16", {65001}, 1, "10.0.0.1"));

  std::stringstream ss;
  bgp::write_rib_dump(ss, server, 1388534400);

  SpillQueue queue;
  MrtReplaySource source(
      {}, [](net::Asn as, net::Ipv4Address) -> std::optional<core::ParticipantId> {
        if (as == 65001) return 11;
        if (as == 65002) return 22;
        return std::nullopt;
      });
  const auto result = source.replay_rib(ss, queue);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.updates, 3u);

  std::vector<IngestedUpdate> out;
  while (queue.drain(64, out) > 0) {
  }
  ASSERT_EQ(out.size(), 3u);
  std::size_t from_one = 0, from_two = 0;
  for (const auto& u : out) {
    from_one += u.participant == 11;
    from_two += u.participant == 22;
    ASSERT_TRUE(u.update.attrs.has_value());
    ASSERT_EQ(u.update.nlri.size(), 1u);
  }
  EXPECT_EQ(from_one, 2u);
  EXPECT_EQ(from_two, 1u);
}

}  // namespace
}  // namespace sdx::ingest
