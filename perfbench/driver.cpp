/// Closed-loop update-to-forwarding benchmark driver (see README.md).
///
/// One control thread drives the SDX libraries through their public calls
/// along the update path of paper §4.3:
///
///   MRT BGP4MP bytes --replay_trace--> SpillQueue --drain--> announce /
///   withdraw (route server) --flush--> fast-path compile, flow-table
///   install, ARP bind, re-advertisement [, incremental safety check]
///
/// and, on the `traffic` workload, pushes a fixed packet volume through the
/// live table after every flush. Each burst is handed over only after the
/// previous one is live (closed loop): there is no second thread, socket,
/// sleep or wall-clock pacing, so a latency sample is the program's own
/// cost, never a backlog. One process runs one instance (an exchange, its
/// trace and its traffic, all derived from the seed and the instance
/// index); run.py starts the instances of a run and pools their samples.
///
/// Usage:
///   sdx_perfbench --workload traffic|verified --seed N --instance K
///                 --trace 0|1 [--size full|tiny] [--spans FILE]
///
/// Prints one JSON object: the instance's samples, exact counts and
/// correctness outcome. Exits 1 when any correctness check failed, 2 on bad
/// arguments.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/mrt.hpp"
#include "ingest/mrt_source.hpp"
#include "ingest/spill_queue.hpp"
#include "ixp/ixp_generator.hpp"
#include "ixp/update_trace.hpp"
#include "netbase/rng.hpp"
#include "sdx/oracle.hpp"
#include "sdx/runtime.hpp"

namespace {

using namespace sdx;
using Clock = std::chrono::steady_clock;

/// Compile width for install(): fixed so every workload and every machine
/// with at least this many hardware threads runs the same configuration.
constexpr unsigned kCompileThreads = 2;
/// Packets per send_batch call.
constexpr std::size_t kBurstPackets = 64;
/// Packets compared against core::oracle_forward after the episode.
constexpr std::size_t kOracleSample = 512;
/// A new update burst starts wherever the trace is quiet this long (s).
constexpr double kBurstGapSeconds = 1.0;

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  std::size_t participants = 0;
  std::size_t prefixes = 0;
  double days = 0;
  /// Packets pushed through send_batch after every flush (0 = none).
  std::size_t packets_per_flush = 0;
  /// Packets pushed after the trace against the settled table, on
  /// workloads without interleaved traffic (so `mpps` exists everywhere).
  std::size_t settled_packets = 0;
  bool verify = false;
};

bool make_workload(const std::string& name, const std::string& size,
                   Workload& w) {
  if (name == "traffic") {
    w = {name, 100, 5000, 6.0, 8 * kBurstPackets, 0, false};
  } else if (name == "verified") {
    // Incremental verification costs ~17 ms a flush at 50 members and 2000
    // prefixes and ~5 ms at 30 and 1200; at this size (~2 ms) sixteen
    // exchanges and ~17k flushes fit in one run, enough for a steady p99.
    w = {name, 20, 800, 3.0, 0, 4096 * kBurstPackets, true};
  } else {
    return false;
  }
  if (size == "tiny") {
    w.participants = std::min<std::size_t>(w.participants, 16);
    w.prefixes = std::min<std::size_t>(w.prefixes, 300);
    w.days = 0.5;
    w.packets_per_flush = w.packets_per_flush ? 4 * kBurstPackets : 0;
    w.settled_packets = w.settled_packets ? 16 * kBurstPackets : 0;
  } else if (size != "full") {
    return false;
  }
  return true;
}

/// Independent stream seeds derived from the one workload seed.
std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  net::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + stream);
  rng();
  return rng();
}

enum Stream : std::uint64_t {
  kIxpStream = 1,
  kPolicyStream,
  kPolicyPrefixStream,
  kTraceStream,
  kAnnouncerStream,
  kTrafficStream,
  kOracleStream,
  kInstanceStream = 1000,
};

// ---------------------------------------------------------------------------
// Inputs, generated per instance from its seed and never timed

struct Inputs {
  ixp::GeneratedIxp ixp;
  std::unordered_map<net::Asn, core::ParticipantId> by_asn;
  std::string rib;  ///< TABLE_DUMP_V2 snapshot
  std::size_t rib_routes = 0;
  std::vector<std::string> bursts;  ///< BGP4MP records, one string per burst
  std::vector<std::size_t> burst_updates;
  /// Prefixes each burst touched (the traffic mix aims a share at these).
  std::vector<std::vector<net::Ipv4Prefix>> burst_prefixes;
  std::size_t trace_updates = 0;
};

Inputs prepare_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  ixp::GeneratorConfig gcfg;
  gcfg.participants = w.participants;
  gcfg.prefixes = w.prefixes;
  gcfg.seed = derive(seed, kIxpStream);
  in.ixp = ixp::generate_ixp(gcfg);
  ixp::PolicySynthConfig pcfg;
  pcfg.seed = derive(seed, kPolicyStream);
  pcfg.policy_prefixes = ixp::sample_policy_prefixes(
      in.ixp, w.prefixes / 5, derive(seed, kPolicyPrefixStream));
  ixp::synthesize_policies(in.ixp, pcfg);
  for (const auto& p : in.ixp.participants) in.by_asn[p.asn] = p.id;

  std::ostringstream rib;
  bgp::write_rib_dump(rib, in.ixp.server);
  in.rib = rib.str();

  // Who advertises each prefix in the RIB, and who still holds a route to
  // it as the trace goes on: a withdrawal names a current holder, and an
  // announcement comes from a current holder (a path change) or, once every
  // holder has withdrawn, from one of the RIB's advertisers (the route
  // returns). No update comes from a member without a route to the prefix.
  const auto& universe = in.ixp.prefixes;
  std::vector<std::vector<core::ParticipantId>> rib_holders(universe.size());
  std::vector<net::Asn> origin(universe.size(), 0);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    if (const auto* cands = in.ixp.server.candidates(universe[i])) {
      for (const auto& r : *cands) rib_holders[i].push_back(r.learned_from);
      if (!cands->empty()) origin[i] = cands->front().attrs.as_path.origin_as();
      in.rib_routes += cands->size();
    }
    if (rib_holders[i].empty()) {
      throw std::logic_error("prefix without a RIB route in the universe");
    }
  }
  auto holders = rib_holders;

  ixp::TraceConfig tcfg;
  tcfg.seed = derive(seed, kTraceStream);
  tcfg.duration_s = w.days * 86400.0;
  tcfg.prefix_count = universe.size();
  const auto events = ixp::generate_trace_vector(tcfg);

  net::SplitMix64 rng(derive(seed, kAnnouncerStream));
  const auto& parts = in.ixp.participants;
  std::ostringstream burst;
  double prev_ts = 0;
  auto close_burst = [&] {
    in.bursts.push_back(burst.str());
    burst.str("");
  };
  for (const auto& ev : events) {
    if (in.burst_updates.empty() ||
        ev.timestamp - prev_ts >= kBurstGapSeconds) {
      if (!in.burst_updates.empty()) close_burst();
      in.burst_updates.push_back(0);
      in.burst_prefixes.emplace_back();
    }
    prev_ts = ev.timestamp;
    const std::size_t i = ev.prefix_index % universe.size();
    auto& h = holders[i];
    bgp::UpdateMessage u;
    const core::Participant* who = nullptr;
    if (ev.withdrawal && !h.empty()) {
      const std::size_t k = rng.below(h.size());
      who = &parts[in.ixp.slot_of(h[k])];
      h.erase(h.begin() + static_cast<std::ptrdiff_t>(k));
      u.withdrawn.push_back(universe[i]);
    } else {
      if (!h.empty()) {
        who = &parts[in.ixp.slot_of(h[rng.below(h.size())])];
      } else {
        const auto& back = rib_holders[i];
        who = &parts[in.ixp.slot_of(back[rng.below(back.size())])];
        h.push_back(who->id);
      }
      // A fresh AS path (0-2 transit hops, then the origin), so the best
      // route can change.
      std::vector<net::Asn> path{who->asn};
      for (std::size_t k = rng.below(3); k > 0; --k) {
        path.push_back(static_cast<net::Asn>(rng.range(1000, 60000)));
      }
      if (origin[i] != 0 && origin[i] != who->asn) path.push_back(origin[i]);
      bgp::RouteAttributes attrs;
      attrs.as_path = net::AsPath(path);
      attrs.next_hop = who->primary_port().router_ip;
      u.attrs = std::move(attrs);
      u.nlri.push_back(universe[i]);
    }
    bgp::Bgp4mpMessage msg;
    msg.peer_as = who->asn;
    msg.local_as = 65500;
    msg.peer_ip = who->primary_port().router_ip;
    msg.local_ip = net::Ipv4Address::parse("10.255.255.254");
    msg.message = std::move(u);
    bgp::write_record(
        burst,
        bgp::encode_bgp4mp(static_cast<std::uint32_t>(ev.timestamp), msg));
    ++in.burst_updates.back();
    in.burst_prefixes.back().push_back(universe[i]);
    ++in.trace_updates;
  }
  if (!in.burst_updates.empty()) close_burst();
  return in;
}

/// Read-only std::istream over bytes owned elsewhere (no copy per burst).
class ViewBuf : public std::streambuf {
 public:
  explicit ViewBuf(const std::string& s) {
    char* p = const_cast<char*>(s.data());
    setg(p, p, p + s.size());
  }
};

// ---------------------------------------------------------------------------
// Traffic: a packet mix derived from the generated exchange
//
// Derived from the exchange: destinations follow the paper's "about 95% of
// all IXP traffic is exchanged between about 5% of the participants"
// (§4.3.1), aimed at the prefixes the top exporters advertise (ranked as
// ixp::synthesize_policies ranks them); clause ports and their weights are
// the dst_port values the exchange's clauses match on, counted per clause;
// the protocol is TCP or UDP, the two the clauses match on, equally often.
// Assumed, not measured (no traffic data exists for these): 1/8 of packets
// go to prefixes from the last four update bursts (fast-path rules), 1/64
// to an unrouted block (dropped at the sending router), and half of all
// packets to a clause port, half to a port no clause names. Every packet is
// a fresh 5-tuple.

class TrafficMix {
 public:
  TrafficMix(const Inputs& in, std::uint64_t seed) : in_(in), rng_(seed) {
    const auto& ixp = in.ixp;
    std::vector<std::size_t> rank(ixp.participants.size());
    std::vector<std::size_t> exported(ixp.participants.size());
    for (std::size_t i = 0; i < rank.size(); ++i) {
      rank[i] = i;
      exported[i] = ixp.server.advertised_by(ixp.participants[i].id).size();
    }
    std::stable_sort(rank.begin(), rank.end(),
                     [&exported](std::size_t a, std::size_t b) {
                       return exported[a] > exported[b];
                     });
    rank.resize(std::min(rank.size(),
                         std::max<std::size_t>(4, rank.size() / 20)));
    for (const std::size_t slot : rank) {
      const auto adv = ixp.server.advertised_by(ixp.participants[slot].id);
      top_prefixes_.insert(top_prefixes_.end(), adv.begin(), adv.end());
    }
    auto add_ports = [this](const core::ClauseMatch& m) {
      for (const auto& [field, value] : m.exact) {
        if (field == net::Field::kDstPort) clause_ports_.push_back(value);
      }
    };
    for (const auto& p : ixp.participants) {
      for (const auto& c : p.outbound) add_ports(c.match);
      for (const auto& c : p.inbound) add_ports(c.match);
      senders_.push_back(p.id);
    }
    if (top_prefixes_.empty() || clause_ports_.empty()) {
      throw std::logic_error("exchange has no exporters or no port clauses");
    }
  }

  /// One burst of kBurstPackets packets; \p last_burst is the update burst
  /// flushed last.
  void fill(std::size_t last_burst, std::vector<net::PacketHeader>& out) {
    out.clear();
    const auto& universe = in_.ixp.prefixes;
    while (out.size() < kBurstPackets) {
      const double roll = rng_.uniform();
      net::Ipv4Prefix dst;
      if (roll < 1.0 / 64) {
        dst = net::Ipv4Prefix(
            net::Ipv4Address((198u << 24) | (18u << 16) |
                             static_cast<std::uint32_t>(rng_.below(1 << 16))),
            24);
      } else if (roll < 1.0 / 64 + 1.0 / 8) {
        dst = recent_prefix(last_burst);
      } else if (rng_.chance(0.95)) {
        dst = top_prefixes_[rng_.below(top_prefixes_.size())];
      } else {
        dst = universe[rng_.below(universe.size())];
      }
      out.push_back(packet(dst));
    }
  }

  /// Rotating sender: every call moves to the next participant.
  core::ParticipantId next_sender() {
    return senders_[next_sender_++ % senders_.size()];
  }

 private:
  static constexpr std::size_t kRecentBursts = 4;

  net::Ipv4Prefix recent_prefix(std::size_t last_burst) {
    const std::size_t lo =
        last_burst + 1 > kRecentBursts ? last_burst + 1 - kRecentBursts : 0;
    const std::size_t b = lo + rng_.below(last_burst + 1 - lo);
    const auto& prefixes = in_.burst_prefixes[b];
    return prefixes[rng_.below(prefixes.size())];
  }

  std::uint64_t unnamed_port() {
    for (;;) {
      const std::uint64_t port = rng_.range(1024, 65535);
      if (std::find(clause_ports_.begin(), clause_ports_.end(), port) ==
          clause_ports_.end()) {
        return port;
      }
    }
  }

  net::PacketHeader packet(net::Ipv4Prefix dst) {
    const std::uint64_t dport =
        rng_.chance(0.5) ? clause_ports_[rng_.below(clause_ports_.size())]
                         : unnamed_port();
    return net::PacketBuilder()
        .src_ip(net::Ipv4Address(static_cast<std::uint32_t>(rng_())))
        .dst_ip(net::Ipv4Address(
            dst.network().value() |
            static_cast<std::uint32_t>(rng_.range(1, 254))))
        .proto(rng_.chance(0.5) ? net::kProtoTcp : net::kProtoUdp)
        .src_port(rng_.range(1024, 65535))
        .dst_port(dport)
        .build();
  }

  const Inputs& in_;
  net::SplitMix64 rng_;
  std::vector<net::Ipv4Prefix> top_prefixes_;
  std::vector<std::uint64_t> clause_ports_;  ///< one entry per clause
  std::vector<core::ParticipantId> senders_;
  std::size_t next_sender_ = 0;
};

// ---------------------------------------------------------------------------
// Spans: recorded by the driver around each public call, kept in memory

enum Layer : std::uint8_t {
  kSetup,
  kRegister,
  kRibReplay,
  kRibApply,
  kInstall,
  kCompileSnapshot,
  kCompileReach,
  kCompileFecVnh,
  kCompileSynth,
  kCompileCompose,
  kVerifyFull,
  kUpdate,
  kDecode,
  kDrain,
  kApply,
  kFlush,
  kFastPath,
  kInstallReadvertise,
  kVerifyIncremental,
  kSendBatch,
  kLayerCount,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "setup",           "sdx.register",       "ingest.rib_replay",
    "bgp.rib_apply",   "sdx.install",        "compile.snapshot",
    "compile.reach",   "compile.fec_vnh",    "compile.synth",
    "compile.compose", "verify.full",        "update",
    "ingest.decode",   "ingest.drain",       "bgp.apply",
    "sdx.flush",       "sdx.fast_path",      "sdx.install_readvertise",
    "verify.incremental", "dataplane.send_batch",
};

struct SpanRecord {
  Layer layer;
  std::int32_t parent;  ///< index into the span vector, -1 for roots
  std::int32_t burst;   ///< update burst id, -1 outside the update loop
  std::int64_t start_ns;
  std::int64_t end_ns;
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {
    spans_.reserve(1 << 16);
  }

  std::int32_t open(Layer layer, std::int32_t burst) {
    spans_.push_back({layer, stack_.empty() ? -1 : stack_.back(), burst,
                      now_ns(), 0});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return stack_.back();
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  /// A child whose duration a runtime histogram measured: laid out inside
  /// \p parent at [start_ns, start_ns + seconds).
  std::int64_t add(Layer layer, std::int32_t parent, std::int64_t start_ns,
                   double seconds) {
    const auto p = spans_[static_cast<std::size_t>(parent)];
    const auto end = std::min<std::int64_t>(
        p.end_ns, start_ns + static_cast<std::int64_t>(seconds * 1e9));
    spans_.push_back({layer, parent, p.burst, start_ns, end});
    return end;
  }
  const SpanRecord& at(std::int32_t i) const {
    return spans_[static_cast<std::size_t>(i)];
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; inert when tracing is off.
class Scope {
 public:
  Scope(Tracer* t, Layer layer, std::int32_t burst = -1) : t_(t) {
    if (t_) index_ = t_->open(layer, burst);
  }
  ~Scope() {
    if (t_) t_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  Tracer* t_;
  std::int32_t index_ = -1;
};

// ---------------------------------------------------------------------------
// One episode: set up a runtime, replay the whole trace, check the result

struct Counts {
  std::uint64_t best_changes = 0;
  std::uint64_t rules_added = 0;
  std::uint64_t rules_end = 0;
  std::uint64_t arp_bindings_end = 0;
  std::uint64_t verify_classes = 0;
  std::uint64_t verify_edges = 0;
  std::uint64_t packets = 0;
  std::uint64_t table_matched = 0;
  std::uint64_t table_missed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t applied = 0;
};

struct Episode {
  double setup_s = 0;
  std::vector<double> flush_ms;  ///< one update-to-live sample per flush
  double update_s = 0;           ///< summed update-loop time
  double packet_s = 0;           ///< summed send_batch time
  std::vector<double> after_flush_us;  ///< first packet burst after a flush
  std::vector<double> steady_us;       ///< every other packet burst
  double timed_s = 0;  ///< setup + update loop + send_batch
  Counts counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

std::uint64_t counter(core::SdxRuntime& rt, const char* name) {
  return rt.telemetry().metrics.counter(name).value();
}

double histogram_sum(core::SdxRuntime& rt, const char* name,
                     telemetry::Labels labels = {}) {
  return rt.telemetry().metrics.histogram(name, "", {}, std::move(labels))
      .sum();
}

void apply_update(core::SdxRuntime& rt, const ingest::IngestedUpdate& u) {
  for (const auto prefix : u.update.withdrawn) {
    rt.withdraw(u.participant, prefix);
  }
  if (u.update.attrs) {
    for (const auto prefix : u.update.nlri) {
      std::optional<net::AsPath> path;
      if (!u.update.attrs->as_path.empty()) path = u.update.attrs->as_path;
      rt.announce(u.participant, prefix, std::move(path),
                  u.update.attrs->communities);
    }
  }
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

bool same_delivery(const dp::Fabric::Delivery& got,
                   const core::OracleDelivery& want) {
  return got.port == want.egress && got.frame == want.frame;
}

/// Sets up a runtime, replays the whole trace through it and checks the
/// outcome.
Episode run_episode(const Workload& w, const Inputs& in, std::uint64_t seed,
                    Tracer* tr) {
  Episode ep;
  auto fail = [&ep](std::string what) {
    ++ep.failed;
    if (ep.failures.size() < 8) ep.failures.push_back(std::move(what));
  };
  ingest::MrtReplaySource source(
      {}, [&in](net::Asn asn, net::Ipv4Address) {
        auto it = in.by_asn.find(asn);
        return it == in.by_asn.end()
                   ? std::optional<core::ParticipantId>{}
                   : std::optional<core::ParticipantId>{it->second};
      });
  ingest::SpillQueue::Options qopt;
  qopt.capacity = in.rib_routes + in.trace_updates + 1;
  qopt.per_peer_quota = qopt.capacity;
  ingest::SpillQueue queue(qopt);
  std::vector<ingest::IngestedUpdate> batch;

  // --- set-up -------------------------------------------------------------
  const auto setup_start = Clock::now();
  std::unique_ptr<core::SdxRuntime> owner;
  {
    Scope setup(tr, kSetup);
    core::CompileOptions copt;
    copt.threads = kCompileThreads;
    {
      Scope s(tr, kRegister);
      owner = std::make_unique<core::SdxRuntime>(bgp::DecisionConfig{}, copt);
      for (const auto& p : in.ixp.participants) {
        const auto id = owner->add_participant(p.name, p.asn, p.ports.size());
        if (id != p.id) throw std::logic_error("participant ids diverged");
      }
      for (const auto& p : in.ixp.participants) {
        if (!p.outbound.empty()) owner->set_outbound(p.id, p.outbound);
        if (!p.inbound.empty()) owner->set_inbound(p.id, p.inbound);
      }
    }
    auto& rt = *owner;
    ingest::MrtReplaySource::Result rib;
    {
      Scope s(tr, kRibReplay);
      ViewBuf buf(in.rib);
      std::istream is(&buf);
      rib = source.replay_rib(is, queue);
    }
    std::size_t rib_applied = 0;
    {
      Scope s(tr, kRibApply);
      while (queue.depth() > 0) queue.drain(queue.depth(), batch);
      for (const auto& u : batch) apply_update(rt, u);
      rib_applied = batch.size();
      batch.clear();
    }
    ep.attempted += in.rib_routes;
    if (!rib.ok() || rib.updates != in.rib_routes ||
        rib_applied != in.rib_routes) {
      fail("RIB load: replayed " + std::to_string(rib.updates) +
           ", applied " + std::to_string(rib_applied) + " of " +
           std::to_string(in.rib_routes) + " routes " + rib.error);
    }
    if (w.verify) rt.enable_verification();
    std::int32_t install = -1;
    {
      Scope s(tr, kInstall);
      install = s.index();
      rt.install();
    }
    rt.enable_batching({/*max_pending=*/0, /*max_delay_seconds=*/0});
    if (tr) {
      // Split install() by the runtime's own stage histograms, laid out in
      // pipeline order from the start of the install span.
      std::int64_t at = tr->at(install).start_ns;
      const std::pair<Layer, const char*> stages[] = {
          {kCompileSnapshot, "snapshot"}, {kCompileReach, "reach"},
          {kCompileFecVnh, "fec_vnh"},    {kCompileSynth, "synth"},
          {kCompileCompose, "compose"},
      };
      for (const auto& [layer, stage] : stages) {
        at = tr->add(layer, install, at,
                     histogram_sum(rt, "sdx_compile_stage_seconds",
                                   {{"stage", stage}}));
      }
      if (w.verify) {
        const double v = histogram_sum(rt, "sdx_verify_seconds");
        tr->add(kVerifyFull, install,
                tr->at(install).end_ns - static_cast<std::int64_t>(v * 1e9),
                v);
      }
    }
  }
  ep.setup_s = seconds_between(setup_start, Clock::now());
  auto& rt = *owner;

  // --- update loop --------------------------------------------------------
  const std::uint64_t best0 = counter(rt, "sdx_route_server_best_changes_total");
  const std::uint64_t rules0 = counter(rt, "sdx_fast_path_rules_total");
  TrafficMix mix(in, derive(seed, kTrafficStream));
  std::vector<net::PacketHeader> packets;
  packets.reserve(kBurstPackets);
  std::uint64_t replayed = 0;

  // Table outcomes are read around each burst: the safety checker looks up
  // the same table during flushes.
  auto send_burst = [&](std::int32_t burst_id, bool first_after_flush) {
    const auto sender = mix.next_sender();
    const std::uint64_t matched0 =
        counter(rt, "sdx_flow_table_matched_total");
    const std::uint64_t missed0 = counter(rt, "sdx_flow_table_missed_total");
    const auto t0 = Clock::now();
    dp::Fabric::BatchDeliveries out;
    {
      Scope s(tr, kSendBatch, burst_id);
      out = rt.send_batch(sender, packets);
    }
    const double us = seconds_between(t0, Clock::now()) * 1e6;
    ep.packet_s += us * 1e-6;
    (first_after_flush ? ep.after_flush_us : ep.steady_us).push_back(us);
    ep.counts.packets += packets.size();
    ep.counts.table_matched +=
        counter(rt, "sdx_flow_table_matched_total") - matched0;
    ep.counts.table_missed +=
        counter(rt, "sdx_flow_table_missed_total") - missed0;
    for (std::size_t i = 0; i < out.packets(); ++i) {
      for (const auto& d : out.of(i)) {
        if (d.accepted) {
          ++ep.counts.delivered;
          break;
        }
      }
    }
  };

  ep.flush_ms.reserve(in.bursts.size());
  for (std::size_t b = 0; b < in.bursts.size(); ++b) {
    const auto burst_id = static_cast<std::int32_t>(b);
    ingest::MrtReplaySource::Result r;
    std::size_t applied = 0;
    const auto t0 = Clock::now();
    {
      Scope update(tr, kUpdate, burst_id);
      {
        Scope s(tr, kDecode, burst_id);
        ViewBuf buf(in.bursts[b]);
        std::istream is(&buf);
        r = source.replay_trace(is, queue);
      }
      {
        Scope s(tr, kDrain, burst_id);
        while (queue.depth() > 0) queue.drain(queue.depth(), batch);
      }
      {
        Scope s(tr, kApply, burst_id);
        for (const auto& u : batch) apply_update(rt, u);
        applied = batch.size();
      }
      if (tr) {
        const double fp0 = histogram_sum(rt, "sdx_fast_path_seconds");
        const double v0 = w.verify ? histogram_sum(rt, "sdx_verify_seconds") : 0;
        std::int32_t flush = -1;
        {
          Scope s(tr, kFlush, burst_id);
          flush = s.index();
          rt.flush();
        }
        const double fp = histogram_sum(rt, "sdx_fast_path_seconds") - fp0;
        const double v =
            w.verify ? histogram_sum(rt, "sdx_verify_seconds") - v0 : 0;
        const auto& f = tr->at(flush);
        const auto verify_start =
            std::max(f.start_ns, f.end_ns - static_cast<std::int64_t>(v * 1e9));
        const auto fp_end = tr->add(kFastPath, flush, f.start_ns, fp);
        tr->add(kInstallReadvertise, flush, fp_end,
                std::max(0.0, static_cast<double>(verify_start - fp_end) * 1e-9));
        if (w.verify) tr->add(kVerifyIncremental, flush, verify_start, v);
      } else {
        rt.flush();
      }
    }
    const auto t1 = Clock::now();
    batch.clear();
    ep.flush_ms.push_back(seconds_between(t0, t1) * 1e3);
    ep.update_s += seconds_between(t0, t1);
    replayed += r.updates;
    ep.counts.applied += applied;
    if (!r.ok() || r.skipped != 0 || r.updates != in.burst_updates[b] ||
        applied != r.updates) {
      fail("burst " + std::to_string(b) + ": replayed " +
           std::to_string(r.updates) + " of " +
           std::to_string(in.burst_updates[b]) + ", applied " +
           std::to_string(applied) + " " + r.error);
    }
    for (std::size_t k = 0; k * kBurstPackets < w.packets_per_flush; ++k) {
      mix.fill(b, packets);
      send_burst(burst_id, k == 0);
    }
  }
  ep.attempted += in.trace_updates;
  if (replayed != in.trace_updates || queue.drops() != 0) {
    fail("trace: replayed " + std::to_string(replayed) + " of " +
         std::to_string(in.trace_updates) + ", queue drops " +
         std::to_string(queue.drops()));
  }
  ep.counts.best_changes =
      counter(rt, "sdx_route_server_best_changes_total") - best0;
  ep.counts.rules_added = counter(rt, "sdx_fast_path_rules_total") - rules0;
  ep.counts.rules_end = rt.fabric().sdx_switch().table().size();
  ep.counts.arp_bindings_end = rt.fabric().arp().size();

  // Settled-table packet phase (workloads without interleaved traffic).
  for (std::size_t k = 0; k * kBurstPackets < w.settled_packets; ++k) {
    mix.fill(in.bursts.size() - 1, packets);
    send_burst(-1, k == 0);
  }
  ep.timed_s = ep.setup_s + ep.update_s + ep.packet_s;

  // --- correctness, untimed ----------------------------------------------
  if (w.verify) {
    ep.counts.verify_classes = counter(rt, "sdx_verify_classes_total");
    ep.counts.verify_edges = counter(rt, "sdx_verify_edges_total");
    ++ep.attempted;
    if (!rt.last_safety_report().ok()) {
      fail("safety: " + rt.last_safety_report().to_string());
    }
  }
  net::SplitMix64 orng(derive(seed, kOracleStream));
  const auto& parts = in.ixp.participants;
  for (std::size_t k = 0; k < kOracleSample; ++k) {
    const auto& sender = parts[orng.below(parts.size())];
    const std::size_t port = orng.below(sender.ports.size());
    mix.fill(in.bursts.size() - 1, packets);
    const auto payload = packets[orng.below(packets.size())];
    const auto want = core::oracle_forward(rt.participants(), rt.ports(),
                                           rt.route_server(), sender.id, port,
                                           payload);
    const auto got = rt.send(sender.id, payload, port);
    ++ep.attempted;
    bool same = got.size() == want.size();
    for (std::size_t i = 0; same && i < got.size(); ++i) {
      same = same_delivery(got[i], want[i]);
    }
    if (!same) {
      fail("oracle: sender " + sender.name + " port " + std::to_string(port) +
           " " + payload.to_string() + ": got " + std::to_string(got.size()) +
           " deliveries, want " + std::to_string(want.size()));
    }
  }
  return ep;
}

// ---------------------------------------------------------------------------
// Output: one JSON object per instance, pooled by run.py

class JsonObject {
 public:
  void num(const char* key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0);
    raw(key, buf);
  }
  void count(const char* key, std::uint64_t v) {
    raw(key, std::to_string(v));
  }
  void nums(const char* key, const std::vector<double>& v) {
    std::string a = "[";
    char buf[32];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
      a += buf;
    }
    raw(key, a + "]");
  }
  void strs(const char* key, const std::vector<std::string>& v) {
    std::string a = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) a += ", ";
      a += quote(v[i]);
    }
    raw(key, a + "]");
  }
  void raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += quote(key) + ": " + value;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  static std::string quote(const std::string& s) {
    std::string q = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return q + "\"";
  }
  std::string body_;
};

std::string counts_json(const Counts& c) {
  JsonObject o;
  o.count("best_changes", c.best_changes);
  o.count("rules_added", c.rules_added);
  o.count("rules_end", c.rules_end);
  o.count("arp_bindings_end", c.arp_bindings_end);
  o.count("verify_classes", c.verify_classes);
  o.count("verify_edges", c.verify_edges);
  o.count("packets", c.packets);
  o.count("table_matched", c.table_matched);
  o.count("table_missed", c.table_missed);
  o.count("delivered", c.delivered);
  o.count("applied", c.applied);
  return o.str();
}

/// Writes the spans as CSV rows of instance \p instance.
void write_spans(const std::string& path, std::size_t instance,
                 const std::vector<SpanRecord>& spans) {
  std::ofstream os(path);
  os << "episode,id,parent,layer,burst,start_ns,end_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    os << instance << ',' << i << ',' << s.parent << ','
       << kLayerNames[s.layer] << ',' << s.burst << ',' << s.start_ns << ','
       << s.end_ns << '\n';
  }
}

int usage() {
  std::fprintf(stderr,
               "usage: sdx_perfbench --workload traffic|verified "
               "--seed N --instance K --trace 0|1 [--size full|tiny] "
               "[--spans FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args{{"--size", "full"}, {"--trace", "0"}};
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--instance")) {
    return usage();
  }
  Workload w;
  if (!make_workload(args["--workload"], args["--size"], w)) return usage();
  std::uint64_t seed = 0;
  std::size_t instance = 0;
  try {
    seed = std::stoull(args["--seed"]);
    instance = std::stoull(args["--instance"]);
  } catch (const std::exception&) {
    return usage();
  }
  const bool trace = args["--trace"] == "1";
  const std::uint64_t instance_seed = derive(seed, kInstanceStream + instance);

  JsonObject out;
  out.raw("workload", "\"" + w.name + "\"");
  out.count("participants", w.participants);
  out.count("prefixes", w.prefixes);
  out.num("days", w.days);
  out.count("compile_threads", kCompileThreads);
  Episode ep;
  std::optional<Tracer> tracer;
  try {
    const Inputs in = prepare_inputs(w, instance_seed);
    out.count("rib_routes", in.rib_routes);
    out.count("bursts", in.bursts.size());
    out.count("trace_updates", in.trace_updates);
    if (trace) tracer.emplace(Clock::now());
    ep = run_episode(w, in, instance_seed, tracer ? &*tracer : nullptr);
  } catch (const std::exception& e) {
    ep = Episode{};
    ep.attempted = ep.failed = 1;
    ep.failures.push_back(std::string("instance threw: ") + e.what());
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.num("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);  // KiB
  out.num("setup_s", ep.setup_s);
  out.num("update_s", ep.update_s);
  out.num("packet_s", ep.packet_s);
  out.num("timed_s", ep.timed_s);
  out.nums("flush_ms", ep.flush_ms);
  if (trace) {
    out.nums("after_flush_us", ep.after_flush_us);
    out.nums("steady_us", ep.steady_us);
  }
  out.raw("counts", counts_json(ep.counts));
  out.count("attempted", ep.attempted);
  out.count("failed", ep.failed);
  out.strs("failures", ep.failures);
  if (tracer && args.count("--spans")) {
    write_spans(args["--spans"], instance, tracer->spans());
  }
  std::printf("%s\n", out.str().c_str());
  return ep.failed == 0 ? 0 : 1;
}
