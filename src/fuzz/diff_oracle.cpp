#include "fuzz/diff_oracle.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "persist/checkpoint.hpp"
#include "persist/crc32c.hpp"
#include "sdx/runtime.hpp"
#include "verify/safety.hpp"

namespace fs = std::filesystem;

namespace sdx::fuzz {

namespace {

using core::SdxRuntime;

std::uint8_t clamp_participants(std::uint8_t raw) {
  return static_cast<std::uint8_t>(2 + raw % 4);  // 2..5
}
std::uint8_t clamp_prefixes(std::uint8_t raw) {
  return static_cast<std::uint8_t>(2 + raw % 15);  // 2..16
}

net::Ipv4Prefix prefix_of(std::size_t j) {
  return net::Ipv4Prefix(
      net::Ipv4Address((10u << 24) | (static_cast<std::uint32_t>(j + 1) << 16)),
      16);
}

net::Asn asn_of(std::size_t p) { return static_cast<net::Asn>(65000 + p); }

/// The deterministic base exchange the trace perturbs: every participant
/// steers port-80 and port-443 traffic to its two clockwise neighbours,
/// and prefix j is originated by participant (j mod n) + 1.
void build_base(SdxRuntime& rt, const Trace& t) {
  const std::size_t n = t.participants;
  for (std::size_t p = 1; p <= n; ++p) {
    rt.add_participant("P" + std::to_string(p), asn_of(p));
  }
  for (std::size_t p = 1; p <= n; ++p) {
    std::vector<core::OutboundClause> clauses;
    const auto next = static_cast<bgp::ParticipantId>(p % n + 1);
    const auto after = static_cast<bgp::ParticipantId>((p + 1) % n + 1);
    if (next != p) {
      clauses.push_back(
          core::OutboundClause{core::ClauseMatch{}.dst_port(80), next});
    }
    if (after != p && after != next) {
      clauses.push_back(
          core::OutboundClause{core::ClauseMatch{}.dst_port(443), after});
    }
    rt.set_outbound(static_cast<bgp::ParticipantId>(p), std::move(clauses));
  }
  for (std::size_t j = 0; j < t.prefixes; ++j) {
    const auto owner = static_cast<bgp::ParticipantId>(j % n + 1);
    rt.announce(owner, prefix_of(j),
                net::AsPath{asn_of(owner),
                            static_cast<net::Asn>(1000 + j)});
  }
  rt.install();
}

void apply_op(SdxRuntime& rt, const Trace& t, const TraceOp& op) {
  const auto p =
      static_cast<bgp::ParticipantId>(1 + op.participant % t.participants);
  const std::size_t j = op.prefix % t.prefixes;
  switch (op.kind) {
    case TraceOp::Kind::kAnnounce: {
      std::vector<net::Asn> hops{asn_of(p)};
      if (op.variant % 3 == 1) {
        hops.push_back(static_cast<net::Asn>(900 + op.variant));
      } else if (op.variant % 3 == 2) {
        hops.push_back(static_cast<net::Asn>(900 + op.variant));
        hops.push_back(static_cast<net::Asn>(800 + op.variant));
      }
      rt.announce(p, prefix_of(j), net::AsPath(std::move(hops)));
      break;
    }
    case TraceOp::Kind::kWithdraw:
      rt.withdraw(p, prefix_of(j));
      break;
    case TraceOp::Kind::kSessionDown:
      rt.session_down(p);
      break;
    case TraceOp::Kind::kSteer: {
      // Cross-participant steering churn: p appends a clause sending DNS
      // traffic for prefix j toward a trace-chosen participant (never
      // itself). Port 53 keeps the clause visible to the probe signature
      // without being shadowed by the base ring's 80/443 clauses; whether
      // it actually deploys is the compiler's BGP filter's call.
      auto target =
          static_cast<bgp::ParticipantId>(1 + op.variant % t.participants);
      if (target == p) {
        target = static_cast<bgp::ParticipantId>(target % t.participants + 1);
      }
      auto clauses = rt.participant(p).outbound;
      clauses.push_back(core::OutboundClause{
          core::ClauseMatch{}.dst(prefix_of(j)).dst_port(53), target});
      rt.set_outbound(p, std::move(clauses));
      // A post-install policy change deploys before the call returns. A
      // pairwise one is a full recompile; a partitioned one swaps its
      // partition in place, which can differ from a full compile, so that
      // leg recompiles once more and every oracle side sees the same state.
      if (rt.installed() && rt.compiled().partitioned) {
        rt.background_recompile();
      }
      break;
    }
  }
}

/// The well-known ports of the probe set: policy clauses (80/443) and
/// default forwarding (53).
constexpr std::uint16_t kProbePorts[] = {80, 443, 53};

/// The probe payload toward prefix \p j on destination port \p port.
net::PacketHeader probe_payload(std::size_t j, std::uint16_t port) {
  return net::PacketBuilder()
      .src_ip("192.0.2.1")
      .dst_ip(net::Ipv4Address(prefix_of(j).network().value() | 7))
      .proto(6)
      .dst_port(port)
      .build();
}

/// One forwarding probe per (sender, prefix, well-known port): the
/// signature covers every policy clause and default forwarding for every
/// destination the trace can touch.
std::vector<std::string> probe_signature(SdxRuntime& rt, const Trace& t) {
  std::vector<std::string> out;
  out.reserve(std::size_t{t.participants} * t.prefixes * 3);
  for (std::size_t s = 1; s <= t.participants; ++s) {
    for (std::size_t j = 0; j < t.prefixes; ++j) {
      for (const std::uint16_t port : kProbePorts) {
        auto deliveries =
            rt.send(static_cast<bgp::ParticipantId>(s), probe_payload(j, port));
        std::ostringstream line;
        line << "P" << s << "->x" << j << ":" << port << " =";
        if (deliveries.empty()) {
          line << " drop";
        } else {
          for (const auto& d : deliveries) {
            line << " port" << d.port << (d.accepted ? "+" : "-") << "mac"
                 << d.frame.dst_mac().to_string();
          }
        }
        out.push_back(line.str());
      }
    }
  }
  return out;
}

/// probe_signature's burst twin: the identical probe set, sent through
/// send_batch per sender instead of one send() per probe, formatted into
/// the identical signature lines. Any divergence between the two is a
/// batch/per-packet desync by construction.
std::vector<std::string> probe_signature_batch(SdxRuntime& rt,
                                               const Trace& t) {
  std::vector<std::string> out;
  out.reserve(std::size_t{t.participants} * t.prefixes * 3);
  for (std::size_t s = 1; s <= t.participants; ++s) {
    std::vector<net::PacketHeader> payloads;
    std::vector<std::pair<std::size_t, std::uint16_t>> meta;
    payloads.reserve(std::size_t{t.prefixes} * 3);
    for (std::size_t j = 0; j < t.prefixes; ++j) {
      for (const std::uint16_t port : kProbePorts) {
        payloads.push_back(probe_payload(j, port));
        meta.emplace_back(j, port);
      }
    }
    const auto batch =
        rt.send_batch(static_cast<bgp::ParticipantId>(s), payloads);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      std::ostringstream line;
      line << "P" << s << "->x" << meta[i].first << ":" << meta[i].second
           << " =";
      const auto deliveries = batch.of(i);
      if (deliveries.empty()) {
        line << " drop";
      } else {
        for (const auto& d : deliveries) {
          line << " port" << d.port << (d.accepted ? "+" : "-") << "mac"
               << d.frame.dst_mac().to_string();
        }
      }
      out.push_back(line.str());
    }
  }
  return out;
}

OracleVerdict diff_signatures(const std::vector<std::string>& want,
                              const std::vector<std::string>& got,
                              const char* oracle, const char* sides) {
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    if (want[i] != got[i]) {
      return {false, oracle,
              std::string(sides) + " diverge at probe " + std::to_string(i) +
                  ": \"" + want[i] + "\" vs \"" + got[i] + "\""};
    }
  }
  if (want.size() != got.size()) {
    return {false, oracle, std::string(sides) + " probe counts differ"};
  }
  return {true, oracle, ""};
}

struct ScratchDir {
  std::string path;
  explicit ScratchDir(const std::string& base) {
    std::string tmpl =
        (base.empty() ? std::string("/tmp") : base) + "/sdx_oracle_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for oracle scratch dir");
    }
    path.assign(buf.data());
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Drops the last RIB route from the newest checkpoint in \p dir and
/// rewrites the file (valid CRC, stale fingerprint) — the planted
/// kCorruptCheckpointRoute divergence.
void corrupt_newest_checkpoint(const std::string& dir) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt" &&
        entry.path().string() > newest) {
      newest = entry.path().string();
    }
  }
  if (newest.empty()) return;
  auto st = persist::try_load_checkpoint(newest);
  if (!st.has_value() || st->routes.empty()) return;
  st->routes.pop_back();
  persist::write_checkpoint_file(newest, *st);
}

std::size_t last_announce_index(const Trace& t) {
  for (std::size_t i = t.ops.size(); i > 0; --i) {
    if (t.ops[i - 1].kind == TraceOp::Kind::kAnnounce) return i - 1;
  }
  return t.ops.size();  // none
}

/// Plants the kPlantVerifierLoop divergence: the first two participants
/// transit-announce a fresh prefix and steer its DNS traffic at each other,
/// then the prefix is withdrawn straight from the route server — bypassing
/// the runtime's update hooks, so the deployed steering rules and router
/// FIB entries go stale and port-53 traffic for the prefix ping-pongs.
void plant_verifier_loop(SdxRuntime& rt) {
  const auto q = net::Ipv4Prefix::parse("198.51.100.0/24");
  rt.announce(1, q, net::AsPath{asn_of(1), static_cast<net::Asn>(990)});
  rt.announce(2, q, net::AsPath{asn_of(2), static_cast<net::Asn>(991)});
  auto c1 = rt.participant(1).outbound;
  c1.push_back(
      core::OutboundClause{core::ClauseMatch{}.dst(q).dst_port(53), 2});
  rt.set_outbound(1, std::move(c1));
  auto c2 = rt.participant(2).outbound;
  c2.push_back(
      core::OutboundClause{core::ClauseMatch{}.dst(q).dst_port(53), 1});
  rt.set_outbound(2, std::move(c2));
  rt.background_recompile();
  rt.route_server().withdraw(1, q);
  rt.route_server().withdraw(2, q);
}

}  // namespace

std::string Trace::to_string() const {
  std::ostringstream os;
  os << "trace P=" << int{participants} << " N=" << int{prefixes} << ":";
  for (const auto& op : ops) {
    switch (op.kind) {
      case TraceOp::Kind::kAnnounce:
        os << " A(p" << 1 + op.participant % participants << ",x"
           << op.prefix % prefixes << ",v" << int{op.variant} << ")";
        break;
      case TraceOp::Kind::kWithdraw:
        os << " W(p" << 1 + op.participant % participants << ",x"
           << op.prefix % prefixes << ")";
        break;
      case TraceOp::Kind::kSessionDown:
        os << " D(p" << 1 + op.participant % participants << ")";
        break;
      case TraceOp::Kind::kSteer:
        os << " S(p" << 1 + op.participant % participants << ",x"
           << op.prefix % prefixes << "->p" << 1 + op.variant % participants
           << ")";
        break;
    }
  }
  if (ops.empty()) os << " (no ops)";
  return os.str();
}

Trace decode_trace(std::span<const std::uint8_t> bytes) {
  Trace t;
  if (!bytes.empty()) t.participants = clamp_participants(bytes[0]);
  if (bytes.size() > 1) t.prefixes = clamp_prefixes(bytes[1]);
  for (std::size_t i = 2; i + 4 <= bytes.size() && t.ops.size() < kMaxTraceOps;
       i += 4) {
    TraceOp op;
    const std::uint8_t k = bytes[i] % 8;
    op.kind = k < 4   ? TraceOp::Kind::kAnnounce
              : k < 5 ? TraceOp::Kind::kSteer
              : k < 7 ? TraceOp::Kind::kWithdraw
                      : TraceOp::Kind::kSessionDown;
    op.participant = bytes[i + 1];
    op.prefix = bytes[i + 2];
    op.variant = bytes[i + 3];
    t.ops.push_back(op);
  }
  return t;
}

std::vector<std::uint8_t> encode_trace(const Trace& trace) {
  std::vector<std::uint8_t> out;
  out.reserve(2 + trace.ops.size() * 4);
  out.push_back(static_cast<std::uint8_t>(trace.participants - 2));
  out.push_back(static_cast<std::uint8_t>(trace.prefixes - 2));
  for (const auto& op : trace.ops) {
    switch (op.kind) {
      case TraceOp::Kind::kAnnounce: out.push_back(0); break;
      case TraceOp::Kind::kSteer: out.push_back(4); break;
      case TraceOp::Kind::kWithdraw: out.push_back(5); break;
      case TraceOp::Kind::kSessionDown: out.push_back(7); break;
    }
    out.push_back(op.participant);
    out.push_back(op.prefix);
    out.push_back(op.variant);
  }
  return out;
}

DifferentialOracle::DifferentialOracle(OracleOptions options)
    : options_(std::move(options)) {
  if (options_.threads < 2) options_.threads = 2;
}

OracleVerdict DifferentialOracle::check(const Trace& trace) const {
  using Fault = OracleOptions::Fault;

  // (a) batched fast path ≡ full recompilation of the same state.
  if (options_.check_fast_path) {
    SdxRuntime fast;
    build_base(fast, trace);
    fast.enable_batching(
        {.max_pending = 0, .max_delay_seconds = 0});  // explicit flush only
    const std::size_t skip =
        options_.fault == Fault::kSkipLastFastAnnounce
            ? last_announce_index(trace)
            : trace.ops.size();
    for (std::size_t i = 0; i < trace.ops.size(); ++i) {
      if (i == skip) continue;
      apply_op(fast, trace, trace.ops[i]);
    }
    fast.flush();

    SdxRuntime full;
    build_base(full, trace);
    for (const auto& op : trace.ops) apply_op(full, trace, op);
    full.background_recompile();

    auto verdict = diff_signatures(probe_signature(full, trace),
                                   probe_signature(fast, trace), "fast-path",
                                   "full-recompile vs fast-path");
    if (!verdict.ok) return verdict;
  }

  // (b) threads=1 ≡ threads=N, by compiled fingerprint.
  if (options_.check_threads) {
    SdxRuntime serial(bgp::DecisionConfig{}, core::CompileOptions{.threads = 1});
    build_base(serial, trace);
    for (const auto& op : trace.ops) apply_op(serial, trace, op);
    serial.background_recompile();

    SdxRuntime wide(bgp::DecisionConfig{},
                    core::CompileOptions{.threads = options_.threads});
    build_base(wide, trace);
    for (const auto& op : trace.ops) apply_op(wide, trace, op);
    if (options_.fault == Fault::kPerturbThreadedCompile) {
      // Withdraw prefix 0 from everyone on the wide side only: its
      // forwarding entry disappears, so the compiled artifacts must
      // diverge no matter what the trace did beforehand.
      for (std::uint8_t p = 0; p < trace.participants; ++p) {
        wide.withdraw(static_cast<bgp::ParticipantId>(p + 1), prefix_of(0));
      }
    }
    wide.background_recompile();

    if (serial.compiled().fingerprint() != wide.compiled().fingerprint()) {
      return {false, "threads",
              "threads=1 and threads=" + std::to_string(options_.threads) +
                  " fingerprints differ"};
    }
  }

  // (d) partitioned per-participant compilation ≡ pairwise cross product,
  // probe-for-probe. (Fingerprints legitimately differ — the partitioned
  // artifact carries per-partition sections — so the comparison is purely
  // behavioural.)
  if (options_.check_partitioned) {
    SdxRuntime pairwise;
    build_base(pairwise, trace);
    for (const auto& op : trace.ops) apply_op(pairwise, trace, op);
    pairwise.background_recompile();

    SdxRuntime parted(bgp::DecisionConfig{},
                      core::CompileOptions{.partitioned = true});
    build_base(parted, trace);
    for (const auto& op : trace.ops) apply_op(parted, trace, op);
    if (options_.fault == Fault::kPerturbPartitionedCompile) {
      // Withdraw prefix 0 from everyone on the partitioned side only: its
      // forwarding entry disappears, so the probes must diverge.
      for (std::uint8_t p = 0; p < trace.participants; ++p) {
        parted.withdraw(static_cast<bgp::ParticipantId>(p + 1), prefix_of(0));
      }
    }
    parted.background_recompile();

    auto verdict = diff_signatures(probe_signature(pairwise, trace),
                                   probe_signature(parted, trace),
                                   "partitioned", "pairwise vs partitioned");
    if (!verdict.ok) return verdict;
  }

  // (e) classified lookup ≡ reference scan, rule for rule, on every frame
  // the probe set puts on the fabric. Partitioned mode exercises every
  // lane: masked VMAC rules (next-hop field + attribute bits), exact VMACs,
  // and the port / clause / catch-all tuples.
  if (options_.check_classifier) {
    SdxRuntime rt(bgp::DecisionConfig{},
                  core::CompileOptions{.partitioned = true});
    build_base(rt, trace);
    for (const auto& op : trace.ops) apply_op(rt, trace, op);
    rt.background_recompile();

    auto& table = rt.fabric().sdx_switch().table();
    if (options_.fault == Fault::kDesyncClassifiedLookup) {
      table.corrupt_classifier_for_test();
    }
    const auto ordered = table.rules();
    const auto name = [](const dp::FlowRule* r) {
      return r != nullptr ? r->to_string() : std::string("miss");
    };
    for (std::size_t s = 1; s <= trace.participants; ++s) {
      const auto& router = rt.router(static_cast<bgp::ParticipantId>(s));
      for (std::size_t j = 0; j < trace.prefixes; ++j) {
        for (const std::uint16_t port : kProbePorts) {
          auto frame = probe_payload(j, port);
          if (!router.frame(frame, rt.fabric().arp()).framed) continue;
          const dp::FlowRule* want = dp::reference_lookup(ordered, frame);
          const dp::FlowRule* got = table.lookup(frame);
          if (got != want) {
            return {false, "classifier",
                    "reference vs classified diverge at P" +
                        std::to_string(s) + "->x" + std::to_string(j) + ":" +
                        std::to_string(port) + ": \"" + name(want) +
                        "\" vs \"" + name(got) + "\""};
          }
        }
      }
    }
  }

  // (g) batched lookup ≡ per-packet lookup, over the identical installed
  // table: the same probe set must produce the same deliveries and the
  // same match/miss accounting whichever path carries it. Partitioned
  // mode again, so every lane and the tuple path are in play.
  if (options_.check_batch) {
    SdxRuntime rt(bgp::DecisionConfig{},
                  core::CompileOptions{.partitioned = true});
    build_base(rt, trace);
    for (const auto& op : trace.ops) apply_op(rt, trace, op);
    rt.background_recompile();

    auto& table = rt.fabric().sdx_switch().table();
    const std::uint64_t matched0 = table.total_matched();
    const std::uint64_t missed0 = table.total_missed();
    auto single = probe_signature(rt, trace);
    const std::uint64_t matched1 = table.total_matched();
    const std::uint64_t missed1 = table.total_missed();
    if (options_.fault == Fault::kDesyncBatchLookup) {
      table.plant_batch_desync_for_test();
    }
    auto batched = probe_signature_batch(rt, trace);
    const std::uint64_t matched2 = table.total_matched();
    const std::uint64_t missed2 = table.total_missed();

    auto verdict =
        diff_signatures(single, batched, "batch", "per-packet vs batched");
    if (!verdict.ok) return verdict;
    if (matched1 - matched0 != matched2 - matched1 ||
        missed1 - missed0 != missed2 - missed1) {
      return {false, "batch",
              "per-packet vs batched match/miss totals differ: matched " +
                  std::to_string(matched1 - matched0) + " vs " +
                  std::to_string(matched2 - matched1) + ", missed " +
                  std::to_string(missed1 - missed0) + " vs " +
                  std::to_string(missed2 - missed1)};
    }
  }

  // (c) checkpoint + WAL-tail recovery ≡ the never-crashed runtime.
  if (options_.check_recovery) {
    ScratchDir scratch(options_.scratch_dir);
    SdxRuntime live;
    build_base(live, trace);
    live.attach_journal(scratch.path,
                        {persist::Journal::Options::Fsync::kNever});
    for (const auto& op : trace.ops) apply_op(live, trace, op);
    if (options_.fault == Fault::kCorruptCheckpointRoute) {
      corrupt_newest_checkpoint(scratch.path);
    }

    SdxRuntime recovered;
    recovered.recover(scratch.path);
    auto verdict = diff_signatures(probe_signature(live, trace),
                                   probe_signature(recovered, trace),
                                   "recovery", "never-crashed vs recovered");
    if (!verdict.ok) return verdict;

    live.background_recompile();
    recovered.background_recompile();
    if (live.compiled().fingerprint() != recovered.compiled().fingerprint()) {
      return {false, "recovery",
              "canonicalized fingerprints differ after recovery"};
    }
  }

  // (f) safety: the deployed final state verifies clean, and any
  // counterexample the checker emits must reproduce when replayed through
  // the data plane. The planted fault desynchronizes RIB and deployment
  // behind the runtime's back, which must surface as a loop violation.
  if (options_.check_verifier) {
    SdxRuntime rt;
    build_base(rt, trace);
    rt.enable_verification();  // exercises the incremental stage per op
    for (const auto& op : trace.ops) apply_op(rt, trace, op);
    rt.background_recompile();
    if (options_.fault == Fault::kPlantVerifierLoop) {
      plant_verifier_loop(rt);
    }
    const auto report = rt.verify_now();
    const auto view = rt.deployment_view();
    for (const auto& v : report.violations) {
      if (!v.counterexample) continue;
      if (!verify::replay(view, *v.counterexample).reproduces(v.kind)) {
        return {false, "verify",
                "counterexample does not reproduce under replay: " + v.what};
      }
    }
    if (options_.fault == Fault::kPlantVerifierLoop) {
      // Like every planted fault, detection means check() fails: the fault
      // creates a genuinely unsafe deployment, so a passing check here
      // would mean the safety detector is broken.
      const bool saw_loop = std::any_of(
          report.violations.begin(), report.violations.end(),
          [](const verify::SafetyViolation& v) {
            return v.kind == verify::ViolationKind::kLoop && v.counterexample;
          });
      if (saw_loop) {
        return {false, "verify",
                "planted forwarding loop detected: " + report.to_string()};
      }
    } else if (!report.ok()) {
      return {false, "verify", "unsafe deployment: " + report.to_string()};
    }
  }

  return {true, "", ""};
}

Trace DifferentialOracle::minimize(const Trace& trace) const {
  if (check(trace).ok) return trace;
  Trace best = trace;
  std::size_t chunk = std::max<std::size_t>(1, best.ops.size() / 2);
  while (true) {
    bool removed_any = false;
    std::size_t at = 0;
    while (at < best.ops.size()) {
      const std::size_t end = std::min(best.ops.size(), at + chunk);
      Trace candidate = best;
      candidate.ops.erase(
          candidate.ops.begin() + static_cast<std::ptrdiff_t>(at),
          candidate.ops.begin() + static_cast<std::ptrdiff_t>(end));
      if (!check(candidate).ok) {
        best = std::move(candidate);
        removed_any = true;
      } else {
        at = end;
      }
    }
    if (best.ops.empty()) break;
    if (!removed_any) {
      if (chunk == 1) break;
      chunk = std::max<std::size_t>(1, chunk / 2);
    }
  }
  return best;
}

std::string DifferentialOracle::write_regression(const std::string& dir,
                                                 const Trace& trace) {
  fs::create_directories(dir);
  const auto bytes = encode_trace(trace);
  const std::uint32_t digest = persist::crc32c(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size()));
  char name[32];
  std::snprintf(name, sizeof(name), "trace-%08x.bin", digest);
  const std::string path = dir + "/" + name;
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) throw std::runtime_error("failed to write " + path);
  return path;
}

Trace DifferentialOracle::load_regression(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::string bytes{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
  return decode_trace(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
}

}  // namespace sdx::fuzz
