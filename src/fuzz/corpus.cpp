#include "fuzz/corpus.hpp"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bgp/mrt.hpp"
#include "fuzz/diff_oracle.hpp"
#include "ixp/update_trace.hpp"
#include "persist/checkpoint.hpp"
#include "persist/codec.hpp"
#include "persist/wal.hpp"

namespace sdx::fuzz {

namespace {

Bytes to_bytes(std::string_view s) {
  return Bytes(s.begin(), s.end());
}

net::Ipv4Prefix prefix_of(std::size_t i) {
  return net::Ipv4Prefix(
      net::Ipv4Address((100u << 24) | (static_cast<std::uint32_t>(i % 200 + 1)
                                       << 16)),
      16);
}

/// A short paper-calibrated event tail shared by several corpora.
std::vector<ixp::TraceEvent> trace_events(std::uint64_t seed,
                                          std::size_t cap) {
  ixp::TraceConfig cfg;
  cfg.seed = seed;
  cfg.duration_s = 6 * 3600.0;
  cfg.prefix_count = 64;
  cfg.frac_prefixes_updated = 0.5;
  auto events = ixp::generate_trace_vector(cfg);
  if (events.size() > cap) events.resize(cap);
  return events;
}

bgp::UpdateMessage update_for(const ixp::TraceEvent& ev) {
  bgp::UpdateMessage u;
  if (ev.withdrawal) {
    u.withdrawn = {prefix_of(ev.prefix_index)};
  } else {
    bgp::RouteAttributes attrs;
    attrs.as_path =
        net::AsPath{65001, static_cast<net::Asn>(100 + ev.prefix_index % 50)};
    attrs.next_hop = net::Ipv4Address::parse("10.0.0.1");
    attrs.local_pref = 150;
    attrs.communities = {bgp::make_community(65001, 1)};
    u.attrs = attrs;
    u.nlri = {prefix_of(ev.prefix_index)};
  }
  return u;
}

std::vector<Bytes> wire_seeds(std::uint64_t seed) {
  std::vector<Bytes> out;
  // Trace-derived UPDATEs: the realistic region of the input space.
  for (const auto& ev : trace_events(seed, 12)) {
    out.push_back(bgp::encode(update_for(ev)));
  }
  // Every message type plus field-mutated variants.
  net::SplitMix64 rng(seed * 61 + 5);
  for (int i = 0; i < 12; ++i) {
    out.push_back(sample_wire_bytes(rng, i % 3));
  }
  return out;
}

std::vector<Bytes> mrt_seeds(std::uint64_t seed) {
  std::vector<Bytes> out;
  const auto events = trace_events(seed, 10);
  // One stream with the whole tail and one record per single-event stream.
  std::ostringstream all;
  std::uint32_t ts = 1000;
  for (const auto& ev : events) {
    bgp::Bgp4mpMessage msg;
    msg.peer_as = 65001;
    msg.local_as = 65500;
    msg.peer_ip = net::Ipv4Address::parse("10.0.0.1");
    msg.local_ip = net::Ipv4Address::parse("10.0.0.254");
    msg.message = update_for(ev);
    const auto record = bgp::encode_bgp4mp(ts++, msg);
    bgp::write_record(all, record);
    std::ostringstream one;
    bgp::write_record(one, record);
    out.push_back(to_bytes(one.str()));
  }
  out.push_back(to_bytes(all.str()));
  return out;
}

std::vector<Bytes> framer_seeds(std::uint64_t seed) {
  // run_framer layout: [8-byte chunk-size RNG seed][BGP byte stream].
  const auto with_seed_prefix = [](std::uint64_t rng_seed, Bytes stream) {
    Bytes out;
    out.reserve(8 + stream.size());
    for (int i = 7; i >= 0; --i) {
      out.push_back(static_cast<std::uint8_t>(rng_seed >> (8 * i)));
    }
    out.insert(out.end(), stream.begin(), stream.end());
    return out;
  };
  std::vector<Bytes> out;
  const auto events = trace_events(seed, 10);
  // Multi-message streams — the torn-read sweep's realistic region.
  Bytes all;
  std::uint64_t rng_seed = seed * 97 + 13;
  for (const auto& ev : events) {
    const auto frame = bgp::encode(update_for(ev));
    all.insert(all.end(), frame.begin(), frame.end());
    out.push_back(with_seed_prefix(rng_seed++, frame));
  }
  out.push_back(with_seed_prefix(rng_seed++, all));
  // A stream ending in a torn frame (clean prefix + half a header).
  Bytes torn = all;
  torn.resize(all.size() / 2);
  out.push_back(with_seed_prefix(rng_seed++, std::move(torn)));
  // A framing error: length field below the RFC 4271 minimum.
  Bytes bad(19, 0xff);
  bad[16] = 0;
  bad[17] = 7;
  out.push_back(with_seed_prefix(rng_seed++, std::move(bad)));
  return out;
}

std::vector<Bytes> codec_seeds(std::uint64_t seed) {
  (void)seed;
  std::vector<Bytes> out;
  const auto tagged = [&out](std::uint8_t kind, std::string_view payload) {
    Bytes b;
    b.push_back(kind);
    b.insert(b.end(), payload.begin(), payload.end());
    out.push_back(std::move(b));
  };

  persist::Encoder e;
  persist::put_as_path(e, net::AsPath{65001, 7, 8});
  tagged(0, e.take());

  auto match = core::ClauseMatch{}.dst_port(80).dst(prefix_of(3));
  e = {};
  persist::put_clause_match(e, match);
  tagged(1, e.take());

  e = {};
  persist::put_outbound_clause(e, core::OutboundClause{match, 2});
  tagged(2, e.take());

  core::InboundClause inbound;
  inbound.match = core::ClauseMatch{}.dst_port(443);
  inbound.rewrites = {{net::Field::kDstPort, 8443}};
  inbound.to_port = 0;
  e = {};
  persist::put_inbound_clause(e, inbound);
  tagged(3, e.take());

  core::Participant p;
  p.id = 1;
  p.name = "A";
  p.asn = 65001;
  p.ports = {core::PhysicalPort{1, net::MacAddress(0x020000000001ull),
                                net::Ipv4Address::parse("172.0.0.1")}};
  p.outbound = {core::OutboundClause{match, 2}};
  e = {};
  persist::put_participant(e, p);
  tagged(4, e.take());

  bgp::Route r;
  r.prefix = prefix_of(1);
  r.attrs.as_path = net::AsPath{65002, 7};
  r.attrs.next_hop = net::Ipv4Address::parse("10.0.0.2");
  r.attrs.local_pref = 200;
  r.attrs.communities = {bgp::kNoExport};
  r.learned_from = 2;
  r.peer_router_id = net::Ipv4Address(2);
  e = {};
  persist::put_route(e, r);
  tagged(5, e.take());

  const auto flow = net::FlowMatch::on(net::Field::kDstPort, 80)
                        .with_prefix(net::Field::kDstIp, prefix_of(2));
  e = {};
  persist::put_flow_match(e, flow);
  tagged(6, e.take());

  const auto action = policy::ActionSeq::set(net::Field::kPort, 3)
                          .then_set(net::Field::kDstMac, 0x020000000002ull);
  e = {};
  persist::put_action_seq(e, action);
  tagged(7, e.take());

  policy::Rule rule{flow, {action}};
  e = {};
  persist::put_rule(e, rule);
  tagged(8, e.take());

  policy::Classifier classifier({rule, policy::Rule{net::FlowMatch::any(), {}}});
  e = {};
  persist::put_classifier(e, classifier);
  tagged(9, e.take());

  persist::WalRecord rec;
  rec.type = persist::WalRecordType::kAnnounce;
  rec.participant = 2;
  rec.prefix = prefix_of(1);
  rec.has_path = true;
  rec.path = net::AsPath{65002, 7};
  rec.communities = {bgp::make_community(65002, 9)};
  tagged(10, persist::encode_record(rec));

  persist::CheckpointState st;
  st.lsn = 9;
  st.participants = {p};
  st.routes = {r};
  st.vnh_allocated = 1;
  st.installed = false;
  tagged(11, persist::encode_checkpoint(st));
  return out;
}

std::vector<Bytes> wal_seeds(std::uint64_t seed) {
  std::vector<Bytes> out;
  const std::string path =
      "/tmp/sdx_corpus_wal_" + std::to_string(::getpid());
  const auto segment_bytes = [&path](bool genesis,
                                     const std::vector<persist::WalRecord>&
                                         records) {
    auto writer = persist::WalWriter::create(path, 1, genesis);
    for (const auto& rec : records) {
      writer.append(persist::encode_record(rec));
    }
    writer.sync();
    std::ifstream in(path, std::ios::binary);
    std::string bytes{std::istreambuf_iterator<char>(in),
                      std::istreambuf_iterator<char>()};
    return to_bytes(bytes);
  };

  // Header-only genesis segment.
  out.push_back(segment_bytes(true, {}));

  // A paper-calibrated announce/withdraw tail.
  std::vector<persist::WalRecord> records;
  for (const auto& ev : trace_events(seed, 8)) {
    persist::WalRecord rec;
    rec.participant = 2;
    rec.prefix = prefix_of(ev.prefix_index);
    if (ev.withdrawal) {
      rec.type = persist::WalRecordType::kWithdraw;
    } else {
      rec.type = persist::WalRecordType::kAnnounce;
      rec.has_path = true;
      rec.path = net::AsPath{65002,
                             static_cast<net::Asn>(100 + ev.prefix_index)};
    }
    records.push_back(std::move(rec));
  }
  auto clean = segment_bytes(false, records);
  out.push_back(clean);

  // A torn tail (mid-frame cut) and a corrupt frame CRC.
  auto torn = clean;
  torn.resize(torn.size() - torn.size() / 5);
  out.push_back(std::move(torn));
  auto corrupt = clean;
  corrupt[corrupt.size() / 2] ^= 0x40;
  out.push_back(std::move(corrupt));

  ::unlink(path.c_str());
  return out;
}

std::vector<Bytes> policy_seeds(std::uint64_t seed) {
  (void)seed;
  const char* kTexts[] = {
      "drop",
      "id",
      "fwd(3)",
      "mod(dstip:=1249705985)",
      "match(dstport=80) >> fwd(10)",
      "(match(dstport=80) >> fwd(10)) + (match(dstport=443) >> fwd(11))",
      "match((srcip=96.25.160.0/24 & !(ipproto=17))) >> mod(dstip:=1249705985)",
      "match(srcip=10.0.0.0/8 | dstip=100.1.0.0/16) >> mod(dstmac:=aa:bb:cc:dd:ee:ff) >> fwd(2)",
      "match(!(true & false)) >> id",
      "match(ethtype=2048) >> (match(dstport=53) >> drop) + id",
  };
  std::vector<Bytes> out;
  for (const char* text : kTexts) {
    out.push_back(to_bytes(text));
  }
  return out;
}

std::vector<Bytes> diff_oracle_seeds(std::uint64_t seed) {
  std::vector<Bytes> out;
  // The empty trace (base exchange only) and a couple of hand-picked edges.
  out.push_back(encode_trace(Trace{}));
  {
    Trace t;
    t.participants = 2;
    t.prefixes = 2;
    t.ops = {TraceOp{TraceOp::Kind::kAnnounce, 1, 0, 1},
             TraceOp{TraceOp::Kind::kWithdraw, 0, 0, 0},
             TraceOp{TraceOp::Kind::kSessionDown, 1, 0, 0}};
    out.push_back(encode_trace(t));
  }
  // Trace-model tails over a few universe sizes.
  for (std::uint64_t variant = 0; variant < 4; ++variant) {
    const auto events = trace_events(seed + variant, 10);
    Trace t;
    t.participants = static_cast<std::uint8_t>(2 + variant % 4);
    t.prefixes = static_cast<std::uint8_t>(4 + 3 * variant);
    net::SplitMix64 rng(seed * 97 + variant);
    for (const auto& ev : events) {
      TraceOp op;
      op.kind = ev.withdrawal ? TraceOp::Kind::kWithdraw
                              : TraceOp::Kind::kAnnounce;
      op.participant = static_cast<std::uint8_t>(rng());
      op.prefix = static_cast<std::uint8_t>(ev.prefix_index);
      op.variant = static_cast<std::uint8_t>(rng());
      t.ops.push_back(op);
    }
    out.push_back(encode_trace(t));
  }
  return out;
}

}  // namespace

std::vector<Bytes> seed_corpus(std::string_view target, std::uint64_t seed) {
  if (target == "wire") return wire_seeds(seed);
  if (target == "mrt") return mrt_seeds(seed);
  if (target == "codec") return codec_seeds(seed);
  if (target == "wal") return wal_seeds(seed);
  if (target == "policy") return policy_seeds(seed);
  if (target == "diff_oracle") return diff_oracle_seeds(seed);
  if (target == "framer") return framer_seeds(seed);
  throw std::invalid_argument("unknown fuzz target: " + std::string(target));
}

}  // namespace sdx::fuzz
