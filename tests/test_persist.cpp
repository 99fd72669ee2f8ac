// Unit tests for the persist/ library: CRC-32C, the binary codec, WAL
// framing and torn-tail detection, checkpoint atomicity, and journal
// scan/rotate/prune behaviour. Crash-recovery behaviour of the full runtime
// lives in test_recovery.cpp.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "persist/checkpoint.hpp"
#include "persist/crc32c.hpp"
#include "persist/journal.hpp"
#include "persist/wal.hpp"

namespace fs = std::filesystem;
using namespace sdx;
using namespace sdx::persist;

namespace {

/// mkdtemp-backed scratch directory, removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/sdx_persist_XXXXXX";
    path = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string operator/(const std::string& name) const {
    return path + "/" + name;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
}

bgp::Route sample_route() {
  bgp::Route r;
  r.prefix = net::Ipv4Prefix::parse("100.1.0.0/16");
  r.attrs.origin = bgp::Origin::kEgp;
  r.attrs.as_path = net::AsPath{65002, 900, 10};
  r.attrs.next_hop = net::Ipv4Address::parse("10.0.0.2");
  r.attrs.med = 50;
  r.attrs.communities = {bgp::make_community(65002, 7), bgp::kNoExport};
  r.learned_from = 2;
  r.peer_router_id = net::Ipv4Address::parse("10.0.0.2");
  return r;
}

core::Participant sample_participant() {
  core::Participant p;
  p.id = 3;
  p.name = "C";
  p.asn = 65003;
  core::PhysicalPort port;
  port.id = 4;
  port.router_mac = net::MacAddress(0x00'16'3E'00'00'04ull);
  port.router_ip = net::Ipv4Address::parse("10.0.0.4");
  p.ports.push_back(port);
  core::OutboundClause out;
  out.match.dst_port(80).src(net::Ipv4Prefix::parse("96.0.0.0/8"));
  out.to = 2;
  p.outbound.push_back(out);
  core::InboundClause in;
  in.match.dst(net::Ipv4Prefix::parse("100.1.0.0/16"));
  in.rewrites.emplace_back(net::Field::kDstIp,
                           net::Ipv4Address::parse("100.1.0.9").value());
  in.to_port = 0;
  p.inbound.push_back(in);
  return p;
}

}  // namespace

// --- CRC-32C ----------------------------------------------------------------

TEST(Crc32c, KnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix / every
  // implementation's self-test vector).
  EXPECT_EQ(crc32c("123456789"), 0xE3069283u);
}

TEST(Crc32c, EmptyIsZero) { EXPECT_EQ(crc32c(""), 0u); }

TEST(Crc32c, SeedChainsIncrementally) {
  const std::string a = "write-ahead";
  const std::string b = " log";
  EXPECT_EQ(crc32c(b, crc32c(a)), crc32c(a + b));
}

// --- codec ------------------------------------------------------------------

TEST(Codec, RouteRoundTrip) {
  const bgp::Route r = sample_route();
  Encoder e;
  put_route(e, r);
  Decoder d(e.bytes());
  EXPECT_EQ(get_route(d), r);
  EXPECT_TRUE(d.done());
}

TEST(Codec, RouteWithoutOptionalAttrs) {
  bgp::Route r = sample_route();
  r.attrs.med.reset();
  r.attrs.local_pref.reset();
  r.attrs.communities.clear();
  Encoder e;
  put_route(e, r);
  Decoder d(e.bytes());
  EXPECT_EQ(get_route(d), r);
}

TEST(Codec, ParticipantRoundTrip) {
  const core::Participant p = sample_participant();
  Encoder e;
  put_participant(e, p);
  Decoder d(e.bytes());
  EXPECT_EQ(get_participant(d), p);
  EXPECT_TRUE(d.done());
}

TEST(Codec, FlowMatchRoundTripsAllMaskShapes) {
  net::FlowMatch m;
  m.set(net::Field::kDstIp,
        net::FieldMatch::prefix(net::Ipv4Prefix::parse("100.1.0.0/16")));
  m.set(net::Field::kDstPort, net::FieldMatch::exact(80));
  // Remaining fields stay wildcard.
  Encoder e;
  put_flow_match(e, m);
  Decoder d(e.bytes());
  EXPECT_EQ(get_flow_match(d), m);
}

TEST(Codec, ClassifierRoundTrip) {
  policy::Rule r1;
  r1.match.set(net::Field::kDstPort, net::FieldMatch::exact(443));
  policy::ActionSeq a;
  a.then_set(net::Field::kPort, 7).then_set(net::Field::kDstMac, 0x42);
  r1.actions.push_back(a);
  policy::Rule r2;  // drop rule: no actions
  const policy::Classifier c({r1, r2});

  Encoder e;
  put_classifier(e, c);
  Decoder d(e.bytes());
  const policy::Classifier back = get_classifier(d);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back.rules()[0].match, r1.match);
  ASSERT_EQ(back.rules()[0].actions.size(), 1u);
  EXPECT_EQ(back.rules()[0].actions[0].mods(), a.mods());
  EXPECT_TRUE(back.rules()[1].actions.empty());
}

TEST(Codec, TruncatedPayloadThrows) {
  Encoder e;
  put_route(e, sample_route());
  const std::string bytes = e.bytes();
  for (std::size_t cut : {std::size_t{0}, bytes.size() / 2,
                          bytes.size() - 1}) {
    Decoder d(std::string_view(bytes).substr(0, cut));
    EXPECT_THROW(get_route(d), CodecError) << "cut at " << cut;
  }
}

TEST(Codec, NonContiguousMaskRoundTrips) {
  // Arbitrary ternary masks are first-class since the partitioned
  // pipeline installs attribute-bit dst-MAC rules: a mask with a hole
  // decodes to the equivalent masked FieldMatch.
  Encoder e;
  for (std::size_t i = 0; i < net::kAllFields.size(); ++i) {
    e.u64(i == 0 ? 0x20200030ull : 0);
    e.u64(i == 0 ? 0xF0F0F0F0ull : 0);
  }
  Decoder d(e.bytes());
  const net::FlowMatch back = get_flow_match(d);
  EXPECT_EQ(back.field(net::kAllFields[0]),
            net::FieldMatch::masked(0x20200030ull, 0xF0F0F0F0ull));
}

TEST(Codec, ValueOutsideMaskThrows) {
  // Bits set in the value but absent from the mask can never match —
  // the constructors mask them away, so on the wire they are corruption.
  Encoder e;
  for (std::size_t i = 0; i < net::kAllFields.size(); ++i) {
    e.u64(i == 0 ? 0x0F000000ull : 0);
    e.u64(i == 0 ? 0xF0F0F0F0ull : 0);
  }
  Decoder d(e.bytes());
  EXPECT_THROW(get_flow_match(d), CodecError);
}

// --- WAL records ------------------------------------------------------------

TEST(WalRecord, AnnounceRoundTrip) {
  WalRecord rec;
  rec.type = WalRecordType::kAnnounce;
  rec.participant = 2;
  rec.prefix = net::Ipv4Prefix::parse("100.1.0.0/16");
  rec.has_path = true;
  rec.path = net::AsPath{65002, 900};
  rec.communities = {bgp::make_community(0, 65003)};
  const WalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.type, rec.type);
  EXPECT_EQ(back.participant, rec.participant);
  EXPECT_EQ(back.prefix, rec.prefix);
  EXPECT_TRUE(back.has_path);
  EXPECT_EQ(back.path, rec.path);
  EXPECT_EQ(back.communities, rec.communities);
}

TEST(WalRecord, PolicyRoundTrip) {
  WalRecord rec;
  rec.type = WalRecordType::kSetOutbound;
  rec.participant = 1;
  rec.outbound = sample_participant().outbound;
  const WalRecord back = decode_record(encode_record(rec));
  EXPECT_EQ(back.type, WalRecordType::kSetOutbound);
  EXPECT_EQ(back.outbound, rec.outbound);

  WalRecord rec2;
  rec2.type = WalRecordType::kSetInbound;
  rec2.participant = 3;
  rec2.inbound = sample_participant().inbound;
  const WalRecord back2 = decode_record(encode_record(rec2));
  EXPECT_EQ(back2.inbound, rec2.inbound);
}

TEST(WalRecord, UnknownTypeThrows) {
  Encoder e;
  e.u8(99);
  e.u32(1);
  EXPECT_THROW(decode_record(e.bytes()), CodecError);
}

// --- WAL segments -----------------------------------------------------------

TEST(WalSegment, WriteReadRoundTrip) {
  TempDir dir;
  const std::string path = dir / "wal-0.log";
  {
    WalWriter w = WalWriter::create(path, 42, /*genesis=*/true);
    w.append("alpha");
    w.append("beta");
    w.append("");
    w.sync();
  }
  const WalSegment seg = read_wal_segment(path);
  EXPECT_TRUE(seg.header_valid);
  EXPECT_EQ(seg.first_lsn, 42u);
  EXPECT_TRUE(seg.genesis);
  ASSERT_EQ(seg.payloads.size(), 3u);
  EXPECT_EQ(seg.payloads[0], "alpha");
  EXPECT_EQ(seg.payloads[1], "beta");
  EXPECT_EQ(seg.payloads[2], "");
  EXPECT_EQ(seg.torn_bytes, 0u);
  EXPECT_EQ(seg.valid_bytes, fs::file_size(path));
}

TEST(WalSegment, TruncationAtEveryByteDropsOnlyTheTornRecord) {
  TempDir dir;
  const std::string path = dir / "wal-0.log";
  {
    WalWriter w = WalWriter::create(path, 0, true);
    w.append("first-record");
    w.append("second-record");
  }
  const std::string full = read_file(path);
  const std::size_t second_start =
      kWalHeaderBytes + kWalFrameBytes + std::string("first-record").size();
  // Every truncation point inside the second record must recover exactly
  // the first record and report the rest as torn.
  for (std::size_t cut = second_start; cut < full.size(); ++cut) {
    const std::string trunc_path = dir / "trunc.log";
    write_file(trunc_path, full.substr(0, cut));
    const WalSegment seg = read_wal_segment(trunc_path);
    EXPECT_TRUE(seg.header_valid);
    ASSERT_EQ(seg.payloads.size(), 1u) << "cut at " << cut;
    EXPECT_EQ(seg.payloads[0], "first-record");
    EXPECT_EQ(seg.valid_bytes, second_start);
    EXPECT_EQ(seg.torn_bytes, cut - second_start);
  }
}

TEST(WalSegment, CorruptPayloadStopsTheScan) {
  TempDir dir;
  const std::string path = dir / "wal-0.log";
  {
    WalWriter w = WalWriter::create(path, 0, true);
    w.append("kept");
    w.append("corrupted");
  }
  std::string bytes = read_file(path);
  bytes[bytes.size() - 3] ^= 0x01;  // flip a bit inside the last payload
  write_file(path, bytes);
  const WalSegment seg = read_wal_segment(path);
  ASSERT_EQ(seg.payloads.size(), 1u);
  EXPECT_EQ(seg.payloads[0], "kept");
  EXPECT_GT(seg.torn_bytes, 0u);
}

TEST(WalSegment, TornHeaderInvalidatesWholeFile) {
  TempDir dir;
  const std::string path = dir / "wal-0.log";
  write_file(path, "SDXWAL01\x01\x02");  // header never fully landed
  const WalSegment seg = read_wal_segment(path);
  EXPECT_FALSE(seg.header_valid);
  EXPECT_EQ(seg.torn_bytes, fs::file_size(path));
}

TEST(WalWriter, OpenAppendTruncatesTornTail) {
  TempDir dir;
  const std::string path = dir / "wal-0.log";
  std::size_t clean = 0;
  {
    WalWriter w = WalWriter::create(path, 0, true);
    w.append("complete");
    clean = w.size();
  }
  write_file(path, read_file(path) + "torn-garbage");
  {
    WalWriter w = WalWriter::open_append(path, clean);
    w.append("after-recovery");
  }
  const WalSegment seg = read_wal_segment(path);
  ASSERT_EQ(seg.payloads.size(), 2u);
  EXPECT_EQ(seg.payloads[0], "complete");
  EXPECT_EQ(seg.payloads[1], "after-recovery");
  EXPECT_EQ(seg.torn_bytes, 0u);
}

// --- checkpoints ------------------------------------------------------------

namespace {

CheckpointState sample_checkpoint() {
  CheckpointState st;
  st.participants = {sample_participant()};
  st.routes = {sample_route()};
  st.vnh_pool = net::Ipv4Prefix::parse("172.16.0.0/12");
  st.vnh_allocated = 3;
  st.installed = true;
  policy::Rule rule;
  rule.match.set(net::Field::kDstMac, net::FieldMatch::exact(0x020000000001));
  policy::ActionSeq act;
  act.then_set(net::Field::kPort, 4);
  rule.actions.push_back(act);
  st.compiled.fabric = policy::Classifier({rule});
  core::PrefixGroup group;
  group.prefixes = {net::Ipv4Prefix::parse("100.1.0.0/16")};
  group.clauses = {0};
  group.defaults = {std::nullopt, core::ParticipantId{2}};
  st.compiled.fecs.groups.push_back(group);
  st.compiled.fecs.group_of[group.prefixes[0]] = 0;
  st.compiled.bindings = {{net::Ipv4Address::parse("172.16.0.1"),
                           net::MacAddress(0x020000000001ull)}};
  st.compiled.reaches = {{3, 0, group.prefixes}};
  st.fingerprint = st.compiled.fingerprint();
  st.fast_bindings = {{net::Ipv4Prefix::parse("100.2.0.0/16"),
                       {net::Ipv4Address::parse("172.16.0.2"),
                        net::MacAddress(0x020000000002ull)}}};
  st.unbound = {net::Ipv4Prefix::parse("100.3.0.0/16")};
  st.remote_bindings = {{4,
                         {net::Ipv4Address::parse("172.16.0.3"),
                          net::MacAddress(0x020000000003ull)}}};
  CheckpointState::ExtraRule extra;
  extra.priority = 1u << 24;
  extra.cookie = 8;
  extra.rule = rule;
  st.extra_rules.push_back(extra);
  return st;
}

}  // namespace

TEST(Checkpoint, RoundTripPreservesFingerprint) {
  const CheckpointState st = sample_checkpoint();
  const CheckpointState back = decode_checkpoint(encode_checkpoint(st));
  EXPECT_EQ(back.participants, st.participants);
  ASSERT_EQ(back.routes.size(), 1u);
  EXPECT_EQ(back.routes[0], st.routes[0]);
  EXPECT_EQ(back.vnh_allocated, st.vnh_allocated);
  EXPECT_TRUE(back.installed);
  EXPECT_EQ(back.fingerprint, st.fingerprint);
  // The decoded artifact must fingerprint identically — the warm-restart
  // gate in SdxRuntime::recover().
  EXPECT_EQ(back.compiled.fingerprint(), st.compiled.fingerprint());
  // group_of is rebuilt, not stored.
  ASSERT_EQ(back.compiled.fecs.group_of.size(), 1u);
  EXPECT_EQ(back.compiled.fecs.group_of.at(
                net::Ipv4Prefix::parse("100.1.0.0/16")),
            0u);
  EXPECT_EQ(back.fast_bindings, st.fast_bindings);
  EXPECT_EQ(back.unbound, st.unbound);
  EXPECT_EQ(back.remote_bindings, st.remote_bindings);
  ASSERT_EQ(back.extra_rules.size(), 1u);
  EXPECT_EQ(back.extra_rules[0].priority, st.extra_rules[0].priority);
  EXPECT_EQ(back.extra_rules[0].cookie, st.extra_rules[0].cookie);
}

TEST(Checkpoint, FileWriteIsAtomicAndValidates) {
  TempDir dir;
  const std::string path = dir / "checkpoint-1.ckpt";
  write_checkpoint_file(path, sample_checkpoint());
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  const auto loaded = try_load_checkpoint(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->fingerprint, sample_checkpoint().fingerprint);
}

TEST(Checkpoint, CorruptionYieldsNullopt) {
  TempDir dir;
  const std::string path = dir / "checkpoint-1.ckpt";
  write_checkpoint_file(path, sample_checkpoint());
  std::string bytes = read_file(path);

  EXPECT_FALSE(try_load_checkpoint(dir / "missing.ckpt").has_value());

  std::string flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x10;
  write_file(path, flipped);
  EXPECT_FALSE(try_load_checkpoint(path).has_value());

  write_file(path, bytes.substr(0, bytes.size() - 7));
  EXPECT_FALSE(try_load_checkpoint(path).has_value());

  write_file(path, "not a checkpoint at all");
  EXPECT_FALSE(try_load_checkpoint(path).has_value());

  // An intact file of an earlier format version (the u32 after the
  // 8-byte magic; the CRC covers only the payload) is refused too, so
  // recovery falls back to an older checkpoint or the WAL.
  for (const char version : {2, 3}) {
    std::string older = bytes;
    older[8] = version;
    write_file(path, older);
    EXPECT_FALSE(try_load_checkpoint(path).has_value()) << int{version};
  }
  write_file(path, bytes);
  EXPECT_TRUE(try_load_checkpoint(path).has_value());
}

// --- journal ----------------------------------------------------------------

TEST(Journal, FreshDirectoryRecordsGenesisChain) {
  TempDir dir;
  {
    Journal j(dir.path);
    EXPECT_TRUE(j.empty());
    j.start_recording(/*genesis_if_new=*/true);
    WalRecord rec;
    rec.type = WalRecordType::kInstall;
    EXPECT_EQ(j.append(rec), 0u);
    EXPECT_EQ(j.append(rec), 1u);
    EXPECT_EQ(j.next_lsn(), 2u);
    EXPECT_GT(j.bytes_appended(), 0u);
  }
  Journal j(dir.path);
  EXPECT_FALSE(j.empty());
  EXPECT_TRUE(j.complete_history());
  EXPECT_FALSE(j.checkpoint().has_value());
  EXPECT_EQ(j.tail().size(), 2u);
  EXPECT_EQ(j.next_lsn(), 2u);
}

TEST(Journal, CheckpointRotatesAndPrunes) {
  TempDir dir;
  WalRecord rec;
  rec.type = WalRecordType::kInstall;
  {
    Journal j(dir.path);
    j.start_recording(true);
    j.append(rec);
    j.append(rec);
    EXPECT_EQ(j.write_checkpoint(sample_checkpoint()), 2u);
    EXPECT_EQ(j.last_checkpoint_lsn(), 2u);
    j.append(rec);  // lsn 2 → the new segment
  }
  // Exactly one checkpoint and one (post-rotation) segment survive.
  std::size_t ckpts = 0, segs = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    ckpts += name.ends_with(".ckpt");
    segs += name.ends_with(".log");
  }
  EXPECT_EQ(ckpts, 1u);
  EXPECT_EQ(segs, 1u);

  Journal j(dir.path);
  ASSERT_TRUE(j.checkpoint().has_value());
  EXPECT_EQ(j.checkpoint()->lsn, 2u);
  EXPECT_EQ(j.tail().size(), 1u);       // only the post-checkpoint record
  EXPECT_FALSE(j.complete_history());   // pre-checkpoint history was pruned
  EXPECT_EQ(j.next_lsn(), 3u);
}

TEST(Journal, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  TempDir dir;
  {
    Journal j(dir.path);
    j.start_recording(true);
    j.write_checkpoint(sample_checkpoint());
  }
  // A half-written newer checkpoint (crash mid-rename never happens — but a
  // corrupted file can): must fall back to the older valid one.
  write_file(dir / "checkpoint-00000000000000000099.ckpt", "garbage");
  Journal j(dir.path);
  ASSERT_TRUE(j.checkpoint().has_value());
  EXPECT_EQ(j.checkpoint()->lsn, 0u);
}

TEST(Journal, ReopenTruncatesTornTailAndContinues) {
  TempDir dir;
  WalRecord rec;
  rec.type = WalRecordType::kSessionDown;
  rec.participant = 7;
  std::string seg_path;
  {
    Journal j(dir.path);
    j.start_recording(true);
    j.append(rec);
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      seg_path = entry.path().string();
    }
  }
  write_file(seg_path, read_file(seg_path) + "half-a-record");
  {
    Journal j(dir.path);
    EXPECT_EQ(j.tail().size(), 1u);
    EXPECT_GT(j.torn_bytes(), 0u);
    j.start_recording(true);
    EXPECT_EQ(j.append(rec), 1u);
  }
  Journal j(dir.path);
  EXPECT_EQ(j.tail().size(), 2u);
  EXPECT_EQ(j.torn_bytes(), 0u);
}

TEST(Journal, AppendBeforeStartRecordingThrows) {
  TempDir dir;
  Journal j(dir.path);
  WalRecord rec;
  EXPECT_THROW(j.append(rec), std::logic_error);
}
