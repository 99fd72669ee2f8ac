#pragma once

/// \file wal.hpp
/// Write-ahead-log records and segment files.
///
/// A WAL record is one externally-driven runtime mutation — the inputs the
/// controller cannot rederive after a crash. Everything else (compiled
/// tables, fast-path rules, advertisement state) is a deterministic
/// function of this input sequence plus the initial state, which is what
/// makes replay-based recovery byte-exact.
///
/// Segment file layout (`wal-<first-lsn>.log`, zero-padded for lexical
/// ordering):
///
///   header:  magic "SDXWAL01" | u64 first_lsn | u8 genesis | u32 crc32c
///   record:  u32 payload_len | u32 crc32c(payload) | payload
///   record:  ...
///
/// `genesis` marks a segment chain that starts at the runtime's birth — a
/// log that can be replayed into a fresh runtime with no checkpoint at
/// all. Records are length-prefixed and CRC-framed so a crash mid-append
/// leaves a *detectably* torn tail: the reader stops at the first frame
/// whose length or checksum does not hold, reports how many bytes it
/// discarded, and the journal truncates the file there before appending
/// again. All integers little-endian (codec.hpp).

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "persist/codec.hpp"

namespace sdx::persist {

/// Fixed size of a segment-file header (magic + first LSN + genesis flag +
/// header CRC).
inline constexpr std::size_t kWalHeaderBytes = 8 + 8 + 1 + 4;
/// Fixed per-record framing overhead (length + payload CRC).
inline constexpr std::size_t kWalFrameBytes = 4 + 4;

enum class WalRecordType : std::uint8_t {
  kAddParticipant = 1,
  kAddRemoteParticipant = 2,
  kSetOutbound = 3,
  kSetInbound = 4,
  kAnnounce = 5,
  kWithdraw = 6,
  kSessionDown = 7,
  kInstall = 8,
};

/// One logged mutation. A single struct with a per-type subset of fields
/// in use — the record stream is small and uniform handling keeps the
/// replay switch flat.
struct WalRecord {
  WalRecordType type = WalRecordType::kInstall;
  bgp::ParticipantId participant = 0;

  // kAddParticipant / kAddRemoteParticipant
  std::string name{};
  net::Asn asn = 0;
  std::uint32_t port_count = 0;

  // kSetOutbound / kSetInbound (the full clause list, not a delta — the
  // runtime API is set-not-append, so the record mirrors the call).
  std::vector<core::OutboundClause> outbound{};
  std::vector<core::InboundClause> inbound{};

  // kAnnounce / kWithdraw
  net::Ipv4Prefix prefix{};
  bool has_path = false;
  net::AsPath path{};
  std::vector<bgp::Community> communities{};
};

std::string encode_record(const WalRecord& rec);
/// Throws CodecError on malformed payloads (a frame that passed its CRC
/// but does not decode — i.e. written by an incompatible version).
WalRecord decode_record(std::string_view payload);

/// Everything read back from one segment file.
struct WalSegment {
  std::uint64_t first_lsn = 0;
  bool genesis = false;
  bool header_valid = false;
  std::vector<std::string> payloads;  ///< fully-framed records, in order
  /// File offset just past the last intact record — the truncation point
  /// for torn-tail cleanup.
  std::uint64_t valid_bytes = 0;
  /// Bytes past valid_bytes (a torn or corrupt tail), 0 on a clean file.
  std::uint64_t torn_bytes = 0;
};

/// Reads a whole segment, stopping at the first torn or corrupt frame.
/// Throws std::system_error only when the file cannot be opened/read.
WalSegment read_wal_segment(const std::string& path);

/// Append handle on one segment file. Writes go straight to the file
/// descriptor (no userspace buffering) so a crash can only lose or tear
/// the record being written — never reorder earlier ones. Move-only.
class WalWriter {
 public:
  /// Creates a fresh segment (truncating any stale file at \p path) and
  /// writes its header.
  static WalWriter create(const std::string& path, std::uint64_t first_lsn,
                          bool genesis);

  /// Reopens an existing segment for appending, truncating it to
  /// \p valid_bytes first (torn-tail cleanup).
  static WalWriter open_append(const std::string& path,
                               std::uint64_t valid_bytes);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one framed record; returns the bytes written (frame +
  /// payload).
  std::size_t append(std::string_view payload);

  /// fsync() the segment.
  void sync();

  std::uint64_t size() const { return size_; }

 private:
  WalWriter(int fd, std::uint64_t size) : fd_(fd), size_(size) {}

  int fd_ = -1;
  std::uint64_t size_ = 0;
};

}  // namespace sdx::persist
