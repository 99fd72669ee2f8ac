#pragma once

/// \file checkpoint.hpp
/// Binary checkpoints: a point-in-time serialization of every durable piece
/// of SDX controller state, written atomically so crash recovery always
/// finds either the previous checkpoint or the new one — never a hybrid.
///
/// File layout (`checkpoint-<lsn>.ckpt`, zero-padded for lexical ordering):
///
///   magic "SDXCKPT1" | u32 version | u32 crc32c(payload) | u64 payload_len
///   | payload
///
/// The payload is the encoded CheckpointState. Atomicity protocol: write to
/// `<name>.tmp`, fsync the file, rename() over the final name, fsync the
/// directory. A crash at any point leaves at most a stale .tmp (ignored by
/// recovery) or the complete file.
///
/// The checkpoint stores the *compiled* artifact alongside the inputs that
/// produced it, plus its fingerprint. On recovery the runtime re-derives
/// state from the inputs, decodes the artifact, and compares fingerprints:
/// a match proves the decoded tables equal what a fresh compilation would
/// produce, so the runtime adopts them without compiling — warm restart —
/// and the persisted VNH/VMAC bindings (hence border-router ARP caches)
/// stay valid.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "persist/codec.hpp"
#include "sdx/compiler.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::persist {

/// The durable state of one SdxRuntime. Inputs (participants, routes) come
/// first; the compiled artifact plus fast-path residue follows only when
/// the runtime was installed.
struct CheckpointState {
  /// WAL position this checkpoint covers: every record with lsn < this is
  /// folded in; replay resumes at this LSN.
  std::uint64_t lsn = 0;

  /// Participants in registration order (ids, ports, MACs, IPs and policies
  /// included — restore re-registers them and verifies the regenerated
  /// state matches byte-for-byte).
  std::vector<core::Participant> participants;

  /// Full RIB dump (every candidate route, ranked order) — re-announced on
  /// restore; the total decision order makes the result insertion-order
  /// independent.
  std::vector<bgp::Route> routes;

  // VNH allocator: pool plus high-water mark.
  net::Ipv4Prefix vnh_pool = net::Ipv4Prefix::parse("172.16.0.0/12");
  std::uint64_t vnh_allocated = 0;

  bool installed = false;

  // --- present only when installed ---------------------------------------

  /// The compiled artifact as installed (stats zeroed — timings are not
  /// state).
  core::CompiledSdx compiled;
  /// compiled.fingerprint() at capture time; the warm-restart gate.
  std::string fingerprint;

  /// The binding table (sdx/install_stage.hpp) as far as the compiled
  /// groups do not imply it: every prefix held off its compiled group with
  /// its binding — a fast-path binding, or another group's — sorted by
  /// prefix for a canonical encoding. Restore groups them into entries by
  /// VNH; a fast entry's band cookie derives from its VNH, and its
  /// signature is recomputed from one member on the restored RIB (every
  /// live binding was composed under the checkpointed policies, so every
  /// fast entry is in the signature index).
  std::vector<std::pair<net::Ipv4Prefix, core::VnhBinding>> fast_bindings;
  /// Prefixes held with no binding (a group member flushed to an empty
  /// signature), sorted.
  std::vector<net::Ipv4Prefix> unbound;
  /// Remote-participant bindings, sorted by participant id.
  std::vector<std::pair<bgp::ParticipantId, core::VnhBinding>>
      remote_bindings;

  /// Fast-path rules layered above the base classifier (cookie != base),
  /// in flow-table dump order.
  struct ExtraRule {
    std::uint32_t priority = 0;
    std::uint64_t cookie = 0;
    policy::Rule rule;
  };
  std::vector<ExtraRule> extra_rules;
};

std::string encode_checkpoint(const CheckpointState& state);
/// Throws CodecError on malformed payloads.
CheckpointState decode_checkpoint(std::string_view payload);

/// Writes \p state to \p path via the tmp+fsync+rename+dirsync protocol.
/// Throws std::system_error on I/O failure (the tmp file is removed).
void write_checkpoint_file(const std::string& path,
                           const CheckpointState& state);

/// Reads and validates one checkpoint file. Returns nullopt on any defect —
/// missing file, bad magic/version, CRC mismatch, truncation, or a payload
/// that fails to decode — so the journal can fall back to an older
/// checkpoint.
std::optional<CheckpointState> try_load_checkpoint(const std::string& path);

}  // namespace sdx::persist
