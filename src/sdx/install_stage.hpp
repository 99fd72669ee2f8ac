#pragma once

/// \file install_stage.hpp
/// The runtime's install stage, the one writer of the fabric's flow table
/// and ARP responder. It owns the flow-table bands with every priority and
/// cookie, the binding table, the remote participants' bindings and the
/// partition bands' priority bases. Bands, lowest first: the base band
/// (the compiled fabric, or the partitioned shared band); in partitioned
/// mode one band per partition under partition_cookie(slot), so it can be
/// swapped in place; one band per fast-path binding at kFastPriority under
/// a cookie derived from its VNH (fast_cookie()), which needs no counter
/// and survives a warm restart. Every VNH it binds in ARP lies in the
/// allocator's pool, so a full deploy unbinds the old state in one sweep.
///
/// The binding table keeps §4.2's "prefixes that behave identically share
/// one VNH" true across updates: each restricted signature maps to the one
/// live binding (entry) forwarding by it, each prefix to its entry. *Base*
/// entries are a pairwise deployment's compiled groups (ids 0..groups-1):
/// their rules live in the base band, so they never retire, and a group's
/// prefixes need no per-prefix record. *Fast* entries are made by flushes
/// for signatures no live entry has; each owns one band and one ARP entry
/// and retires with its last member. A partition swap empties the
/// signature index and re-flushes every fast entry's members at once.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dataplane/fabric.hpp"
#include "persist/checkpoint.hpp"
#include "sdx/compiler.hpp"
#include "sdx/incremental.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::core {

class InstallStage {
 public:
  InstallStage(dp::Fabric& fabric, VnhAllocator& vnh,
               telemetry::MetricRegistry& reg);

  /// The full deploy: \p compiled's base bands; one binding per remote
  /// participant, or \p restored's; the binding table from the compiled
  /// groups, plus \p restored's fast-path bindings and residue bands; and
  /// ARP for exactly what the new state binds.
  void deploy(const CompiledSdx& compiled,
              const std::vector<Participant>& participants,
              IncrementalEngine& engine,
              const persist::CheckpointState* restored);

  struct Flushed {
    std::vector<std::size_t> added;  ///< rules of the binding made for it
    std::vector<char> rebound;       ///< its binding changed
    double engine_seconds = 0;       ///< signatures and compositions
  };
  /// Binds each of \p prefixes by its restricted signature: it keeps its
  /// binding or joins the live one for its signature, and only a signature
  /// no live binding has costs a VNH, a composed band and an ARP entry. A
  /// fast binding left without members retires after the last join.
  Flushed flush(const std::vector<Ipv4Prefix>& prefixes,
                IncrementalEngine& engine);

  /// Partitioned mode, after the engine swapped \p update's partition in:
  /// swaps its band and ARP bindings in place, then empties the signature
  /// index, since every fast binding was composed under the old clauses.
  /// Returns every fast-bound prefix, sorted, for the caller to re-flush.
  std::vector<Ipv4Prefix> swap_partition(
      const IncrementalEngine::PartitionUpdate& update);

  /// Adds to \p st what a checkpoint cannot rebuild from the compiled
  /// artifact: the prefixes held off their compiled group, the remote
  /// bindings and the fast-path bands as raw rules.
  void capture(persist::CheckpointState& st) const;

  /// The next hop to advertise to participant slot \p slot for \p prefix,
  /// whose best route for that slot is \p best.
  Ipv4Address next_hop(std::size_t slot, Ipv4Prefix prefix,
                       const bgp::Route& best) const;

  std::optional<VnhBinding> binding_of(Ipv4Prefix prefix) const {
    const std::uint32_t id = entry_of(prefix);
    if (id == kNone) return std::nullopt;
    return entries_[id].binding;
  }
  /// The pairwise compiled group whose binding \p prefix holds.
  std::optional<std::uint32_t> group_of(Ipv4Prefix prefix) const {
    const std::uint32_t id = entry_of(prefix);
    if (id == kNone || is_fast(id)) return std::nullopt;
    return id;  // base entries are the compiled groups, in group order
  }
  std::optional<VnhBinding> remote_binding(ParticipantId advertiser) const {
    auto it = remote_bindings_.find(advertiser);
    if (it == remote_bindings_.end()) return std::nullopt;
    return it->second;
  }
  /// True while some prefix is held off its compiled group.
  bool diverged() const { return !held_.empty(); }

  /// Sets the flow-table and ARP occupancy gauges (registered here, so they
  /// appear only where a dump refreshes them).
  void refresh_gauges(telemetry::MetricRegistry& reg) const {
    reg.gauge("sdx_flow_table_rules", "flow rules installed in the fabric")
        .set(static_cast<double>(table_.size()));
    reg.gauge("sdx_arp_bindings", "entries in the ARP responder")
        .set(static_cast<double>(arp_.size()));
  }

 private:
  using Signature = IncrementalEngine::Signature;
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);
  struct Entry {
    VnhBinding binding;
    std::uint64_t cookie = 0;   ///< a fast entry's band; 0: base or retired
    std::uint32_t members = 0;  ///< prefixes held (fast entries only)
    bool indexed = false;       ///< in the signature index
    Signature signature;        ///< a fast entry's, once indexed
  };

  static constexpr std::uint32_t kBasePriority = 1000;
  static constexpr std::uint32_t kFastPriority = 1u << 24;
  static constexpr std::uint64_t kBaseCookie = 1;
  static constexpr std::uint64_t kFastCookieBase = kBaseCookie + 1;
  /// Above every pool offset, so partition and fast cookies never collide.
  static constexpr std::uint64_t kPartitionCookieBase = 1ull << 32;
  static constexpr std::uint64_t partition_cookie(std::size_t slot) {
    return kPartitionCookieBase + slot;
  }
  std::uint64_t fast_cookie(const VnhBinding& b) const {
    return kFastCookieBase + (b.vnh.value() - vnh_.pool().network().value());
  }
  /// Installs partition \p slot's band of \p compiled and binds its VNHs.
  void install_partition(const CompiledSdx& compiled, std::size_t slot);
  void bind(const std::vector<VnhBinding>& bindings) {
    for (const auto& b : bindings) arp_.bind(b.vnh, b.vmac);
  }
  bool is_fast(std::uint32_t id) const { return id >= base_count_; }
  /// \p prefix's compiled group's entry, and its entry (kNone: none).
  std::uint32_t base_entry(Ipv4Prefix prefix) const;
  std::uint32_t entry_of(Ipv4Prefix prefix) const;
  /// A new fast entry for \p binding: no members, not yet indexed.
  std::uint32_t add(VnhBinding binding);
  /// Indexes entry \p id under \p sig (no-op when \p sig is taken).
  void index(std::uint32_t id, Signature sig);
  /// Moves \p prefix to entry \p to (kNone: no binding). Returns the fast
  /// entry it left without members, or kNone.
  std::uint32_t assign(Ipv4Prefix prefix, std::uint32_t to);

  dp::FlowTable& table_;
  dp::ArpResponder& arp_;
  VnhAllocator& vnh_;
  /// The deployed artifact (the engine's current state), set by deploy().
  const CompiledSdx* compiled_ = nullptr;
  std::vector<Entry> entries_;  ///< base entries first; free slots cookie 0
  std::size_t base_count_ = 0;
  std::vector<std::uint32_t> free_;  ///< retired fast-entry ids
  std::size_t fast_ = 0;             ///< live fast entries
  const FecResult* base_ = nullptr;  ///< the base entries' groups
  std::unordered_map<Signature, std::uint32_t, IncrementalEngine::SignatureHash>
      index_;
  /// Prefixes whose entry differs from their compiled group's.
  std::unordered_map<Ipv4Prefix, std::uint32_t> held_;
  /// Per remote participant, the next hop of its announcements, so senders
  /// can frame traffic toward prefixes only it announces.
  std::unordered_map<ParticipantId, VnhBinding> remote_bindings_;
  /// Partitioned mode: each partition band's priority base, fixed at the
  /// full deploy. A partition that outgrows its band overlaps the next
  /// one's priorities, harmlessly: partitions match disjoint ingress ports.
  std::vector<std::uint32_t> partition_bases_;

  telemetry::Counter* fast_rules_;
  telemetry::Counter* fast_compositions_;
  telemetry::Gauge* fast_bindings_;
  telemetry::Histogram* seconds_;
};

}  // namespace sdx::core
