#pragma once

/// \file packet_classifier.hpp
/// Sub-microsecond packet classification for the flow-table hot path.
///
/// The linear rule scan in FlowTable is fine for the paper's rule-count
/// experiments but collapses at iSDX scale (13.7 µs per lookup at 4096
/// rules). This classifier decomposes the installed rule set into lanes
/// ordered by how cheap they are to probe:
///
///   lane 1 — exact dst-MAC partition. Every rule that pins an exact
///            dst-MAC (§4.2's tag) lives in that MAC's bucket, whatever its
///            other fields: per-group defaults, MAC-learning entries and the
///            pairwise clause rules that add an in-port, protocol or
///            transport port. A bucket is one best-first chain; a packet
///            probes its MAC once and walks the chain to the first entry
///            whose full match holds, stopping early once no remaining
///            entry can beat the winner of the other lanes.
///   lane 2 — VMAC field lanes. Masked dst-MAC-only rules that match the
///            active VMAC layout's shapes (the next-hop field under its
///            mask, or a single attribute bit) are decoded into an exact
///            next-hop hash and per-attribute-bit buckets. A tagged packet
///            probes the next-hop lane once and one bucket per set
///            attribute bit.
///   lane 3 — tuple-space search (Srinivasan et al.) over everything else
///            (no exact dst-MAC — in a pairwise table just the catch-all):
///            rules grouped by mask signature, hashed on their masked field
///            values within each tuple, tuples visited in max-priority
///            order with early exit, and CIDR tuples pruned by a
///            prefix-trie set-membership precheck before any hash probe.
///
/// Priority resolution spans all lanes: the winner is the matching rule
/// with the highest priority, ties broken by insertion sequence (lowest
/// wins), exactly mirroring the linear reference scan.
///
/// Two lookup entry points share that contract: lookup() classifies one
/// packet, lookup_batch() classifies a whole burst lane-major — one pass
/// per lane over the burst, per-burst memoization of trie viability and
/// of what the dst-MAC alone decides (lane 2's winner, lane 1's bucket),
/// SoA key hashing — and is bit-for-bit equivalent to calling lookup() per
/// packet (enforced by randomized tests and the differential oracle's
/// equivalence (g)).
///
/// Storage is flat for ablation-scale tables: every lane bucket lives in a
/// FlatEntryMap (see intern.hpp), and each tuple's per-field mask vector
/// is interned — stored once in the tuple index and shared by reference —
/// so a 256k-rule ungrouped table costs a handful of contiguous arrays,
/// not hundreds of thousands of node allocations.

#include <array>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/intern.hpp"
#include "netbase/field_match.hpp"
#include "netbase/packet.hpp"
#include "netbase/prefix_trie.hpp"

namespace sdx::dp {

struct FlowRule;

/// The active VMAC bit layout, described without an sdx::core dependency
/// (the data plane sits below the control plane; sdx::core converts its
/// VmacLayout into this spec when wiring the runtime). When disabled, every
/// masked dst-MAC rule falls through to tuple-space search — semantics are
/// identical, only the probe cost differs.
struct VmacLaneSpec {
  bool enabled = false;
  std::uint64_t top_value = 0;  ///< fixed top-octet value (0x02 << 40)
  std::uint64_t top_mask = 0;   ///< top-octet guard mask (0xFF << 40)
  std::uint8_t group_bits = 0;
  std::uint8_t nexthop_bits = 0;
  std::uint8_t attr_bits = 0;

  unsigned nexthop_shift() const { return group_bits; }
  unsigned attr_shift() const {
    return static_cast<unsigned>(group_bits) + nexthop_bits;
  }
  std::uint64_t nexthop_field_mask() const {
    return nexthop_bits == 0
               ? 0
               : ((1ull << nexthop_bits) - 1) << nexthop_shift();
  }
};

class PacketClassifier {
 public:
  /// Drops every indexed rule and adopts \p spec. FlowTable re-inserts the
  /// live rules afterwards; the classifier itself never owns rule storage.
  void reset(const VmacLaneSpec& spec);

  /// Drops every indexed rule, keeping the current lane spec.
  void clear();

  const VmacLaneSpec& lane_spec() const { return spec_; }

  /// Indexes \p rule. The pointer must stay valid until erase()/clear();
  /// \p seq is the table-wide insertion sequence used for tie-breaking.
  void insert(const FlowRule* rule, std::uint64_t seq);

  /// Un-indexes \p rule (must have been inserted with the same match).
  void erase(const FlowRule* rule);

  /// Highest-priority matching rule, ties broken by lowest sequence;
  /// nullptr when nothing matches. Read-only: safe to call concurrently
  /// from many threads as long as no mutation runs.
  const FlowRule* lookup(const net::PacketHeader& h) const;

  /// Burst lookup: out[i] receives exactly what lookup(pkts[i]) would
  /// return, for every i. Work is amortized lane-major across the burst:
  /// duplicate headers resolve once, lanes 1+2 probe once per distinct
  /// dst-MAC (lane 1's bucket is then walked once per distinct header),
  /// trie viability bitmaps are memoized per distinct IP within
  /// the burst, and tuple keys hash in SoA loops the compiler can
  /// vectorize. Requires out.size() >= pkts.size(). Same concurrency
  /// contract as lookup(): any number of reader threads, no concurrent
  /// mutation (all scratch is thread-local).
  void lookup_batch(std::span<const net::PacketHeader> pkts,
                    std::span<const FlowRule*> out) const;

  /// Lane population snapshot, for diagnostics and benches. Computed on
  /// demand (mac buckets by a full scan), never on the lookup path.
  struct Stats {
    std::size_t exact_mac_rules = 0;  ///< rules that pin an exact dst-MAC
    std::size_t mac_buckets = 0;      ///< distinct dst-MACs among them
    std::size_t max_mac_bucket = 0;   ///< rules in the longest bucket
    std::size_t nexthop_lane_rules = 0;
    std::size_t attr_lane_rules = 0;
    std::size_t tuple_rules = 0;
    std::size_t tuples = 0;  ///< non-empty tuples
  };
  Stats stats() const;

  using Entry = ClassifierEntry;
  using Bucket = std::vector<Entry>;  // kept sorted best-first

  /// What a dst-MAC alone decides: lane 2's winner and lane 1's bucket.
  /// The batched path memoizes it per distinct MAC in the burst.
  struct MacProbe {
    const Entry* lane2 = nullptr;
    FlatEntryMap::Chain bucket = FlatEntryMap::kNoChain;
  };

  using MaskSig = std::array<std::uint64_t, net::kFieldCount>;
  struct MaskSigHash {
    std::size_t operator()(const MaskSig& s) const noexcept;
  };

 private:
  /// One tuple of tuple-space search: every rule in it shares the exact
  /// per-field mask vector, so lookup is a single hash probe on the
  /// packet's masked field values. The mask vector itself is interned:
  /// \c masks points at the tuple index's key, stored once per distinct
  /// signature no matter how many rules share it.
  struct Tuple {
    const MaskSig* masks = nullptr;
    FlatEntryMap entries;
    std::uint32_t max_priority = 0;
    std::size_t size = 0;
    int dst_cidr_len = 0;  ///< >0: prunable via the dst-IP prefix trie
    int src_cidr_len = 0;  ///< >0: prunable via the src-IP prefix trie
  };

  enum class Shape { kExactMac, kNexthopLane, kAttrLane, kTuple };
  struct ShapeInfo {
    Shape shape = Shape::kTuple;
    std::uint64_t key = 0;    ///< hash key for kExactMac / kNexthopLane
    unsigned attr_bit = 0;    ///< lane index for kAttrLane
  };

  ShapeInfo classify(const FlowRule& rule) const;
  void insert_tuple(const Entry& e);
  void erase_tuple(const FlowRule* rule);
  void rebuild_tuple_order();

  MacProbe probe_mac(std::uint64_t mac) const;

  /// Lanes 1+2 for one packet: lane 2's winner, beaten by the first entry
  /// of the MAC's bucket whose full match holds \p h, if that entry is
  /// better. Shared by the single and batched paths.
  const Entry* mac_lane_best(const MacProbe& p,
                             const net::PacketHeader& h) const;

  VmacLaneSpec spec_{};
  FlatEntryMap exact_mac_;
  FlatEntryMap nexthop_lane_;
  std::vector<Bucket> attr_lanes_;  // one per attribute bit

  std::vector<Tuple> tuples_;  // stable indices; empty tuples stay in place
  std::unordered_map<MaskSig, std::size_t, MaskSigHash> tuple_index_;
  std::vector<std::size_t> tuple_order_;  // non-empty, max_priority desc

  // Per-IP-field prechecks: each stored prefix maps to the bitmap of
  // tuples (index < 64) holding a rule with that CIDR constraint. Bits go
  // stale on erase — that only costs an extra probe, never a wrong result.
  net::PrefixTrie<std::uint64_t> dst_trie_;
  net::PrefixTrie<std::uint64_t> src_trie_;
};

}  // namespace sdx::dp
