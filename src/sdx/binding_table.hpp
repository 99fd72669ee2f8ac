#pragma once

/// \file binding_table.hpp
/// The runtime's live (VNH, VMAC) bindings, interned by restricted
/// signature: §4.2's "prefixes that behave identically share one VNH",
/// kept true across updates instead of assuming every update needs a new
/// VNH. It maps each signature to the one entry forwarding by it, and each
/// prefix to its entry.
///
/// Entries come in two kinds:
///  - *base* entries are the compiled FEC groups of a pairwise deployment
///    (ids 0..groups-1, in group order). Their rules live in the base band,
///    so they never retire; a prefix of a group is held at its base entry
///    without a per-prefix record;
///  - *fast* entries are made by flushes for signatures no live entry has.
///    Each owns one flow-table band (its cookie) and one ARP binding, and
///    retires when its last member leaves. A partitioned deployment has
///    fast entries only.
///
/// The signature index maps a signature to the entry composed for it under
/// the current policy. A post-install policy change either redeploys,
/// which rebuilds the whole table (reset()), or swaps one partition, which
/// empties the index (invalidate()): entries composed under the old
/// clauses keep their members but can no longer be joined, and the swap
/// re-flushes each member at once, which moves it to an entry composed
/// under the new policy.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sdx/fec.hpp"
#include "sdx/incremental.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::core {

class BindingTable {
 public:
  using Signature = IncrementalEngine::Signature;
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct Entry {
    VnhBinding binding;
    std::uint64_t cookie = 0;   ///< a fast entry's flow-table band; 0: base
    std::uint32_t members = 0;  ///< prefixes held (fast entries only)
    bool indexed = false;       ///< in the signature index
    /// A fast entry's signature, once indexed (a base entry's is its
    /// group's clauses and defaults).
    Signature signature;
  };

  /// Forgets every entry and prefix, then registers the groups of \p base
  /// (pairwise compiled FECs, \p bindings parallel to their groups) as
  /// indexed base entries. nullptr: no base entries (partitioned). The
  /// table looks prefixes up in \p base's group_of until the next reset().
  void reset(const FecResult* base, const std::vector<VnhBinding>& bindings);

  /// \p prefix's entry (kNone: no binding).
  std::uint32_t entry_of(Ipv4Prefix prefix) const;
  std::optional<VnhBinding> binding_of(Ipv4Prefix prefix) const;

  /// The indexed entry for \p sig, or kNone.
  std::uint32_t find(const Signature& sig) const;

  /// A new fast entry with no members, not yet indexed.
  std::uint32_t add(VnhBinding binding, std::uint64_t cookie);
  /// Indexes entry \p id under \p sig (no-op when \p sig is already taken).
  void index(std::uint32_t id, Signature sig);

  /// Moves \p prefix to entry \p to (kNone: no binding). Returns the fast
  /// entry it left without members, for the caller to retire(), or kNone.
  std::uint32_t assign(Ipv4Prefix prefix, std::uint32_t to);

  /// Drops fast entry \p id (the caller removes its band and unbinds its
  /// VNH first).
  void retire(std::uint32_t id);

  /// Empties the signature index: a partition swap, before it re-flushes
  /// every member (see the file comment).
  void invalidate();

  bool is_fast(std::uint32_t id) const { return id >= base_count_; }
  const Entry& entry(std::uint32_t id) const { return entries_[id]; }
  std::size_t fast_entries() const { return fast_; }
  /// True while some prefix is held off its compiled group.
  bool diverged() const { return !held_.empty(); }

  /// fn(entry) for every live fast entry.
  template <typename Fn>
  void for_each_fast(Fn&& fn) const {
    for (std::size_t id = base_count_; id < entries_.size(); ++id) {
      if (entries_[id].cookie != 0) fn(entries_[id]);
    }
  }

  /// fn(prefix, id) for every prefix held off its compiled group.
  template <typename Fn>
  void for_each_held(Fn&& fn) const {
    for (const auto& [prefix, id] : held_) fn(prefix, id);
  }

 private:
  std::uint32_t base_entry(Ipv4Prefix prefix) const;

  std::vector<Entry> entries_;  ///< base entries first; free slots cookie 0
  std::size_t base_count_ = 0;
  std::vector<std::uint32_t> free_;  ///< retired fast-entry ids
  std::size_t fast_ = 0;
  const FecResult* base_ = nullptr;
  std::unordered_map<Signature, std::uint32_t, IncrementalEngine::SignatureHash>
      index_;
  /// Prefixes whose entry differs from their compiled group's.
  std::unordered_map<Ipv4Prefix, std::uint32_t> held_;
};

}  // namespace sdx::core
