#pragma once

/// \file intern.hpp
/// Flat storage primitives backing the classifier at ablation scale.
///
/// PR 8's classifier kept every lane bucket as an
/// `unordered_map<uint64_t, vector<Entry>>` — fine at 4k rules, but a
/// 256k-rule ungrouped table (the "no VMAC grouping" ablation) turns that
/// into hundreds of thousands of node and vector allocations. FlatEntryMap
/// replaces it with open addressing over three contiguous arrays: slot
/// keys, slot chain heads, and an entry-node pool with intrusive
/// best-first chains. Memory stays flat per rule, and the key array gives
/// the batched lookup path (PacketClassifier::lookup_batch) cache-friendly
/// probe loops.
///
/// Mutation contract matches the classifier's: single writer, externally
/// synchronized. Probes (best / visit / for_each_head) are const, touch no
/// mutable state, and are safe from any number of concurrent readers.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

namespace sdx::dp {

struct FlowRule;

/// One indexed rule: the owning slot's FlowRule plus cached sort keys so
/// probe loops never chase the pointer. Shared by every classifier lane.
struct ClassifierEntry {
  const FlowRule* rule = nullptr;
  std::uint64_t seq = 0;
  std::uint32_t priority = 0;
};

/// Cross-lane rule order: priority desc, then insertion sequence asc —
/// identical to the linear reference scan's first-match order.
inline bool entry_better(const ClassifierEntry& a, const ClassifierEntry& b) {
  return a.priority > b.priority ||
         (a.priority == b.priority && a.seq < b.seq);
}

/// Open-addressed map from a 64-bit key to a best-first chain of
/// ClassifierEntry. Erasing a chain's last entry tombstones the slot;
/// tombstones are reclaimed on the next rehash, and freed entry nodes are
/// recycled through a free list, so churny tables don't grow unboundedly.
class FlatEntryMap {
 public:
  /// Handle of one key's chain for visit_chain(): the head node, or
  /// kNoChain when the key is absent. Valid until the next mutation.
  using Chain = std::int32_t;
  static constexpr Chain kNoChain = -1;

  bool empty() const { return entries_ == 0; }
  std::size_t entries() const { return entries_; }
  /// Keys with a non-empty chain.
  std::size_t keys() const { return live_slots_; }

  /// Length of the longest chain (a full scan — diagnostics only).
  std::size_t longest_chain() const {
    std::size_t longest = 0;
    for (const std::int32_t head : heads_) {
      std::size_t len = 0;
      for (std::int32_t n = head; n >= 0;
           n = nodes_[static_cast<std::size_t>(n)].next) {
        ++len;
      }
      longest = std::max(longest, len);
    }
    return longest;
  }

  void clear() {
    keys_.clear();
    heads_.clear();
    nodes_.clear();
    free_node_ = kNil;
    live_slots_ = used_slots_ = entries_ = 0;
  }

  /// Best (priority desc, seq asc) entry chained under \p key; nullptr
  /// when the key is absent. The pointer stays valid until the next
  /// mutation of this map.
  const ClassifierEntry* best(std::uint64_t key) const {
    if (live_slots_ == 0) return nullptr;
    const std::size_t s = find(key);
    return s == kNpos ? nullptr : &nodes_[static_cast<std::size_t>(
                                       heads_[s])].entry;
  }

  /// \p key's chain, for visit_chain().
  Chain chain(std::uint64_t key) const {
    if (live_slots_ == 0) return kNoChain;
    const std::size_t s = find(key);
    return s == kNpos ? kNoChain : heads_[s];
  }

  /// Visits \p c best-first until \p fn returns false.
  template <typename Fn>
  void visit_chain(Chain c, Fn&& fn) const {
    for (std::int32_t n = c; n != kNil;
         n = nodes_[static_cast<std::size_t>(n)].next) {
      if (!fn(nodes_[static_cast<std::size_t>(n)].entry)) return;
    }
  }

  /// Visits \p key's chain best-first until \p fn returns false.
  template <typename Fn>
  void visit(std::uint64_t key, Fn&& fn) const {
    visit_chain(chain(key), fn);
  }

  /// Visits every chain's head (its best entry) — enough to recompute a
  /// tuple's max priority, since chains are best-first.
  template <typename Fn>
  void for_each_head(Fn&& fn) const {
    for (std::size_t s = 0; s < heads_.size(); ++s) {
      if (heads_[s] >= 0) {
        fn(nodes_[static_cast<std::size_t>(heads_[s])].entry);
      }
    }
  }

  /// Chains \p e under \p key, keeping the chain best-first.
  void insert(std::uint64_t key, const ClassifierEntry& e) {
    if (heads_.empty() || (used_slots_ + 1) * 4 > heads_.size() * 3) {
      rehash();
    }
    const std::size_t mask = heads_.size() - 1;
    std::size_t slot = kNpos;
    std::size_t tomb = kNpos;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (heads_[i] == kEmpty) {
        slot = tomb != kNpos ? tomb : i;
        break;
      }
      if (heads_[i] == kTomb) {
        if (tomb == kNpos) tomb = i;
        continue;
      }
      if (keys_[i] == key) {
        slot = i;
        break;
      }
    }
    if (heads_[slot] < 0) {
      if (heads_[slot] == kEmpty) ++used_slots_;
      ++live_slots_;
      keys_[slot] = key;
      heads_[slot] = alloc_node(e, kNil);
    } else {
      const std::int32_t head = heads_[slot];
      if (entry_better(e, nodes_[static_cast<std::size_t>(head)].entry)) {
        heads_[slot] = alloc_node(e, head);
      } else {
        std::size_t prev = static_cast<std::size_t>(head);
        while (nodes_[prev].next != kNil &&
               !entry_better(
                   e, nodes_[static_cast<std::size_t>(nodes_[prev].next)]
                          .entry)) {
          prev = static_cast<std::size_t>(nodes_[prev].next);
        }
        const std::int32_t n = alloc_node(e, nodes_[prev].next);
        nodes_[prev].next = n;
      }
    }
    ++entries_;
  }

  /// Unlinks the entry for \p rule from \p key's chain; returns whether it
  /// was present.
  bool erase(std::uint64_t key, const FlowRule* rule) {
    if (live_slots_ == 0) return false;
    const std::size_t s = find(key);
    if (s == kNpos) return false;
    std::int32_t prev = kNil;
    for (std::int32_t n = heads_[s]; n != kNil;
         prev = n, n = nodes_[static_cast<std::size_t>(n)].next) {
      if (nodes_[static_cast<std::size_t>(n)].entry.rule != rule) continue;
      const std::int32_t next = nodes_[static_cast<std::size_t>(n)].next;
      if (prev == kNil) {
        heads_[s] = next;
      } else {
        nodes_[static_cast<std::size_t>(prev)].next = next;
      }
      nodes_[static_cast<std::size_t>(n)].next = free_node_;
      free_node_ = n;
      --entries_;
      if (heads_[s] == kNil) {
        heads_[s] = kTomb;
        --live_slots_;
      }
      return true;
    }
    return false;
  }

 private:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  static constexpr std::int32_t kNil = -1;   ///< end of an entry chain
  static constexpr std::int32_t kEmpty = -1; ///< slot never occupied
  static constexpr std::int32_t kTomb = -2;  ///< slot's chain fully erased

  struct Node {
    ClassifierEntry entry;
    std::int32_t next = kNil;
  };

  static std::size_t hash(std::uint64_t k) {
    // splitmix64 finalizer: full-width avalanche so power-of-two masking
    // of sequential keys (MAC blocks, next-hop ids) doesn't cluster.
    k ^= k >> 30;
    k *= 0xbf58476d1ce4e5b9ull;
    k ^= k >> 27;
    k *= 0x94d049bb133111ebull;
    k ^= k >> 31;
    return static_cast<std::size_t>(k);
  }

  /// Slot holding \p key, or kNpos. Termination is guaranteed because the
  /// load factor bound keeps at least one never-occupied slot.
  std::size_t find(std::uint64_t key) const {
    const std::size_t mask = heads_.size() - 1;
    for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
      if (heads_[i] == kEmpty) return kNpos;
      if (heads_[i] >= 0 && keys_[i] == key) return i;
    }
  }

  std::int32_t alloc_node(const ClassifierEntry& e, std::int32_t next) {
    if (free_node_ != kNil) {
      const std::int32_t n = free_node_;
      free_node_ = nodes_[static_cast<std::size_t>(n)].next;
      nodes_[static_cast<std::size_t>(n)] = Node{e, next};
      return n;
    }
    nodes_.push_back(Node{e, next});
    return static_cast<std::int32_t>(nodes_.size() - 1);
  }

  /// Re-slots every live chain into a table sized for the live count,
  /// dropping tombstones. Entry nodes are untouched — only the slot
  /// arrays rebuild.
  void rehash() {
    const std::size_t want = std::max<std::size_t>(
        16, std::bit_ceil((live_slots_ + 1) * 2));
    std::vector<std::uint64_t> old_keys = std::move(keys_);
    std::vector<std::int32_t> old_heads = std::move(heads_);
    keys_.assign(want, 0);
    heads_.assign(want, kEmpty);
    const std::size_t mask = want - 1;
    for (std::size_t i = 0; i < old_heads.size(); ++i) {
      if (old_heads[i] < 0) continue;
      std::size_t j = hash(old_keys[i]) & mask;
      while (heads_[j] != kEmpty) j = (j + 1) & mask;
      keys_[j] = old_keys[i];
      heads_[j] = old_heads[i];
    }
    used_slots_ = live_slots_;
  }

  std::vector<std::uint64_t> keys_;  ///< slot -> key (valid where head >= 0)
  std::vector<std::int32_t> heads_;  ///< slot -> kEmpty | kTomb | node index
  std::vector<Node> nodes_;          ///< entry pool, intrusive chains
  std::int32_t free_node_ = kNil;
  std::size_t live_slots_ = 0;  ///< slots with a non-empty chain
  std::size_t used_slots_ = 0;  ///< live + tombstoned slots
  std::size_t entries_ = 0;     ///< total chained entries
};

}  // namespace sdx::dp
