#pragma once

/// \file prefix_trie.hpp
/// A binary (unibit) trie over IPv4 prefixes with longest-prefix-match
/// lookup. Used for border-router FIBs, the RPKI ROA table, the packet
/// classifier's tuple-viability prechecks and prefix bookkeeping in the
/// route server.
///
/// Layout. Nodes are 12 bytes — two 32-bit child indices and a 32-bit value
/// index — kept in one contiguous vector, so a root-to-leaf walk touches
/// 12 bytes per level, five levels to a cache line, instead of dragging the
/// stored value through the cache at every depth. Values live out of line in
/// a second vector, addressed by the node's value index; only the node that
/// holds a prefix points at one. `erase` resets its value slot to `V{}`
/// (releasing any heap memory the value owned) and pushes the slot onto a
/// free list that the next fresh `insert` reuses, so a FIB under churn does
/// not grow its value vector. Nodes are never reclaimed: a prefix that is
/// withdrawn and re-announced walks the path it left behind.
///
/// Pointer contract. A pointer returned by `find` or `lookup` stays valid
/// until the next `insert`, `erase` or `clear` on the same trie. Callers
/// that update a stored value in place do so through `find`'s mutable
/// pointer and must not hold it across another mutation.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "netbase/ip.hpp"

namespace sdx::net {

template <typename V>
class PrefixTrie {
 public:
  PrefixTrie() { nodes_.emplace_back(); }

  /// Inserts or overwrites the value for \p prefix. Returns true when the
  /// prefix was newly inserted (false when overwritten).
  bool insert(Ipv4Prefix prefix, V value) {
    const std::uint32_t node = walk_or_create(prefix);
    if (const std::uint32_t slot = nodes_[node].value; slot != kNone) {
      values_[slot] = std::move(value);
      return false;
    }
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      values_[slot] = std::move(value);
      free_.pop_back();
    } else {
      slot = checked_index(values_.size());
      values_.push_back(std::move(value));
    }
    nodes_[node].value = slot;
    return true;
  }

  /// Removes the value for \p prefix; returns true when present.
  bool erase(Ipv4Prefix prefix) {
    const std::uint32_t node = walk_to(prefix);
    if (node == kNone || nodes_[node].value == kNone) return false;
    const std::uint32_t slot = nodes_[node].value;
    free_.push_back(slot);
    values_[slot] = V{};
    nodes_[node].value = kNone;
    return true;
  }

  /// Exact-match lookup.
  const V* find(Ipv4Prefix prefix) const {
    const std::uint32_t node = walk_to(prefix);
    if (node == kNone || nodes_[node].value == kNone) return nullptr;
    return &values_[nodes_[node].value];
  }

  V* find(Ipv4Prefix prefix) {
    return const_cast<V*>(std::as_const(*this).find(prefix));
  }

  /// Longest-prefix-match lookup for an address; returns the matched prefix
  /// and its value, or std::nullopt when nothing covers the address.
  std::optional<std::pair<Ipv4Prefix, const V*>> lookup(
      Ipv4Address addr) const {
    std::uint32_t node = 0;
    std::uint32_t best_slot = kNone;
    int best_depth = 0;
    std::uint32_t bits = addr.value();
    for (int depth = 0;; ++depth) {
      const Node& n = nodes_[node];
      if (n.value != kNone) {
        best_slot = n.value;
        best_depth = depth;
      }
      if (depth == 32) break;
      const int bit = (bits >> 31) & 1;
      bits <<= 1;
      if (n.child[bit] == kNone) break;
      node = n.child[bit];
    }
    if (best_slot == kNone) return std::nullopt;
    const Ipv4Address network(addr.value() & netmask(best_depth));
    return std::pair{Ipv4Prefix(network, best_depth), &values_[best_slot]};
  }

  /// Visits every (prefix, value) pair in lexicographic prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit(0, 0u, 0, fn);
  }

  /// Visits the value of every stored prefix that covers \p addr, shortest
  /// prefix first — one root-to-leaf walk, no allocation. This is the
  /// data-plane tuple precheck: the packet classifier ORs per-prefix tuple
  /// bitmaps along the path to decide which CIDR tuples can possibly hold a
  /// matching rule before probing any of them.
  template <typename Fn>
  void for_each_covering(Ipv4Address addr, Fn&& fn) const {
    std::uint32_t node = 0;
    std::uint32_t bits = addr.value();
    for (int depth = 0;; ++depth) {
      const Node& n = nodes_[node];
      if (n.value != kNone) fn(values_[n.value]);
      if (depth == 32) break;
      const int bit = (bits >> 31) & 1;
      bits <<= 1;
      if (n.child[bit] == kNone) break;
      node = n.child[bit];
    }
  }

  std::size_t size() const { return values_.size() - free_.size(); }
  bool empty() const { return size() == 0; }

  void clear() {
    nodes_.clear();
    nodes_.emplace_back();
    values_.clear();
    free_.clear();
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  struct Node {
    std::uint32_t child[2] = {kNone, kNone};
    std::uint32_t value = kNone;  ///< index into values_, or kNone
  };
  static_assert(sizeof(Node) == 12, "trie nodes must stay 12 bytes");

  /// Narrows a container size to a 32-bit index; kNone is reserved.
  static std::uint32_t checked_index(std::size_t n) {
    if (n >= kNone) {
      throw std::length_error("PrefixTrie: index space exhausted");
    }
    return static_cast<std::uint32_t>(n);
  }

  /// Walks to \p prefix's node, creating the missing path.
  std::uint32_t walk_or_create(Ipv4Prefix prefix) {
    std::uint32_t node = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> 31) & 1;
      bits <<= 1;
      std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) {
        child = checked_index(nodes_.size());
        nodes_[node].child[bit] = child;
        nodes_.emplace_back();
      }
      node = child;
    }
    return node;
  }

  /// Walks to \p prefix's node; kNone when the path does not exist.
  std::uint32_t walk_to(Ipv4Prefix prefix) const {
    std::uint32_t node = 0;
    std::uint32_t bits = prefix.network().value();
    for (int depth = 0; depth < prefix.length(); ++depth) {
      const int bit = (bits >> 31) & 1;
      bits <<= 1;
      const std::uint32_t child = nodes_[node].child[bit];
      if (child == kNone) return kNone;
      node = child;
    }
    return node;
  }

  template <typename Fn>
  void visit(std::uint32_t node, std::uint32_t acc, int depth, Fn& fn) const {
    const Node& n = nodes_[node];
    if (n.value != kNone) {
      fn(Ipv4Prefix(Ipv4Address(acc), depth), values_[n.value]);
    }
    if (depth == 32) return;
    if (n.child[0] != kNone) visit(n.child[0], acc, depth + 1, fn);
    if (n.child[1] != kNone) {
      visit(n.child[1], acc | (1u << (31 - depth)), depth + 1, fn);
    }
  }

  std::vector<Node> nodes_;
  std::vector<V> values_;
  std::vector<std::uint32_t> free_;  ///< erased value slots, reused first
};

}  // namespace sdx::net
