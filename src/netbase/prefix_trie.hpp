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
/// Lockstep walk. One address's walk is a chain of dependent node loads,
/// one per level, ~24 deep in a full FIB. for_each_covering takes a span
/// of addresses and walks them together: each pass advances every address
/// still walking by one level, so a burst's loads overlap instead of
/// queueing behind each other. Each address still sees its covering values
/// shortest prefix first; calls for different addresses interleave.
/// lookup() and the one-address for_each_covering are that walk over one
/// address, so there is no second walk to keep equal.
///
/// Pointer contract. A pointer returned by `find` or `lookup` stays valid
/// until the next `insert`, `erase` or `clear` on the same trie. Callers
/// that update a stored value in place do so through `find`'s mutable
/// pointer and must not hold it across another mutation.

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
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
    std::uint32_t best_slot = kNone;
    int best_depth = 0;
    walk_covering(std::span(&addr, 1),
                  [&](std::size_t, int depth, std::uint32_t slot) {
                    best_slot = slot;
                    best_depth = depth;
                  });
    if (best_slot == kNone) return std::nullopt;
    const Ipv4Address network(addr.value() & netmask(best_depth));
    return std::pair{Ipv4Prefix(network, best_depth), &values_[best_slot]};
  }

  /// Visits every (prefix, value) pair in lexicographic prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    visit(0, 0u, 0, fn);
  }

  /// Visits the value of every stored prefix that covers an address of
  /// \p addrs: fn(i, value) for addrs[i], shortest prefix first for each
  /// address, no allocation. The walk is lockstep (see the file comment):
  /// calls for different addresses interleave, one trie level at a time.
  template <typename Fn>
  void for_each_covering(std::span<const Ipv4Address> addrs, Fn&& fn) const {
    walk_covering(addrs, [&](std::size_t i, int, std::uint32_t slot) {
      fn(i, values_[slot]);
    });
  }

  /// The one-address case: fn(value) for every stored prefix covering
  /// \p addr, shortest first. This is the data-plane tuple precheck: the
  /// packet classifier ORs per-prefix tuple bitmaps along the path to decide
  /// which CIDR tuples can possibly hold a matching rule before probing any
  /// of them.
  template <typename Fn>
  void for_each_covering(Ipv4Address addr, Fn&& fn) const {
    for_each_covering(std::span(&addr, 1),
                      [&fn](std::size_t, const V& value) { fn(value); });
  }

  /// fn(value) for every stored prefix that contains \p prefix (itself
  /// included), shortest first: the covering walk of its network address,
  /// cut at its length.
  template <typename Fn>
  void for_each_containing(Ipv4Prefix prefix, Fn&& fn) const {
    const Ipv4Address addr = prefix.network();
    walk_covering(std::span(&addr, 1),
                  [&](std::size_t, int depth, std::uint32_t slot) {
                    if (depth <= prefix.length()) fn(values_[slot]);
                  });
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

  /// Addresses one lockstep pass advances together.
  static constexpr std::size_t kLanes = 64;

  /// The one covering walk: fn(i, depth, slot) for each stored prefix of
  /// length depth that covers addrs[i], by increasing depth per address.
  /// One address walks at width 1, where the walk's state stays in
  /// registers; a burst walks kLanes addresses at a time.
  template <typename Fn>
  void walk_covering(std::span<const Ipv4Address> addrs, Fn&& fn) const {
    if (addrs.size() == 1) {
      walk_lanes<1>(addrs, fn);
    } else {
      walk_lanes<kLanes>(addrs, fn);
    }
  }

  /// walk_covering over up to W addresses at a time: each pass moves every
  /// address still walking down one level, so a pass's node loads are
  /// independent of each other. A node at depth 32 has no children, so
  /// every walk ends by then.
  template <std::size_t W, typename Fn>
  void walk_lanes(std::span<const Ipv4Address> addrs, Fn& fn) const {
    std::array<std::uint32_t, W> node;  ///< kNone once the path ends
    std::array<std::uint32_t, W> bits;  ///< unread address bits, MSB next
    for (std::size_t base = 0; base < addrs.size(); base += W) {
      // k < W bounds every loop, so at W == 1 the lane arrays fold into
      // registers.
      const std::size_t n = std::min(W, addrs.size() - base);
      for (std::size_t k = 0; k < W && k < n; ++k) {
        node[k] = 0;
        bits[k] = addrs[base + k].value();
      }
      for (int depth = 0, live = 1; live != 0; ++depth) {
        live = 0;
        for (std::size_t k = 0; k < W && k < n; ++k) {
          if (node[k] == kNone) continue;
          const Node& nd = nodes_[node[k]];
          if (nd.value != kNone) fn(base + k, depth, nd.value);
          node[k] = nd.child[bits[k] >> 31];
          bits[k] <<= 1;
          live |= node[k] != kNone;
        }
      }
    }
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
