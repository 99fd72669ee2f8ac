#pragma once

/// \file rib.hpp
/// A border router's routing information base: prefix → path attributes,
/// with longest-prefix-match lookup. Border routers hold one Rib of the
/// routes the SDX route server advertised to them; the route server itself
/// keeps a multi-candidate table internally (route_server.hpp).
///
/// Storage. The route server re-advertises one best route to every member
/// router (paper §4.2), so every router holds nearly the same prefix set,
/// and most receivers get the same attributes: the same best candidate with
/// the same VNH next hop. All routers of one runtime therefore share one
/// FibIndex: a single prefix trie mapping each prefix some router holds to
/// a slot, plus a refcounted AttrTable of attribute sets. A router's Rib is
/// only a column indexed by slot, each cell a 4-byte AttrHandle or kNoRoute.
/// A re-advertisement resolves the prefix's slot with one trie walk and
/// then writes each receiver's cell by slot, instead of walking a private
/// trie per router. A Rib built without an index owns a one-column one.
///
/// Slots. A slot is referenced by every Rib that holds its prefix and by a
/// writer between acquire() and release(). When the last reference goes,
/// the prefix is erased from the trie and the slot is reused, so the index
/// holds exactly the union of what the FIBs hold now, not their history.
/// A freed slot is empty in every column, so reuse needs no column sweep.
///
/// Reads. A Rib's find, lookup and for_each walk the shared trie and accept
/// only slots its own column holds: its longest-prefix match is the deepest
/// prefix on the path that *this* router holds, never a longer one that
/// only another router was advertised. lookup takes a burst of addresses
/// and walks the trie for all of them in lockstep; one address is a burst
/// of one. The attributes they return point into the AttrTable and stay
/// valid until the next AttrTable::make().

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bgp/route.hpp"
#include "netbase/prefix_trie.hpp"

namespace sdx::bgp {

/// Index of one attribute set in an AttrTable.
using AttrHandle = std::uint32_t;

/// Refcounted path-attribute sets. A set lives while some FIB entry (or a
/// writer between make() and release()) holds a reference to it; its slot
/// is reused once the last one is released. Not thread-safe: one runtime's
/// routers are written from one thread.
class AttrTable {
 public:
  /// Stores \p attrs as a new set holding one reference, owned by the
  /// caller, who releases it once every FIB write has taken its own.
  AttrHandle make(RouteAttributes attrs);

  void retain(AttrHandle h) { ++slots_[h].refs; }
  void release(AttrHandle h) {
    if (--slots_[h].refs == 0) free_.push_back(h);
  }

  /// The set behind \p h. The reference is valid until the next make().
  const RouteAttributes& operator[](AttrHandle h) const {
    return slots_[h].attrs;
  }

  /// Sets currently referenced.
  std::size_t live() const { return slots_.size() - free_.size(); }

 private:
  struct Slot {
    RouteAttributes attrs;
    std::uint32_t refs = 0;
  };
  std::vector<Slot> slots_;
  std::vector<AttrHandle> free_;  ///< released slots, reused first
};

/// The prefix index and attribute sets that all FIBs of one runtime share
/// (see the file comment). Not thread-safe, like AttrTable.
class FibIndex {
 public:
  /// Position of one prefix in every Rib's column.
  using Slot = std::uint32_t;

  /// \p prefix's slot, added when no FIB holds the prefix, with one
  /// reference owned by the caller, who releases it once its writes are
  /// done. Holding it keeps a withdrawal from freeing the slot mid-fan-out.
  Slot acquire(Ipv4Prefix prefix);
  void retain(Slot s) { ++refs_[s]; }
  /// Drops a reference; the last one erases the prefix and frees the slot.
  void release(Slot s);

  /// \p prefix's slot, or nullptr when no FIB holds it.
  const Slot* find(Ipv4Prefix prefix) const { return trie_.find(prefix); }
  Ipv4Prefix prefix(Slot s) const { return prefixes_[s]; }

  /// The longest prefix covering \p addr that some FIB holds.
  std::optional<Ipv4Prefix> lookup(Ipv4Address addr) const {
    const auto hit = trie_.lookup(addr);
    if (!hit) return std::nullopt;
    return hit->first;
  }

  /// Prefixes some FIB holds, and the slots allocated for them (live plus
  /// free): slots() stays at its high-water mark while slots are reused.
  std::size_t size() const { return trie_.size(); }
  std::size_t slots() const { return refs_.size(); }

  /// Visits every (prefix, slot) some FIB holds, in prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    trie_.for_each(fn);
  }

  /// Visits the slot of every held prefix covering an address of \p addrs:
  /// fn(i, slot) for addrs[i], shortest first per address, all addresses
  /// walked in lockstep (net::PrefixTrie::for_each_covering).
  template <typename Fn>
  void for_each_covering(std::span<const Ipv4Address> addrs, Fn&& fn) const {
    trie_.for_each_covering(addrs, fn);
  }

  AttrTable& attrs() { return attrs_; }
  const AttrTable& attrs() const { return attrs_; }

 private:
  net::PrefixTrie<Slot> trie_;
  std::vector<std::uint32_t> refs_;  ///< references per slot
  std::vector<Ipv4Prefix> prefixes_;  ///< the prefix behind each live slot
  std::vector<Slot> free_;            ///< freed slots, reused first
  AttrTable attrs_;
};

class Rib {
 public:
  /// A Rib with its own one-column index.
  Rib() : Rib(std::make_shared<FibIndex>()) {}
  explicit Rib(std::shared_ptr<FibIndex> index) : index_(std::move(index)) {}
  ~Rib();
  Rib(Rib&&) = default;
  Rib(const Rib&) = delete;
  Rib& operator=(const Rib&) = delete;
  Rib& operator=(Rib&&) = delete;

  /// A column cell holding no route.
  static constexpr AttrHandle kNoRoute = static_cast<AttrHandle>(-1);

  /// A longest-prefix match: the covering prefix and its attributes.
  struct Match {
    Ipv4Prefix prefix;
    const RouteAttributes& attrs;
  };

  /// Points \p prefix at the attribute set \p attrs (taking a reference),
  /// releasing the set it replaces. Returns true when the prefix is new.
  bool add(Ipv4Prefix prefix, AttrHandle attrs);
  /// add() for a slot the caller holds (FibIndex::acquire): no trie walk.
  /// Every FIB write ends here.
  bool add_at(FibIndex::Slot slot, AttrHandle attrs);

  /// Removes \p prefix. Returns true when present.
  bool withdraw(Ipv4Prefix prefix);
  /// withdraw() by slot: no trie walk.
  bool withdraw_at(FibIndex::Slot slot);

  /// Exact-prefix lookup (nullptr when absent).
  const RouteAttributes* find(Ipv4Prefix prefix) const;

  /// A held route found by a burst lookup: the matched prefix's slot and
  /// its attribute set (kNoRoute when no held prefix covers the address).
  struct Hit {
    FibIndex::Slot slot = 0;
    AttrHandle attrs = kNoRoute;
  };

  /// Longest-prefix match for a burst of destinations, one lockstep walk
  /// of the shared trie for all of them: out[i] is the deepest prefix
  /// covering addrs[i] that this router holds. \p out is as long as
  /// \p addrs. Inline, so a caller's one-address burst folds into the
  /// trie's width-1 walk.
  void lookup(std::span<const Ipv4Address> addrs, std::span<Hit> out) const {
    // Shorter covering prefixes come first, so the last held one wins.
    std::fill(out.begin(), out.end(), Hit{});
    index_->for_each_covering(addrs, [&](std::size_t i, FibIndex::Slot slot) {
      if (const AttrHandle h = held(slot); h != kNoRoute) out[i] = {slot, h};
    });
  }

  /// The one-address case: longest-prefix match for a destination.
  std::optional<Match> lookup(Ipv4Address addr) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  FibIndex& index() { return *index_; }
  const FibIndex& index() const { return *index_; }
  AttrTable& table() { return index_->attrs(); }
  const AttrTable& table() const { return index_->attrs(); }

  /// Visits every (prefix, attributes) entry in prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    const AttrTable& attrs = index_->attrs();
    index_->for_each([this, &attrs, &fn](Ipv4Prefix prefix,
                                         FibIndex::Slot slot) {
      if (const AttrHandle h = held(slot); h != kNoRoute) {
        fn(prefix, attrs[h]);
      }
    });
  }

 private:
  AttrHandle held(FibIndex::Slot slot) const {
    return slot < column_.size() ? column_[slot] : kNoRoute;
  }

  std::shared_ptr<FibIndex> index_;
  std::vector<AttrHandle> column_;  ///< by slot; kNoRoute where not held
  std::size_t size_ = 0;
};

}  // namespace sdx::bgp
