#pragma once

/// \file rib.hpp
/// A border router's routing information base: prefix → path attributes,
/// with longest-prefix-match lookup. Border routers hold one Rib of the
/// routes the SDX route server advertised to them; the route server itself
/// keeps a multi-candidate table internally (route_server.hpp).
///
/// Storage. The route server re-advertises one best route to every member
/// router (paper §4.2), and most receivers get the same attributes: the
/// same best candidate with the same VNH next hop. So a FIB entry is a
/// 4-byte AttrHandle into a refcounted AttrTable that all routers of one
/// runtime share, and a re-advertisement to a whole update group is one
/// attribute set plus, per router, a trie walk and a handle swap. A Rib
/// built without a table owns a private one.

#include <cstdint>
#include <memory>
#include <optional>
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

class Rib {
 public:
  /// A Rib with its own attribute table.
  Rib() : Rib(std::make_shared<AttrTable>()) {}
  explicit Rib(std::shared_ptr<AttrTable> table) : table_(std::move(table)) {}
  ~Rib();
  Rib(Rib&&) = default;
  Rib(const Rib&) = delete;
  Rib& operator=(const Rib&) = delete;
  Rib& operator=(Rib&&) = delete;

  /// A longest-prefix match: the covering prefix and its attributes.
  struct Match {
    Ipv4Prefix prefix;
    const RouteAttributes& attrs;
  };

  /// Points \p prefix at the attribute set \p attrs (taking a reference),
  /// releasing the set it replaces. Every FIB write goes through here.
  /// Returns true when the prefix is new.
  bool add(Ipv4Prefix prefix, AttrHandle attrs);

  /// Removes \p prefix. Returns true when present.
  bool withdraw(Ipv4Prefix prefix);

  /// Exact-prefix lookup (nullptr when absent).
  const RouteAttributes* find(Ipv4Prefix prefix) const;

  /// Longest-prefix-match lookup for a destination address.
  std::optional<Match> lookup(Ipv4Address addr) const;

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }

  AttrTable& table() { return *table_; }
  const AttrTable& table() const { return *table_; }

  /// Visits every (prefix, attributes) entry in prefix order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    trie_.for_each([this, &fn](Ipv4Prefix prefix, AttrHandle h) {
      fn(prefix, (*table_)[h]);
    });
  }

 private:
  std::shared_ptr<AttrTable> table_;
  net::PrefixTrie<AttrHandle> trie_;
};

}  // namespace sdx::bgp
