#pragma once

/// \file rib.hpp
/// A routing information base for one BGP view: prefix → route, with
/// longest-prefix-match lookup. Border routers hold one Rib of the routes
/// the SDX route server advertised to them; the route server itself keeps a
/// multi-candidate table internally (route_server.hpp).

#include <optional>
#include <utility>
#include <vector>

#include "bgp/route.hpp"
#include "netbase/prefix_trie.hpp"

namespace sdx::bgp {

class Rib {
 public:
  /// Adds or replaces the route for its prefix. Returns true when new.
  bool add(Route route);

  /// Removes the route for \p prefix. Returns true when present.
  bool withdraw(Ipv4Prefix prefix);

  /// Exact-prefix lookup.
  const Route* find(Ipv4Prefix prefix) const;

  /// Exact-prefix lookup for in-place replacement. Re-advertisement is the
  /// common write (every fast-path update gives its prefix a fresh VNH and
  /// re-announces it to every router), so a router assigns the new
  /// attributes over the stored route's and the AS path and community
  /// vectors reuse their capacity (BorderRouter::process_update). The
  /// pointer is valid until the next add, withdraw or clear.
  Route* find(Ipv4Prefix prefix) { return trie_.find(prefix); }

  /// Longest-prefix-match lookup for a destination address.
  const Route* lookup(Ipv4Address addr) const;

  std::size_t size() const { return trie_.size(); }
  bool empty() const { return trie_.empty(); }
  void clear() { trie_.clear(); }

  /// All routes, in prefix order.
  std::vector<Route> routes() const;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    trie_.for_each([&fn](Ipv4Prefix, const Route& r) { fn(r); });
  }

 private:
  net::PrefixTrie<Route> trie_;
};

}  // namespace sdx::bgp
