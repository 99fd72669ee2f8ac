#pragma once

/// \file arp.hpp
/// The SDX ARP responder (paper §4.2/§5.1): answers ARP queries for virtual
/// next-hop (VNH) IP addresses with the virtual MAC (VMAC) that tags the
/// corresponding forwarding equivalence class. Regular (non-virtual)
/// bindings for participant router ports live in the same table.

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "netbase/ip.hpp"
#include "netbase/mac.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::dp {

class ArpResponder {
 public:
  /// Adds or updates a binding.
  void bind(net::Ipv4Address ip, net::MacAddress mac) { table_[ip] = mac; }

  /// Removes a binding; returns true when present.
  bool unbind(net::Ipv4Address ip) { return table_.erase(ip) > 0; }

  /// Removes every binding whose address lies in \p range; returns how
  /// many. The runtime drops a replaced state's VNHs by their pool.
  std::size_t unbind_within(net::Ipv4Prefix range) {
    return std::erase_if(table_, [range](const auto& kv) {
      return range.contains(kv.first);
    });
  }

  /// Visits every (address, MAC) binding, in no particular order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [ip, mac] : table_) fn(ip, mac);
  }

  /// Mirrors query/miss accounting into registry counters (either may be
  /// nullptr to detach). The counters must outlive the responder's use.
  void set_counters(telemetry::Counter* queries, telemetry::Counter* misses) {
    query_counter_ = queries;
    miss_counter_ = misses;
  }

  /// Answers an ARP query and counts it. std::nullopt when the address is
  /// unknown.
  std::optional<net::MacAddress> resolve(net::Ipv4Address ip) const {
    const net::MacAddress* mac = lookup(ip);
    count_queries(1, mac == nullptr);
    if (mac == nullptr) return std::nullopt;
    return *mac;
  }

  /// resolve() without the accounting: the binding for \p ip (nullptr when
  /// unknown; valid until the next bind/unbind), no counter moves.
  const net::MacAddress* lookup(net::Ipv4Address ip) const {
    const auto it = table_.find(ip);
    return it == table_.end() ? nullptr : &it->second;
  }

  /// Books \p queries that lookup() looked up, \p misses of them
  /// unanswered: a border router counts a whole burst at once.
  void count_queries(std::uint64_t queries, std::uint64_t misses) const {
    queries_ += queries;
    misses_ += misses;
    if (query_counter_ != nullptr) query_counter_->inc(queries);
    if (miss_counter_ != nullptr) miss_counter_->inc(misses);
  }

  std::size_t size() const { return table_.size(); }
  std::uint64_t queries() const { return queries_; }
  std::uint64_t misses() const { return misses_; }

 private:
  std::unordered_map<net::Ipv4Address, net::MacAddress> table_;
  mutable std::uint64_t queries_ = 0;
  mutable std::uint64_t misses_ = 0;
  telemetry::Counter* query_counter_ = nullptr;
  telemetry::Counter* miss_counter_ = nullptr;
};

}  // namespace sdx::dp
