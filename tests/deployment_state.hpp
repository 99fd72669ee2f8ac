#pragma once

/// Digests of a runtime's deployed state, for holding two runtimes that
/// should have reached the same state (a recovered one and a never-crashed
/// twin, a session drop and the withdrawals it stands for) to byte
/// equality: every border router's FIB as one CRC-32C, the flow table in
/// match order, the ARP answer behind every FIB next hop, and the whole
/// ARP table.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "persist/crc32c.hpp"
#include "sdx/runtime.hpp"

namespace sdx::core::test {

inline void put32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

inline void put_entry(std::string& out, net::Ipv4Prefix prefix,
                      const bgp::RouteAttributes& a) {
  put32(out, prefix.network().value());
  out.push_back(static_cast<char>(prefix.length()));
  put32(out, a.next_hop.value());
  put32(out, static_cast<std::uint32_t>(a.as_path.length()));
  for (auto asn : a.as_path.asns()) put32(out, asn);
  out.push_back(static_cast<char>(a.origin));
  out.push_back(a.med.has_value() ? 1 : 0);
  put32(out, a.med.value_or(0));
  out.push_back(a.local_pref.has_value() ? 1 : 0);
  put32(out, a.local_pref.value_or(0));
  put32(out, static_cast<std::uint32_t>(a.communities.size()));
  for (auto c : a.communities) put32(out, c);
}

/// CRC-32C over every router's FIB, routers in (participant, port) order.
inline std::uint32_t fib_crc(SdxRuntime& rt, std::size_t& entries) {
  std::uint32_t crc = 0;
  entries = 0;
  for (const auto& p : rt.participants()) {
    for (std::size_t k = 0; k < p.ports.size(); ++k) {
      std::string bytes;
      put32(bytes, p.id);
      put32(bytes, static_cast<std::uint32_t>(k));
      const auto& rib = rt.router(p.id, k).rib();
      rib.for_each([&bytes](net::Ipv4Prefix prefix,
                            const bgp::RouteAttributes& attrs) {
        put_entry(bytes, prefix, attrs);
      });
      entries += rib.size();
      crc = persist::crc32c(bytes, crc);
    }
  }
  return crc;
}

inline std::uint32_t fib_crc(SdxRuntime& rt) {
  std::size_t entries = 0;
  return fib_crc(rt, entries);
}

/// Every installed flow rule in match order, cookie included.
inline std::string flow_table_dump(const SdxRuntime& rt) {
  std::string out;
  for (const dp::FlowRule* r : rt.fabric().sdx_switch().table().rules()) {
    out += "cookie=" + std::to_string(r->cookie) + " " + r->to_string() + "\n";
  }
  return out;
}

/// The ARP responder as the border routers query it: the MAC (or a miss)
/// behind the next hop of every FIB entry, routers in (participant, port)
/// order.
inline std::string arp_dump(SdxRuntime& rt) {
  std::string out;
  const auto& arp = rt.fabric().arp();
  for (const auto& p : rt.participants()) {
    for (std::size_t k = 0; k < p.ports.size(); ++k) {
      rt.router(p.id, k).rib().for_each(
          [&](net::Ipv4Prefix prefix, const bgp::RouteAttributes& attrs) {
            const net::MacAddress* mac = arp.lookup(attrs.next_hop);
            out += prefix.to_string() + " " + attrs.next_hop.to_string() +
                   " " + (mac != nullptr ? mac->to_string() : "-") + "\n";
          });
    }
  }
  return out;
}

/// Every ARP binding, bound or not to a FIB next hop, in address order.
inline std::string arp_table_dump(SdxRuntime& rt) {
  std::vector<std::pair<std::uint32_t, std::string>> rows;
  rt.fabric().arp().for_each([&](net::Ipv4Address ip, net::MacAddress mac) {
    rows.emplace_back(ip.value(), ip.to_string() + " " + mac.to_string());
  });
  std::sort(rows.begin(), rows.end());
  std::string out;
  for (const auto& row : rows) out += row.second + "\n";
  return out;
}

}  // namespace sdx::core::test
