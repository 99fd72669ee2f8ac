#include "sdx/verifier.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace sdx::core {

namespace {

using policy::ActionSeq;
using policy::Rule;

const Participant* find_participant(const std::vector<Participant>& all,
                                    ParticipantId id) {
  for (const auto& p : all) {
    if (p.id == id) return &p;
  }
  return nullptr;
}

/// Records a kLocalRule finding against rule \p i.
void flag_rule(verify::SafetyReport& report, std::size_t i,
               const std::string& what) {
  verify::SafetyViolation v;
  v.kind = verify::ViolationKind::kLocalRule;
  v.what = "rule " + std::to_string(i) + ": " + what;
  report.violations.push_back(std::move(v));
}

bool is_router_mac(const Participant& p, std::uint64_t mac,
                   net::PortId out_port) {
  for (const auto& port : p.ports) {
    if (port.router_mac.bits() == mac && port.id == out_port) return true;
  }
  return false;
}

}  // namespace

verify::SafetyReport audit(const CompiledSdx& compiled,
                           const std::vector<Participant>& participants,
                           const PortMap& ports,
                           const bgp::RouteServer& server) {
  verify::SafetyReport report;
  const auto& rules = compiled.fabric.rules();
  report.local_rules_checked = rules.size();
  auto flag = [&report](std::size_t i, const std::string& what) {
    flag_rule(report, i, what);
  };

  // Invariant 1: totality.
  if (rules.empty() || !rules.back().match.is_wildcard()) {
    flag(rules.empty() ? 0 : rules.size() - 1,
         "classifier is not total (no trailing catch-all)");
  }

  // VMAC → group index.
  std::unordered_map<std::uint64_t, std::uint32_t> group_of_vmac;
  for (std::uint32_t g = 0; g < compiled.bindings.size(); ++g) {
    group_of_vmac[compiled.bindings[g].vmac.bits()] = g;
  }

  // For the shadowing-aware consistency check: which (vmac, sender-port)
  // pairs are claimed by earlier port-specific rules.
  std::unordered_set<std::uint64_t> claimed;  // key: vmac*2^32 | port
  auto claim_key = [](std::uint64_t vmac, net::PortId port) {
    return (vmac << 20) ^ port;
  };

  // Cache of exports_to checks at (group, sender, target) granularity.
  std::unordered_map<std::uint64_t, bool> consistency_cache;
  auto group_consistent = [&](std::uint32_t g, ParticipantId sender,
                              ParticipantId target) {
    const std::uint64_t key =
        (std::uint64_t{g} << 40) ^ (std::uint64_t{sender} << 20) ^ target;
    auto it = consistency_cache.find(key);
    if (it != consistency_cache.end()) return it->second;
    bool ok = true;
    for (auto prefix : compiled.fecs.groups[g].prefixes) {
      if (!server.exports_to(target, sender, prefix)) {
        ok = false;
        break;
      }
    }
    consistency_cache.emplace(key, ok);
    return ok;
  };

  for (std::size_t i = 0; i < rules.size(); ++i) {
    const Rule& r = rules[i];
    if (r.drops()) continue;

    // Invariant 5': no residual virtual-port matches after composition.
    const auto& port_match = r.match.field(net::Field::kPort);
    if (port_match.is_exact() &&
        PortMap::is_virtual(static_cast<net::PortId>(port_match.value()))) {
      flag(i, "rule matches a virtual port (uncompiled stage boundary)");
      continue;
    }

    for (const ActionSeq& act : r.actions) {
      // Invariant 2: outputs land on physical ports.
      const auto out = act.written(net::Field::kPort);
      if (!out) {
        flag(i, "action has no output port");
        continue;
      }
      const auto out_port = static_cast<net::PortId>(*out);
      if (PortMap::is_virtual(out_port)) {
        flag(i, "action outputs to virtual port " + std::to_string(out_port));
        continue;
      }
      ParticipantId target;
      try {
        target = ports.phys_owner(out_port);
      } catch (const std::out_of_range&) {
        flag(i, "action outputs to unowned port " + std::to_string(out_port));
        continue;
      }
      const Participant* tp = find_participant(participants, target);
      if (tp == nullptr) {
        flag(i, "output port owner not a participant");
        continue;
      }

      // Invariant 3: the frame leaves with a real router MAC of the
      // egress port.
      std::uint64_t egress_mac = 0;
      bool mac_known = false;
      if (auto written = act.written(net::Field::kDstMac)) {
        egress_mac = *written;
        mac_known = true;
      } else if (r.match.field(net::Field::kDstMac).is_exact()) {
        egress_mac = r.match.field(net::Field::kDstMac).value();
        mac_known = true;
      }
      if (!mac_known) {
        flag(i, "egress destination MAC unconstrained");
      } else if (net::MacAddress(egress_mac) !=
                     net::MacAddress::broadcast() &&
                 !is_router_mac(*tp, egress_mac, out_port)) {
        flag(i, "egress MAC " + net::MacAddress(egress_mac).to_string() +
                    " is not the router MAC of port " +
                    std::to_string(out_port));
      }

      // Invariant 4: BGP consistency for VMAC-tagged traffic.
      const auto& dstmac_match = r.match.field(net::Field::kDstMac);
      if (!dstmac_match.is_exact()) continue;
      auto g_it = group_of_vmac.find(dstmac_match.value());
      if (g_it == group_of_vmac.end()) continue;
      const std::uint32_t g = g_it->second;

      std::vector<ParticipantId> senders;
      if (port_match.is_exact()) {
        try {
          senders.push_back(
              ports.phys_owner(static_cast<net::PortId>(port_match.value())));
        } catch (const std::out_of_range&) {
          flag(i, "rule matches unowned ingress port");
          continue;
        }
        claimed.insert(claim_key(dstmac_match.value(),
                                 static_cast<net::PortId>(
                                     port_match.value())));
      } else {
        // Global rule: every sender without an earlier port-specific rule
        // for this VMAC falls through to it.
        for (const auto& p : participants) {
          bool shadowed = true;
          for (net::PortId port : p.port_ids()) {
            if (!claimed.contains(claim_key(dstmac_match.value(), port))) {
              shadowed = false;
            }
          }
          if (!shadowed && !p.ports.empty()) senders.push_back(p.id);
        }
      }
      for (ParticipantId sender : senders) {
        if (sender == target) continue;  // hairpins are switch-dropped
        // Senders with no best route for the group never tag this VMAC.
        const std::size_t slot = [&]() {
          for (std::size_t s = 0; s < participants.size(); ++s) {
            if (participants[s].id == sender) return s;
          }
          return participants.size();
        }();
        if (slot < compiled.fecs.groups[g].defaults.size() &&
            !compiled.fecs.groups[g].defaults[slot].has_value()) {
          continue;
        }
        if (!group_consistent(g, sender, target)) {
          flag(i, "forwards group " + std::to_string(g) + " from AS" +
                      std::to_string(sender) + " to AS" +
                      std::to_string(target) +
                      " without a matching BGP export");
        }
      }
    }
  }
  return report;
}

verify::SafetyReport audit_multi_switch(
    const std::vector<SwitchProgram>& programs,
    const FabricTopology& topology,
    const std::vector<Participant>& participants) {
  verify::SafetyReport report;
  auto flag = [&report](std::size_t i, const std::string& what) {
    flag_rule(report, i, what);
  };

  std::vector<std::uint64_t> router_macs;
  for (const auto& p : participants) {
    for (const auto& port : p.ports) {
      router_macs.push_back(port.router_mac.bits());
    }
  }

  for (const auto& program : programs) {
    const SwitchId sw = program.id;
    auto local = [&topology, sw](net::PortId port) {
      if (topology.is_edge_port(port)) return topology.switch_of(port) == sw;
      if (topology.is_trunk_port(port)) {
        const auto& trunks = topology.trunks_of(sw);
        return std::find(trunks.begin(), trunks.end(), port) != trunks.end();
      }
      return false;
    };

    for (std::size_t i = 0; i < program.rules.size(); ++i) {
      const policy::Rule& r = program.rules.rules()[i];
      report.local_rules_checked += 1;
      const auto& port_match = r.match.field(net::Field::kPort);
      if (port_match.is_exact() &&
          !local(static_cast<net::PortId>(port_match.value()))) {
        flag(i, "switch " + std::to_string(sw) +
                    ": rule matches a non-local ingress port " +
                    std::to_string(port_match.value()));
      }
      for (const auto& act : r.actions) {
        const auto out = act.written(net::Field::kPort);
        if (!out) continue;
        if (!local(static_cast<net::PortId>(*out))) {
          flag(i, "switch " + std::to_string(sw) +
                      ": rule outputs to non-local port " +
                      std::to_string(*out));
        }
      }
    }

    // Transit coverage: for every (trunk, router MAC) a matching rule.
    for (net::PortId trunk : topology.trunks_of(sw)) {
      for (std::uint64_t mac : router_macs) {
        net::PacketHeader probe;
        probe.set_port(trunk);
        probe.set(net::Field::kDstMac, mac);
        const policy::Rule* hit = program.rules.first_match(probe);
        if (hit == nullptr || hit->drops()) {
          flag(0, "switch " + std::to_string(sw) + ": trunk " +
                      std::to_string(trunk) + " cannot forward toward " +
                      net::MacAddress(mac).to_string());
        }
      }
    }
  }
  return report;
}

}  // namespace sdx::core
