#include "verify/safety.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

namespace sdx::verify {

/// A header variant: the non-IP exact matches (proto/ports) of a deployed
/// clause plus its first source prefix. Together with a destination prefix
/// it names one packet equivalence class — headers inside a class traverse
/// identical rule sequences, so one representative proves the class.
struct Variant {
  std::vector<std::pair<net::Field, std::uint64_t>> exact;
  std::optional<Ipv4Prefix> src;

  friend bool operator==(const Variant&, const Variant&) = default;
};

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Source address of a class whose variant names no source prefix.
constexpr net::Ipv4Address kDefaultSource =
    net::Ipv4Address::from_octets(192, 0, 2, 1);

bool variant_less(const Variant& a, const Variant& b) {
  if (a.exact != b.exact) return a.exact < b.exact;
  if (a.src.has_value() != b.src.has_value()) return b.src.has_value();
  if (a.src && b.src && *a.src != *b.src) return *a.src < *b.src;
  return false;
}

/// Only transport-level fields survive into a variant: L2 fields and the
/// IP addresses are owned by the framing step (router LPM/ARP) and the
/// class's own prefixes.
void append_variant_fields(const core::ClauseMatch& match,
                           std::vector<Variant>& out) {
  Variant v;
  for (const auto& [field, value] : match.exact) {
    if (field == net::Field::kIpProto || field == net::Field::kSrcPort ||
        field == net::Field::kDstPort) {
      v.exact.emplace_back(field, value);
    }
  }
  std::sort(v.exact.begin(), v.exact.end());
  if (!match.src_prefixes.empty()) v.src = match.src_prefixes.front();
  out.push_back(std::move(v));
}

std::vector<Variant> build_variants(
    const std::vector<core::Participant>& participants,
    std::size_t max_variants) {
  std::vector<Variant> out;
  out.push_back(Variant{});  // the default (unpolicied) class
  for (const auto& p : participants) {
    for (const auto& clause : p.outbound) {
      append_variant_fields(clause.match, out);
    }
    for (const auto& clause : p.inbound) {
      append_variant_fields(clause.match, out);
    }
  }
  std::sort(out.begin(), out.end(), variant_less);
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.size() > max_variants) out.resize(max_variants);
  return out;
}

net::Ipv4Address representative(Ipv4Prefix prefix) {
  // network|1 avoids the network address itself on wide blocks.
  const std::uint32_t host = prefix.length() < 32 ? 1u : 0u;
  return net::Ipv4Address(prefix.network().value() | host);
}

PacketHeader make_payload(Ipv4Prefix prefix, const Variant& v) {
  PacketHeader h;
  h.set_dst_ip(representative(prefix));
  h.set_src_ip(v.src ? representative(*v.src) : kDefaultSource);
  h.set(net::Field::kEthType, net::kEthTypeIpv4);
  for (const auto& [field, value] : v.exact) h.set(field, value);
  return h;
}

std::string name_of(const DeploymentView& view, ParticipantId id) {
  if (view.participants != nullptr) {
    for (const auto& p : *view.participants) {
      if (p.id == id) return p.name;
    }
  }
  return "P" + std::to_string(id);
}

bool is_remote(const DeploymentView& view, ParticipantId id) {
  if (view.participants == nullptr) return false;
  for (const auto& p : *view.participants) {
    if (p.id == id) return p.is_remote();
  }
  return false;
}

bool advertises(const bgp::RouteServer& server, ParticipantId id,
                Ipv4Prefix prefix) {
  const auto* routes = server.candidates(prefix);
  if (routes == nullptr) return false;
  for (const auto& r : *routes) {
    if (r.learned_from == id) return true;
  }
  return false;
}

/// True when every current advertiser of \p prefix is a remote participant:
/// traffic toward it leaves the model (or is intentionally dropped until an
/// inbound rewrite redirects it), so a dropped frame is not a blackhole.
bool only_remote_advertisers(const DeploymentView& view, Ipv4Prefix prefix) {
  const auto* routes = view.server->candidates(prefix);
  if (routes == nullptr || routes->empty()) return false;
  for (const auto& r : *routes) {
    if (!is_remote(view, r.learned_from)) return false;
  }
  return true;
}

std::string hops_string(const DeploymentView& view,
                        const std::vector<ParticipantId>& hops) {
  std::string out;
  for (std::size_t i = 0; i < hops.size(); ++i) {
    if (i > 0) out += " -> ";
    out += name_of(view, hops[i]);
  }
  return out;
}

std::vector<ParticipantId> extend(std::vector<ParticipantId> hops,
                                  ParticipantId next) {
  hops.push_back(next);
  return hops;
}

/// The shared forwarding-graph walk: one (sender, class) node through the
/// deployed tables until delivery, loop, or blackhole. `first_frame` must
/// already be framed (it IS the counterexample packet); every violation
/// found along the walk is appended to `out`. `describe()` names the class
/// in violation text; it runs only when a violation is recorded.
template <typename Describe>
void walk_from(const DeploymentView& view, std::size_t max_hops,
               ParticipantId sender, Ipv4Prefix prefix,
               const Describe& describe, const PacketHeader& first_frame,
               std::vector<SafetyViolation>& out, std::size_t& edges) {
  std::vector<ParticipantId> path{sender};
  ParticipantId current = sender;
  PacketHeader frame = first_frame;
  Ipv4Prefix dst_prefix = prefix;

  auto witness = [&](std::vector<ParticipantId> hops) {
    Counterexample cx;
    cx.packet = first_frame;
    cx.ingress_port = first_frame.port();
    cx.sender = sender;
    cx.prefix = prefix;
    cx.hops = std::move(hops);
    return cx;
  };

  for (;;) {
    if (path.size() > max_hops) {
      out.push_back({ViolationKind::kLoop,
                     describe() + ": hop budget (" + std::to_string(max_hops) +
                         ") exhausted without reaching an egress (" +
                         hops_string(view, path) + ")",
                     witness(path)});
      return;
    }
    auto copies = view.process(frame);
    ++edges;
    // The switch never hairpins a frame back out its ingress port.
    std::erase_if(copies, [&](const PacketHeader& c) {
      return c.port() == frame.port();
    });
    if (copies.empty()) {
      if (!only_remote_advertisers(view, dst_prefix)) {
        out.push_back({ViolationKind::kBlackhole,
                       describe() + ": the fabric dropped the class at " +
                           name_of(view, current) + " (no egress copy)",
                       witness(path)});
      }
      return;
    }
    // Unicast continuation: the walk follows the first viable copy; every
    // other copy still gets its per-hop checks.
    std::optional<std::pair<ParticipantId, PacketHeader>> next;
    Ipv4Prefix next_prefix = dst_prefix;
    for (const auto& copy : copies) {
      const PortId out_port = copy.port();
      const auto owner = view.owner_of(out_port);
      if (!owner) {
        out.push_back({ViolationKind::kBlackhole,
                       describe() + ": frame egresses at unclaimed port " +
                           std::to_string(out_port) + " from " +
                           name_of(view, current),
                       witness(path)});
        continue;
      }
      const ParticipantId x = *owner;
      const auto mac = view.router_mac_at(out_port);
      if (!mac || (copy.dst_mac() != *mac &&
                   copy.dst_mac() != MacAddress::broadcast())) {
        out.push_back({ViolationKind::kBlackhole,
                       describe() + ": " + name_of(view, x) +
                           "'s router drops the frame at port " +
                           std::to_string(out_port) + " (dst MAC " +
                           copy.dst_mac().to_string() + " is not its own)",
                       witness(extend(path, x))});
        continue;
      }
      // An inbound rewrite may have moved the destination to a different
      // prefix; re-anchor the class before the BGP-relation checks.
      Ipv4Prefix pfx = dst_prefix;
      if (!pfx.contains(copy.dst_ip())) {
        if (auto re = view.known_covering(copy.dst_ip())) pfx = *re;
      }
      if (!view.server->exports_to(x, current, pfx)) {
        out.push_back(
            {ViolationKind::kIsolation,
             describe() + ": " + name_of(view, x) + " attracts traffic for " +
                 pfx.to_string() + " from " + name_of(view, current) +
                 " without exporting the prefix to it",
             witness(extend(path, x))});
        // Keep walking: the stale state behind an isolation breach often
        // hides a loop or blackhole one hop further.
      }
      if (std::find(path.begin(), path.end(), x) != path.end()) {
        out.push_back({ViolationKind::kLoop,
                       describe() + ": forwarding loop " +
                           hops_string(view, extend(path, x)),
                       witness(extend(path, x))});
        continue;  // never walk deeper along a cycle
      }
      if (advertises(*view.server, x, pfx)) {
        // Physical egress: x advertised the prefix, so its router forwards
        // the traffic upstream. The class is delivered.
        continue;
      }
      // x attracts the class without advertising it — model its re-entry
      // through its own FIB (LPM → next hop → ARP).
      auto onward = view.forward(x, copy);
      if (!onward) {
        if (!only_remote_advertisers(view, pfx)) {
          out.push_back({ViolationKind::kBlackhole,
                         describe() + ": " + name_of(view, x) +
                             " attracts traffic for " + pfx.to_string() +
                             " but its border router has no onward route "
                             "(next hop withdrawn)",
                         witness(extend(path, x))});
        }
        continue;
      }
      if (!next) {
        next = {x, *onward};
        next_prefix = pfx;
      }
    }
    if (!next) return;
    current = next->first;
    frame = next->second;
    dst_prefix = next_prefix;
    path.push_back(current);
  }
}

}  // namespace

std::string_view kind_name(ViolationKind k) {
  switch (k) {
    case ViolationKind::kLoop: return "loop";
    case ViolationKind::kIsolation: return "isolation";
    case ViolationKind::kBlackhole: return "blackhole";
    case ViolationKind::kLocalRule: return "local_rule";
  }
  return "unknown";
}

std::string Counterexample::to_string() const {
  std::ostringstream os;
  os << "packet " << packet.to_string() << " ingress port " << ingress_port
     << " (sender " << sender << ", dst " << prefix.to_string() << "), hops";
  for (auto h : hops) os << " " << h;
  return os.str();
}

std::size_t SafetyReport::count(ViolationKind k) const {
  std::size_t n = 0;
  for (const auto& v : violations) {
    if (v.kind == k) ++n;
  }
  return n;
}

std::string SafetyReport::to_string() const {
  std::ostringstream os;
  os << "safety report (" << (incremental ? "incremental" : "full") << "): "
     << violations.size() << " violation(s), " << classes_checked
     << " classes, " << edges_walked << " edges, " << prefixes_checked
     << " prefixes, " << variants << " variants, " << local_rules_checked
     << " rules audited\n";
  for (const auto& v : violations) {
    os << "  [" << kind_name(v.kind) << "] " << v.what << "\n";
    if (v.counterexample) {
      os << "    counterexample: " << v.counterexample->to_string() << "\n";
    }
  }
  return os.str();
}

SafetyChecker::PrefixFinding SafetyChecker::check_prefix(
    const DeploymentView& view, Ipv4Prefix prefix,
    const std::vector<Variant>& variants) const {
  PrefixFinding f;
  for (const auto& p : *view.participants) {
    if (p.is_remote()) continue;
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      auto framed = view.forward(p.id, make_payload(prefix, variants[vi]));
      if (!framed) continue;  // the router holds no route: no traffic
      ++f.classes;
      const auto describe = [&] {
        return "class dst=" + prefix.to_string() + " variant#" +
               std::to_string(vi) + " from " + p.name;
      };
      walk_from(view, options_.max_hops, p.id, prefix, describe, *framed,
                f.violations, f.edges);
    }
  }
  return f;
}

void SafetyChecker::store(Ipv4Prefix prefix, PrefixFinding finding) {
  drop(prefix);
  classes_total_ += finding.classes;
  edges_total_ += finding.edges;
  if (!finding.violations.empty()) violating_.insert(prefix);
  cache_.emplace(prefix, std::move(finding));
}

void SafetyChecker::drop(Ipv4Prefix prefix) {
  const auto it = cache_.find(prefix);
  if (it == cache_.end()) return;
  classes_total_ -= it->second.classes;
  edges_total_ -= it->second.edges;
  violating_.erase(prefix);
  cache_.erase(it);
}

SafetyReport SafetyChecker::full(const DeploymentView& view) {
  const auto t0 = std::chrono::steady_clock::now();
  cache_.clear();
  classes_total_ = 0;
  edges_total_ = 0;
  violating_.clear();
  const auto variants = build_variants(*view.participants,
                                       options_.max_variants);
  for (auto prefix : view.known_prefixes()) {
    store(prefix, check_prefix(view, prefix, variants));
  }
  variants_seen_ = variants.size();
  return assemble(false, seconds_since(t0));
}

SafetyReport SafetyChecker::incremental(const DeploymentView& view,
                                        const std::vector<Ipv4Prefix>& dirty) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto variants = build_variants(*view.participants,
                                       options_.max_variants);
  std::unordered_set<Ipv4Prefix> seen;
  for (auto prefix : dirty) {
    if (!seen.insert(prefix).second) continue;
    if (view.is_known(prefix)) {
      store(prefix, check_prefix(view, prefix, variants));
    } else {
      drop(prefix);  // the prefix left the deployment entirely
    }
  }
  variants_seen_ = variants.size();
  return assemble(true, seconds_since(t0));
}

void SafetyChecker::set_local_findings(std::vector<SafetyViolation> findings,
                                       std::size_t rules_checked) {
  local_ = std::move(findings);
  local_rules_checked_ = rules_checked;
}

SafetyReport SafetyChecker::assemble(bool incremental, double seconds) const {
  SafetyReport report;
  report.incremental = incremental;
  report.seconds = seconds;
  report.variants = variants_seen_;
  report.local_rules_checked = local_rules_checked_;
  report.violations = local_;
  for (auto prefix : violating_) {
    const auto& found = cache_.at(prefix).violations;
    report.violations.insert(report.violations.end(), found.begin(),
                             found.end());
  }
  report.classes_checked = classes_total_;
  report.edges_walked = edges_total_;
  report.prefixes_checked = cache_.size();
  return report;
}

ReplayResult replay(const DeploymentView& view, const Counterexample& cx,
                    std::size_t max_hops) {
  std::vector<SafetyViolation> violations;
  std::size_t edges = 0;
  const auto describe = [] { return std::string("replay"); };
  walk_from(view, max_hops, cx.sender, cx.prefix, describe, cx.packet,
            violations, edges);
  ReplayResult result;
  result.hops = edges;
  for (const auto& v : violations) {
    result.kinds.push_back(v.kind);
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += v.what;
  }
  return result;
}

}  // namespace sdx::verify
