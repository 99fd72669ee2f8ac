#include "verify/safety.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <unordered_set>

#include "telemetry/metrics.hpp"

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

using telemetry::seconds_since;

/// Cap on enumerated header variants. The variants past it go unchecked;
/// the report counts them and is not ok() (SafetyReport::unchecked_variants).
constexpr std::size_t kMaxVariants = 64;

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

/// The distinct variants in canonical order, at most kMaxVariants; the
/// number cut past the cap lands in \p unchecked.
std::vector<Variant> build_variants(
    const std::vector<core::Participant>& participants,
    std::size_t& unchecked) {
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
  unchecked = out.size() > kMaxVariants ? out.size() - kMaxVariants : 0;
  if (unchecked != 0) out.resize(kMaxVariants);
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

/// What the walks of one check_prefix call (or one replay) share: the view,
/// the work they spend, and the BGP relations they ask, each answered once
/// per argument tuple. The relations read only route-server state, which
/// does not change during a pass, so the answers hold for every walk of it.
class Pass {
 public:
  explicit Pass(const DeploymentView& view) : view_(view) {}

  const DeploymentView& view() const { return view_; }
  SafetyReport::Work& work() { return work_; }

  /// The sender's framing step, counted.
  DeploymentView::Framed forward(ParticipantId sender,
                                 const PacketHeader& payload) {
    ++work_.framings;
    return view_.forward(sender, payload);
  }

  /// The rule that wins a frame, counted.
  std::uintptr_t rule_of(const PacketHeader& frame) {
    ++work_.lookups;
    return view_.rule_of(frame);
  }

  bool exports_to(ParticipantId via, ParticipantId to, Ipv4Prefix prefix) {
    return ask({Relation::kExports, via, to, prefix},
               [&] { return view_.server->exports_to(via, to, prefix); });
  }

  bool advertises(ParticipantId id, Ipv4Prefix prefix) {
    return ask({Relation::kAdvertises, id, 0, prefix}, [&] {
      const auto* routes = view_.server->candidates(prefix);
      return routes != nullptr &&
             std::any_of(routes->begin(), routes->end(),
                         [&](const auto& r) { return r.learned_from == id; });
    });
  }

  /// True when every current advertiser of \p prefix is a remote
  /// participant: traffic toward it leaves the model (or is intentionally
  /// dropped until an inbound rewrite redirects it), so a dropped frame is
  /// not a blackhole.
  bool only_remote_advertisers(Ipv4Prefix prefix) {
    return ask({Relation::kOnlyRemote, 0, 0, prefix}, [&] {
      const auto* routes = view_.server->candidates(prefix);
      return routes != nullptr && !routes->empty() &&
             std::all_of(routes->begin(), routes->end(), [&](const auto& r) {
               return is_remote(view_, r.learned_from);
             });
    });
  }

 private:
  enum class Relation : std::uint8_t { kExports, kAdvertises, kOnlyRemote };
  struct Key {
    Relation relation;
    ParticipantId a;
    ParticipantId b;
    Ipv4Prefix prefix;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      const std::uint64_t ids = (std::uint64_t{k.a} << 32) | k.b;
      return std::hash<Ipv4Prefix>{}(k.prefix) ^
             std::hash<std::uint64_t>{}(
                 ids * 3 + static_cast<std::uint64_t>(k.relation));
    }
  };

  template <typename Answer>
  bool ask(const Key& key, const Answer& answer) {
    const auto [it, fresh] = answers_.try_emplace(key, false);
    if (fresh) it->second = answer();
    return it->second;
  }

  const DeploymentView& view_;
  SafetyReport::Work work_;
  std::unordered_map<Key, bool, KeyHash> answers_;
};

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
/// found along the walk is appended to `out`, and its switch traversals and
/// re-entry framings are booked to the pass. `describe()` names the class
/// in violation text; it runs only when a violation is recorded. The walk
/// only moves on to a participant not yet on its path, so it ends within
/// one hop per participant.
template <typename Describe>
void walk_from(Pass& pass, ParticipantId sender, Ipv4Prefix prefix,
               const Describe& describe, const PacketHeader& first_frame,
               std::vector<SafetyViolation>& out) {
  const DeploymentView& view = pass.view();
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
    auto copies = view.process(frame);
    ++pass.work().edges;
    // The switch never hairpins a frame back out its ingress port.
    std::erase_if(copies, [&](const PacketHeader& c) {
      return c.port() == frame.port();
    });
    if (copies.empty()) {
      if (!pass.only_remote_advertisers(dst_prefix)) {
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
      if (!pass.exports_to(x, current, pfx)) {
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
      if (pass.advertises(x, pfx)) {
        // Physical egress: x advertised the prefix, so its router forwards
        // the traffic upstream. The class is delivered.
        continue;
      }
      // x attracts the class without advertising it — model its re-entry
      // through its own FIB (LPM → next hop → ARP).
      auto onward = pass.forward(x, copy).frame;
      if (!onward) {
        if (!pass.only_remote_advertisers(pfx)) {
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
     << " prefixes, " << variants << " variants (" << unchecked_variants
     << " unchecked), " << local_rules_checked << " rules audited\n";
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
    const std::vector<Variant>& variants, SafetyReport::Work& work) const {
  PrefixFinding f;
  Pass pass(view);
  // One sender's walks by the rule their frame hits first, each with
  // whether that rule's first walk delivered in one clean hop.
  std::vector<std::pair<std::uintptr_t, bool>> walked;
  for (const auto& p : *view.participants) {
    if (p.is_remote()) continue;
    // Framing reads only the destination (DeploymentView::forward), which
    // every variant of the prefix shares: frame the representative once and
    // give each variant its L2 fields.
    const auto framed = pass.forward(p.id, make_payload(prefix, Variant{}));
    if (!framed.routed) continue;  // the router holds no route: no traffic
    walked.clear();
    for (std::size_t vi = 0; vi < variants.size(); ++vi) {
      ++f.classes;
      const auto describe = [&] {
        return "class dst=" + prefix.to_string() + " variant#" +
               std::to_string(vi) + " from " + p.name;
      };
      if (!framed.frame) {
        // Routed, but the next hop has no ARP answer: the sender's router
        // drops the class before it reaches the fabric.
        if (!pass.only_remote_advertisers(prefix)) {
          f.violations.push_back(
              {ViolationKind::kBlackhole,
               describe() + ": " + p.name +
                   "'s border router has a route but no ARP answer for "
                   "its next hop",
               std::nullopt});
        }
        continue;
      }
      PacketHeader frame = make_payload(prefix, variants[vi]);
      for (auto field : {net::Field::kSrcMac, net::Field::kDstMac,
                         net::Field::kEthType, net::Field::kPort}) {
        frame.set(field, framed.frame->get(field));
      }
      // A rule whose first walk settled in one clean hop proves this class
      // too (DeploymentView::rule_of); any other outcome is walked again.
      const auto rule = pass.rule_of(frame);
      const auto group =
          std::find_if(walked.begin(), walked.end(),
                       [&](const auto& w) { return w.first == rule; });
      if (group != walked.end() && group->second) {
        ++f.edges;
        continue;
      }
      const std::size_t found = f.violations.size();
      const std::size_t probed = pass.work().edges;
      walk_from(pass, p.id, prefix, describe, frame, f.violations);
      const std::size_t hops = pass.work().edges - probed;
      f.edges += hops;
      // One hop means no copy re-entered a router.
      if (group == walked.end()) {
        walked.emplace_back(rule, hops == 1 && f.violations.size() == found);
      }
    }
  }
  work.classes += f.classes;
  work.edges += pass.work().edges;
  work.framings += pass.work().framings;
  work.lookups += pass.work().lookups;
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
  const auto variants = build_variants(*view.participants, variants_cut_);
  SafetyReport::Work work;
  for (auto prefix : view.known_prefixes()) {
    store(prefix, check_prefix(view, prefix, variants, work));
  }
  variants_seen_ = variants.size();
  return assemble(false, work, seconds_since(t0));
}

SafetyReport SafetyChecker::incremental(const DeploymentView& view,
                                        const std::vector<Ipv4Prefix>& dirty) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto variants = build_variants(*view.participants, variants_cut_);
  std::unordered_set<Ipv4Prefix> seen;
  SafetyReport::Work work;
  for (auto prefix : dirty) {
    if (!seen.insert(prefix).second) continue;
    if (view.is_known(prefix)) {
      store(prefix, check_prefix(view, prefix, variants, work));
    } else {
      drop(prefix);  // the prefix left the deployment entirely
    }
  }
  variants_seen_ = variants.size();
  return assemble(true, work, seconds_since(t0));
}

void SafetyChecker::set_local_findings(SafetyReport audit) {
  local_ = std::move(audit.violations);
  local_rules_checked_ = audit.local_rules_checked;
}

SafetyReport SafetyChecker::assemble(bool incremental,
                                     const SafetyReport::Work& work,
                                     double seconds) const {
  SafetyReport report;
  report.incremental = incremental;
  report.work = work;
  report.seconds = seconds;
  report.variants = variants_seen_;
  report.unchecked_variants = variants_cut_;
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

ReplayResult replay(const DeploymentView& view, const Counterexample& cx) {
  std::vector<SafetyViolation> violations;
  Pass pass(view);
  const auto describe = [] { return std::string("replay"); };
  walk_from(pass, cx.sender, cx.prefix, describe, cx.packet, violations);
  ReplayResult result;
  result.hops = pass.work().edges;
  for (const auto& v : violations) {
    result.kinds.push_back(v.kind);
    if (!result.detail.empty()) result.detail += "; ";
    result.detail += v.what;
  }
  return result;
}

}  // namespace sdx::verify
