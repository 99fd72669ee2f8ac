#pragma once

/// \file safety.hpp
/// Policy safety verification: loop-freedom, isolation and no-blackhole
/// proofs over the deployed classifier + RIB relation.
///
/// The SDX lets participants compose arbitrary SDN policies on top of BGP,
/// and Prelude showed that exactly this freedom lets naïvely-composed (or
/// stale) policies create inter-domain forwarding loops that plain BGP
/// cannot. The checker here walks the *inter-participant forwarding graph*:
/// a node is (participant, packet class), where a class is a destination
/// prefix × a header variant drawn from the deployed clause matches; an
/// edge is one real data-plane step — the sender's border router frames the
/// class representative (LPM → next-hop → ARP → VMAC tag), the switch
/// processes the frame, and the egress participant either terminates the
/// traffic (it advertises the destination, so its router forwards upstream)
/// or re-enters it through its own FIB. Per class the checker proves
///
///   (a) loop-freedom  — no participant repeats on the walk,
///   (b) isolation     — every hop lands on a participant that exported the
///                       destination prefix to the hop's sender, and
///   (c) no-blackhole  — the walk ends at a participant that advertises the
///                       destination (a physical egress), never at a
///                       dropped frame, an unclaimed port, a router that
///                       rejects the dst MAC, or a router with no route.
///
/// In a consistently-deployed state every walk terminates in one hop
/// (steering implies export implies advertisement), so the clean check is
/// cheap. Violations arise from *stale* data-plane state — flow rules and
/// router FIB entries compiled against a RIB that has since changed — which
/// is exactly the window the §4.3.2 fast path and asynchronous recompiles
/// keep open. Every violation carries a concrete counterexample packet
/// (header fields + ingress port) that replays through FlowTable::process.
///
/// Layering: this library sits *below* sdx_core — it sees participants,
/// the route server and a handful of std::function seams (DeploymentView),
/// never the runtime itself. SdxRuntime builds the view and drives the
/// checker (full after a recompile, incremental over dirty prefixes after
/// fast-path updates); see SdxRuntime::enable_verification().
///
/// Cost: the full pass is O(known prefixes × senders × variants). The
/// incremental pass is O(dirty prefixes × senders × variants) plus
/// O(violations) to reassemble the report: it asks the view whether each
/// dirty prefix is still known (is_known) and re-anchors rewritten
/// destinations with known_covering, so nothing in it enumerates the
/// deployment.

#include <cstdint>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bgp/route_server.hpp"
#include "netbase/packet.hpp"
#include "sdx/participant.hpp"

namespace sdx::verify {

using bgp::ParticipantId;
using net::Ipv4Prefix;
using net::MacAddress;
using net::PacketHeader;
using net::PortId;

/// A header variant: the transport fields and source prefix of a deployed
/// clause (defined in safety.cpp).
struct Variant;

enum class ViolationKind : std::uint8_t {
  kLoop = 0,       ///< a participant repeats on the forwarding walk
  kIsolation,      ///< traffic attracted without a matching export
  kBlackhole,      ///< the class never reaches a physical egress
  kLocalRule,      ///< a per-rule invariant (folded from core::audit)
};

/// Stable lower-case name ("loop", "isolation", ...) — used as the `kind`
/// label of `sdx_verify_violations_total` and in report text.
std::string_view kind_name(ViolationKind k);

/// A concrete packet witnessing a violation: replay it through
/// FlowTable::process at `ingress_port` and the reported walk reproduces.
struct Counterexample {
  PacketHeader packet;   ///< framed as the ingress router emits it
  PortId ingress_port = 0;
  ParticipantId sender = 0;
  Ipv4Prefix prefix;     ///< destination prefix of the packet class
  std::vector<ParticipantId> hops;  ///< participants visited, sender first

  std::string to_string() const;
};

struct SafetyViolation {
  ViolationKind kind = ViolationKind::kLoop;
  std::string what;
  /// Absent only for kLocalRule findings (those are per-rule, not per-walk).
  std::optional<Counterexample> counterexample;
};

struct SafetyReport {
  std::vector<SafetyViolation> violations;
  std::size_t classes_checked = 0;   ///< (sender, prefix, variant) walks
  std::size_t edges_walked = 0;      ///< switch traversals performed
  std::size_t prefixes_checked = 0;
  std::size_t variants = 0;          ///< header variants enumerated
  std::size_t local_rules_checked = 0;
  bool incremental = false;
  double seconds = 0;

  bool ok() const { return violations.empty(); }
  std::size_t count(ViolationKind k) const;
  std::string to_string() const;
};

/// The checker's window onto a deployed SDX. Pure seams so the library
/// never links against the runtime; all closures must stay valid for the
/// lifetime of the view. SdxRuntime::deployment_view() builds one over the
/// live fabric; tests can assemble views over hand-built tables.
struct DeploymentView {
  const std::vector<core::Participant>* participants = nullptr;
  const bgp::RouteServer* server = nullptr;

  /// One switch traversal: FlowTable::process on the deployed table.
  std::function<std::vector<PacketHeader>(const PacketHeader&)> process;

  /// The sender's border-router framing step (LPM → next hop → ARP → L2
  /// rewrite, BorderRouter::forward). nullopt = the router holds no route
  /// for the destination (the class emits no traffic at this hop).
  std::function<std::optional<PacketHeader>(ParticipantId sender,
                                            PacketHeader payload)>
      forward;

  /// Owner participant of a physical switch port; nullopt when unclaimed.
  std::function<std::optional<ParticipantId>(PortId)> owner_of;

  /// Real MAC of the border router attached at a port; nullopt when none.
  std::function<std::optional<MacAddress>(PortId)> router_mac_at;

  /// Every prefix the deployment can carry traffic for: the route server's
  /// RIB *plus* prefixes still present in border-router FIBs (stale
  /// advertisements are exactly where violations live). Only the full pass
  /// enumerates it; the two queries below answer from the same union
  /// without building it.
  std::function<std::vector<Ipv4Prefix>()> known_prefixes;

  /// True when \p prefix is in known_prefixes(): the route server holds
  /// candidates for it or some border-router FIB still holds it.
  std::function<bool(Ipv4Prefix)> is_known;

  /// The longest prefix in known_prefixes() that contains \p addr; nullopt
  /// when none does. Re-anchors a destination an inbound rewrite moved.
  std::function<std::optional<Ipv4Prefix>(net::Ipv4Address)> known_covering;
};

/// Outcome of re-walking a counterexample packet through the view.
struct ReplayResult {
  /// Violation kinds observed on the walk, in discovery order.
  std::vector<ViolationKind> kinds;
  std::size_t hops = 0;
  std::string detail;

  bool reproduces(ViolationKind k) const {
    for (auto got : kinds) {
      if (got == k) return true;
    }
    return false;
  }
};

class SafetyChecker {
 public:
  struct Options {
    /// Walk budget per class; exhausting it without an egress is itself
    /// reported as a loop (the fabric cannot deliver in bounded hops).
    std::size_t max_hops = 32;
    /// Cap on enumerated header variants (excess clauses share classes).
    std::size_t max_variants = 64;
  };

  SafetyChecker() : SafetyChecker(Options{}) {}
  explicit SafetyChecker(Options options) : options_(options) {}

  /// Full pass: every known prefix × every sender × every header variant.
  /// Replaces the incremental cache. Local-rule findings installed via
  /// set_local_findings() are folded into the returned report.
  SafetyReport full(const DeploymentView& view);

  /// Re-checks only \p dirty prefixes (deduplicated; prefixes that left the
  /// deployment drop out of the cache) and reassembles the report from the
  /// cached remainder — the fast-path / partition-recompile stage. Never
  /// calls view.known_prefixes().
  SafetyReport incremental(const DeploymentView& view,
                           const std::vector<Ipv4Prefix>& dirty);

  /// Folds per-rule audit findings (core::audit, converted to kLocalRule
  /// violations by the caller) into every subsequent report — the "one
  /// entry point" contract: graph counterexamples and local-rule
  /// violations come back in the same SafetyReport.
  void set_local_findings(std::vector<SafetyViolation> findings,
                          std::size_t rules_checked);

  const Options& options() const { return options_; }

 private:
  struct PrefixFinding {
    std::vector<SafetyViolation> violations;
    std::size_t classes = 0;
    std::size_t edges = 0;
  };

  PrefixFinding check_prefix(const DeploymentView& view, Ipv4Prefix prefix,
                            const std::vector<Variant>& variants) const;
  /// Cache writes keep the running totals and the violating set in step.
  void store(Ipv4Prefix prefix, PrefixFinding finding);
  void drop(Ipv4Prefix prefix);
  SafetyReport assemble(bool incremental, double seconds) const;

  Options options_;
  std::unordered_map<Ipv4Prefix, PrefixFinding> cache_;
  std::size_t classes_total_ = 0;    ///< sum over cache_
  std::size_t edges_total_ = 0;      ///< sum over cache_
  std::set<Ipv4Prefix> violating_;   ///< cached prefixes with violations
  std::size_t variants_seen_ = 0;
  std::vector<SafetyViolation> local_;
  std::size_t local_rules_checked_ = 0;
};

/// Re-walks a counterexample from its recorded framing — the first step is
/// literally view.process(cx.packet) — and returns every violation kind the
/// walk exhibits. A test asserting `replay(view, cx).reproduces(kind)`
/// proves the counterexample is a real packet, not a modeling artifact.
ReplayResult replay(const DeploymentView& view, const Counterexample& cx,
                    std::size_t max_hops = 32);

}  // namespace sdx::verify
