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
/// is exactly the window the §4.3.2 fast path and batched flushes keep
/// open. Every violation carries a concrete counterexample packet
/// (header fields + ingress port) that replays through FlowTable::process.
///
/// Layering: this library sits *below* sdx_core — it sees participants,
/// the route server and a handful of std::function seams (DeploymentView),
/// never the runtime itself. SdxRuntime builds the view and drives the
/// checker (full after a recompile, incremental over dirty prefixes after
/// fast-path updates); see SdxRuntime::enable_verification().
///
/// Cost: a pass frames each prefix once per sender — O(known prefixes ×
/// senders) framings for the full pass, O(dirty prefixes × senders) for the
/// incremental one — because framing reads only the destination
/// (DeploymentView::forward). Each variant's frame then costs one rule
/// lookup (DeploymentView::rule_of), so lookups are O(× variants); walks
/// are O(distinct rules hit per (sender, prefix)): a variant whose first
/// rule already carried an earlier variant of the same (sender, prefix) to
/// a clean one-hop delivery is proven by that walk, and only the others are
/// walked themselves. Each BGP relation a prefix's walks ask (export,
/// advertisement, remote-only advertisers) is answered once per argument
/// tuple for all of them. The incremental pass adds O(violations) to
/// reassemble the report: it asks the view whether each dirty prefix is
/// still known (is_known) and re-anchors rewritten destinations with
/// known_covering, so nothing in it enumerates the deployment. A pass
/// enumerates at most 64 header variants; the ones past the cap are counted
/// in SafetyReport::unchecked_variants and make the report not ok(), so a
/// clean verdict never rests on a silent cut.

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
  kLocalRule,      ///< a per-rule invariant (core::audit's findings)
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
  std::string what;  ///< kLocalRule: "rule N: ..." (N = classifier index)
  /// Absent for kLocalRule findings (those are per-rule, not per-walk) and
  /// for a class its sender's router routes but cannot frame (no ARP
  /// answer): that traffic never enters the fabric.
  std::optional<Counterexample> counterexample;
};

/// The report of both checkers: the forwarding-graph walk below and the
/// rule-level audit (core::audit, core::audit_multi_switch), whose
/// findings are kLocalRule violations counted in local_rules_checked.
struct SafetyReport {
  std::vector<SafetyViolation> violations;
  /// The proof the report covers: its (sender, prefix, variant) classes
  /// and the switch traversals their walks take, cached ones included. A
  /// class proven by an earlier class's walk counts that walk's one hop.
  std::size_t classes_checked = 0;
  std::size_t edges_walked = 0;
  std::size_t prefixes_checked = 0;
  std::size_t variants = 0;          ///< header variants enumerated
  /// Distinct header variants past the enumeration cap: no class of theirs
  /// was walked, so the report proves nothing about them.
  std::size_t unchecked_variants = 0;
  std::size_t local_rules_checked = 0;
  bool incremental = false;
  double seconds = 0;

  /// The work of this call alone. A full pass checks every class, so its
  /// classes equal classes_checked; an incremental one re-checks only its
  /// dirty prefixes, while the totals above describe the whole proof it
  /// reassembles. edges counts only the traversals actually probed, so it
  /// stays below edges_walked whenever one walk proves several classes.
  struct Work {
    std::size_t classes = 0;   ///< classes checked
    std::size_t edges = 0;     ///< switch traversals probed
    /// Rule lookups asked of the view: one per framed class.
    std::size_t lookups = 0;
    /// Border-router framings asked of the view: one per (sender, prefix)
    /// plus one per re-entry hop.
    std::size_t framings = 0;
  };
  Work work;

  /// No violation found, and no variant left unchecked.
  bool ok() const { return violations.empty() && unchecked_variants == 0; }
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

  /// One switch traversal: FlowTable::probe on the deployed table (process
  /// without the traffic counters).
  std::function<std::vector<PacketHeader>(const PacketHeader&)> process;

  /// The identity of the rule that wins a frame on the deployed table
  /// (FlowTable::lookup, which moves no counter); every frame no rule
  /// matches shares one identity. Contract: two frames get equal
  /// identities only when process() runs both through the same rule. The
  /// checker relies on it together with the table's own guarantee that a
  /// rule's actions write only constants (ActionSeq::apply): two frames of
  /// one (sender, prefix) that hit the same rule yield copies that differ
  /// only in header-variant fields no action wrote, so a walk that settles
  /// in that one hop, reading only each copy's port, destination MAC and
  /// destination address, proves both. A walk that re-enters a router
  /// carries the variant's fields into its next probe and proves nothing
  /// for other variants.
  std::function<std::uintptr_t(const PacketHeader&)> rule_of;

  /// What a border router's framing step did with a payload.
  struct Framed {
    /// The router holds a route for the destination; without one the
    /// class emits no traffic at this hop.
    bool routed = false;
    /// The framed packet; absent when unrouted or when the route's next
    /// hop has no ARP answer (the router drops the traffic).
    std::optional<PacketHeader> frame;
  };

  /// The sender's border-router framing step (LPM → next hop → ARP → L2
  /// rewrite, BorderRouter::frame). Contract: it reads only the payload's
  /// destination address and writes only its source MAC, destination MAC,
  /// ethertype and port. The checker relies on it: it frames one
  /// representative per (sender, prefix) and copies those four fields onto
  /// every header variant of the prefix, which is sound only while no other
  /// field can change what the router does.
  std::function<Framed(ParticipantId sender, PacketHeader payload)> forward;

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

  /// Folds a rule-level audit report (core::audit) into every subsequent
  /// report — the "one entry point" contract: graph counterexamples and
  /// local-rule violations come back in the same SafetyReport.
  void set_local_findings(SafetyReport audit);

 private:
  struct PrefixFinding {
    std::vector<SafetyViolation> violations;
    std::size_t classes = 0;
    std::size_t edges = 0;
  };

  /// Checks every class of \p prefix and adds what it spent to \p work.
  PrefixFinding check_prefix(const DeploymentView& view, Ipv4Prefix prefix,
                            const std::vector<Variant>& variants,
                            SafetyReport::Work& work) const;
  /// Cache writes keep the running totals and the violating set in step.
  void store(Ipv4Prefix prefix, PrefixFinding finding);
  void drop(Ipv4Prefix prefix);
  SafetyReport assemble(bool incremental, const SafetyReport::Work& work,
                        double seconds) const;

  std::unordered_map<Ipv4Prefix, PrefixFinding> cache_;
  std::size_t classes_total_ = 0;    ///< sum over cache_
  std::size_t edges_total_ = 0;      ///< sum over cache_
  std::set<Ipv4Prefix> violating_;   ///< cached prefixes with violations
  std::size_t variants_seen_ = 0;
  std::size_t variants_cut_ = 0;  ///< variants past the cap, last pass
  std::vector<SafetyViolation> local_;
  std::size_t local_rules_checked_ = 0;
};

/// Re-walks a counterexample from its recorded framing — the first step is
/// literally view.process(cx.packet) — and returns every violation kind the
/// walk exhibits. A test asserting `replay(view, cx).reproduces(kind)`
/// proves the counterexample is a real packet, not a modeling artifact.
ReplayResult replay(const DeploymentView& view, const Counterexample& cx);

}  // namespace sdx::verify
