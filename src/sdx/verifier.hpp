#pragma once

/// \file verifier.hpp
/// Static auditor for compiled SDX state: checks the paper's safety
/// invariants directly on the rule table, independently of the compiler
/// that produced it. Operators can run this after every (re)compilation;
/// the test suite runs it over every workload.
///
/// Checked invariants (DESIGN.md §6):
///   1. Totality — the classifier ends in a catch-all, so every packet has
///      a defined fate.
///   2. No dangling virtual ports — after composition, every output lands
///      on a physical port (a vport output would blackhole silently).
///   3. Egress MAC sanity — every rule that outputs to participant X's
///      port leaves the frame with one of X's real router MACs (or
///      untouched real MAC), never a VMAC: "without rewriting, AS B would
///      drop the traffic" (§4.1).
///   4. BGP consistency — a rule matching VMAC(group g) at sender S's port
///      may only forward to participant X if every prefix of g is exported
///      by X to S, or X is S's best-route next hop for all of g (§3.2).
///   5. Isolation — a rule constrained to sender S's ingress port was
///      produced by S's own policy or by defaults, never by another
///      participant's clauses; structurally: its match/action must be
///      consistent with some clause of S or with default forwarding.
///      (Checked in the restricted form: inbound-TE rewrites for X only
///      fire on packets at X's virtual position, which after composition
///      means rules rewriting to X's port MACs must output on X's ports.)

#include <vector>

#include "sdx/compiler.hpp"
#include "verify/safety.hpp"

namespace sdx::core {

/// Audits a compiled SDX against the route-server state it was compiled
/// from. \p participants / \p ports must be the same objects the compiler
/// saw. Findings are kLocalRule violations ("rule N: ..."); the rule count
/// is local_rules_checked. The report type is the graph checker's, so
/// SafetyChecker::set_local_findings folds it in unchanged.
verify::SafetyReport audit(const CompiledSdx& compiled,
                           const std::vector<Participant>& participants,
                           const PortMap& ports,
                           const bgp::RouteServer& server);

}  // namespace sdx::core

#include "sdx/multi_switch.hpp"

namespace sdx::core {

/// Audits a multi-switch deployment for topology-level safety: every rule
/// of every switch program outputs only to ports that exist on that switch
/// (local edge ports or its own trunks), exact-ingress rules reference
/// local ports, and each switch's transit band covers every router MAC on
/// every trunk (no tagged frame can arrive unroutable mid-fabric).
verify::SafetyReport audit_multi_switch(
    const std::vector<SwitchProgram>& programs,
    const FabricTopology& topology,
    const std::vector<Participant>& participants);

}  // namespace sdx::core
