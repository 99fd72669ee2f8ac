#include "sdx/explain.hpp"

#include <sstream>

namespace sdx::core {

std::string_view rule_kind_name(RuleKind k) {
  switch (k) {
    case RuleKind::kNoRoute: return "no-route";
    case RuleKind::kArpFailure: return "arp-failure";
    case RuleKind::kPolicyClause: return "policy-clause";
    case RuleKind::kRemoteRewrite: return "remote-rewrite";
    case RuleKind::kGroupDefault: return "group-default";
    case RuleKind::kMacLearning: return "mac-learning";
    case RuleKind::kDropped: return "dropped";
  }
  return "?";
}

std::string Explanation::to_string() const {
  std::ostringstream os;
  os << "verdict: " << rule_kind_name(kind) << "\n";
  if (route_prefix) {
    os << "route:   " << route_prefix->to_string() << " via participant "
       << route_via;
    if (group) os << " (prefix group " << *group << ")";
    os << "\n";
    os << "frame:   " << frame.to_string() << "\n";
  }
  if (rule_index) {
    os << "rule:    #" << *rule_index << " " << rule_text << "\n";
  }
  if (egress) {
    os << "egress:  port " << *egress << " (participant " << receiver
       << "), " << delivered.to_string() << "\n";
  }
  return os.str();
}

Explanation explain(const SdxRuntime& runtime, ParticipantId sender,
                    const net::PacketHeader& payload,
                    std::size_t port_index) {
  Explanation out;
  const Participant& s = runtime.participant(sender);
  if (s.is_remote() || port_index >= s.ports.size()) {
    out.kind = RuleKind::kNoRoute;
    return out;
  }

  // 1. Border-router step: BorderRouter::frame, the counter-free half of
  // forward(). The router holds whatever was advertised to it, including a
  // partitioned deployment's per-receiver bindings.
  const dp::BorderRouter* router =
      runtime.fabric().router_at(s.ports[port_index].id);
  if (router == nullptr) {
    out.kind = RuleKind::kNoRoute;
    return out;
  }
  net::PacketHeader frame = payload;
  const auto framing = router->frame(frame, runtime.fabric().arp());
  if (!framing.routed) {
    out.kind = RuleKind::kNoRoute;
    return out;
  }
  out.route_prefix = framing.route;
  if (auto best = runtime.route_server().best_route(sender, framing.route)) {
    out.route_via = best->learned_from;
  }
  out.group = runtime.current_group(framing.route);
  if (!framing.framed) {
    out.kind = RuleKind::kArpFailure;
    return out;
  }
  out.frame = frame;

  // 2. Fabric step: the matching installed rule.
  const dp::FlowRule* rule =
      runtime.fabric().sdx_switch().table().lookup(out.frame);
  if (rule == nullptr || rule->drops()) {
    out.kind = RuleKind::kDropped;
    if (rule != nullptr) out.rule_text = rule->to_string();
    return out;
  }
  out.rule_index =
      runtime.fabric().sdx_switch().table().index_of(rule).value_or(0);
  out.rule_text = rule->to_string();

  // 3. Best-effort attribution of the rule's origin.
  const auto& dstmac_match = rule->match.field(net::Field::kDstMac);
  const auto& port_match = rule->match.field(net::Field::kPort);
  const bool vmac_tagged =
      dstmac_match.is_exact() &&
      net::MacAddress(dstmac_match.value()).locally_administered();
  bool rewrites_dstip = false;
  for (const auto& act : rule->actions) {
    if (act.written(net::Field::kDstIp)) rewrites_dstip = true;
  }
  if (rewrites_dstip && !vmac_tagged) {
    out.kind = RuleKind::kRemoteRewrite;
  } else if (vmac_tagged) {
    const bool extra_fields =
        rule->match.constrained_fields() > (port_match.is_exact() ? 2 : 1);
    out.kind = extra_fields ? RuleKind::kPolicyClause
                            : RuleKind::kGroupDefault;
  } else if (dstmac_match.is_exact()) {
    out.kind = RuleKind::kMacLearning;
  } else {
    out.kind = RuleKind::kPolicyClause;
  }

  // 4. Outcome.
  out.delivered = rule->actions.front().apply(out.frame);
  out.egress = out.delivered.port();
  out.receiver = runtime.ports().phys_owner(out.delivered.port());
  return out;
}

}  // namespace sdx::core
