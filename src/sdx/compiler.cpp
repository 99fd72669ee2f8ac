#include "sdx/compiler.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <unordered_set>

#include "netbase/parallel.hpp"
#include "policy/compile.hpp"
#include "telemetry/telemetry.hpp"

namespace sdx::core {

namespace {

using policy::ActionSeq;
using policy::Classifier;
using policy::Rule;
using net::Field;
using net::FlowMatch;

using telemetry::seconds_since;

/// One pipeline stage: a child span of the compile span, and the stage's
/// wall time added to \p seconds when the scope ends.
class StageTimer {
 public:
  StageTimer(telemetry::SpanTracer* tracer, const char* name, double& seconds)
      : span_(tracer, name), seconds_(seconds) {}
  ~StageTimer() { seconds_ += seconds_since(t0_); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  telemetry::Span span_;
  double& seconds_;
  std::chrono::steady_clock::time_point t0_ = std::chrono::steady_clock::now();
};

/// Post-compile metric recording: stage timings as histograms (they vary
/// run to run) and the work the pipeline did as counters (deterministic —
/// the compiled output is byte-identical at any thread width, so these
/// series are too).
void record_compile_metrics(telemetry::MetricRegistry& reg,
                            const CompileStats& s) {
  static constexpr const char* kStageHelp =
      "per-stage compile wall time (seconds)";
  const std::pair<const char*, double> stages[] = {
      {"reach", s.reach_seconds}, {"fec_vnh", s.vnh_seconds},
      {"synth", s.synth_seconds}, {"compose", s.compose_seconds},
  };
  for (const auto& [stage, seconds] : stages) {
    reg.histogram("sdx_compile_stage_seconds", kStageHelp, {},
                  {{"stage", stage}})
        .observe(seconds);
  }
  reg.histogram("sdx_compile_seconds", "full compile wall time (seconds)")
      .observe(s.total_seconds);
  reg.counter("sdx_compile_runs_total", "full pipeline compilations").inc();
  reg.counter("sdx_compile_rules_total",
              "flow rules emitted by full compilations (cumulative)")
      .inc(s.final_rules);
  reg.counter("sdx_compile_pair_compositions_total",
              "stage-1 x stage-2 rule visits during targeted composition")
      .inc(s.pair_compositions);
  reg.gauge("sdx_compile_last_rules", "flow rules in the latest compile")
      .set(static_cast<double>(s.final_rules));
  reg.gauge("sdx_compile_last_groups",
            "prefix groups (FECs) in the latest compile")
      .set(static_cast<double>(s.prefix_groups));
  reg.gauge("sdx_compile_threads", "pool width of the latest compile")
      .set(static_cast<double>(s.threads_used));
}

/// One wall-time observation per physical partition. The observation count
/// is deterministic (one per participant per compile) even though the
/// timings themselves vary run to run, so counter-series byte-stability is
/// unaffected.
void record_partition_metrics(telemetry::MetricRegistry& reg,
                              const std::vector<Participant>& participants,
                              const CompiledSdx& result) {
  for (std::size_t slot = 0; slot < result.partitions.size(); ++slot) {
    if (participants[slot].is_remote()) continue;
    reg.histogram("sdx_partition_compile_seconds",
                  "per-partition compile wall time (seconds)", {},
                  {{"participant", participants[slot].name}})
        .observe(result.partitions[slot].seconds);
  }
}

}  // namespace

std::string CompiledSdx::fingerprint() const {
  std::string out = fabric.to_string();
  out += "--bindings--\n";
  for (const auto& b : bindings) {
    out += b.vnh.to_string();
    out += '/';
    out += b.vmac.to_string();
    out += '\n';
  }
  out += "--groups--\n";
  for (const auto& g : fecs.groups) {
    for (auto p : g.prefixes) {
      out += p.to_string();
      out += ' ';
    }
    out += '|';
    for (auto c : g.clauses) {
      out += std::to_string(c);
      out += ' ';
    }
    out += '|';
    for (const auto& d : g.defaults) {
      out += d ? std::to_string(*d) : "-";
      out += ' ';
    }
    out += '\n';
  }
  out += "--reaches--\n";
  for (const auto& r : reaches) {
    out += std::to_string(r.owner);
    out += ':';
    out += std::to_string(r.clause_index);
    out += '=';
    out += std::to_string(r.prefixes.size());
    out += '\n';
  }
  out += "--layout--\n";
  out += layout.descriptor();
  out += partitioned ? " partitioned\n" : " pairwise\n";
  if (partitioned) {
    // Per-partition structure. The fabric section above already covers every
    // rule's contents and order; this pins the partition boundaries, each
    // partition's bindings/groups/reaches and the shared band size.
    for (const auto& part : partitions) {
      out += "--partition ";
      out += std::to_string(part.owner);
      out += " rules=";
      out += std::to_string(part.rules.size());
      out += "--\n";
      for (const auto& b : part.bindings) {
        out += b.vnh.to_string();
        out += '/';
        out += b.vmac.to_string();
        out += '\n';
      }
      for (const auto& g : part.fecs.groups) {
        for (auto p : g.prefixes) {
          out += p.to_string();
          out += ' ';
        }
        out += '|';
        for (auto c : g.clauses) {
          out += std::to_string(c);
          out += ' ';
        }
        out += '|';
        for (const auto& d : g.defaults) {
          out += d ? std::to_string(*d) : "-";
          out += ' ';
        }
        out += '\n';
      }
      for (const auto& r : part.reaches) {
        out += std::to_string(r.clause_index);
        out += '=';
        out += std::to_string(r.prefixes.size());
        out += '\n';
      }
    }
    out += "--shared ";
    out += std::to_string(shared_rules.size());
    out += "--\n";
  }
  return out;
}

void CompiledSdx::rebuild_fabric() {
  std::size_t total = shared_rules.size();
  for (const auto& part : partitions) total += part.rules.size();
  std::vector<policy::Rule> all;
  all.reserve(total);
  for (const auto& part : partitions) {
    all.insert(all.end(), part.rules.rules().begin(),
               part.rules.rules().end());
  }
  all.insert(all.end(), shared_rules.rules().begin(),
             shared_rules.rules().end());
  fabric = policy::Classifier(std::move(all));
}

SdxCompiler::SdxCompiler(const std::vector<Participant>& participants,
                         const PortMap& ports,
                         const bgp::RouteServer& server,
                         CompileOptions options)
    : participants_(participants),
      ports_(ports),
      server_(server),
      options_(options) {
  for (std::size_t i = 0; i < participants_.size(); ++i) {
    slot_of_[participants_[i].id] = i;
  }
  slot_of_peer_.reserve(server_.peers().size());
  for (const auto& peer : server_.peers()) {
    const auto slot = slot_of_.find(peer.id);
    slot_of_peer_.push_back(slot == slot_of_.end() ? kNoSlot : slot->second);
  }
}

std::vector<Ipv4Prefix> SdxCompiler::clause_reach(
    const Participant& owner, const OutboundClause& clause) const {
  std::vector<Ipv4Prefix> reach = server_.reachable_via(owner.id, clause.to);
  if (clause.match.dst_prefixes.empty()) return reach;
  // Clause dst constraints apply at announced-prefix granularity: a prefix
  // is eligible only when fully contained in one of the clause's blocks.
  // Containment test: p ⊆ dp(len L) ⇔ dp == p truncated to L, so one hash
  // probe per populated block length suffices.
  std::unordered_map<int, std::unordered_set<Ipv4Prefix>> by_length;
  for (auto dp : clause.match.dst_prefixes) {
    by_length[dp.length()].insert(dp);
  }
  // Probe populated lengths in sorted order, not hash order: shortest
  // blocks first, and a filter cost that doesn't vary with the hash seed.
  std::vector<int> lengths;
  lengths.reserve(by_length.size());
  for (const auto& [len, _] : by_length) lengths.push_back(len);
  std::sort(lengths.begin(), lengths.end());
  std::vector<Ipv4Prefix> filtered;
  filtered.reserve(reach.size());
  for (auto p : reach) {
    for (int len : lengths) {
      if (len > p.length()) break;  // lengths ascend: no later one can fit
      if (by_length.find(len)->second.contains(Ipv4Prefix(p.network(), len))) {
        filtered.push_back(p);
        break;
      }
    }
  }
  return filtered;
}

DefaultVector SdxCompiler::defaults_for(Ipv4Prefix prefix) const {
  DefaultVector out(participants_.size());
  const auto* ranked = server_.candidates(prefix);
  if (ranked == nullptr) return out;
  server_.for_each_best(ranked, [&](std::size_t peer, const bgp::Route* best) {
    if (best != nullptr && peer < slot_of_peer_.size() &&
        slot_of_peer_[peer] != kNoSlot) {
      out[slot_of_peer_[peer]] = best->learned_from;
    }
  });
  return out;
}

std::vector<FlowMatch> SdxCompiler::clause_matches(
    const ClauseMatch& m, FlowMatch base, bool keep_dst_prefixes) const {
  for (const auto& [f, v] : m.exact) {
    auto merged = base.field(f).intersect(net::FieldMatch::exact(v));
    if (!merged) return {};  // contradictory clause: matches nothing
    base.set(f, *merged);
  }
  std::vector<FlowMatch> out{base};
  auto cross_with = [&out](Field f, const std::vector<Ipv4Prefix>& prefixes) {
    if (prefixes.empty()) return;
    std::vector<FlowMatch> next;
    next.reserve(out.size() * prefixes.size());
    for (const auto& fm : out) {
      for (auto p : prefixes) {
        auto merged = fm.field(f).intersect(net::FieldMatch::prefix(p));
        if (!merged) continue;
        FlowMatch widened = fm;
        widened.set(f, *merged);
        next.push_back(widened);
      }
    }
    out = std::move(next);
  };
  cross_with(Field::kSrcIp, m.src_prefixes);
  if (keep_dst_prefixes) cross_with(Field::kDstIp, m.dst_prefixes);
  return out;
}

void SdxCompiler::synthesize_clause(const Participant& owner,
                                    const OutboundClause& c, Field f,
                                    std::span<const net::FieldMatch> dsts,
                                    std::vector<Rule>& out) const {
  const ActionSeq act = ActionSeq::set(Field::kPort, ports_.vport(c.to));
  for (net::PortId port : owner.port_ids()) {
    for (const auto& dst : dsts) {
      FlowMatch base = FlowMatch::on(Field::kPort, port);
      base.set(f, dst);
      for (auto& fm :
           clause_matches(c.match, base, /*keep_dst_prefixes=*/false)) {
        out.push_back(Rule{fm, {act}});
      }
    }
  }
}

Classifier SdxCompiler::stage2_for(const Participant& p) const {
  if (p.is_remote()) {
    throw std::logic_error("remote participant has no stage-2 classifier");
  }
  const net::PortId vp = ports_.vport(p.id);
  std::vector<Rule> rules;

  // Inbound policy clauses (inbound TE) — highest priority.
  for (const auto& c : p.inbound) {
    FlowMatch base = FlowMatch::on(Field::kPort, vp);
    const PhysicalPort& out_port = p.ports.at(c.to_port.value_or(0));
    ActionSeq act;
    for (const auto& [f, v] : c.rewrites) act.then_set(f, v);
    act.then_set(Field::kDstMac, out_port.router_mac.bits());
    act.then_set(Field::kPort, out_port.id);
    for (auto& fm : clause_matches(c.match, base, /*keep_dst_prefixes=*/true)) {
      rules.push_back(Rule{fm, {act}});
    }
  }

  // Port-specific default: frames already addressed to one of the router
  // port MACs exit on that port unchanged (multi-port participants keep
  // their BGP-chosen entry point).
  for (const auto& port : p.ports) {
    FlowMatch fm = FlowMatch::on(Field::kPort, vp);
    fm.with(Field::kDstMac, port.router_mac.bits());
    rules.push_back(Rule{fm, {ActionSeq::set(Field::kPort, port.id)}});
  }

  // Catch-all: VMAC-tagged (or rewritten) traffic exits the primary port
  // with the destination MAC restored to the router's real address —
  // "without rewriting, AS B would drop the traffic" (§4.1).
  {
    const PhysicalPort& primary = p.primary_port();
    ActionSeq act = ActionSeq::set(Field::kDstMac, primary.router_mac.bits());
    act.then_set(Field::kPort, primary.id);
    rules.push_back(Rule{FlowMatch::on(Field::kPort, vp), {act}});
  }

  // Totality for pull_back().
  rules.push_back(Rule{FlowMatch::any(), {}});
  return Classifier(std::move(rules));
}

void SdxCompiler::synthesize_group_defaults(const DefaultVector& defaults,
                                            net::MacAddress vmac,
                                            std::vector<Rule>& out) const {
  // Majority next-hop over the participants that have one (remote next-hops
  // are unreachable by default forwarding and are skipped; their traffic is
  // handled by remote rewrite clauses or dropped).
  std::unordered_map<ParticipantId, std::size_t> votes;
  for (const auto& d : defaults) {
    if (!d) continue;
    const auto slot = slot_of_.find(*d);
    if (slot == slot_of_.end() || participants_[slot->second].is_remote()) {
      continue;
    }
    ++votes[*d];
  }
  if (votes.empty()) return;
  ParticipantId majority = votes.begin()->first;
  std::size_t majority_votes = 0;
  for (const auto& [id, n] : votes) {
    if (n > majority_votes || (n == majority_votes && id < majority)) {
      majority = id;
      majority_votes = n;
    }
  }

  // Per-sender overrides for the (rare) participants whose best next-hop
  // differs from the majority — one rule per sender port, ahead of the
  // global rule.
  for (std::size_t slot = 0; slot < defaults.size(); ++slot) {
    const auto& d = defaults[slot];
    if (!d || *d == majority) continue;
    const auto target_slot = slot_of_.find(*d);
    if (target_slot == slot_of_.end() ||
        participants_[target_slot->second].is_remote()) {
      continue;
    }
    for (net::PortId port : participants_[slot].port_ids()) {
      FlowMatch fm = FlowMatch::on(Field::kPort, port);
      fm.with(Field::kDstMac, vmac.bits());
      out.push_back(
          Rule{fm, {ActionSeq::set(Field::kPort, ports_.vport(*d))}});
    }
  }
  FlowMatch fm = FlowMatch::on(Field::kDstMac, vmac.bits());
  out.push_back(
      Rule{fm, {ActionSeq::set(Field::kPort, ports_.vport(majority))}});
}

void SdxCompiler::synthesize_remote_rewrites(std::vector<Rule>& out) const {
  for (const auto& p : participants_) {
    if (!p.is_remote()) continue;
    for (const auto& c : p.inbound) {
      // Resolve the post-rewrite egress by the remote participant's own
      // BGP view of the rewritten destination.
      std::optional<net::Ipv4Address> new_dst;
      for (const auto& [f, v] : c.rewrites) {
        if (f == Field::kDstIp) {
          new_dst = net::Ipv4Address(static_cast<std::uint32_t>(v));
        }
      }
      if (!new_dst) continue;
      auto route = server_.best_route_lpm(p.id, *new_dst);
      if (!route) continue;
      const auto target_slot = slot_of_.find(route->learned_from);
      if (target_slot == slot_of_.end() ||
          participants_[target_slot->second].is_remote()) {
        continue;
      }
      ActionSeq act;
      for (const auto& [f, v] : c.rewrites) act.then_set(f, v);
      act.then_set(Field::kPort, ports_.vport(route->learned_from));
      for (auto& fm : clause_matches(c.match, FlowMatch::any(),
                                     /*keep_dst_prefixes=*/true)) {
        out.push_back(Rule{fm, {act}});
      }
    }
  }
}

template <typename Stage2Of>
void SdxCompiler::compose_rule(Rule& rule, const Stage2Of& stage2_of,
                               std::vector<Rule>& out,
                               Composition& work) const {
  if (!rule.drops()) {
    const ActionSeq& act = rule.actions.front();
    const auto port_written = act.written(Field::kPort);
    if (port_written &&
        PortMap::is_virtual(static_cast<net::PortId>(*port_written))) {
      const ParticipantId target =
          ports_.vport_owner(static_cast<net::PortId>(*port_written));
      const Classifier& stage2 = stage2_of(slot_of_.at(target));
      ++work.rules;
      work.visits += stage2.size();
      auto run = policy::pull_back(rule.match, act, stage2);
      if (out.empty()) {
        out = std::move(run);
      } else {
        out.insert(out.end(), std::make_move_iterator(run.begin()),
                   std::make_move_iterator(run.end()));
      }
      return;
    }
  }
  out.push_back(std::move(rule));
}

Classifier SdxCompiler::compose_serial(std::vector<Rule> stage1,
                                       Stage2Memo& memo,
                                       Composition& work) const {
  const auto from_memo = [&](std::size_t slot) -> const Classifier& {
    return memo.get(*this, slot);
  };
  std::vector<Rule> out;
  out.reserve(stage1.size());
  for (Rule& r : stage1) compose_rule(r, from_memo, out, work);
  Classifier c(std::move(out));
  c.optimize(false);
  return c;
}

Classifier SdxCompiler::compose(std::vector<Rule> stage1,
                                CompileStats& stats,
                                net::ThreadPool& pool) const {
  // The stage-2 source: the memo, filled up front across the pool so the
  // fan-out only reads it — unless an ablation asks for every stage-2
  // classifier concatenated (prune_pairs off) or one rebuilt for every
  // composed rule (memoize_stage2 off).
  Stage2Memo memo;
  if (!options_.prune_pairs || options_.memoize_stage2) memo.fill(*this, pool);
  Classifier merged_stage2;
  if (!options_.prune_pairs) {
    std::vector<Rule> all;
    for (std::size_t slot = 0; slot < participants_.size(); ++slot) {
      if (participants_[slot].is_remote()) continue;
      const auto& s2 = memo.get(*this, slot).rules();
      // Strip the per-participant catch-all drop; one shared one suffices.
      all.insert(all.end(), s2.begin(), s2.end() - 1);
    }
    all.push_back(Rule{FlowMatch::any(), {}});
    merged_stage2 = Classifier(std::move(all));
  }

  // Each rule writes its composed run into its own slot; concatenating the
  // slots in order reproduces the serial rule order exactly.
  std::vector<std::vector<Rule>> composed(stage1.size());
  std::vector<Composition> work(stage1.size());
  pool.parallel_for(
      stage1.size(), 16, [&](std::size_t begin, std::size_t end) {
        Classifier fresh;
        const auto stage2_of = [&](std::size_t slot) -> const Classifier& {
          if (!options_.prune_pairs) return merged_stage2;
          if (options_.memoize_stage2) return memo.get(*this, slot);
          return fresh = stage2_for(participants_[slot]);
        };
        for (std::size_t i = begin; i < end; ++i) {
          compose_rule(stage1[i], stage2_of, composed[i], work[i]);
        }
      });

  std::size_t total = 0;
  for (const auto& run : composed) total += run.size();
  std::vector<Rule> out;
  out.reserve(total);
  for (std::size_t i = 0; i < composed.size(); ++i) {
    stats.pair_compositions += work[i].visits;
    out.insert(out.end(), std::make_move_iterator(composed[i].begin()),
               std::make_move_iterator(composed[i].end()));
  }
  Classifier c(std::move(out));
  c.optimize(false);
  return c;
}

const Classifier& Stage2Memo::get(const SdxCompiler& compiler,
                                  std::size_t slot) {
  if (by_slot_.size() <= slot) by_slot_.resize(compiler.participants().size());
  std::optional<Classifier>& entry = by_slot_[slot];
  if (!entry) entry = compiler.stage2_for(compiler.participants()[slot]);
  return *entry;
}

void Stage2Memo::fill(const SdxCompiler& compiler, net::ThreadPool& pool) {
  const auto& participants = compiler.participants();
  if (by_slot_.size() < participants.size()) {
    by_slot_.resize(participants.size());
  }
  pool.parallel_for(
      participants.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t slot = begin; slot < end; ++slot) {
          if (!participants[slot].is_remote()) get(compiler, slot);
        }
      });
}

telemetry::SpanTracer* SdxCompiler::span_tracer() const {
  return telemetry_ != nullptr ? &telemetry_->tracer : nullptr;
}

std::vector<ClauseReach> SdxCompiler::clause_reaches(
    std::size_t first, std::size_t last, net::ThreadPool& pool) const {
  // Clauses are independent: each writes its pre-sized slot.
  struct ClauseRef {
    const Participant* owner;
    std::size_t index;
  };
  std::vector<ClauseRef> clause_list;
  for (std::size_t slot = first; slot < last; ++slot) {
    const Participant& p = participants_[slot];
    for (std::size_t ci = 0; ci < p.outbound.size(); ++ci) {
      clause_list.push_back(ClauseRef{&p, ci});
    }
  }
  std::vector<ClauseReach> reaches(clause_list.size());
  pool.parallel_for(
      clause_list.size(), 1, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const auto& [owner, ci] = clause_list[i];
          reaches[i].owner = owner->id;
          reaches[i].clause_index = ci;
          reaches[i].prefixes = clause_reach(*owner, owner->outbound[ci]);
        }
      });
  return reaches;
}

CompiledSdx SdxCompiler::compile(VnhAllocator& vnh) const {
  if (options_.partitioned) {
    if (!options_.vmac_grouping) {
      throw std::invalid_argument(
          "partitioned compilation requires vmac_grouping: attribute bits "
          "are carried in the group VMAC tag");
    }
    if (participants_.size() > vnh.layout().nexthop_capacity()) {
      throw std::length_error(
          "partitioned compile: " + std::to_string(participants_.size()) +
          " participant slots do not fit the VMAC next-hop field (" +
          vnh.layout().descriptor() + ")");
    }
  }
  telemetry::SpanTracer* const tracer = span_tracer();
  telemetry::Span compile_span(tracer, "compile");
  const auto t_start = std::chrono::steady_clock::now();
  net::ThreadPool pool(options_.threads);
  CompiledSdx result;
  result.layout = vnh.layout();
  result.partitioned = options_.partitioned;
  CompileStats& stats = result.stats;
  stats.participants = participants_.size();
  stats.prefixes_total = server_.prefix_count();
  stats.threads_used = pool.size();

  // 1. Clause reach sets, in global clause order (participant slot-major).
  std::vector<ClauseReach> reaches;
  {
    StageTimer stage(tracer, "reach", stats.reach_seconds);
    reaches = clause_reaches(0, participants_.size(), pool);
  }
  stats.clause_count = reaches.size();

  if (options_.partitioned) {
    compile_partitioned(std::move(reaches), vnh, pool, result);
  } else {
    result.reaches = std::move(reaches);
    compile_pairwise(vnh, pool, result);
  }

  stats.final_rules = result.fabric.size();
  stats.total_seconds = seconds_since(t_start);
  compile_span.finish();
  if (telemetry_ != nullptr) {
    record_compile_metrics(telemetry_->metrics, stats);
    if (result.partitioned) {
      record_partition_metrics(telemetry_->metrics, participants_, result);
    }
  }
  return result;
}

void SdxCompiler::compile_pairwise(VnhAllocator& vnh, net::ThreadPool& pool,
                                   CompiledSdx& result) const {
  CompileStats& stats = result.stats;

  // 2+3. FEC computation (sharded by prefix hash, canonical merge) and
  // VNH/VMAC assignment.
  {
    StageTimer stage(span_tracer(), "fec_vnh", stats.vnh_seconds);
    vnh.reset();
    if (options_.vmac_grouping) {
      result.fecs = compute_fecs(
          result.reaches,
          [this](Ipv4Prefix prefix) { return defaults_for(prefix); },
          &pool);
      result.bindings.reserve(result.fecs.groups.size());
      for (std::size_t g = 0; g < result.fecs.groups.size(); ++g) {
        result.bindings.push_back(vnh.allocate());
      }
    }
  }
  stats.prefix_groups = result.fecs.groups.size();
  stats.prefixes_grouped = result.fecs.group_of.size();

  // 4. Stage-1 synthesis.
  std::vector<Rule> stage1;
  {
    StageTimer stage(span_tracer(), "synth", stats.synth_seconds);
    // Index: global clause id → groups fully inside its reach set.
    std::vector<std::vector<std::uint32_t>> clause_groups(
        result.reaches.size());
    for (std::uint32_t g = 0; g < result.fecs.groups.size(); ++g) {
      for (auto cid : result.fecs.groups[g].clauses) {
        clause_groups[cid].push_back(g);
      }
    }
    // Clause rules match the group VMACs — or, without VMAC grouping, the
    // reached destination prefixes directly.
    const Field dst_field =
        options_.vmac_grouping ? Field::kDstMac : Field::kDstIp;
    std::vector<net::FieldMatch> dsts;
    std::size_t clause_id = 0;
    for (const auto& p : participants_) {
      for (const auto& c : p.outbound) {
        dsts.clear();
        if (options_.vmac_grouping) {
          for (auto g : clause_groups[clause_id]) {
            dsts.push_back(
                net::FieldMatch::exact(result.bindings[g].vmac.bits()));
          }
        } else {
          for (auto prefix : result.reaches[clause_id].prefixes) {
            dsts.push_back(net::FieldMatch::prefix(prefix));
          }
        }
        synthesize_clause(p, c, dst_field, dsts, stage1);
        ++clause_id;
      }
    }

    // Remote-participant rewrite clauses (wide-area load balancing):
    // matched on destination address directly, ahead of default forwarding.
    synthesize_remote_rewrites(stage1);

    // Per-group default forwarding (VMAC mode only; without grouping the
    // route server leaves next-hops untouched and MAC learning suffices).
    if (options_.vmac_grouping) {
      for (std::uint32_t g = 0; g < result.fecs.groups.size(); ++g) {
        synthesize_group_defaults(result.fecs.groups[g].defaults,
                                  result.bindings[g].vmac, stage1);
      }
    }

    // MAC-learning rules for traffic addressed to real router MACs.
    for (const auto& p : participants_) {
      for (const auto& port : p.ports) {
        FlowMatch fm = FlowMatch::on(Field::kDstMac, port.router_mac.bits());
        stage1.push_back(
            Rule{fm, {ActionSeq::set(Field::kPort, ports_.vport(p.id))}});
      }
    }

    stage1.push_back(Rule{FlowMatch::any(), {}});
  }
  stats.stage1_rules = stage1.size();

  // 5+6. Targeted composition through stage-2.
  {
    StageTimer stage(span_tracer(), "compose", stats.compose_seconds);
    result.fabric = compose(std::move(stage1), stats, pool);
  }
}

FecResult SdxCompiler::partition_fecs(const std::vector<ClauseReach>& reaches,
                                      ParticipantId owner) const {
  // Length-1 default vector: the tag only ever steers the owner's own
  // traffic (per-receiver advertisement), so only the owner's best route
  // can split groups — two prefixes with equal clause membership but
  // different owner defaults must not share a next-hop field.
  return compute_fecs(
      reaches,
      [this, owner](Ipv4Prefix prefix) {
        DefaultVector d(1);
        if (auto best = server_.best_route(owner, prefix)) {
          d[0] = best->learned_from;
        }
        return d;
      },
      /*pool=*/nullptr);
}

void SdxCompiler::bind_partition(CompiledPartition& part,
                                 VnhAllocator& vnh) const {
  const VmacLayout& layout = vnh.layout();
  part.bindings.reserve(part.fecs.groups.size());
  for (const auto& g : part.fecs.groups) {
    std::uint64_t attrs = 0;
    for (auto cid : g.clauses) {
      // Clauses beyond the attribute budget fall back to exact-VMAC rules
      // in partition_stage1 — their membership is not encoded in the tag.
      if (cid < layout.attr_bits) attrs |= 1ull << cid;
    }
    std::uint64_t nexthop_plus1 = 0;
    if (!g.defaults.empty() && g.defaults[0]) {
      const auto slot = slot_of_.find(*g.defaults[0]);
      if (slot != slot_of_.end() &&
          !participants_[slot->second].is_remote()) {
        nexthop_plus1 = slot->second + 1;
      }
    }
    part.bindings.push_back(vnh.allocate_attributed(nexthop_plus1, attrs));
  }
}
std::vector<Rule> SdxCompiler::partition_stage1(
    const Participant& owner, const CompiledPartition& part,
    const VmacLayout& layout) const {
  std::vector<Rule> out;
  // Local clause index → groups carrying it (and hence: is it used at all).
  std::vector<std::vector<std::uint32_t>> clause_groups(
      owner.outbound.size());
  for (std::uint32_t g = 0; g < part.fecs.groups.size(); ++g) {
    for (auto cid : part.fecs.groups[g].clauses) {
      clause_groups[cid].push_back(g);
    }
  }
  std::vector<net::FieldMatch> dsts;
  for (std::size_t ci = 0; ci < owner.outbound.size(); ++ci) {
    if (clause_groups[ci].empty()) continue;  // clause reaches nothing
    dsts.clear();
    if (ci < layout.attr_bits) {
      // One masked rule per (clause, inport): matches every group tag of
      // this partition carrying the clause's attribute bit — the
      // group-count factor of the pairwise cross product disappears.
      dsts.push_back(layout.attr_bit_match(static_cast<unsigned>(ci)));
    } else {
      // Attribute-bitmap overflow tail: exact-VMAC per group, exactly as
      // the pairwise pipeline would emit.
      for (auto g : clause_groups[ci]) {
        dsts.push_back(net::FieldMatch::exact(part.bindings[g].vmac.bits()));
      }
    }
    synthesize_clause(owner, owner.outbound[ci], Field::kDstMac, dsts, out);
  }
  return out;
}

std::vector<Rule> SdxCompiler::shared_stage1(const VmacLayout& layout) const {
  std::vector<Rule> out;
  synthesize_remote_rewrites(out);
  // One masked default rule per physical receiver: forwards every tag whose
  // next-hop field names that receiver's slot, for any sender and group —
  // the per-(group, sender) default rules of the pairwise pipeline collapse
  // into |participants| rules total. Tags with next-hop field 0 (owner's
  // best route absent or remote) match nothing here and fall through to the
  // catch-all drop.
  for (std::size_t slot = 0; slot < participants_.size(); ++slot) {
    const Participant& p = participants_[slot];
    if (p.is_remote()) continue;
    FlowMatch fm;
    fm.set(Field::kDstMac, layout.nexthop_match(slot + 1));
    out.push_back(
        Rule{fm, {ActionSeq::set(Field::kPort, ports_.vport(p.id))}});
  }
  // MAC-learning rules and the catch-all drop, as pairwise.
  for (const auto& p : participants_) {
    for (const auto& port : p.ports) {
      FlowMatch fm = FlowMatch::on(Field::kDstMac, port.router_mac.bits());
      out.push_back(
          Rule{fm, {ActionSeq::set(Field::kPort, ports_.vport(p.id))}});
    }
  }
  out.push_back(Rule{FlowMatch::any(), {}});
  return out;
}

void SdxCompiler::compile_partitioned(std::vector<ClauseReach> reaches,
                                      VnhAllocator& vnh, net::ThreadPool& pool,
                                      CompiledSdx& result) const {
  CompileStats& stats = result.stats;

  // Each partition receives its owner's clause reaches (the list is
  // slot-major, so in clause order with clause_index already local). The
  // global reaches/fecs/bindings of the result stay empty — a partitioned
  // artifact has no sender-independent binding map.
  result.partitions.resize(participants_.size());
  std::vector<CompiledPartition*> parts;
  for (std::size_t slot = 0; slot < participants_.size(); ++slot) {
    result.partitions[slot].owner = participants_[slot].id;
    if (participants_[slot].is_remote()) continue;  // no ingress ports
    parts.push_back(&result.partitions[slot]);
  }
  for (auto& cr : reaches) {
    result.partitions[slot_of_.at(cr.owner)].reaches.push_back(std::move(cr));
  }

  vnh.reset();
  Stage2Memo memo;
  compile_partitions(parts, vnh, memo, pool, stats);

  // The partition-independent band, composed through the same memo.
  std::vector<Rule> shared;
  {
    StageTimer stage(span_tracer(), "synth", stats.synth_seconds);
    shared = shared_stage1(result.layout);
  }
  stats.stage1_rules += shared.size();
  Composition shared_work;
  {
    StageTimer stage(span_tracer(), "compose", stats.compose_seconds);
    result.shared_rules = compose_serial(std::move(shared), memo, shared_work);
  }
  stats.pair_compositions += shared_work.visits;

  std::unordered_set<Ipv4Prefix> grouped;
  for (const auto& part : result.partitions) {
    stats.prefix_groups += part.fecs.groups.size();
    stats.stage1_rules += part.stage1_rules;
    stats.pair_compositions += part.pair_compositions;
    for (const auto& kv : part.fecs.group_of) grouped.insert(kv.first);
  }
  stats.prefixes_grouped = grouped.size();
  result.rebuild_fabric();
}

void SdxCompiler::compile_partitions(
    const std::vector<CompiledPartition*>& parts, VnhAllocator& vnh,
    Stage2Memo& memo, net::ThreadPool& pool, CompileStats& stats) const {
  // Runs step(i) for every partition concurrently (partitions are
  // independent), charging its wall time to that partition.
  const auto each = [&](const auto& step) {
    pool.parallel_for(
        parts.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const auto t0 = std::chrono::steady_clock::now();
            step(i);
            parts[i]->seconds += seconds_since(t0);
          }
        });
  };

  // FECs per partition, then one serial binding sweep in slot order: group
  // ids and VNHs come from a single counter, so the assignment is
  // identical at any thread count.
  {
    StageTimer stage(span_tracer(), "fec_vnh", stats.vnh_seconds);
    each([&](std::size_t i) {
      parts[i]->fecs = partition_fecs(parts[i]->reaches, parts[i]->owner);
    });
    for (CompiledPartition* part : parts) bind_partition(*part, vnh);
  }

  std::vector<std::vector<Rule>> stage1(parts.size());
  {
    StageTimer stage(span_tracer(), "synth", stats.synth_seconds);
    each([&](std::size_t i) {
      stage1[i] = partition_stage1(participants_[slot_of_.at(parts[i]->owner)],
                                   *parts[i], vnh.layout());
      parts[i]->stage1_rules = stage1[i].size();
    });
  }

  // Each partition's rule order is internally serial, and partitions are
  // concatenated in slot order — byte-identical at any width.
  {
    StageTimer stage(span_tracer(), "compose", stats.compose_seconds);
    memo.fill(*this, pool);
    each([&](std::size_t i) {
      Composition work;
      parts[i]->rules = compose_serial(std::move(stage1[i]), memo, work);
      parts[i]->pair_compositions = work.visits;
    });
  }
}

}  // namespace sdx::core
