#include "sdx/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>
#include <utility>

#include "policy/compile.hpp"

namespace sdx::core {

using policy::ActionSeq;
using policy::Classifier;
using policy::Rule;
using net::Field;
using net::FlowMatch;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const CompiledSdx& IncrementalEngine::full_recompile(VnhAllocator& vnh) {
  current_ = compiler_.compile(vnh);
  stage2_cache_.clear();
  return *current_;
}

const CompiledSdx& IncrementalEngine::adopt(CompiledSdx compiled) {
  current_ = std::move(compiled);
  stage2_cache_.clear();
  return *current_;
}

const policy::Classifier& IncrementalEngine::stage2_cached(ParticipantId id) {
  auto it = stage2_cache_.find(id);
  if (it == stage2_cache_.end()) {
    for (const auto& p : compiler_.participants()) {
      if (p.id == id) {
        it = stage2_cache_.emplace(id, compiler_.stage2_for(p)).first;
        break;
      }
    }
  }
  return it->second;
}

std::vector<IncrementalEngine::Hit> IncrementalEngine::hits_for(
    Ipv4Prefix prefix) const {
  // Which clauses does the prefix fall into now? (Restricted compilation:
  // only the parts of the policy related to p.)
  const bgp::RouteServer& server = compiler_.server_;
  std::vector<Hit> hits;
  std::uint32_t id = 0;
  for (const auto& p : compiler_.participants()) {
    for (const auto& c : p.outbound) {
      const std::uint32_t clause_id = id++;
      if (!server.exports_to(c.to, p.id, prefix)) continue;
      if (!c.match.dst_prefixes.empty()) {
        bool contained = false;
        for (auto dp : c.match.dst_prefixes) contained |= dp.contains(prefix);
        if (!contained) continue;
      }
      hits.push_back(Hit{&p, &c, clause_id});
    }
  }
  return hits;
}

std::size_t IncrementalEngine::synth_and_compose(
    const std::vector<Hit>& hits, const DefaultVector& defaults,
    const VnhBinding& binding, std::vector<Rule>& out,
    std::size_t& compositions) {
  const PortMap& ports = compiler_.ports_;
  std::vector<Rule> stage1;
  for (const auto& hit : hits) {
    const ActionSeq act = ActionSeq::set(Field::kPort,
                                         ports.vport(hit.clause->to));
    for (net::PortId port : hit.owner->port_ids()) {
      FlowMatch base = FlowMatch::on(Field::kPort, port);
      base.with(Field::kDstMac, binding.vmac.bits());
      for (auto& fm : compiler_.clause_matches(hit.clause->match, base,
                                               /*keep_dst_prefixes=*/false)) {
        stage1.push_back(Rule{fm, {act}});
      }
    }
  }
  compiler_.synthesize_group_defaults(defaults, binding.vmac, stage1);

  // Targeted composition through the memoized stage-2 classifiers.
  std::vector<Rule> composed;
  for (auto& r : stage1) {
    const ActionSeq& act = r.actions.front();
    const auto port_written = act.written(Field::kPort);
    if (!port_written ||
        !PortMap::is_virtual(static_cast<net::PortId>(*port_written))) {
      composed.push_back(std::move(r));
      continue;
    }
    const ParticipantId target =
        ports.vport_owner(static_cast<net::PortId>(*port_written));
    auto run = policy::pull_back(r.match, act, stage2_cached(target));
    ++compositions;
    composed.insert(composed.end(), std::make_move_iterator(run.begin()),
                    std::make_move_iterator(run.end()));
  }

  // De-duplicated installation: drop exact-duplicate matches (first wins —
  // priority-correct) so a burst never installs the same rule twice.
  Classifier dedup(std::move(composed));
  dedup.optimize(false);
  std::vector<Rule> rules = std::move(dedup.rules());
  const std::size_t appended = rules.size();
  out.insert(out.end(), std::make_move_iterator(rules.begin()),
             std::make_move_iterator(rules.end()));
  return appended;
}

IncrementalEngine::PartitionUpdate IncrementalEngine::recompile_partition(
    ParticipantId owner, VnhAllocator& vnh) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!current_ || !current_->partitioned) {
    throw std::logic_error(
        "recompile_partition requires a partitioned compiled state");
  }
  const std::size_t slot = compiler_.slot_of_.at(owner);
  const Participant& p = compiler_.participants()[slot];

  CompiledPartition part;
  part.owner = owner;
  for (std::size_t ci = 0; ci < p.outbound.size(); ++ci) {
    ClauseReach cr;
    cr.owner = owner;
    cr.clause_index = ci;
    cr.prefixes = compiler_.clause_reach(p, p.outbound[ci]);
    part.reaches.push_back(std::move(cr));
  }
  const auto own_best = compiler_.server_.best_nexthops(owner);
  part.fecs = compiler_.partition_fecs(part.reaches, own_best);
  // Fresh bindings continue from the allocator's watermark — the replaced
  // partition's VNHs leak until the next full recompile resets the counter,
  // exactly like fast-path bindings (§4.3.2 applied to policy changes).
  compiler_.bind_partition(part, vnh);
  auto stage1 = compiler_.partition_stage1(p, part, current_->layout);
  part.stage1_rules = stage1.size();

  // Targeted composition through the engine's stage-2 memo.
  std::vector<Rule> composed;
  composed.reserve(stage1.size());
  for (auto& r : stage1) {
    const ActionSeq& act = r.actions.front();
    const auto port_written = act.written(Field::kPort);
    if (!port_written ||
        !PortMap::is_virtual(static_cast<net::PortId>(*port_written))) {
      composed.push_back(std::move(r));
      continue;
    }
    const ParticipantId target = compiler_.ports_.vport_owner(
        static_cast<net::PortId>(*port_written));
    const Classifier& stage2 = stage2_cached(target);
    part.pair_compositions += stage2.size();
    auto run = policy::pull_back(r.match, act, stage2);
    composed.insert(composed.end(), std::make_move_iterator(run.begin()),
                    std::make_move_iterator(run.end()));
  }
  part.rules = Classifier(std::move(composed));
  part.rules.optimize(false);

  PartitionUpdate update;
  update.slot = slot;
  std::unordered_set<Ipv4Prefix> affected;
  for (const auto& kv : current_->partitions[slot].fecs.group_of) {
    affected.insert(kv.first);
  }
  for (const auto& kv : part.fecs.group_of) affected.insert(kv.first);
  update.affected.assign(affected.begin(), affected.end());
  std::sort(update.affected.begin(), update.affected.end(),
            [](Ipv4Prefix a, Ipv4Prefix b) {
              if (a.network().value() != b.network().value()) {
                return a.network().value() < b.network().value();
              }
              return a.length() < b.length();
            });
  update.rules = part.rules.size();
  update.compositions = part.pair_compositions;
  update.bindings = part.bindings;
  part.seconds = seconds_since(t0);
  update.seconds = part.seconds;

  current_->partitions[slot] = std::move(part);
  current_->rebuild_fabric();
  current_->stats.final_rules = current_->fabric.size();
  return update;
}

IncrementalEngine::BatchResult IncrementalEngine::fast_update_batch(
    const std::vector<Ipv4Prefix>& prefixes, VnhAllocator& vnh) {
  const auto t0 = std::chrono::steady_clock::now();
  BatchResult result;

  // Deduplicate, keeping first-occurrence order (the burst's arrival order
  // fixes group ids and hence the combined rule order deterministically).
  std::unordered_set<Ipv4Prefix> seen;
  seen.reserve(prefixes.size());
  for (auto prefix : prefixes) {
    if (seen.insert(prefix).second) {
      result.items.push_back(BatchItem{prefix, std::nullopt, 0});
    }
  }

  // Restricted signature per dirty prefix: (clause hit set, default
  // vector). Prefixes with equal signatures behave identically through the
  // fabric — the §4.2 argument, applied to the dirty set only — so they
  // share one fresh binding and one synthesized rule group.
  struct Group {
    std::vector<Hit> hits;
    DefaultVector defaults;
    std::vector<std::size_t> members;  ///< item indices
  };
  std::vector<Group> groups;
  using SignatureKey = std::pair<std::vector<std::uint32_t>, DefaultVector>;
  std::map<SignatureKey, std::size_t> group_of;
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    const Ipv4Prefix prefix = result.items[i].prefix;
    std::vector<Hit> hits = hits_for(prefix);
    DefaultVector defaults = compiler_.defaults_for(prefix);
    const bool any_default =
        std::any_of(defaults.begin(), defaults.end(),
                    [](const auto& d) { return d.has_value(); });
    if (hits.empty() &&
        (!any_default || !compiler_.options_.vmac_grouping)) {
      continue;  // re-advertisement only, no binding, no rules
    }
    SignatureKey key;
    key.first.reserve(hits.size());
    for (const auto& h : hits) key.first.push_back(h.id);
    key.second = defaults;
    auto [it, inserted] = group_of.emplace(key, groups.size());
    if (inserted) {
      groups.push_back(Group{std::move(hits), std::move(defaults), {}});
    }
    groups[it->second].members.push_back(i);
  }

  // Single VNH-allocation sweep, then one synthesis + composition walk per
  // group (not per update) through the shared stage-2 memo.
  result.groups = groups.size();
  for (const auto& g : groups) {
    const VnhBinding binding = vnh.allocate();
    const std::size_t appended = synth_and_compose(
        g.hits, g.defaults, binding, result.rules, result.compositions);
    for (std::size_t k = 0; k < g.members.size(); ++k) {
      result.items[g.members[k]].binding = binding;
      if (k == 0) result.items[g.members[k]].additional_rules = appended;
    }
    result.additional_rules += appended;
  }

  result.seconds = seconds_since(t0);
  return result;
}

}  // namespace sdx::core
