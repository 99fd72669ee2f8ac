#include "sdx/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <unordered_set>
#include <utility>

#include "netbase/parallel.hpp"

namespace sdx::core {

using policy::Classifier;
using policy::Rule;
using net::Field;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const CompiledSdx& IncrementalEngine::full_recompile(VnhAllocator& vnh) {
  current_ = compiler_.compile(vnh);
  return *current_;
}

const CompiledSdx& IncrementalEngine::adopt(CompiledSdx compiled) {
  current_ = std::move(compiled);
  return *current_;
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

IncrementalEngine::PartitionUpdate IncrementalEngine::recompile_partition(
    ParticipantId owner, VnhAllocator& vnh) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!current_ || !current_->partitioned) {
    throw std::logic_error(
        "recompile_partition requires a partitioned compiled state");
  }
  const std::size_t slot = compiler_.slot_of_.at(owner);
  net::ThreadPool serial(1);
  CompiledPartition part;
  part.owner = owner;
  part.reaches = compiler_.clause_reaches(slot, slot + 1, serial);
  SdxCompiler::BestRouteSnapshot snapshot(compiler_.participants().size());
  snapshot[slot] = compiler_.server_.best_nexthops(owner);
  CompileStats stats;  // stage timings of a one-slot run: not reported
  compiler_.compile_partitions({&part}, snapshot, vnh, stage2_, serial,
                               stats);

  PartitionUpdate update;
  update.slot = slot;
  std::unordered_set<Ipv4Prefix> affected;
  for (const auto& kv : current_->partitions[slot].fecs.group_of) {
    affected.insert(kv.first);
  }
  for (const auto& kv : part.fecs.group_of) affected.insert(kv.first);
  update.affected.assign(affected.begin(), affected.end());
  std::sort(update.affected.begin(), update.affected.end());
  update.bindings = part.bindings;
  update.replaced = std::move(current_->partitions[slot].bindings);
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
  // group (not per update) through the shared stage-2 memo. Composition
  // de-duplicates (first wins — priority-correct), so a burst never
  // installs the same rule twice.
  for (const auto& g : groups) {
    const VnhBinding binding = vnh.allocate();
    const net::FieldMatch tag = net::FieldMatch::exact(binding.vmac.bits());
    std::vector<Rule> stage1;
    for (const auto& hit : g.hits) {
      compiler_.synthesize_clause(*hit.owner, *hit.clause, Field::kDstMac,
                                  {&tag, 1}, stage1);
    }
    compiler_.synthesize_group_defaults(g.defaults, binding.vmac, stage1);
    SdxCompiler::Composition work;
    Classifier composed =
        compiler_.compose_serial(std::move(stage1), stage2_, work);
    result.compositions += work.rules;
    const std::size_t appended = composed.size();
    result.rules.insert(result.rules.end(),
                        std::make_move_iterator(composed.rules().begin()),
                        std::make_move_iterator(composed.rules().end()));
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
