#include "sdx/incremental.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "netbase/parallel.hpp"
#include "telemetry/metrics.hpp"

namespace sdx::core {

using policy::Classifier;
using policy::Rule;
using net::Field;

using telemetry::seconds_since;

const CompiledSdx& IncrementalEngine::full_recompile(VnhAllocator& vnh) {
  clauses_.reset();
  stage2_.clear();
  current_ = compiler_.compile(vnh);
  return *current_;
}

const CompiledSdx& IncrementalEngine::adopt(CompiledSdx compiled) {
  clauses_.reset();
  stage2_.clear();
  current_ = std::move(compiled);
  return *current_;
}

std::size_t IncrementalEngine::SignatureHash::operator()(
    const Signature& sig) const {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  for (auto id : sig.clauses) mix(id);
  mix(~0ull);
  for (const auto& d : sig.defaults) mix(d ? *d + 1ull : 0ull);
  return static_cast<std::size_t>(h);
}

const IncrementalEngine::ClauseIndex& IncrementalEngine::clause_index() {
  if (clauses_) return *clauses_;
  ClauseIndex& index = clauses_.emplace();
  for (const auto& p : compiler_.participants()) {
    for (const auto& c : p.outbound) {
      const auto id = static_cast<std::uint32_t>(index.clauses.size());
      index.clauses.push_back(ClauseEnds{p.id, c.to});
      if (c.match.dst_prefixes.empty()) {
        index.unrestricted.push_back(id);
        continue;
      }
      for (auto block : c.match.dst_prefixes) {
        std::vector<std::uint32_t>* ids = index.blocks.find(block);
        if (ids == nullptr) {
          index.blocks.insert(block, {});
          ids = index.blocks.find(block);
        }
        // Ids arrive in ascending order: a repeated block adds none.
        if (ids->empty() || ids->back() != id) ids->push_back(id);
      }
    }
  }
  return index;
}

std::optional<IncrementalEngine::Signature> IncrementalEngine::signature(
    Ipv4Prefix prefix) {
  // Which clauses does the prefix fall into now? (Restricted compilation:
  // only the parts of the policy related to p.) A clause covers p when one
  // of its dst blocks contains p, or when it has none; it hits p when its
  // target also exports p to its owner.
  const ClauseIndex& index = clause_index();
  const bgp::RouteServer& server = compiler_.server_;
  Signature sig;
  std::vector<std::uint32_t>& ids = sig.clauses;
  ids = index.unrestricted;
  index.blocks.for_each_containing(
      prefix, [&ids](const std::vector<std::uint32_t>& covering) {
        ids.insert(ids.end(), covering.begin(), covering.end());
      });
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::erase_if(ids, [&](std::uint32_t id) {
    const ClauseEnds& c = index.clauses[id];
    return !server.exports_to(c.to, c.owner, prefix);
  });
  sig.defaults = compiler_.defaults_for(prefix);
  const bool any_default =
      std::any_of(sig.defaults.begin(), sig.defaults.end(),
                  [](const auto& d) { return d.has_value(); });
  if (ids.empty() && (!any_default || !compiler_.options_.vmac_grouping)) {
    return std::nullopt;  // re-advertisement only, no binding, no rules
  }
  return sig;
}

Classifier IncrementalEngine::compose(const Signature& sig,
                                      const VnhBinding& binding,
                                      std::size_t& compositions) {
  const net::FieldMatch tag = net::FieldMatch::exact(binding.vmac.bits());
  std::vector<Rule> stage1;
  auto next = sig.clauses.begin();  // ascending global clause ids
  std::uint32_t id = 0;
  for (const auto& p : compiler_.participants()) {
    for (const auto& c : p.outbound) {
      if (next != sig.clauses.end() && *next == id) {
        compiler_.synthesize_clause(p, c, Field::kDstMac, {&tag, 1}, stage1);
        ++next;
      }
      ++id;
    }
  }
  compiler_.synthesize_group_defaults(sig.defaults, binding.vmac, stage1);
  SdxCompiler::Composition work;
  Classifier composed =
      compiler_.compose_serial(std::move(stage1), stage2_, work);
  compositions += work.rules;
  return composed;
}

IncrementalEngine::PartitionUpdate IncrementalEngine::recompile_partition(
    ParticipantId owner, VnhAllocator& vnh) {
  const auto t0 = std::chrono::steady_clock::now();
  if (!current_ || !current_->partitioned) {
    throw std::logic_error(
        "recompile_partition requires a partitioned compiled state");
  }
  clauses_.reset();  // the owner's outbound clauses changed
  const std::size_t slot = compiler_.slot_of_.at(owner);
  net::ThreadPool serial(1);
  CompiledPartition part;
  part.owner = owner;
  part.reaches = compiler_.clause_reaches(slot, slot + 1, serial);
  CompileStats stats;  // stage timings of a one-slot run: not reported
  compiler_.compile_partitions({&part}, vnh, stage2_, serial, stats);

  PartitionUpdate update;
  update.slot = slot;
  std::unordered_set<Ipv4Prefix> affected;
  for (const auto& kv : current_->partitions[slot].fecs.group_of) {
    affected.insert(kv.first);
  }
  for (const auto& kv : part.fecs.group_of) affected.insert(kv.first);
  update.affected.assign(affected.begin(), affected.end());
  std::sort(update.affected.begin(), update.affected.end());
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

  // Prefixes with equal signatures share one fresh binding and one
  // synthesized rule group — the §4.2 argument, applied to the dirty set
  // only. Groups keep first-occurrence order.
  struct Group {
    Signature signature;
    std::vector<std::size_t> members;  ///< item indices
  };
  std::vector<Group> groups;
  std::unordered_map<Signature, std::size_t, SignatureHash> group_of;
  for (std::size_t i = 0; i < result.items.size(); ++i) {
    std::optional<Signature> sig = signature(result.items[i].prefix);
    if (!sig) continue;
    auto [it, inserted] = group_of.try_emplace(*sig, groups.size());
    if (inserted) groups.push_back(Group{std::move(*sig), {}});
    groups[it->second].members.push_back(i);
  }

  // Single VNH-allocation sweep, then one composition per group (not per
  // update) through the shared stage-2 memo. Composition de-duplicates
  // (first wins — priority-correct), so a burst never installs the same
  // rule twice.
  for (const auto& g : groups) {
    const VnhBinding binding = vnh.allocate();
    Classifier composed = compose(g.signature, binding, result.compositions);
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
