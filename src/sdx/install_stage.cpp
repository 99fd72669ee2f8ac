#include "sdx/install_stage.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace sdx::core {

using telemetry::seconds_since;

InstallStage::InstallStage(dp::Fabric& fabric, VnhAllocator& vnh,
                           telemetry::MetricRegistry& reg)
    : table_(fabric.sdx_switch().table()),
      arp_(fabric.arp()),
      vnh_(vnh),
      fast_rules_(&reg.counter(
          "sdx_fast_path_rules_total",
          "additional higher-priority rules installed by the fast path")),
      fast_compositions_(&reg.counter(
          "sdx_fast_path_compositions_total",
          "stage-1 rules composed through stage-2 classifiers by the fast "
          "path")),
      fast_bindings_(&reg.gauge("sdx_fast_path_bindings",
                                "live fast-path bindings (one per signature "
                                "the base does not cover)")),
      seconds_(&reg.histogram("sdx_update_stage_seconds",
                              "wall time of one update-stage call (seconds)",
                              {}, {{"stage", "install"}})) {
  arp_.set_counters(
      &reg.counter("sdx_arp_queries_total", "ARP queries answered"),
      &reg.counter("sdx_arp_misses_total", "ARP queries with no binding"));
  table_.set_counters(&reg.counter("sdx_flow_table_matched_total",
                                   "packets matched by a flow rule"),
                      &reg.counter("sdx_flow_table_missed_total",
                                   "packets matching no flow rule"));
  // Teach the data-plane classifier this deployment's VMAC bit geometry so
  // masked stage-1 rules index into exact-match lanes instead of tuples.
  table_.set_vmac_lanes(vnh_.layout().lane_spec());
}

void InstallStage::deploy(const CompiledSdx& compiled,
                          const std::vector<Participant>& participants,
                          IncrementalEngine& engine,
                          const persist::CheckpointState* restored) {
  const auto start = std::chrono::steady_clock::now();
  compiled_ = &compiled;
  table_.clear();
  partition_bases_.clear();
  // Every VNH the replaced state bound lies in the pool, and none of them
  // outlives the deploy.
  arp_.unbind_within(vnh_.pool());
  if (!compiled.partitioned) {
    table_.install_classifier(compiled.fabric, kBasePriority, kBaseCookie);
  } else {
    // Shared band at the bottom, partition bands stacked above it in slot
    // order. Relative order among partition bands is irrelevant: they
    // match disjoint ingress ports.
    table_.install_classifier(compiled.shared_rules, kBasePriority,
                              kBaseCookie);
    std::size_t base = kBasePriority + compiled.shared_rules.size();
    for (std::size_t slot = 0; slot < compiled.partitions.size(); ++slot) {
      partition_bases_.push_back(static_cast<std::uint32_t>(base));
      install_partition(compiled, slot);
      base += compiled.partitions[slot].rules.size();
    }
  }
  bind(compiled.bindings);
  entries_.clear();
  free_.clear();
  index_.clear();
  held_.clear();
  fast_ = 0;
  base_ = compiled.partitioned ? nullptr : &compiled.fecs;
  base_count_ = base_ == nullptr ? 0 : base_->groups.size();
  for (std::uint32_t id = 0; id < base_count_; ++id) {
    const PrefixGroup& group = base_->groups[id];
    const bool fresh =
        index_.try_emplace(Signature{group.clauses, group.defaults}, id).second;
    entries_.push_back(Entry{compiled.bindings[id], 0, 0, fresh, {}});
  }
  remote_bindings_.clear();
  if (restored == nullptr) {
    // One binding per remote participant, advertised as the next hop of its
    // otherwise-unreachable announcements so senders can frame the traffic.
    for (const auto& p : participants) {
      if (p.is_remote()) remote_bindings_[p.id] = vnh_.allocate();
    }
  } else {
    // Warm restart: reuse every persisted binding, keeping border-router
    // ARP caches valid. A fast-path binding's band comes back as residue
    // rules under the cookie its VNH derives, and it is indexed by its
    // first member's signature on the restored RIB: no live binding
    // predates the policy in force (a policy change redeploys, or swaps
    // its partition and rebinds every fast member), and the checkpoint
    // flushed first.
    remote_bindings_.insert(restored->remote_bindings.begin(),
                            restored->remote_bindings.end());
    std::unordered_map<std::uint32_t, std::uint32_t> entry_of_vnh;
    for (std::uint32_t id = 0; id < base_count_; ++id) {
      entry_of_vnh.emplace(entries_[id].binding.vnh.value(), id);
    }
    for (const auto& [prefix, binding] : restored->fast_bindings) {
      auto [it, fresh] = entry_of_vnh.try_emplace(binding.vnh.value(), kNone);
      if (fresh) {
        it->second = add(binding);
        arp_.bind(binding.vnh, binding.vmac);
        if (auto sig = engine.signature(prefix)) {
          index(it->second, std::move(*sig));
        }
      }
      assign(prefix, it->second);
    }
    for (auto prefix : restored->unbound) assign(prefix, kNone);
    for (const auto& extra : restored->extra_rules) {
      table_.install(dp::FlowRule{extra.priority, extra.rule.match,
                                  extra.rule.actions, extra.cookie, {}});
    }
  }
  for (const auto& [id, b] : remote_bindings_) arp_.bind(b.vnh, b.vmac);
  fast_bindings_->set(static_cast<double>(fast_));
  seconds_->observe(seconds_since(start));
}

InstallStage::Flushed InstallStage::flush(
    const std::vector<Ipv4Prefix>& prefixes, IncrementalEngine& engine) {
  const auto start = std::chrono::steady_clock::now();
  Flushed out{std::vector<std::size_t>(prefixes.size()),
              std::vector<char>(prefixes.size())};
  std::size_t compositions = 0;
  std::vector<std::uint32_t> emptied;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    auto t0 = std::chrono::steady_clock::now();
    std::optional<Signature> sig = engine.signature(prefixes[i]);
    out.engine_seconds += seconds_since(t0);
    std::uint32_t to = kNone;
    if (sig) {
      auto live = index_.find(*sig);
      to = live == index_.end() ? kNone : live->second;
      if (to == kNone) {
        // A signature no live binding has: the one case that costs a VNH,
        // a composition, a band and an ARP entry.
        const VnhBinding binding = vnh_.allocate();
        t0 = std::chrono::steady_clock::now();
        const policy::Classifier rules =
            engine.compose(*sig, binding, compositions);
        out.engine_seconds += seconds_since(t0);
        out.added[i] = rules.size();
        table_.install_classifier(rules, kFastPriority, fast_cookie(binding));
        arp_.bind(binding.vnh, binding.vmac);
        to = add(binding);
        index(to, std::move(*sig));
      }
    }
    if (to == entry_of(prefixes[i])) continue;
    out.rebound[i] = 1;
    const std::uint32_t left = assign(prefixes[i], to);
    if (left != kNone) emptied.push_back(left);
  }
  // Retire what this flush left empty only now, so a prefix moving into an
  // entry another one left in the same flush keeps it alive.
  for (auto id : emptied) {
    Entry& e = entries_[id];
    if (e.cookie == 0 || e.members != 0) continue;  // retired, or rejoined
    table_.remove_by_cookie(e.cookie);
    arp_.unbind(e.binding.vnh);
    if (e.indexed) index_.erase(e.signature);
    e = Entry{};
    free_.push_back(id);
    --fast_;
  }
  std::size_t additional = 0;
  for (auto n : out.added) additional += n;
  fast_rules_->inc(additional);
  fast_compositions_->inc(compositions);
  fast_bindings_->set(static_cast<double>(fast_));
  seconds_->observe(seconds_since(start));
  return out;
}

std::vector<Ipv4Prefix> InstallStage::swap_partition(
    const IncrementalEngine::PartitionUpdate& update) {
  const auto start = std::chrono::steady_clock::now();
  table_.remove_by_cookie(partition_cookie(update.slot));
  // The swapped-out partition's bindings stop answering (no other state
  // holds their VNHs); any the new partition keeps, it binds again.
  for (const auto& b : update.replaced) arp_.unbind(b.vnh);
  install_partition(*compiled_, update.slot);
  // Every fast-path binding was composed under the old clauses: with the
  // signature index empty, re-flushing a fast-bound prefix moves it to a
  // binding composed under the new ones (and retires the old).
  index_.clear();
  for (auto& e : entries_) e.indexed = false;
  std::vector<Ipv4Prefix> bound;
  for (const auto& [prefix, id] : held_) {
    if (id != kNone) bound.push_back(prefix);
  }
  std::sort(bound.begin(), bound.end());
  seconds_->observe(seconds_since(start));
  return bound;
}

void InstallStage::install_partition(const CompiledSdx& compiled,
                                     std::size_t slot) {
  const auto& part = compiled.partitions[slot];
  if (part.rules.size() > 0) {
    table_.install_classifier(part.rules, partition_bases_.at(slot),
                              partition_cookie(slot));
  }
  bind(part.bindings);
}

void InstallStage::capture(persist::CheckpointState& st) const {
  for (const auto& [prefix, id] : held_) {
    if (id == kNone) {
      st.unbound.push_back(prefix);
    } else {
      st.fast_bindings.emplace_back(prefix, entries_[id].binding);
    }
  }
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(st.fast_bindings.begin(), st.fast_bindings.end(), by_key);
  std::sort(st.unbound.begin(), st.unbound.end());
  st.remote_bindings.assign(remote_bindings_.begin(), remote_bindings_.end());
  std::sort(st.remote_bindings.begin(), st.remote_bindings.end(), by_key);
  for (const dp::FlowRule* r : table_.rules()) {
    // Base and partition bands are reconstructed from the compiled
    // artifact on restore — capturing them here would double-install.
    // Only fast-path bands ride along as raw rules.
    if (r->cookie == kBaseCookie || r->cookie >= kPartitionCookieBase) {
      continue;
    }
    st.extra_rules.push_back(
        {r->priority, r->cookie, policy::Rule{r->match, r->actions}});
  }
}

Ipv4Address InstallStage::next_hop(std::size_t slot, Ipv4Prefix prefix,
                                   const bgp::Route& best) const {
  // A fast-path or pairwise group binding is receiver-independent. A
  // partitioned artifact advertises each receiver the binding of *its own*
  // partition group: the tag encodes the receiver's clause bitmap and
  // default next hop, so it must never reach another router. Prefixes
  // outside the receiver's partition keep their real (or remote-
  // participant) next hop and ride MAC learning.
  auto binding = binding_of(prefix);
  if (!binding) binding = compiled_->partition_binding_for(slot, prefix);
  if (binding) return binding->vnh;
  auto remote = remote_bindings_.find(best.learned_from);
  return remote != remote_bindings_.end() ? remote->second.vnh
                                          : best.attrs.next_hop;
}

std::uint32_t InstallStage::base_entry(Ipv4Prefix prefix) const {
  if (base_ == nullptr) return kNone;
  auto it = base_->group_of.find(prefix);
  return it == base_->group_of.end() ? kNone : it->second;
}

std::uint32_t InstallStage::entry_of(Ipv4Prefix prefix) const {
  if (auto it = held_.find(prefix); it != held_.end()) return it->second;
  return base_entry(prefix);
}

std::uint32_t InstallStage::add(VnhBinding binding) {
  std::uint32_t id;
  if (!free_.empty()) {
    id = free_.back();
    free_.pop_back();
  } else {
    id = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[id] = Entry{binding, fast_cookie(binding), 0, false, {}};
  ++fast_;
  return id;
}

void InstallStage::index(std::uint32_t id, Signature sig) {
  Entry& e = entries_[id];
  e.indexed = index_.try_emplace(sig, id).second;
  e.signature = std::move(sig);
}

std::uint32_t InstallStage::assign(Ipv4Prefix prefix, std::uint32_t to) {
  const std::uint32_t from = entry_of(prefix);
  if (from == to) return kNone;
  if (to == base_entry(prefix)) {
    held_.erase(prefix);
  } else {
    held_[prefix] = to;
  }
  if (to != kNone && is_fast(to)) ++entries_[to].members;
  if (from != kNone && is_fast(from) && --entries_[from].members == 0) {
    return from;
  }
  return kNone;
}

}  // namespace sdx::core
