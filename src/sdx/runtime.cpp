#include "sdx/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <utility>

#include "sdx/verifier.hpp"

namespace sdx::core {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

SdxRuntime::SdxRuntime(bgp::DecisionConfig decision, CompileOptions options)
    : server_(decision),
      options_(options),
      vnh_(net::Ipv4Prefix::parse("172.16.0.0/12"), options.vmac_layout) {
  auto& reg = telemetry_.metrics;
  server_.set_telemetry(&reg);
  fabric_.arp().set_counters(
      &reg.counter("sdx_arp_queries_total", "ARP queries answered"),
      &reg.counter("sdx_arp_misses_total", "ARP queries with no binding"));
  fabric_.sdx_switch().table().set_counters(
      &reg.counter("sdx_flow_table_matched_total",
                   "packets matched by a flow rule"),
      &reg.counter("sdx_flow_table_missed_total",
                   "packets matching no flow rule"));
  // Teach the data-plane classifier this deployment's VMAC bit geometry so
  // masked stage-1 rules index into exact-match lanes instead of tuples.
  fabric_.sdx_switch().table().set_vmac_lanes(options_.vmac_layout.lane_spec());
  fast_updates_ = &reg.counter("sdx_fast_path_updates_total",
                               "BGP updates run through the 4.3.2 fast path");
  fast_rules_ = &reg.counter(
      "sdx_fast_path_rules_total",
      "additional higher-priority rules installed by the fast path");
  fast_compositions_ = &reg.counter(
      "sdx_fast_path_compositions_total",
      "stage-1 rules composed through stage-2 classifiers by the fast path");
  fast_seconds_ = &reg.histogram("sdx_fast_path_seconds",
                                 "per-update fast-path latency (seconds)");
  batch_flushes_ = &reg.counter("sdx_fast_path_batches_total",
                                "batched fast-path flushes");
  batch_updates_ = &reg.counter("sdx_fast_path_batched_updates_total",
                                "updates absorbed by a batched flush");
  batch_size_ = &reg.histogram(
      "sdx_fast_path_batch_size", "dirty prefixes per batched flush",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
  fast_bindings_gauge_ = &reg.gauge(
      "sdx_fast_path_bindings",
      "live fast-path bindings (one per signature the base does not cover)");
  frontend_updates_ = &reg.counter("sdx_frontend_updates_total",
                                   "UPDATE messages distributed on the wire");
  frontend_bytes_ = &reg.counter("sdx_frontend_bytes_total",
                                 "bytes moved by wire distribution");
  frontend_drops_ = &reg.counter("sdx_frontend_session_drops_total",
                                 "wire sessions lost to hold-timer expiry");
  ingest_reconnects_ = &reg.counter(
      "sdx_ingest_reconnects_total",
      "BGP sessions automatically re-established");
  partitions_recompiled_ = &reg.counter(
      "sdx_partitions_recompiled_total",
      "participant partitions recompiled in place by policy changes");
  telemetry_.tracer.set_drop_counter(&reg.counter(
      "sdx_trace_spans_dropped_total",
      "trace spans evicted to keep the span tracer bounded"));
}

ParticipantId SdxRuntime::add_participant(const std::string& name,
                                          net::Asn asn,
                                          std::size_t port_count) {
  if (installed()) {
    throw std::logic_error("add participants before install()");
  }
  if (port_count == 0) {
    throw std::invalid_argument("physical participants need ≥1 port");
  }
  Participant p;
  p.id = static_cast<ParticipantId>(participants_.size() + 1);
  p.name = name;
  p.asn = asn;
  for (std::size_t i = 0; i < port_count; ++i) {
    PhysicalPort port;
    port.id = next_port_++;
    // 00:16:3e — a universally-administered OUI, so router MACs can never
    // collide with the locally-administered VMAC space.
    port.router_mac = net::MacAddress(0x00'16'3E'00'00'00ull | port.id);
    port.router_ip =
        net::Ipv4Address(net::Ipv4Address::parse("10.0.0.0").value() +
                         next_host_++);
    p.ports.push_back(port);
  }
  participants_.push_back(std::move(p));
  Participant& stored = participants_.back();
  port_map_.register_participant(stored.id, stored.port_ids());
  server_.add_peer({stored.id, asn, stored.primary_port().router_ip});
  auto& routers = router_index_.emplace_back();
  for (const auto& port : stored.ports) {
    routers_.emplace_back(asn, port.id, port.router_mac, port.router_ip,
                          fib_);
    routers.push_back(routers_.size() - 1);
    fabric_.attach(routers_.back());
  }
  if (frontend_) frontend_->connect(stored.id, routers_[routers.front()]);
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kAddParticipant;
    rec.participant = stored.id;
    rec.name = name;
    rec.asn = asn;
    rec.port_count = static_cast<std::uint32_t>(port_count);
    journal_->append(rec);
  }
  return stored.id;
}

ParticipantId SdxRuntime::add_remote_participant(const std::string& name,
                                                 net::Asn asn) {
  if (installed()) {
    throw std::logic_error("add participants before install()");
  }
  Participant p;
  p.id = static_cast<ParticipantId>(participants_.size() + 1);
  p.name = name;
  p.asn = asn;
  participants_.push_back(std::move(p));
  Participant& stored = participants_.back();
  port_map_.register_participant(stored.id, {});
  router_index_.emplace_back();
  server_.add_peer(
      {stored.id, asn,
       net::Ipv4Address(net::Ipv4Address::parse("192.0.2.0").value() +
                        next_host_++)});
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kAddRemoteParticipant;
    rec.participant = stored.id;
    rec.name = name;
    rec.asn = asn;
    journal_->append(rec);
  }
  return stored.id;
}

Participant& SdxRuntime::participant(ParticipantId id) {
  return const_cast<Participant&>(std::as_const(*this).participant(id));
}

const Participant& SdxRuntime::participant(ParticipantId id) const {
  // Ids are slot + 1 (add_participant, add_remote_participant). Id 0 wraps
  // to the largest slot index, so the one bounds check rejects it with
  // every other unknown id.
  const std::size_t slot = static_cast<std::size_t>(id) - 1;
  if (slot >= participants_.size()) {
    throw std::out_of_range("unknown participant " + std::to_string(id));
  }
  return participants_[slot];
}

Participant* SdxRuntime::find(const std::string& name) {
  for (auto& p : participants_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void SdxRuntime::set_outbound(ParticipantId id,
                              std::vector<OutboundClause> clauses) {
  // Validate a copy: a rejected change leaves the policy as it was.
  Participant updated = participant(id);
  updated.outbound = std::move(clauses);
  validate_participant(updated, participants_);
  participant(id).outbound = std::move(updated.outbound);
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSetOutbound;
    rec.participant = id;
    rec.outbound = participant(id).outbound;
    journal_->append(rec);
  }
  // After install() the change deploys at once. Partitioned mode: an
  // outbound change dirties exactly one partition — recompile and swap it
  // in place. Pairwise mode redeploys the whole fabric.
  if (!installed()) return;
  if (options_.partitioned) {
    recompile_participant_partition(id);
  } else {
    background_recompile();
  }
}

void SdxRuntime::set_inbound(ParticipantId id,
                             std::vector<InboundClause> clauses) {
  Participant updated = participant(id);
  updated.inbound = std::move(clauses);
  validate_participant(updated, participants_);
  participant(id).inbound = std::move(updated.inbound);
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSetInbound;
    rec.participant = id;
    rec.inbound = participant(id).inbound;
    journal_->append(rec);
  }
  // An inbound change rewrites this participant's stage-2 classifier, which
  // is composed into every partition and group whose clauses target it, so
  // it redeploys everything. The WAL record above covers the derived effects
  // on replay (a recompile writes none).
  if (installed()) background_recompile();
}

void SdxRuntime::enable_rpki(bgp::RoaTable table, RpkiMode mode) {
  roas_ = std::move(table);
  rpki_mode_ = mode;
}

void SdxRuntime::announce(ParticipantId from, Ipv4Prefix prefix,
                          std::optional<net::AsPath> path,
                          std::vector<bgp::Community> communities) {
  const Participant& p = participant(from);
  if (rpki_mode_ != RpkiMode::kOff) {
    const net::Asn origin =
        path && !path->empty() ? path->origin_as() : p.asn;
    const auto validity = roas_.validate(prefix, origin);
    const bool must_be_valid =
        p.is_remote() && rpki_mode_ != RpkiMode::kOff;
    if ((must_be_valid && validity != bgp::RoaValidity::kValid) ||
        (rpki_mode_ == RpkiMode::kStrict &&
         validity == bgp::RoaValidity::kInvalid)) {
      throw std::invalid_argument(
          p.name + ": RPKI validation failed for " + prefix.to_string() +
          " (origin AS" + std::to_string(origin) + ": " +
          std::string(bgp::validity_name(validity)) + ")");
    }
  }
  if (journal_recording_) {
    // Write-ahead: the record lands before the mutation, capturing the
    // inputs (communities are moved into the route below).
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kAnnounce;
    rec.participant = from;
    rec.prefix = prefix;
    rec.has_path = path.has_value();
    if (path) rec.path = *path;
    rec.communities = communities;
    journal_->append(rec);
  }
  bgp::Route route;
  route.prefix = prefix;
  route.attrs.as_path = path.value_or(net::AsPath{p.asn});
  route.attrs.communities = std::move(communities);
  route.attrs.next_hop = p.is_remote()
                             ? net::Ipv4Address{}
                             : p.primary_port().router_ip;
  route.learned_from = from;
  route.peer_router_id = server_.peer(from)->router_id;
  auto changes = server_.announce(std::move(route));
  if (installed()) note_post_install_update(prefix, changes);
}

std::size_t SdxRuntime::session_down(ParticipantId id) {
  Participant& p = participant(id);
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSessionDown;
    rec.participant = id;
    journal_->append(rec);
  }
  // The withdrawals and the recompile below are derived effects of this one
  // record, and neither writes one of its own: replay re-runs
  // session_down() wholesale.
  p.outbound.clear();
  p.inbound.clear();
  // Other participants' clauses toward a dead peer stay installed — their
  // reach sets simply become empty, exactly as with any withdrawal.
  const auto advertised = server_.advertised_by(id);
  for (auto prefix : advertised) server_.withdraw(id, prefix);
  if (!installed()) return advertised.size();
  // Policies changed, so the two-stage fast path is not enough: queue the
  // withdrawals and rebuild. The rebuild absorbs the whole queue and
  // re-advertises it, so no fast pass runs for a route that is gone.
  for (auto prefix : advertised) mark_dirty(prefix);
  background_recompile();
  return advertised.size();
}

void SdxRuntime::withdraw(ParticipantId from, Ipv4Prefix prefix) {
  participant(from);  // reject an unknown id before it reaches the WAL
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kWithdraw;
    rec.participant = from;
    rec.prefix = prefix;
    journal_->append(rec);
  }
  auto changes = server_.withdraw(from, prefix);
  if (installed()) note_post_install_update(prefix, changes);
}

const CompiledSdx& SdxRuntime::install_compiled(
    const persist::CheckpointState* restored) {
  const CompiledSdx& compiled = restored != nullptr
                                    ? engine_->adopt(restored->compiled)
                                    : engine_->full_recompile(vnh_);
  install_base_tables(compiled);
  remote_bindings_.clear();
  if (restored == nullptr) {
    // One binding per remote participant, advertised as the next hop of its
    // otherwise-unreachable announcements so senders can frame the traffic.
    for (const auto& p : participants_) {
      if (p.is_remote()) remote_bindings_[p.id] = vnh_.allocate();
    }
  } else {
    // Warm restart: reuse every persisted binding, keeping border-router
    // ARP caches valid.
    remote_bindings_.insert(restored->remote_bindings.begin(),
                            restored->remote_bindings.end());
  }
  reset_bindings(compiled, restored);
  // Every VNH the replaced state bound lies in the pool: the compiled,
  // remote and fast-path bindings.
  // None of them outlives the swap, so ARP answers exactly the routers and
  // what the new state binds.
  fabric_.arp().unbind_within(vnh_.pool());
  bind_arp(compiled);
  // The new base covers every pending dirty prefix and the per-update log.
  // The all_prefixes() walk re-advertises every prefix the RIB holds,
  // pending ones included; a pending prefix that left the RIB entirely
  // still needs its (deferred) withdrawal re-advertised.
  std::vector<Ipv4Prefix> pending = std::move(dirty_order_);
  dirty_order_.clear();
  dirty_index_.clear();
  dirty_receivers_.clear();
  pending_clock_ = 0;
  update_log_.clear();
  for (auto prefix : server_.all_prefixes()) readvertise(prefix);
  for (auto prefix : pending) {
    if (server_.candidates(prefix) == nullptr) readvertise(prefix);
  }
  fast_bindings_gauge_->set(static_cast<double>(bindings_.fast_entries()));
  run_safety_stage(nullptr);
  return compiled;
}

void SdxRuntime::reset_bindings(const CompiledSdx& compiled,
                                const persist::CheckpointState* restored) {
  bindings_.reset(compiled.partitioned ? nullptr : &compiled.fecs,
                  compiled.bindings);
  if (restored == nullptr) return;
  // Warm restart: every persisted binding names its entry by VNH. A VNH no
  // base entry has is a fast-path binding; its band comes back as residue
  // rules, under the cookie its VNH derives.
  std::unordered_map<std::uint32_t, std::uint32_t> entry_of_vnh;
  for (std::uint32_t id = 0; !bindings_.is_fast(id); ++id) {
    entry_of_vnh.emplace(bindings_.entry(id).binding.vnh.value(), id);
  }
  std::vector<std::pair<std::uint32_t, Ipv4Prefix>> fast;  ///< id, a member
  for (const auto& [prefix, binding] : restored->fast_bindings) {
    auto [it, fresh] =
        entry_of_vnh.try_emplace(binding.vnh.value(), BindingTable::kNone);
    if (fresh) {
      it->second = bindings_.add(binding, fast_cookie(binding));
      fast.emplace_back(it->second, prefix);
    }
    bindings_.assign(prefix, it->second);
  }
  for (auto prefix : restored->unbound) {
    bindings_.assign(prefix, BindingTable::kNone);
  }
  // The signature index: no live binding predates the policy in force (a
  // policy change redeploys, or swaps its partition and rebinds every fast
  // member), and the checkpoint flushed first, so any member's signature on
  // the restored RIB is its binding's.
  for (const auto& [id, member] : fast) {
    if (auto sig = engine_->signature(member)) {
      bindings_.index(id, std::move(*sig));
    }
  }
  auto& table = fabric_.sdx_switch().table();
  for (const auto& extra : restored->extra_rules) {
    dp::FlowRule rule;
    rule.priority = extra.priority;
    rule.match = extra.rule.match;
    rule.actions = extra.rule.actions;
    rule.cookie = extra.cookie;
    table.install(std::move(rule));
  }
}

const CompiledSdx& SdxRuntime::install() {
  telemetry::Span span = telemetry_.tracer.span("install");
  for (const auto& p : participants_) {
    validate_participant(p, participants_);
  }
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kInstall;
    journal_->append(rec);
  }
  engine_ = std::make_unique<IncrementalEngine>(
      SdxCompiler(participants_, port_map_, server_, options_));
  engine_->set_telemetry(&telemetry_);
  return install_compiled();
}

const CompiledSdx& SdxRuntime::background_recompile() {
  if (!installed()) {
    throw std::logic_error("install() before background_recompile()");
  }
  telemetry::Span span = telemetry_.tracer.span("background_recompile");
  return install_compiled();
}

void SdxRuntime::install_base_tables(const CompiledSdx& compiled) {
  auto& table = fabric_.sdx_switch().table();
  table.clear();
  partition_bases_.clear();
  if (!compiled.partitioned) {
    table.install_classifier(compiled.fabric, kBasePriority, kBaseCookie);
    return;
  }
  // Shared band at the bottom, partition bands stacked above it in slot
  // order, each under its own cookie so a single-partition recompile can
  // swap one band in place. Relative order among partition bands is
  // irrelevant: they match disjoint ingress ports.
  table.install_classifier(compiled.shared_rules, kBasePriority, kBaseCookie);
  std::uint32_t base =
      kBasePriority + static_cast<std::uint32_t>(compiled.shared_rules.size());
  partition_bases_.reserve(compiled.partitions.size());
  for (std::size_t slot = 0; slot < compiled.partitions.size(); ++slot) {
    const auto& part = compiled.partitions[slot];
    partition_bases_.push_back(base);
    if (part.rules.size() > 0) {
      table.install_classifier(part.rules, base, partition_cookie(slot));
    }
    base += static_cast<std::uint32_t>(part.rules.size());
  }
}

void SdxRuntime::recompile_participant_partition(ParticipantId id) {
  telemetry::Span span = telemetry_.tracer.span("partition_recompile");
  auto update = engine_->recompile_partition(id, vnh_);
  partitions_recompiled_->inc();
  telemetry_.metrics
      .histogram("sdx_partition_compile_seconds",
                 "per-partition compile wall time (seconds)", {},
                 {{"participant", participant(id).name}})
      .observe(update.seconds);
  auto& table = fabric_.sdx_switch().table();
  table.remove_by_cookie(partition_cookie(update.slot));
  const auto& part = engine_->current().partitions[update.slot];
  if (part.rules.size() > 0) {
    table.install_classifier(part.rules, partition_bases_.at(update.slot),
                             partition_cookie(update.slot));
  }
  // The swapped-out partition's bindings stop answering (no other state
  // holds their VNHs); any the new partition keeps, it binds again below.
  for (const auto& b : update.replaced) fabric_.arp().unbind(b.vnh);
  for (const auto& b : update.bindings) {
    fabric_.arp().bind(b.vnh, b.vmac);
  }
  for (auto prefix : update.affected) readvertise(prefix);
  run_safety_stage(&update.affected);
  // Every fast-path binding was composed under the old clauses: flush each
  // fast-bound prefix against the emptied signature index, which moves it
  // to a binding composed under the new ones (and retires the old).
  bindings_.invalidate();
  std::vector<Ipv4Prefix> bound;
  bindings_.for_each_held([&bound](Ipv4Prefix prefix, std::uint32_t id) {
    if (id != BindingTable::kNone) bound.push_back(prefix);
  });
  std::sort(bound.begin(), bound.end());
  for (auto prefix : bound) mark_dirty(prefix);
  flush();
}

void SdxRuntime::bind_arp(const CompiledSdx& compiled) {
  for (const auto& b : compiled.bindings) {
    fabric_.arp().bind(b.vnh, b.vmac);
  }
  for (const auto& part : compiled.partitions) {
    for (const auto& b : part.bindings) {
      fabric_.arp().bind(b.vnh, b.vmac);
    }
  }
  for (const auto& [id, b] : remote_bindings_) {
    fabric_.arp().bind(b.vnh, b.vmac);
  }
  bindings_.for_each_fast([this](const BindingTable::Entry& e) {
    fabric_.arp().bind(e.binding.vnh, e.binding.vmac);
  });
}

std::optional<VnhBinding> SdxRuntime::current_binding(
    Ipv4Prefix prefix) const {
  if (!installed()) return std::nullopt;
  return bindings_.binding_of(prefix);
}

std::optional<std::uint32_t> SdxRuntime::current_group(
    Ipv4Prefix prefix) const {
  if (!installed()) return std::nullopt;
  const std::uint32_t id = bindings_.entry_of(prefix);
  if (id == BindingTable::kNone || bindings_.is_fast(id)) return std::nullopt;
  return id;  // base entries are the compiled groups, in group order
}

std::optional<VnhBinding> SdxRuntime::remote_binding(
    ParticipantId advertiser) const {
  auto it = remote_bindings_.find(advertiser);
  if (it == remote_bindings_.end()) return std::nullopt;
  return it->second;
}

void SdxRuntime::use_wire_distribution() {
  if (frontend_) return;
  frontend_ = std::make_unique<BgpFrontend>();
  for (const auto& p : participants_) {
    if (p.is_remote()) continue;
    // One session per participant, terminated at its primary router; the
    // router applies the updates to the shared participant RIB view.
    frontend_->connect(p.id, routers_[router_index_[p.id - 1].front()]);
  }
}

void SdxRuntime::enable_frontend_auto_reconnect(
    BgpFrontend::ReconnectPolicy policy) {
  if (!frontend_) {
    throw std::logic_error(
        "enable_frontend_auto_reconnect requires use_wire_distribution()");
  }
  frontend_->enable_auto_reconnect(policy);
}

std::vector<ParticipantId> SdxRuntime::advance_clock(double seconds) {
  std::vector<ParticipantId> dropped;
  if (frontend_) {
    dropped = frontend_->advance_clock(seconds);
    frontend_drops_->inc(dropped.size());
    const auto reconnects = frontend_->reconnects();
    if (reconnects > synced_frontend_reconnects_) {
      ingest_reconnects_->inc(reconnects - synced_frontend_reconnects_);
      synced_frontend_reconnects_ = reconnects;
    }
    // A lost session is a participant departure (see session_down): withdraw
    // its routes and drop its policies rather than advertising stale state.
    for (auto id : dropped) session_down(id);
  }
  if (!dirty_order_.empty() && batch_options_.max_delay_seconds > 0) {
    pending_clock_ += seconds;
    if (pending_clock_ >= batch_options_.max_delay_seconds) flush();
  }
  return dropped;
}

void SdxRuntime::enable_batching(BatchOptions options) {
  batch_options_ = options;
  if (batch_options_.max_pending != 0 &&
      dirty_order_.size() >= batch_options_.max_pending) {
    flush();
  }
}

std::size_t SdxRuntime::flush() {
  pending_clock_ = 0;
  if (dirty_order_.empty()) return 0;
  std::vector<Ipv4Prefix> prefixes = std::move(dirty_order_);
  std::vector<std::uint64_t> receivers = std::move(dirty_receivers_);
  dirty_order_.clear();
  dirty_index_.clear();
  dirty_receivers_.clear();
  batch_flushes_->inc();
  batch_updates_->inc(prefixes.size());
  batch_size_->observe(static_cast<double>(prefixes.size()));
  telemetry::Span span = telemetry_.tracer.span("fast_update");
  auto& table = fabric_.sdx_switch().table();
  double engine_seconds = 0;  ///< signatures and compositions
  std::size_t compositions = 0;
  std::vector<std::size_t> added(prefixes.size(), 0);
  std::vector<char> rebound(prefixes.size(), 0);
  std::vector<std::uint32_t> emptied;
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    auto t0 = std::chrono::steady_clock::now();
    std::optional<BindingTable::Signature> sig =
        engine_->signature(prefixes[i]);
    engine_seconds += seconds_since(t0);
    std::uint32_t to = BindingTable::kNone;
    if (sig) {
      to = bindings_.find(*sig);
      if (to == BindingTable::kNone) {
        // A signature no live binding has: the one case that costs a VNH,
        // a composition, a band and an ARP entry.
        const VnhBinding binding = vnh_.allocate();
        t0 = std::chrono::steady_clock::now();
        const policy::Classifier rules =
            engine_->compose(*sig, binding, compositions);
        engine_seconds += seconds_since(t0);
        added[i] = rules.size();
        table.install_classifier(rules, kFastPriority, fast_cookie(binding));
        fabric_.arp().bind(binding.vnh, binding.vmac);
        to = bindings_.add(binding, fast_cookie(binding));
        bindings_.index(to, std::move(*sig));
      }
    }
    if (to == bindings_.entry_of(prefixes[i])) continue;
    rebound[i] = 1;
    const std::uint32_t left = bindings_.assign(prefixes[i], to);
    if (left != BindingTable::kNone) emptied.push_back(left);
  }
  // Retire what this flush left empty only now, so a prefix moving into an
  // entry another one left in the same flush keeps it alive.
  for (auto id : emptied) {
    const BindingTable::Entry& e = bindings_.entry(id);
    if (e.cookie == 0 || e.members != 0) continue;  // retired, or rejoined
    table.remove_by_cookie(e.cookie);
    fabric_.arp().unbind(e.binding.vnh);
    bindings_.retire(id);
  }
  std::size_t additional = 0;
  for (auto n : added) additional += n;
  fast_updates_->inc(prefixes.size());
  fast_rules_->inc(additional);
  fast_compositions_->inc(compositions);
  fast_bindings_gauge_->set(static_cast<double>(bindings_.fast_entries()));
  const double amortized = engine_seconds / prefixes.size();
  const std::size_t words = receiver_words();
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    const std::uint64_t* mask = receivers.data() + i * words;
    if (rebound[i]) {
      readvertise(prefixes[i]);
    } else if (std::any_of(mask, mask + words,
                           [](std::uint64_t w) { return w != 0; })) {
      readvertise(prefixes[i], mask);
    }
    fast_seconds_->observe(amortized);
    if (update_log_.size() == kUpdateLogCapacity) update_log_.pop_front();
    update_log_.push_back(UpdateReport{prefixes[i], added[i], amortized});
  }
  run_safety_stage(&prefixes);
  return prefixes.size();
}

std::string SdxRuntime::dump_metrics() {
  auto& reg = telemetry_.metrics;
  reg.gauge("sdx_flow_table_rules", "flow rules installed in the fabric")
      .set(static_cast<double>(fabric_.sdx_switch().table().size()));
  reg.gauge("sdx_arp_bindings", "entries in the ARP responder")
      .set(static_cast<double>(fabric_.arp().size()));
  reg.gauge("sdx_route_server_prefixes", "prefixes currently in the RIB")
      .set(static_cast<double>(server_.prefix_count()));
  return reg.render_prometheus();
}

std::string SdxRuntime::dump_trace() const {
  return telemetry_.tracer.render_chrome_json();
}

void SdxRuntime::readvertise(Ipv4Prefix prefix,
                             const std::uint64_t* receivers) {
  const auto global = current_binding(prefix);
  const bool partitioned = compiled().partitioned;
  const std::vector<bgp::Route>* ranked = server_.candidates(prefix);
  struct Group {
    const bgp::Route* best;  ///< nullptr: the group withdraws the prefix
    Ipv4Address next_hop;
    std::optional<bgp::AttrHandle> attrs;    ///< made on the first FIB write
    std::optional<bgp::UpdateMessage> msg;  ///< built on the first wire send
  };
  std::vector<Group> groups;
  // One trie walk resolves the prefix's FIB slot for every router; holding
  // it keeps a withdrawal from freeing the slot under the writes after it.
  // With no candidate left every receiver withdraws, so a prefix no FIB
  // holds gets no slot.
  std::optional<bgp::FibIndex::Slot> fib_slot;
  if (ranked != nullptr || fib_->find(prefix) != nullptr) {
    fib_slot = fib_->acquire(prefix);
  }
  // Route-server peers are registered in participant order, so a peer's
  // position is its participant slot.
  server_.for_each_best(ranked, [&](std::size_t slot,
                                    const bgp::Route* best) {
    const auto& p = participants_[slot];
    if (p.is_remote()) return;
    if (receivers != nullptr &&
        ((receivers[slot / 64] >> (slot % 64)) & 1) == 0) {
      return;
    }
    // Per-receiver next hop: the fast-path (or pairwise group) binding is
    // receiver-independent; a partitioned artifact advertises each receiver
    // the binding of *its own* partition group — the tag encodes the
    // receiver's clause bitmap and default next hop, so it must never reach
    // another router. Prefixes outside the receiver's partition keep their
    // real (or remote-participant) next hop and ride MAC learning.
    Ipv4Address next_hop;
    if (best != nullptr) {
      auto binding = global;
      if (!binding && partitioned) {
        binding = compiled().partition_binding_for(slot, prefix);
      }
      if (binding) {
        next_hop = binding->vnh;
      } else if (auto rb = remote_bindings_.find(best->learned_from);
                 rb != remote_bindings_.end()) {
        next_hop = rb->second.vnh;
      } else {
        next_hop = best->attrs.next_hop;
      }
    }
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
      return x.best == best && x.next_hop == next_hop;
    });
    if (g == groups.end()) {
      g = groups.insert(groups.end(), Group{best, next_hop, {}, {}});
    }
    const auto attributes = [&g] {
      bgp::RouteAttributes attrs = g->best->attrs;
      attrs.next_hop = g->next_hop;
      return attrs;
    };
    const auto& routers = router_index_[slot];
    std::size_t first = 0;
    if (frontend_ && frontend_->established(p.id)) {
      if (!g->msg) {
        g->msg.emplace();
        if (best == nullptr) {
          g->msg->withdrawn.push_back(prefix);
        } else {
          g->msg->attrs = attributes();
          g->msg->nlri.push_back(prefix);
        }
      }
      frontend_bytes_->inc(frontend_->distribute(p.id, *g->msg));
      frontend_updates_->inc();
      // Secondary routers of multi-port participants share the view.
      first = 1;
    }
    if (!fib_slot) return;
    for (std::size_t k = first; k < routers.size(); ++k) {
      auto& router = routers_[routers[k]];
      if (best == nullptr) {
        router.withdraw_at(*fib_slot);
        continue;
      }
      if (!g->attrs) g->attrs = fib_->attrs().make(attributes());
      router.announce_at(*fib_slot, *g->attrs);
    }
  });
  for (const auto& g : groups) {
    if (g.attrs) fib_->attrs().release(*g.attrs);
  }
  if (fib_slot) fib_->release(*fib_slot);
}

std::uint64_t* SdxRuntime::mark_dirty(Ipv4Prefix prefix) {
  const std::size_t words = receiver_words();
  auto [it, fresh] = dirty_index_.try_emplace(prefix, dirty_order_.size());
  if (fresh) {
    dirty_order_.push_back(prefix);
    dirty_receivers_.resize(dirty_receivers_.size() + words, 0);
  }
  return dirty_receivers_.data() + it->second * words;
}

void SdxRuntime::note_post_install_update(
    Ipv4Prefix prefix,
    const std::vector<bgp::RouteServer::BestChange>& changes) {
  std::uint64_t* mask = mark_dirty(prefix);
  // Route-server peers are participants in slot order: id - 1 is the slot.
  for (const auto& change : changes) {
    const std::size_t slot = change.participant - 1;
    mask[slot / 64] |= std::uint64_t{1} << (slot % 64);
  }
  if (batch_options_.max_pending != 0 &&
      dirty_order_.size() >= batch_options_.max_pending) {
    flush();
  }
}

void SdxRuntime::wire_journal_hooks() {
  auto& reg = telemetry_.metrics;
  persist::Journal::Hooks hooks;
  hooks.records =
      &reg.counter("sdx_journal_records_total", "WAL records appended");
  hooks.bytes = &reg.counter("sdx_journal_bytes_total",
                             "WAL bytes appended (framing included)");
  hooks.checkpoints =
      &reg.counter("sdx_journal_checkpoints_total", "checkpoints written");
  hooks.fsync_seconds =
      &reg.histogram("sdx_journal_fsync_seconds", "WAL fsync latency");
  journal_->set_hooks(hooks);
}

void SdxRuntime::attach_journal(const std::string& dir,
                                persist::Journal::Options options) {
  if (journal_) throw std::logic_error("journal already attached");
  auto journal = std::make_unique<persist::Journal>(dir, options);
  if (!journal->empty()) {
    throw std::logic_error("journal directory " + dir +
                           " holds existing state — use recover()");
  }
  const bool fresh = participants_.empty() && !installed();
  journal_ = std::move(journal);
  wire_journal_hooks();
  journal_->start_recording(/*genesis_if_new=*/fresh);
  journal_recording_ = true;
  // A non-fresh runtime has state no WAL record covers: anchor the journal
  // with an immediate checkpoint so it is always recoverable.
  if (!fresh) checkpoint();
}

std::uint64_t SdxRuntime::checkpoint() {
  if (!journal_ || !journal_recording_) {
    throw std::logic_error("attach_journal() before checkpoint()");
  }
  telemetry::Span span = telemetry_.tracer.span("checkpoint");
  // Flush any pending batch first: a checkpoint must capture an
  // externally-consistent state, not one with updates parked in a queue.
  flush();
  persist::CheckpointState st;
  st.participants = participants_;
  st.routes = server_.dump_routes();
  st.vnh_pool = vnh_.pool();
  st.vnh_allocated = vnh_.allocated();
  st.installed = installed();
  if (st.installed) {
    st.compiled = engine_->current();
    st.compiled.stats = CompileStats{};  // timings are not state
    st.fingerprint = engine_->current().fingerprint();
    bindings_.for_each_held([&st, this](Ipv4Prefix prefix, std::uint32_t id) {
      if (id == BindingTable::kNone) {
        st.unbound.push_back(prefix);
      } else {
        st.fast_bindings.emplace_back(prefix, bindings_.entry(id).binding);
      }
    });
    std::sort(st.fast_bindings.begin(), st.fast_bindings.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::sort(st.unbound.begin(), st.unbound.end());
    st.remote_bindings.assign(remote_bindings_.begin(),
                              remote_bindings_.end());
    std::sort(st.remote_bindings.begin(), st.remote_bindings.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const dp::FlowRule* r : fabric_.sdx_switch().table().rules()) {
      // Base and partition bands are reconstructed from the compiled
      // artifact on restore — capturing them here would double-install.
      // Only fast-path residue rides along as raw rules.
      if (r->cookie == kBaseCookie || r->cookie >= kPartitionCookieBase) {
        continue;
      }
      st.extra_rules.push_back(
          {r->priority, r->cookie, policy::Rule{r->match, r->actions}});
    }
  }
  return journal_->write_checkpoint(std::move(st));
}

void SdxRuntime::restore_checkpoint(const persist::CheckpointState& st,
                                    RecoveryReport& report) {
  // 1. Re-register participants in stored order: the deterministic counter
  // scheme (ids, port ids, MACs, router IPs) regenerates identical state,
  // which the equality check below verifies against the stored copy.
  for (const auto& p : st.participants) {
    if (p.is_remote()) {
      add_remote_participant(p.name, p.asn);
    } else {
      add_participant(p.name, p.asn, p.ports.size());
    }
  }
  // Policies in a second pass: a clause may reference any participant,
  // including ones registered after its owner.
  for (const auto& p : st.participants) {
    if (!p.outbound.empty()) set_outbound(p.id, p.outbound);
    if (!p.inbound.empty()) set_inbound(p.id, p.inbound);
  }
  if (participants_ != st.participants) {
    throw std::runtime_error(
        "checkpoint participants do not match regenerated state "
        "(incompatible runtime version?)");
  }
  // 2. RIB restore: re-announce the full dump. Restoring state is not
  // route-server work — keep it out of the announcement counters.
  server_.set_telemetry(nullptr);
  for (const auto& r : st.routes) server_.announce(r);
  server_.set_telemetry(&telemetry_.metrics);
  vnh_ = VnhAllocator(st.vnh_pool, options_.vmac_layout);
  if (!st.installed) {
    vnh_.restore(st.vnh_allocated);
    return;
  }
  // 3. Decide warm vs cold. The compiler holds references into the
  // restored state, so the engine is built only now.
  engine_ = std::make_unique<IncrementalEngine>(
      SdxCompiler(participants_, port_map_, server_, options_));
  engine_->set_telemetry(&telemetry_);
  // Warm restart requires (a) the artifact to be provably intact
  // (fingerprint match — the fingerprint embeds the VMAC layout it was
  // compiled under) and (b) the artifact to match *this* runtime's
  // configured layout and mode: a persisted artifact is self-consistent
  // under its own layout, so a configuration change would otherwise adopt
  // tables encoded with stale bit positions.
  if (st.compiled.fingerprint() == st.fingerprint &&
      st.compiled.layout == options_.vmac_layout &&
      st.compiled.partitioned == options_.partitioned) {
    // Warm restart: the decoded artifact is provably what a fresh compile
    // would produce — adopt it without compiling and reuse every persisted
    // VNH/VMAC binding, keeping border-router ARP caches valid.
    report.warm = true;
    vnh_.restore(st.vnh_allocated);
    install_compiled(&st);
  } else {
    // Fingerprint mismatch (different compile options, code drift, or a
    // corrupted artifact that still decoded): fall back to a cold install.
    install();
  }
}

void SdxRuntime::replay_record(const persist::WalRecord& rec) {
  switch (rec.type) {
    case persist::WalRecordType::kAddParticipant:
      add_participant(rec.name, rec.asn, rec.port_count);
      break;
    case persist::WalRecordType::kAddRemoteParticipant:
      add_remote_participant(rec.name, rec.asn);
      break;
    case persist::WalRecordType::kSetOutbound:
      set_outbound(rec.participant, rec.outbound);
      break;
    case persist::WalRecordType::kSetInbound:
      set_inbound(rec.participant, rec.inbound);
      break;
    case persist::WalRecordType::kAnnounce:
      announce(rec.participant, rec.prefix,
               rec.has_path ? std::optional<net::AsPath>(rec.path)
                            : std::nullopt,
               rec.communities);
      break;
    case persist::WalRecordType::kWithdraw:
      withdraw(rec.participant, rec.prefix);
      break;
    case persist::WalRecordType::kSessionDown:
      session_down(rec.participant);
      break;
    case persist::WalRecordType::kInstall:
      install();
      break;
  }
}

SdxRuntime::RecoveryReport SdxRuntime::recover(
    const std::string& dir, persist::Journal::Options options) {
  if (journal_) throw std::logic_error("journal already attached");
  if (!participants_.empty() || installed()) {
    throw std::logic_error("recover() requires a fresh runtime");
  }
  telemetry::Span span = telemetry_.tracer.span("recover");
  const auto t0 = std::chrono::steady_clock::now();
  auto journal = std::make_unique<persist::Journal>(dir, options);
  if (!journal->checkpoint() && !journal->complete_history()) {
    throw std::runtime_error("journal directory " + dir +
                             " holds no checkpoint and no complete WAL "
                             "history");
  }
  RecoveryReport report;
  report.torn_bytes = journal->torn_bytes();
  if (journal->checkpoint()) {
    report.had_checkpoint = true;
    report.checkpoint_lsn = journal->checkpoint()->lsn;
    restore_checkpoint(*journal->checkpoint(), report);
  }
  // Replay the tail with flushes held back: once the replayed timeline
  // passes install(), its updates queue and run as one coalesced pass
  // instead of one restricted compilation per record.
  const BatchOptions policy = batch_options_;
  batch_options_ = BatchOptions{0, 0};
  for (const auto& rec : journal->tail()) {
    replay_record(rec);
    ++report.replayed;
  }
  batch_options_ = policy;
  flush();
  journal_ = std::move(journal);
  wire_journal_hooks();
  journal_->start_recording(/*genesis_if_new=*/false);
  journal_recording_ = true;
  report.seconds = seconds_since(t0);
  auto& reg = telemetry_.metrics;
  auto& warm = reg.counter("sdx_recovery_warm_total",
                           "recoveries that warm-restarted (no recompile)");
  auto& cold = reg.counter("sdx_recovery_cold_total",
                           "recoveries that fell back to a full compile");
  (report.warm ? warm : cold).inc();
  reg.counter("sdx_recovery_replayed_records_total",
              "WAL tail records re-applied during recovery")
      .inc(report.replayed);
  reg.histogram("sdx_recovery_seconds", "end-to-end recovery latency")
      .observe(report.seconds);
  return report;
}

dp::BorderRouter& SdxRuntime::router(ParticipantId id,
                                     std::size_t port_index) {
  return routers_.at(router_index_.at(id - 1).at(port_index));
}

std::vector<dp::Fabric::Delivery> SdxRuntime::send(ParticipantId from,
                                                   net::PacketHeader payload,
                                                   std::size_t port_index) {
  return fabric_.send(router(from, port_index), std::move(payload));
}

dp::Fabric::BatchDeliveries SdxRuntime::send_batch(
    ParticipantId from, std::span<const net::PacketHeader> payloads,
    std::size_t port_index) {
  return fabric_.send_batch(router(from, port_index), payloads);
}

verify::DeploymentView SdxRuntime::deployment_view() const {
  if (!installed()) {
    throw std::logic_error("install() before deployment_view()");
  }
  verify::DeploymentView view;
  view.participants = &participants_;
  view.server = &server_;
  const SdxRuntime* self = this;
  // Probes frame and classify through the counter-free steps: verifying
  // the deployment is not traffic.
  view.process = [self](const net::PacketHeader& h) {
    return self->fabric_.sdx_switch().table().probe(h);
  };
  view.forward = [self](ParticipantId sender, net::PacketHeader payload)
      -> verify::DeploymentView::Framed {
    const Participant& p = self->participant(sender);
    if (p.is_remote()) return {};
    const dp::BorderRouter* router =
        self->fabric_.router_at(p.primary_port().id);
    if (router == nullptr) return {};
    const auto f = router->frame(payload, self->fabric_.arp());
    if (!f.framed) return {f.routed, std::nullopt};
    return {true, payload};
  };
  view.owner_of = [self](net::PortId port) -> std::optional<ParticipantId> {
    if (PortMap::is_virtual(port)) return std::nullopt;
    try {
      return self->port_map_.phys_owner(port);
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
  };
  view.router_mac_at =
      [self](net::PortId port) -> std::optional<net::MacAddress> {
    const dp::BorderRouter* router = self->fabric_.router_at(port);
    if (router == nullptr) return std::nullopt;
    return router->mac();
  };
  // The union of the route server's RIB and every border-router FIB: a
  // prefix withdrawn behind the server's back is exactly the stale state
  // the checker exists to catch, and it only survives in FIBs. The FIBs'
  // share is their shared index, which holds exactly the prefixes some
  // router holds, so each query is one walk, not one per router.
  view.known_prefixes = [self]() {
    std::set<Ipv4Prefix> known;
    for (auto prefix : self->server_.all_prefixes()) known.insert(prefix);
    self->fib_->for_each([&known](Ipv4Prefix prefix, bgp::FibIndex::Slot) {
      known.insert(prefix);
    });
    return std::vector<Ipv4Prefix>(known.begin(), known.end());
  };
  // The same union, queried from live state: the incremental pass asks
  // about a handful of dirty prefixes and must not rebuild it per flush.
  view.is_known = [self](Ipv4Prefix prefix) {
    return self->server_.candidates(prefix) != nullptr ||
           self->fib_->find(prefix) != nullptr;
  };
  view.known_covering =
      [self](net::Ipv4Address addr) -> std::optional<Ipv4Prefix> {
    std::optional<Ipv4Prefix> best = self->fib_->lookup(addr);
    for (int len = 32; len > (best ? best->length() : -1); --len) {
      const Ipv4Prefix candidate(addr, len);
      if (self->server_.candidates(candidate) != nullptr) return candidate;
    }
    return best;
  };
  return view;
}

void SdxRuntime::enable_verification() {
  checker_ = std::make_unique<verify::SafetyChecker>();
  if (verify_seconds_ == nullptr) {
    auto& reg = telemetry_.metrics;
    verify_full_runs_ =
        &reg.counter("sdx_verify_runs_total", "safety verification passes",
                     {{"mode", "full"}});
    verify_incremental_runs_ =
        &reg.counter("sdx_verify_runs_total", "safety verification passes",
                     {{"mode", "incremental"}});
    verify_seconds_ = &reg.histogram(
        "sdx_verify_seconds", "safety verification wall time (seconds)");
    verify_classes_ = &reg.counter("sdx_verify_classes_total",
                                   "packet equivalence classes walked");
    verify_edges_ = &reg.counter("sdx_verify_edges_total",
                                 "forwarding-graph edges traversed");
    verify_unchecked_ = &reg.counter(
        "sdx_verify_unchecked_variants_total",
        "header variants past the enumeration cap, left unchecked");
    // Pre-register every kind so the exposition is shape-stable whether or
    // not a kind ever fires (the bench baselines gate on counter equality).
    for (auto kind :
         {verify::ViolationKind::kLoop, verify::ViolationKind::kIsolation,
          verify::ViolationKind::kBlackhole,
          verify::ViolationKind::kLocalRule}) {
      verify_violations_[static_cast<std::size_t>(kind)] = &reg.counter(
          "sdx_verify_violations_total", "safety violations detected",
          {{"kind", std::string(verify::kind_name(kind))}});
    }
  }
  if (installed()) run_safety_stage(nullptr);
}

verify::SafetyReport SdxRuntime::artifact_audit() const {
  // The static audit compares the compiled artifact against the current
  // RIB, so it is only meaningful while the artifact IS the deployment.
  // A prefix held off its compiled group means newer rules shadow stale
  // artifact rules; auditing the artifact then reports phantom export mismatches
  // the live table cannot exhibit. The graph walk always checks the live
  // table, so safety coverage is unaffected — only the rule-level audit
  // waits for the next full recompile.
  if (bindings_.diverged()) return {};
  return audit(compiled(), participants_, port_map_, server_);
}

verify::SafetyReport SdxRuntime::verify_now() const {
  if (!installed()) {
    throw std::logic_error("install() before verify_now()");
  }
  verify::SafetyChecker checker;
  checker.set_local_findings(artifact_audit());
  return checker.full(deployment_view());
}

void SdxRuntime::run_safety_stage(const std::vector<Ipv4Prefix>* dirty) {
  if (!checker_ || !installed()) return;
  telemetry::Span span = telemetry_.tracer.span("safety_verify");
  const auto view = deployment_view();
  if (dirty == nullptr) {
    checker_->set_local_findings(artifact_audit());
    last_safety_report_ = checker_->full(view);
    verify_full_runs_->inc();
  } else {
    last_safety_report_ = checker_->incremental(view, *dirty);
    verify_incremental_runs_->inc();
  }
  verify_seconds_->observe(last_safety_report_.seconds);
  verify_classes_->inc(last_safety_report_.classes_checked);
  verify_edges_->inc(last_safety_report_.edges_walked);
  verify_unchecked_->inc(last_safety_report_.unchecked_variants);
  for (const auto& v : last_safety_report_.violations) {
    verify_violations_[static_cast<std::size_t>(v.kind)]->inc();
  }
}

}  // namespace sdx::core
