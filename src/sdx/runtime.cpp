#include "sdx/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <set>
#include <stdexcept>
#include <utility>

namespace sdx::core {

using telemetry::seconds_since;

SdxRuntime::SdxRuntime(bgp::DecisionConfig decision, CompileOptions options)
    : server_(decision),
      options_(options),
      vnh_(net::Ipv4Prefix::parse("172.16.0.0/12"), options.vmac_layout),
      install_(fabric_, vnh_, telemetry_.metrics),
      advertise_(participants_, server_, install_, fabric_, telemetry_.metrics),
      verify_(participants_, port_map_, server_, telemetry_) {
  auto& reg = telemetry_.metrics;
  server_.set_telemetry(&reg);
  fast_updates_ = &reg.counter("sdx_fast_path_updates_total",
                               "BGP updates run through the 4.3.2 fast path");
  fast_seconds_ = &reg.histogram("sdx_fast_path_seconds",
                                 "per-update fast-path latency (seconds)");
  batch_flushes_ = &reg.counter("sdx_fast_path_batches_total",
                                "batched fast-path flushes");
  batch_updates_ = &reg.counter("sdx_fast_path_batched_updates_total",
                                "updates absorbed by a batched flush");
  batch_size_ = &reg.histogram(
      "sdx_fast_path_batch_size", "dirty prefixes per batched flush",
      {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096});
  partitions_recompiled_ = &reg.counter(
      "sdx_partitions_recompiled_total",
      "participant partitions recompiled in place by policy changes");
  recoveries_warm_ = &reg.counter(
      "sdx_recovery_warm_total",
      "recoveries that warm-restarted (no recompile)");
  recoveries_cold_ = &reg.counter(
      "sdx_recovery_cold_total", "recoveries that fell back to a full compile");
  replayed_records_ =
      &reg.counter("sdx_recovery_replayed_records_total",
                   "WAL tail records re-applied during recovery");
  recovery_seconds_ =
      &reg.histogram("sdx_recovery_seconds", "end-to-end recovery latency");
  journal_hooks_.records =
      &reg.counter("sdx_journal_records_total", "WAL records appended");
  journal_hooks_.bytes = &reg.counter(
      "sdx_journal_bytes_total", "WAL bytes appended (framing included)");
  journal_hooks_.checkpoints =
      &reg.counter("sdx_journal_checkpoints_total", "checkpoints written");
  journal_hooks_.fsync_seconds =
      &reg.histogram("sdx_journal_fsync_seconds", "WAL fsync latency");
  telemetry_.tracer.set_drop_counter(&reg.counter(
      "sdx_trace_spans_dropped_total",
      "trace spans evicted to keep the span tracer bounded"));
}

ParticipantId SdxRuntime::add_participant(const std::string& name,
                                          net::Asn asn,
                                          std::size_t port_count) {
  if (port_count == 0) {
    throw std::invalid_argument("physical participants need ≥1 port");
  }
  return add(name, asn, port_count);
}

ParticipantId SdxRuntime::add(const std::string& name, net::Asn asn,
                              std::size_t port_count) {
  if (installed()) {
    throw std::logic_error("add participants before install()");
  }
  Participant& p = participants_.emplace_back();
  p.id = static_cast<ParticipantId>(participants_.size());
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
  port_map_.register_participant(p.id, p.port_ids());
  server_.add_peer(
      {p.id, asn,
       p.is_remote()
           ? net::Ipv4Address(net::Ipv4Address::parse("192.0.2.0").value() +
                              next_host_++)
           : p.primary_port().router_ip});
  advertise_.add_routers(p);
  record({.type = p.is_remote() ? persist::WalRecordType::kAddRemoteParticipant
                                : persist::WalRecordType::kAddParticipant,
          .participant = p.id,
          .name = name,
          .asn = asn,
          .port_count = static_cast<std::uint32_t>(port_count)});
  return p.id;
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
  record({.type = persist::WalRecordType::kSetOutbound,
          .participant = id,
          .outbound = participant(id).outbound});
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
  record({.type = persist::WalRecordType::kSetInbound,
          .participant = id,
          .inbound = participant(id).inbound});
  // An inbound change rewrites a stage-2 classifier composed into every
  // partition and group targeting it, so it redeploys everything.
  if (installed()) background_recompile();
}

void SdxRuntime::announce(ParticipantId from, Ipv4Prefix prefix,
                          std::optional<net::AsPath> path,
                          std::vector<bgp::Community> communities) {
  const Participant& p = participant(from);
  if (rpki_mode_ != RpkiMode::kOff) {
    const net::Asn origin =
        path && !path->empty() ? path->origin_as() : p.asn;
    const auto validity = roas_.validate(prefix, origin);
    if ((p.is_remote() && validity != bgp::RoaValidity::kValid) ||
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
    record({.type = persist::WalRecordType::kAnnounce,
            .participant = from,
            .prefix = prefix,
            .has_path = path.has_value(),
            .path = path.value_or(net::AsPath{}),
            .communities = communities});
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
  record({.type = persist::WalRecordType::kSessionDown, .participant = id});
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
  // Policies changed: queue the withdrawals for the rebuild to absorb, so no
  // fast pass runs for a route that is gone.
  for (auto prefix : advertised) mark_dirty(prefix);
  background_recompile();
  return advertised.size();
}

void SdxRuntime::withdraw(ParticipantId from, Ipv4Prefix prefix) {
  participant(from);  // reject an unknown id before it reaches the WAL
  record({.type = persist::WalRecordType::kWithdraw,
          .participant = from,
          .prefix = prefix});
  auto changes = server_.withdraw(from, prefix);
  if (installed()) note_post_install_update(prefix, changes);
}

const CompiledSdx& SdxRuntime::install_compiled(
    const persist::CheckpointState* restored) {
  const CompiledSdx& compiled = restored != nullptr
                                    ? engine_->adopt(restored->compiled)
                                    : engine_->full_recompile(vnh_);
  install_.deploy(compiled, participants_, *engine_, restored);
  // The new base covers every pending dirty prefix and the update log.
  // Every prefix the RIB holds is re-advertised, pending ones included; a
  // pending prefix that left the RIB entirely still needs its (deferred)
  // withdrawal re-advertised.
  std::vector<Ipv4Prefix> prefixes = server_.all_prefixes();
  for (auto prefix : take().first) {
    if (server_.candidates(prefix) == nullptr) prefixes.push_back(prefix);
  }
  update_log_.clear();
  advertise_.readvertise(prefixes);
  run_safety_stage(nullptr);
  return compiled;
}

const CompiledSdx& SdxRuntime::install() {
  telemetry::Span span = telemetry_.tracer.span("install");
  for (const auto& p : participants_) validate_participant(p, participants_);
  record({.type = persist::WalRecordType::kInstall});
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

void SdxRuntime::recompile_participant_partition(ParticipantId id) {
  telemetry::Span span = telemetry_.tracer.span("partition_recompile");
  auto update = engine_->recompile_partition(id, vnh_);
  partitions_recompiled_->inc();
  telemetry_.metrics
      .histogram("sdx_partition_compile_seconds",
                 "per-partition compile wall time (seconds)", {},
                 {{"participant", participant(id).name}})
      .observe(update.seconds);
  const std::vector<Ipv4Prefix> fast_bound = install_.swap_partition(update);
  advertise_.readvertise(update.affected);
  run_safety_stage(&update.affected);
  for (auto prefix : fast_bound) mark_dirty(prefix);
  flush();
}

std::vector<ParticipantId> SdxRuntime::advance_clock(double seconds) {
  const std::vector<ParticipantId> dropped = advertise_.advance_clock(seconds);
  // A lost session is a participant departure (see session_down): withdraw
  // its routes and drop its policies rather than advertising stale state.
  for (auto id : dropped) session_down(id);
  if (!dirty_order_.empty() && batch_options_.max_delay_seconds > 0) {
    pending_clock_ += seconds;
    if (pending_clock_ >= batch_options_.max_delay_seconds) flush();
  }
  return dropped;
}

void SdxRuntime::enable_batching(BatchOptions options) {
  batch_options_ = options;
  if (queue_full()) flush();
}

std::size_t SdxRuntime::flush() {
  auto [prefixes, receivers] = take();
  if (prefixes.empty()) return 0;
  batch_flushes_->inc();
  batch_updates_->inc(prefixes.size());
  batch_size_->observe(static_cast<double>(prefixes.size()));
  telemetry::Span span = telemetry_.tracer.span("fast_update");
  const InstallStage::Flushed bound = install_.flush(prefixes, *engine_);
  fast_updates_->inc(prefixes.size());
  // A rebound prefix goes to every router, any other only to the receivers
  // whose best route changed since the last flush.
  const std::size_t words = advertise_.receiver_words();
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    if (bound.rebound[i]) {
      std::fill_n(receivers.begin() + i * words, words, ~std::uint64_t{0});
    }
  }
  advertise_.readvertise(prefixes, receivers.data());
  const double amortized = bound.engine_seconds / prefixes.size();
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    fast_seconds_->observe(amortized);
    if (update_log_.size() == kUpdateLogCapacity) update_log_.pop_front();
    update_log_.push_back(UpdateReport{prefixes[i], bound.added[i], amortized});
  }
  run_safety_stage(&prefixes);
  return prefixes.size();
}

std::string SdxRuntime::dump_metrics() {
  auto& reg = telemetry_.metrics;
  install_.refresh_gauges(reg);
  reg.gauge("sdx_route_server_prefixes", "prefixes currently in the RIB")
      .set(static_cast<double>(server_.prefix_count()));
  return reg.render_prometheus();
}

std::uint64_t* SdxRuntime::mark_dirty(Ipv4Prefix prefix) {
  const std::size_t words = advertise_.receiver_words();
  auto [it, fresh] = dirty_index_.try_emplace(prefix, dirty_order_.size());
  if (fresh) {
    dirty_order_.push_back(prefix);
    dirty_receivers_.resize(dirty_receivers_.size() + words, 0);
  }
  return dirty_receivers_.data() + it->second * words;
}

std::pair<std::vector<Ipv4Prefix>, std::vector<std::uint64_t>>
SdxRuntime::take() {
  dirty_index_.clear();
  pending_clock_ = 0;
  return {std::exchange(dirty_order_, {}), std::exchange(dirty_receivers_, {})};
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
  if (queue_full()) flush();
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
  journal_->set_hooks(journal_hooks_);
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
    install_.capture(st);
  }
  return journal_->write_checkpoint(std::move(st));
}

void SdxRuntime::restore_checkpoint(const persist::CheckpointState& st,
                                    RecoveryReport& report) {
  // 1. Re-register participants in stored order: the deterministic counter
  // scheme (ids, port ids, MACs, router IPs) regenerates identical state,
  // which the equality check below verifies against the stored copy.
  for (const auto& p : st.participants) add(p.name, p.asn, p.ports.size());
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
  // 3. Decide warm vs cold. Warm restart requires (a) the artifact to be
  // provably intact (fingerprint match — the fingerprint embeds the VMAC
  // layout it was compiled under) and (b) the artifact to match *this*
  // runtime's configured layout and mode: a persisted artifact is
  // self-consistent under its own layout, so a configuration change would
  // otherwise adopt tables encoded with stale bit positions.
  if (st.compiled.fingerprint() != st.fingerprint ||
      st.compiled.layout != options_.vmac_layout ||
      st.compiled.partitioned != options_.partitioned) {
    // Fingerprint mismatch (different compile options, code drift, or a
    // corrupted artifact that still decoded): fall back to a cold install.
    install();
    return;
  }
  // Warm restart: the decoded artifact is provably what a fresh compile
  // would produce — adopt it without compiling and reuse every persisted
  // VNH/VMAC binding, keeping border-router ARP caches valid. The compiler
  // holds references into the restored state, so the engine is built only
  // now.
  report.warm = true;
  vnh_.restore(st.vnh_allocated);
  engine_ = std::make_unique<IncrementalEngine>(
      SdxCompiler(participants_, port_map_, server_, options_));
  engine_->set_telemetry(&telemetry_);
  install_compiled(&st);
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
  const BatchOptions policy = std::exchange(batch_options_, BatchOptions{0, 0});
  for (const auto& rec : journal->tail()) {
    replay_record(rec);
    ++report.replayed;
  }
  batch_options_ = policy;
  flush();
  journal_ = std::move(journal);
  journal_->set_hooks(journal_hooks_);
  journal_->start_recording(/*genesis_if_new=*/false);
  journal_recording_ = true;
  report.seconds = seconds_since(t0);
  (report.warm ? recoveries_warm_ : recoveries_cold_)->inc();
  replayed_records_->inc(report.replayed);
  recovery_seconds_->observe(report.seconds);
  return report;
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
  // The winning rule's address is its identity, null for a miss.
  view.rule_of = [self](const net::PacketHeader& h) {
    return reinterpret_cast<std::uintptr_t>(
        self->fabric_.sdx_switch().table().lookup(h));
  };
  // BorderRouter::frame reads only the destination address (one FIB
  // lookup, then the next hop's ARP binding) and writes only the four L2
  // fields, which is the contract the checker's frame-once-per-prefix
  // relies on; SafetyVerify.FramingReadsOnlyTheDestination holds it.
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
    self->advertise_.fib().for_each(
        [&known](Ipv4Prefix prefix, bgp::FibIndex::Slot) {
          known.insert(prefix);
        });
    return std::vector<Ipv4Prefix>(known.begin(), known.end());
  };
  // The same union, queried from live state: the incremental pass asks
  // about a handful of dirty prefixes and must not rebuild it per flush.
  view.is_known = [self](Ipv4Prefix prefix) {
    return self->server_.candidates(prefix) != nullptr ||
           self->advertise_.fib().find(prefix) != nullptr;
  };
  view.known_covering =
      [self](net::Ipv4Address addr) -> std::optional<Ipv4Prefix> {
    std::optional<Ipv4Prefix> best = self->advertise_.fib().lookup(addr);
    for (int len = 32; len > (best ? best->length() : -1); --len) {
      const Ipv4Prefix candidate(addr, len);
      if (self->server_.candidates(candidate) != nullptr) return candidate;
    }
    return best;
  };
  return view;
}

verify::SafetyReport SdxRuntime::verify_now() const {
  if (!installed()) {
    throw std::logic_error("install() before verify_now()");
  }
  verify::SafetyChecker checker;
  return verify_.check(checker, deployment_view(), compiled(),
                       install_.diverged());
}

}  // namespace sdx::core
