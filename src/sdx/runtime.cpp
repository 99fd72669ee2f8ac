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

/// Converts the local-rule auditor's findings into the safety subsystem's
/// report format (satellite of the verify/ subsystem: one entry point, one
/// report holding both graph counterexamples and per-rule violations).
std::vector<verify::SafetyViolation> fold_audit(const AuditReport& report) {
  std::vector<verify::SafetyViolation> out;
  out.reserve(report.violations.size());
  for (const auto& v : report.violations) {
    verify::SafetyViolation sv;
    sv.kind = verify::ViolationKind::kLocalRule;
    sv.what = "rule " + std::to_string(v.rule_index) + ": " + v.what;
    out.push_back(std::move(sv));
  }
  return out;
}

/// Scoped flag override; restores the previous value on any exit path.
class FlagOverride {
 public:
  FlagOverride(bool& flag, bool value) : flag_(flag), saved_(flag) {
    flag_ = value;
  }
  ~FlagOverride() { flag_ = saved_; }
  FlagOverride(const FlagOverride&) = delete;
  FlagOverride& operator=(const FlagOverride&) = delete;

 private:
  bool& flag_;
  bool saved_;
};

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
  async_recompiles_ = &reg.counter(
      "sdx_recompile_async_total",
      "asynchronous background recompilations started");
  stale_recompiles_ = &reg.counter(
      "sdx_recompile_stale_total",
      "asynchronous recompilations discarded as stale");
  swap_seconds_ = &reg.histogram(
      "sdx_recompile_swap_seconds",
      "control-thread latency of swapping in a finished recompilation");
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
  for (const auto& port : stored.ports) {
    routers_.emplace_back(asn, port.id, port.router_mac, port.router_ip);
    router_index_[stored.id].push_back(routers_.size() - 1);
    fabric_.attach(routers_.back());
  }
  if (frontend_) {
    frontend_->connect(stored.id,
                       routers_[router_index_.at(stored.id).front()]);
  }
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
  for (auto& p : participants_) {
    if (p.id == id) return p;
  }
  throw std::out_of_range("unknown participant " + std::to_string(id));
}

const Participant& SdxRuntime::participant(ParticipantId id) const {
  for (const auto& p : participants_) {
    if (p.id == id) return p;
  }
  throw std::out_of_range("unknown participant " + std::to_string(id));
}

Participant* SdxRuntime::find(const std::string& name) {
  for (auto& p : participants_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

void SdxRuntime::set_outbound(ParticipantId id,
                              std::vector<OutboundClause> clauses) {
  participant(id).outbound = std::move(clauses);
  validate_participant(participant(id), participants_);
  ++policy_epoch_;
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSetOutbound;
    rec.participant = id;
    rec.outbound = participant(id).outbound;
    journal_->append(rec);
  }
  // Partitioned mode: an outbound change dirties exactly one partition —
  // recompile and swap it in place instead of waiting for the next full
  // rebuild. (Pairwise mode keeps the historical contract: changes land on
  // the next install()/recompile.)
  if (installed() && options_.partitioned) {
    recompile_participant_partition(id);
  }
}

void SdxRuntime::set_inbound(ParticipantId id,
                             std::vector<InboundClause> clauses) {
  participant(id).inbound = std::move(clauses);
  validate_participant(participant(id), participants_);
  ++policy_epoch_;
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSetInbound;
    rec.participant = id;
    rec.inbound = participant(id).inbound;
    journal_->append(rec);
  }
  // An inbound change rewrites this participant's stage-2 classifier, which
  // is composed into every partition whose clauses target it — not a
  // single-partition change, so rebuild everything. The WAL record above
  // covers the derived effects on replay.
  if (installed() && options_.partitioned) {
    FlagOverride suppress(journal_recording_, false);
    background_recompile();
  }
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
  server_.announce(std::move(route));
  if (installed()) {
    note_post_install_update(prefix);
  } else {
    readvertise(prefix);
  }
}

std::size_t SdxRuntime::session_down(ParticipantId id) {
  Participant& p = participant(id);
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kSessionDown;
    rec.participant = id;
    journal_->append(rec);
  }
  // The inner withdraw()/recompile calls below are derived effects of this
  // one record — suppress their own journaling so replay, which re-runs
  // session_down() wholesale, does not double-apply them.
  FlagOverride suppress(journal_recording_, false);
  p.outbound.clear();
  p.inbound.clear();
  ++policy_epoch_;
  // Other participants' clauses toward a dead peer stay installed — their
  // reach sets simply become empty, exactly as with any withdrawal.
  const auto advertised = server_.advertised_by(id);
  for (auto prefix : advertised) withdraw(id, prefix);
  if (installed()) {
    // Purge the withdrawn prefixes from any pending batch and drop their
    // fast-path bindings *before* recompiling, so nothing pending can
    // re-install state for routes that no longer exist.
    for (auto prefix : advertised) {
      if (dirty_set_.erase(prefix) != 0) {
        dirty_order_.erase(
            std::remove(dirty_order_.begin(), dirty_order_.end(), prefix),
            dirty_order_.end());
        // The batched withdrawal this purge swallows still has to reach
        // the border routers.
        readvertise(prefix);
      }
      fast_bindings_.erase(prefix);
    }
    if (dirty_order_.empty()) pending_clock_ = 0;
    // Policies changed, so the two-stage fast path is not enough: rebuild.
    background_recompile();
  }
  return advertised.size();
}

void SdxRuntime::withdraw(ParticipantId from, Ipv4Prefix prefix) {
  if (journal_recording_) {
    persist::WalRecord rec;
    rec.type = persist::WalRecordType::kWithdraw;
    rec.participant = from;
    rec.prefix = prefix;
    journal_->append(rec);
  }
  server_.withdraw(from, prefix);
  if (installed()) {
    note_post_install_update(prefix);
  } else {
    readvertise(prefix);
  }
}

const CompiledSdx& SdxRuntime::deploy() {
  // A synchronous rebuild outruns any in-flight asynchronous one: mark the
  // job superseded so its (older) result is discarded at poll time. The
  // rebuild reads the live RIB, so it covers every raced delta too.
  if (job_) job_->superseded = true;
  raced_order_.clear();
  raced_set_.clear();
  const CompiledSdx& compiled = engine_->full_recompile(vnh_);
  install_compiled(compiled);
  run_safety_stage(nullptr);
  return compiled;
}

void SdxRuntime::install_compiled(const CompiledSdx& compiled) {
  // One binding per remote participant, advertised as the next hop of its
  // otherwise-unreachable announcements so senders can frame the traffic.
  remote_bindings_.clear();
  for (const auto& p : participants_) {
    if (p.is_remote()) remote_bindings_[p.id] = vnh_.allocate();
  }

  install_base_tables(compiled);
  fast_bindings_.clear();
  bind_arp(compiled);
  // The new base covers every pending dirty prefix and the per-update log;
  // anything that raced past an asynchronous snapshot re-applies through
  // one batched fast pass on top of it (note_post_install_update recorded
  // both). Pending prefixes that left the RIB entirely still need their
  // (deferred) withdrawal re-advertised — the all_prefixes() walk only
  // sees prefixes the RIB still holds.
  std::vector<Ipv4Prefix> pending = std::move(dirty_order_);
  dirty_order_.clear();
  dirty_set_.clear();
  pending_clock_ = 0;
  std::vector<Ipv4Prefix> raced = std::move(raced_order_);
  raced_order_.clear();
  raced_set_.clear();
  update_log_.clear();
  for (auto prefix : server_.all_prefixes()) readvertise(prefix);
  for (auto prefix : pending) readvertise(prefix);
  install_batch(raced);
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
  return deploy();
}

const CompiledSdx& SdxRuntime::background_recompile() {
  if (!installed()) {
    throw std::logic_error("install() before background_recompile()");
  }
  telemetry::Span span = telemetry_.tracer.span("background_recompile");
  return deploy();
}

bool SdxRuntime::start_background_recompile() {
  if (!installed()) {
    throw std::logic_error("install() before start_background_recompile()");
  }
  if (job_) return false;
  // Size 2: one pool worker owns the job (size 1 would run submit() inline
  // on the control thread, which is exactly what "asynchronous" must not
  // do). The compiler spreads its parallel stages at options_.threads width
  // over its own pool, so this one stays small.
  if (!async_pool_) async_pool_ = std::make_unique<net::ThreadPool>(2);
  auto job = std::make_unique<RecompileJob>();
  job->participants = participants_;
  job->ports = port_map_;
  job->server = server_.snapshot();
  job->policy_epoch = policy_epoch_;
  // The worker's allocator must share the live pool and VMAC layout, or an
  // async compile would silently encode under the default layout.
  job->vnh = VnhAllocator(vnh_.pool(), vnh_.layout());
  raced_order_.clear();
  raced_set_.clear();
  // The worker sees only the job's own snapshots (and the thread-safe
  // telemetry bundle) — never live runtime state. The raw pointer is
  // stable: the job is heap-held and outlives `done` by construction.
  RecompileJob* raw = job.get();
  const CompileOptions opts = options_;
  telemetry::Telemetry* telemetry = &telemetry_;
  job->done = async_pool_->submit([raw, opts, telemetry] {
    SdxCompiler compiler(raw->participants, raw->ports, raw->server, opts);
    compiler.set_telemetry(telemetry);
    raw->result = compiler.compile(raw->vnh);
  });
  job_ = std::move(job);
  async_recompiles_->inc();
  return true;
}

bool SdxRuntime::poll_background_recompile() {
  if (!job_) return false;
  if (job_->done.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    return false;
  }
  std::unique_ptr<RecompileJob> job = std::move(job_);
  job->done.get();  // surfaces a worker exception, if any
  if (job->superseded) {
    stale_recompiles_->inc();
    return false;
  }
  if (job->policy_epoch != policy_epoch_) {
    // Policies changed mid-flight: the result answers yesterday's question.
    // Discard it and recompile against the current policy state.
    stale_recompiles_->inc();
    start_background_recompile();
    return false;
  }
  apply_recompile(std::move(*job));
  return true;
}

const CompiledSdx& SdxRuntime::wait_background_recompile() {
  while (job_) {
    job_->done.wait();
    poll_background_recompile();
  }
  return compiled();
}

void SdxRuntime::apply_recompile(RecompileJob job) {
  telemetry::Span span = telemetry_.tracer.span("recompile_swap");
  const auto t0 = std::chrono::steady_clock::now();
  // Double-buffer swap: adopt the worker's compiled state and allocator,
  // then install it through the same routine as deploy() — the same
  // allocator sequence keeps async byte-identical to sync.
  vnh_ = std::move(job.vnh);
  install_compiled(engine_->adopt(std::move(job.result)));
  swap_seconds_->observe(seconds_since(t0));
  // Full re-verification after the swap (the raced-delta batch above already
  // re-checked its own prefixes incrementally; the new base needs the rest).
  run_safety_stage(nullptr);
}

void SdxRuntime::set_compile_threads(unsigned threads) {
  options_.threads = threads;
  if (engine_) engine_->set_threads(threads);
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
  for (const auto& b : update.bindings) {
    fabric_.arp().bind(b.vnh, b.vmac);
  }
  for (auto prefix : update.affected) readvertise(prefix);
  run_safety_stage(&update.affected);
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
}

std::optional<VnhBinding> SdxRuntime::current_binding(
    Ipv4Prefix prefix) const {
  if (auto it = fast_bindings_.find(prefix); it != fast_bindings_.end()) {
    return it->second;
  }
  if (installed()) return compiled().binding_for(prefix);
  return std::nullopt;
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
    frontend_->connect(p.id, routers_[router_index_.at(p.id).front()]);
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
  if (batching_ && !dirty_order_.empty() &&
      batch_options_.max_delay_seconds > 0) {
    pending_clock_ += seconds;
    if (pending_clock_ >= batch_options_.max_delay_seconds) flush();
  }
  return dropped;
}

void SdxRuntime::enable_batching(BatchOptions options) {
  batching_ = true;
  batch_options_ = options;
  if (batch_options_.max_pending != 0 &&
      dirty_order_.size() >= batch_options_.max_pending) {
    flush();
  }
}

void SdxRuntime::disable_batching() {
  flush();
  batching_ = false;
}

std::size_t SdxRuntime::flush() {
  pending_clock_ = 0;
  if (dirty_order_.empty()) return 0;
  std::vector<Ipv4Prefix> prefixes = std::move(dirty_order_);
  dirty_order_.clear();
  dirty_set_.clear();
  batch_flushes_->inc();
  batch_updates_->inc(prefixes.size());
  batch_size_->observe(static_cast<double>(prefixes.size()));
  install_batch(prefixes);
  return prefixes.size();
}

void SdxRuntime::set_update_log_capacity(std::size_t capacity) {
  update_log_capacity_ = capacity;
  while (update_log_.size() > update_log_capacity_) update_log_.pop_front();
}

void SdxRuntime::log_update(UpdateReport report) {
  if (update_log_capacity_ == 0) return;
  // Trim before admitting, so the ring never transiently exceeds its
  // capacity (capacity 0 admits nothing at all).
  while (update_log_.size() >= update_log_capacity_) update_log_.pop_front();
  update_log_.push_back(std::move(report));
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

void SdxRuntime::readvertise(Ipv4Prefix prefix) {
  const auto global = current_binding(prefix);
  const bool partitioned = installed() && compiled().partitioned;
  for (std::size_t slot = 0; slot < participants_.size(); ++slot) {
    const auto& p = participants_[slot];
    if (p.is_remote()) continue;
    // Per-receiver next hop: the fast-path (or pairwise group) binding is
    // receiver-independent; a partitioned artifact advertises each receiver
    // the binding of *its own* partition group — the tag encodes the
    // receiver's clause bitmap and default next hop, so it must never reach
    // another router. Prefixes outside the receiver's partition keep their
    // real (or remote-participant) next hop and ride MAC learning.
    auto binding = global;
    if (!binding && partitioned) {
      binding = compiled().partition_binding_for(slot, prefix);
    }
    bgp::UpdateMessage msg;
    auto best = server_.best_route(p.id, prefix);
    if (!best) {
      msg.withdrawn.push_back(prefix);
    } else {
      // best_route returns a copy: move its attributes into the message.
      msg.attrs = std::move(best->attrs);
      if (binding) {
        msg.attrs->next_hop = binding->vnh;
      } else if (auto rb = remote_bindings_.find(best->learned_from);
                 rb != remote_bindings_.end()) {
        msg.attrs->next_hop = rb->second.vnh;
      }
      msg.nlri.push_back(prefix);
    }
    if (frontend_ && frontend_->established(p.id)) {
      frontend_bytes_->inc(frontend_->distribute(p.id, msg));
      frontend_updates_->inc();
      // Secondary routers of multi-port participants share the view.
      for (std::size_t k = 1; k < router_index_[p.id].size(); ++k) {
        routers_[router_index_[p.id][k]].process_update(msg);
      }
    } else {
      for (std::size_t ri : router_index_[p.id]) {
        routers_[ri].process_update(msg);
      }
    }
  }
}

void SdxRuntime::note_post_install_update(Ipv4Prefix prefix) {
  // Raced-delta bookkeeping first: while an asynchronous recompile flies,
  // every touched prefix must be re-applied on top of its result, whether
  // the update runs inline or waits in a batch.
  if (job_ && raced_set_.insert(prefix).second) {
    raced_order_.push_back(prefix);
  }
  if (batching_) {
    if (dirty_set_.insert(prefix).second) dirty_order_.push_back(prefix);
    if (batch_options_.max_pending != 0 &&
        dirty_order_.size() >= batch_options_.max_pending) {
      flush();
    }
    return;
  }
  install_batch({prefix});
}

void SdxRuntime::install_batch(const std::vector<Ipv4Prefix>& prefixes) {
  if (prefixes.empty()) return;
  telemetry::Span span = telemetry_.tracer.span("fast_update");
  auto batch = engine_->fast_update_batch(prefixes, vnh_);
  fast_updates_->inc(batch.items.size());
  fast_rules_->inc(batch.additional_rules);
  fast_compositions_->inc(batch.compositions);
  const double amortized =
      batch.items.empty() ? 0.0 : batch.seconds / batch.items.size();
  if (!batch.rules.empty()) {
    // One combined classifier, one cookie: the whole flush installs (and
    // can later be dropped) as a unit.
    policy::Classifier extra(std::move(batch.rules));
    fabric_.sdx_switch().table().install_classifier(extra, kFastPriority,
                                                    next_cookie_++);
  }
  for (const auto& item : batch.items) {
    if (item.binding) {
      fast_bindings_[item.prefix] = *item.binding;
      fabric_.arp().bind(item.binding->vnh, item.binding->vmac);
    }
    fast_seconds_->observe(amortized);
    readvertise(item.prefix);
    log_update(
        UpdateReport{item.prefix, item.additional_rules, amortized});
  }
  run_safety_stage(&prefixes);
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
  if (batching_) flush();
  persist::CheckpointState st;
  st.participants = participants_;
  st.routes = server_.dump_routes();
  st.vnh_pool = vnh_.pool();
  st.vnh_allocated = vnh_.allocated();
  st.next_cookie = next_cookie_;
  st.installed = installed();
  if (st.installed) {
    st.compiled = engine_->current();
    st.compiled.stats = CompileStats{};  // timings are not state
    st.fingerprint = engine_->current().fingerprint();
    st.fast_bindings.assign(fast_bindings_.begin(), fast_bindings_.end());
    std::sort(st.fast_bindings.begin(), st.fast_bindings.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
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
  next_cookie_ = st.next_cookie;
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
  CompiledSdx compiled = st.compiled;
  // Warm restart requires (a) the artifact to be provably intact
  // (fingerprint match — the fingerprint embeds the VMAC layout it was
  // compiled under) and (b) the artifact to match *this* runtime's
  // configured layout and mode: a persisted artifact is self-consistent
  // under its own layout, so a configuration change would otherwise adopt
  // tables encoded with stale bit positions.
  if (compiled.fingerprint() == st.fingerprint &&
      compiled.layout == options_.vmac_layout &&
      compiled.partitioned == options_.partitioned) {
    // Warm restart: the decoded artifact is provably what a fresh compile
    // would produce — adopt it without compiling and reuse every persisted
    // VNH/VMAC binding, keeping border-router ARP caches valid.
    report.warm = true;
    vnh_.restore(st.vnh_allocated);
    const CompiledSdx& adopted = engine_->adopt(std::move(compiled));
    remote_bindings_.clear();
    for (const auto& [id, b] : st.remote_bindings) remote_bindings_[id] = b;
    install_base_tables(adopted);
    auto& table = fabric_.sdx_switch().table();
    for (const auto& extra : st.extra_rules) {
      dp::FlowRule rule;
      rule.priority = extra.priority;
      rule.match = extra.rule.match;
      rule.actions = extra.rule.actions;
      rule.cookie = extra.cookie;
      table.install(std::move(rule));
    }
    fast_bindings_.clear();
    for (const auto& [prefix, b] : st.fast_bindings) {
      fast_bindings_[prefix] = b;
    }
    bind_arp(adopted);
    for (const auto& [prefix, b] : fast_bindings_) {
      fabric_.arp().bind(b.vnh, b.vmac);
    }
    for (auto prefix : server_.all_prefixes()) readvertise(prefix);
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
  // Replay the tail. Once the replayed timeline passes install(), updates
  // run through the batched fast path — one coalesced pass instead of one
  // restricted compilation per record.
  bool batched = false;
  bool policy_replayed = false;
  for (const auto& rec : journal->tail()) {
    if (!batched && installed()) {
      enable_batching(BatchOptions{0, 0});
      batched = true;
    }
    if (installed() &&
        (rec.type == persist::WalRecordType::kSetOutbound ||
         rec.type == persist::WalRecordType::kSetInbound)) {
      policy_replayed = true;
    }
    replay_record(rec);
    ++report.replayed;
  }
  if (batched) disable_batching();
  // Pairwise mode defers a post-install policy change to the next recompile,
  // and the recompile the live runtime eventually ran is not a WAL record —
  // replay would otherwise resurrect the stale tables. One coalesced rebuild
  // restores the never-crashed state. (Partitioned mode recompiled the
  // affected partitions inline during replay, so nothing is stale.)
  if (policy_replayed && installed() && !options_.partitioned) {
    background_recompile();
  }
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
  return routers_.at(router_index_.at(id).at(port_index));
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
  view.process = [self](const net::PacketHeader& h) {
    return self->fabric_.sdx_switch().table().process(h);
  };
  view.forward = [self](ParticipantId sender, net::PacketHeader payload)
      -> std::optional<net::PacketHeader> {
    const Participant& p = self->participant(sender);
    if (p.is_remote()) return std::nullopt;
    const dp::BorderRouter* router =
        self->fabric_.router_at(p.primary_port().id);
    if (router == nullptr) return std::nullopt;
    return router->forward(std::move(payload), self->fabric_.arp());
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
  view.known_prefixes = [self]() {
    // The union of the route server's RIB and every border-router FIB:
    // a prefix withdrawn behind the server's back is exactly the stale
    // state the checker exists to catch, and it only survives in FIBs.
    std::set<Ipv4Prefix> known;
    for (auto prefix : self->server_.all_prefixes()) known.insert(prefix);
    for (const auto& router : self->routers_) {
      router.rib().for_each(
          [&known](const bgp::Route& route) { known.insert(route.prefix); });
    }
    return std::vector<Ipv4Prefix>(known.begin(), known.end());
  };
  // The same union, queried from live state: the incremental pass asks
  // about a handful of dirty prefixes and must not rebuild it per flush.
  view.is_known = [self](Ipv4Prefix prefix) {
    if (self->server_.candidates(prefix) != nullptr) return true;
    for (const auto& router : self->routers_) {
      if (router.rib().find(prefix) != nullptr) return true;
    }
    return false;
  };
  view.known_covering =
      [self](net::Ipv4Address addr) -> std::optional<Ipv4Prefix> {
    std::optional<Ipv4Prefix> best;
    for (int len = 32; len >= 0; --len) {
      const Ipv4Prefix candidate(addr, len);
      if (self->server_.candidates(candidate) != nullptr) {
        best = candidate;
        break;
      }
    }
    for (const auto& router : self->routers_) {
      const bgp::Route* route = router.rib().lookup(addr);
      if (route == nullptr) continue;
      if (!best || route->prefix.length() > best->length()) {
        best = route->prefix;
      }
    }
    return best;
  };
  return view;
}

void SdxRuntime::enable_verification(verify::SafetyChecker::Options options) {
  checker_ = std::make_unique<verify::SafetyChecker>(options);
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

void SdxRuntime::disable_verification() { checker_.reset(); }

verify::SafetyReport SdxRuntime::verify_now() const {
  if (!installed()) {
    throw std::logic_error("install() before verify_now()");
  }
  verify::SafetyChecker checker;
  // The static audit compares the compiled artifact against the current
  // RIB, so it is only meaningful while the artifact IS the deployment.
  // Outstanding fast-path bindings mean newer rules shadow stale artifact
  // rules; auditing the artifact then reports phantom export mismatches
  // the live table cannot exhibit. The walk below always checks the live
  // table, so safety coverage is unaffected — only the rule-level audit
  // waits for the next full recompile.
  if (fast_bindings_.empty()) {
    const AuditReport local =
        audit(compiled(), participants_, port_map_, server_);
    checker.set_local_findings(fold_audit(local), local.rules_checked);
  }
  return checker.full(deployment_view());
}

void SdxRuntime::run_safety_stage(const std::vector<Ipv4Prefix>* dirty) {
  if (!checker_ || !installed()) return;
  telemetry::Span span = telemetry_.tracer.span("safety_verify");
  const auto view = deployment_view();
  if (dirty == nullptr) {
    // Full runs normally start right after a deploy/swap, when
    // fast_bindings_ is empty and the artifact matches the deployment.
    // enable_verification() can trigger one mid-fast-path, though — skip
    // the artifact audit then (see verify_now for the staleness rationale).
    if (fast_bindings_.empty()) {
      const AuditReport local =
          audit(compiled(), participants_, port_map_, server_);
      checker_->set_local_findings(fold_audit(local), local.rules_checked);
    } else {
      checker_->set_local_findings({}, 0);
    }
    last_safety_report_ = checker_->full(view);
    verify_full_runs_->inc();
  } else {
    last_safety_report_ = checker_->incremental(view, *dirty);
    verify_incremental_runs_->inc();
  }
  verify_seconds_->observe(last_safety_report_.seconds);
  verify_classes_->inc(last_safety_report_.classes_checked);
  verify_edges_->inc(last_safety_report_.edges_walked);
  for (const auto& v : last_safety_report_.violations) {
    verify_violations_[static_cast<std::size_t>(v.kind)]->inc();
  }
}

}  // namespace sdx::core
