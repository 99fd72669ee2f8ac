#pragma once

/// \file runtime.hpp
/// The SDX controller (paper Figure 3): route server + policy compiler +
/// incremental engine + data-plane driver, behind one facade.
///
/// Lifecycle:
///   1. add_participant() / add_remote_participant(), set policies;
///   2. announce() routes (participants' border routers feed the route
///      server). Until install() these change only the route server: no
///      router hears of them yet;
///   3. install() — full compilation, flow-rule installation, ARP/VNH
///      bindings and BGP re-advertisement of every prefix to every
///      participant router;
///   4. further announce()/withdraw() calls run the §4.3.2 fast path,
///      logging per-update cost. There is one fast stage, and one road to
///      it: every update enters the dirty queue with the receivers whose
///      best route it changed, and a flush() (explicit, size- or
///      clock-triggered) runs the queue as one batch. The starting flush
///      policy flushes at one pending prefix, so an inline update is a
///      flush of one; enable_batching() widens it. A flush rebinds a prefix
///      only when its forwarding changed: bindings are interned by
///      restricted signature (binding_table.hpp), so a prefix whose
///      signature is unchanged keeps its binding, one whose signature
///      another live binding has joins it, and only a new signature costs a
///      VNH, composed higher-priority rules and an ARP entry. A rebound
///      prefix is re-advertised to every router; any other dirty prefix
///      only to its changed receivers. background_recompile() rebuilds the
///      optimal tables between bursts, on the control thread, and absorbs
///      the queue. A session_down() queues its withdrawals and lets that
///      recompile absorb them.
///   5. a policy change after install() redeploys at once (see the policies
///      block below): the two-stage scheme is for BGP updates only, so no
///      prefix ever forwards under a policy that is no longer set;
///   6. send() pushes packets through the emulated data plane end to end.
///
/// There is one full deploy, install_compiled(): install(),
/// background_recompile() and a warm recover() all end in it, and differ
/// only in where the compiled state comes from — a live compile or a
/// decoded checkpoint. It installs the base tables, binds ARP,
/// re-advertises every prefix and runs the full safety stage.

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bgp/route_server.hpp"
#include "bgp/rpki.hpp"
#include "dataplane/fabric.hpp"
#include "persist/journal.hpp"
#include "sdx/bgp_frontend.hpp"
#include "sdx/binding_table.hpp"
#include "sdx/compiler.hpp"
#include "sdx/incremental.hpp"
#include "sdx/participant.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/safety.hpp"

namespace sdx::core {

class SdxRuntime {
 public:
  explicit SdxRuntime(bgp::DecisionConfig decision = {},
                      CompileOptions options = {});

  // --- topology -----------------------------------------------------------

  /// Adds a participant with \p port_count attachment ports (ids, MACs and
  /// IPs assigned automatically) and returns its id. (An id, not a
  /// reference: the participant table may reallocate as members join —
  /// use participant(id) for access.)
  ParticipantId add_participant(const std::string& name, net::Asn asn,
                                std::size_t port_count = 1);

  /// Adds a remote participant (no physical presence, §3.1): it can install
  /// rewrite policies and originate routes but sends no traffic.
  ParticipantId add_remote_participant(const std::string& name, net::Asn asn);

  Participant& participant(ParticipantId id);
  const Participant& participant(ParticipantId id) const;
  Participant* find(const std::string& name);
  const std::vector<Participant>& participants() const {
    return participants_;
  }
  const PortMap& ports() const { return port_map_; }

  // --- policies --------------------------------------------------------------
  //
  // Before install() a change only edits the participant; install()
  // compiles it. After install() it deploys before the call returns: an
  // outbound change in partitioned mode recompiles its partition in place
  // and rebinds every fast-bound prefix; every other change runs
  // background_recompile(). No binding composed under the old policy
  // survives the call. A rejected change (std::invalid_argument,
  // std::out_of_range) leaves the policy as it was.

  void set_outbound(ParticipantId id, std::vector<OutboundClause> clauses);
  void set_inbound(ParticipantId id, std::vector<InboundClause> clauses);

  // --- BGP ------------------------------------------------------------------

  /// Participant \p from announces \p prefix. The AS path defaults to the
  /// participant's own ASN (an originated route); longer paths model
  /// transit; communities drive the route server's export policy (RFC 1997
  /// NO_EXPORT/NO_ADVERTISE, "0:<asn>" per-peer blocking). Before install()
  /// only the route server changes; install() advertises the result. After
  /// install(), the prefix enters the dirty queue and the flush policy
  /// decides when the fast path runs (at once, by default). Both calls
  /// throw std::out_of_range for an unknown participant, and a rejected
  /// call leaves the state and the journal untouched.
  void announce(ParticipantId from, Ipv4Prefix prefix,
                std::optional<net::AsPath> path = std::nullopt,
                std::vector<bgp::Community> communities = {});
  void withdraw(ParticipantId from, Ipv4Prefix prefix);

  /// A participant's BGP session drops (maintenance, failure, departure):
  /// every route it advertised is withdrawn and its policies are removed
  /// (they may reference routes that no longer exist). Its ports remain in
  /// the topology, and re-announcing later brings it back. Before install()
  /// only the route server changes. After install(), the withdrawals join
  /// the dirty queue and the full recompilation that follows absorbs the
  /// whole queue: no fast-path pass runs for them. Returns the number of
  /// prefixes withdrawn.
  std::size_t session_down(ParticipantId id);

  bgp::RouteServer& route_server() { return server_; }
  const bgp::RouteServer& route_server() const { return server_; }

  /// Switches re-advertisement to the wire path: every UPDATE toward a
  /// border router is framed, travels through a pair of RFC 4271 sessions
  /// (BgpFrontend) and lands in the router's RIB via the decoder — instead
  /// of the default in-process delivery. Call before install().
  /// Behaviour must be identical either way (property-tested).
  void use_wire_distribution();
  bool wire_distribution() const { return frontend_ != nullptr; }
  const BgpFrontend* frontend() const { return frontend_.get(); }

  /// Opt-in resilience for wire distribution: a session dropped by
  /// advance_clock() redials automatically with capped exponential
  /// backoff (the participant still goes through session_down() at drop
  /// time — reconnect restores the transport, and readvertisements reach
  /// the router again once it re-announces). Each successful redial is
  /// counted in `sdx_ingest_reconnects_total`. Throws std::logic_error
  /// without wire distribution.
  void enable_frontend_auto_reconnect(
      BgpFrontend::ReconnectPolicy policy = {});

  /// Advances the wire sessions' hold/keepalive clocks (no-op without wire
  /// distribution) and ages any pending update batch (see BatchOptions::
  /// max_delay_seconds). A session that drops is surfaced, not swallowed:
  /// the drop is counted (`sdx_frontend_session_drops_total`), the
  /// participant's routes are withdrawn and its policies removed via
  /// session_down(), and the dropped ids are returned so the operator loop
  /// can react (e.g. reconnect).
  std::vector<ParticipantId> advance_clock(double seconds);

  /// RPKI origin validation (paper §3.2: the SDX verifies prefix ownership
  /// before originating a route for a remote participant).
  enum class RpkiMode {
    kOff,         ///< no validation (default)
    kRemoteOnly,  ///< SDX-originated (remote-participant) routes must be Valid
    kStrict,      ///< additionally reject Invalid routes from anyone
  };
  void enable_rpki(bgp::RoaTable table, RpkiMode mode = RpkiMode::kRemoteOnly);
  const bgp::RoaTable& roa_table() const { return roas_; }

  // --- compilation & deployment --------------------------------------------

  /// Full compile + install: flow rules, VNH ARP bindings, re-advertising
  /// every prefix to every participant router. Returns the compile result.
  const CompiledSdx& install();

  bool installed() const { return engine_ && engine_->has_compiled(); }
  const CompiledSdx& compiled() const { return engine_->current(); }

  /// Runs the background (optimal) recompilation on the control thread:
  /// rebuilds the minimal table from the live RIB and policies, absorbs the
  /// dirty queue and drops the accumulated fast-path rules.
  const CompiledSdx& background_recompile();

  // --- burst batching (§4.3.2 "between update bursts") ----------------------

  struct BatchOptions {
    /// Auto-flush once this many distinct prefixes are dirty (0 = only
    /// explicit or clock-triggered flushes).
    std::size_t max_pending = 64;
    /// Auto-flush when the oldest dirty prefix has aged this long across
    /// advance_clock() calls (0 = no clock trigger).
    double max_delay_seconds = 0.05;
  };

  /// Sets the flush policy for updates after install(). Every update
  /// enqueues; the runtime starts at {1, 0}, so each update flushes at once
  /// as a batch of one. A wider policy makes a burst of N updates one
  /// batched pass (shared clause scan and stage-2 memo, one VNH sweep, one
  /// composition walk, de-duplicated installation) instead of N batches of
  /// one; updates are then *visible* only after the flush. Flushes at once
  /// when the queue already meets the new max_pending.
  void enable_batching(BatchOptions options);
  void enable_batching() { enable_batching(BatchOptions{}); }

  /// Distinct prefixes waiting for the next flush.
  std::size_t pending_updates() const { return dirty_order_.size(); }

  /// Runs one batched fast-path pass over the dirty set. Each prefix is
  /// classified by its restricted signature: unchanged (nothing to
  /// install), equal to a live binding's (the prefix joins it) or new (one
  /// VNH, one composition installed at high priority under a cookie
  /// derived from the VNH, one ARP entry). A binding whose last prefix
  /// left retires with its rules and ARP entry. A rebound prefix is
  /// re-advertised to every router, any other to the receivers whose best
  /// route changed since the last flush. Returns the number of prefixes
  /// flushed (0 when idle).
  std::size_t flush();

  struct UpdateReport {
    Ipv4Prefix prefix;
    /// Rules of the binding this prefix's flush made for it (0 when it
    /// kept or joined one).
    std::size_t additional_rules = 0;
    double fast_seconds = 0;
  };

  /// The per-update fast-path log: a ring of the most recent
  /// kUpdateLogCapacity reports (oldest drop first, so long burst replays
  /// can't grow memory without bound). Superseded entries are cleared by a
  /// successful background recompilation.
  static constexpr std::size_t kUpdateLogCapacity = 4096;
  const std::deque<UpdateReport>& update_log() const { return update_log_; }
  void clear_update_log() { update_log_.clear(); }

  // --- durability & crash recovery (persist/) -------------------------------

  /// Attaches a journal at \p dir (created if missing): from here on every
  /// externally-driven mutation — participant registration, policy changes,
  /// announce/withdraw/session_down, install() — appends a WAL record, and
  /// checkpoint() serializes full snapshots. Throws std::logic_error when a
  /// journal is already attached, or when \p dir holds existing journal
  /// state (use recover() for that). Attaching to a runtime that already
  /// has state writes an initial checkpoint so the journal is complete.
  void attach_journal(const std::string& dir,
                      persist::Journal::Options options = {});

  /// True while mutations are being recorded to an attached journal.
  bool journaling() const { return journal_ != nullptr && journal_recording_; }
  const persist::Journal* journal() const { return journal_.get(); }

  /// Serializes the full runtime state (RIB, participants, policies,
  /// VNH/VMAC allocator, installed tables + fingerprint, binding table and
  /// fast-path residue)
  /// as an atomically-written checkpoint, rotating the WAL to a fresh
  /// segment anchored at the checkpoint's LSN. A pending batch is flushed
  /// first so the snapshot is externally consistent. Returns the checkpoint
  /// LSN. Throws std::logic_error without an attached journal.
  std::uint64_t checkpoint();

  struct RecoveryReport {
    bool warm = false;           ///< tables adopted without recompiling
    bool had_checkpoint = false;
    std::uint64_t checkpoint_lsn = 0;
    std::size_t replayed = 0;    ///< WAL tail records re-applied
    std::uint64_t torn_bytes = 0;///< bytes discarded by torn-tail detection
    double seconds = 0;
  };

  /// Rebuilds this (fresh) runtime from the journal at \p dir: loads the
  /// newest valid checkpoint, replays the WAL tail through the batched fast
  /// path, and resumes recording. When the restored tables' fingerprint
  /// matches the checkpointed one the restart is *warm*: the compiled state
  /// is adopted without recompiling and every persisted VNH→VMAC binding is
  /// reused, so border-router ARP caches stay valid; the adopted state then
  /// passes the same full safety stage as a fresh install. Throws
  /// std::logic_error on a non-fresh runtime, std::runtime_error when the
  /// directory holds neither a checkpoint nor a complete (genesis) WAL.
  RecoveryReport recover(const std::string& dir,
                         persist::Journal::Options options = {});

  // --- telemetry ------------------------------------------------------------

  /// The runtime's measurement plane. Every layer reports here: route
  /// server (RIB size, churn), compiler (per-stage spans + histograms),
  /// §4.3.2 fast path (every flush), partition recompiles,
  /// BGP frontend (updates, bytes, session drops), ARP responder and
  /// fabric flow table.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Prometheus text exposition of every metric, with occupancy gauges
  /// (flow-table rules, ARP bindings, RIB size) refreshed first. The
  /// counter series are byte-stable across CompileOptions::threads values.
  std::string dump_metrics();

  /// Chrome trace-event JSON of every recorded span (open in
  /// about:tracing or ui.perfetto.dev). Compiler-stage spans nest under
  /// their compile span.
  std::string dump_trace() const;

  // --- data plane -----------------------------------------------------------

  dp::Fabric& fabric() { return fabric_; }
  const dp::Fabric& fabric() const { return fabric_; }
  dp::BorderRouter& router(ParticipantId id, std::size_t port_index = 0);

  /// The receiver-independent (VNH, VMAC) binding for \p prefix, from the
  /// binding table: the fast-path binding it joined, else its pairwise
  /// compiled group's; std::nullopt otherwise. It does not cover the next hop of a
  /// remote participant's announcements (see remote_binding()) nor the
  /// per-receiver bindings of a partitioned deployment
  /// (CompiledSdx::partition_binding_for()).
  std::optional<VnhBinding> current_binding(Ipv4Prefix prefix) const;

  /// The pairwise compiled FEC group whose binding \p prefix holds, from
  /// the binding table: a flush may move a prefix into another group, or
  /// off every group onto a fast-path binding (std::nullopt).
  std::optional<std::uint32_t> current_group(Ipv4Prefix prefix) const;

  /// The next-hop binding assigned to a remote participant's own
  /// announcements (std::nullopt for physical participants).
  std::optional<VnhBinding> remote_binding(ParticipantId advertiser) const;

  /// Sends an IP payload from a participant's border router through the
  /// fabric; returns the deliveries at egress ports.
  std::vector<dp::Fabric::Delivery> send(ParticipantId from,
                                         net::PacketHeader payload,
                                         std::size_t port_index = 0);

  /// Burst counterpart of send(): every payload is framed by the same
  /// border router, then the whole burst runs through the fabric's
  /// batched classification path (FlowTable::process_batch). Per-payload
  /// deliveries are identical to calling send() in a loop.
  dp::Fabric::BatchDeliveries send_batch(
      ParticipantId from, std::span<const net::PacketHeader> payloads,
      std::size_t port_index = 0);

  // --- policy safety verification (verify/) ---------------------------------

  /// The safety checker's window onto this runtime's live deployment:
  /// compiled flow table, border routers, ARP and route server behind pure
  /// closures (see verify::DeploymentView). The view borrows the runtime —
  /// it must not outlive it. Throws std::logic_error before install().
  verify::DeploymentView deployment_view() const;

  /// Turns on the safety stage: a full check after every deploy (install,
  /// recompile, warm restart) and an incremental re-check of
  /// only the dirty prefixes after every flush and partition recompile.
  /// Results land in last_safety_report() and telemetry
  /// (`sdx_verify_seconds`, `sdx_verify_violations_total{kind=...}`, ...).
  /// Runs immediately when already installed.
  void enable_verification();
  bool verification_enabled() const { return checker_ != nullptr; }

  /// One-shot full safety check — the single entry point returning both
  /// graph-level counterexamples and the local-rule audit
  /// (core::audit's kLocalRule violations). Independent of
  /// enable_verification(): no checker state or telemetry is touched, and
  /// the probes bump no table, rule, router or ARP counter.
  /// Throws std::logic_error before install().
  verify::SafetyReport verify_now() const;

  /// The report produced by the most recent safety stage (default-empty
  /// before the first; meaningful only with verification enabled).
  const verify::SafetyReport& last_safety_report() const {
    return last_safety_report_;
  }

 private:
  static constexpr std::uint32_t kBasePriority = 1000;
  static constexpr std::uint32_t kFastPriority = 1u << 24;
  static constexpr std::uint64_t kBaseCookie = 1;
  /// A fast-path binding's band installs under kFastCookieBase plus its
  /// VNH's offset in the pool (fast_cookie()), so the cookie needs no
  /// counter and survives a warm restart.
  static constexpr std::uint64_t kFastCookieBase = kBaseCookie + 1;
  /// Partitioned mode: partition slot s installs under cookie
  /// kPartitionCookieBase + s, so one partition's band can be removed and
  /// replaced in place. Above every pool offset, so the two spaces can
  /// never collide.
  static constexpr std::uint64_t kPartitionCookieBase = 1ull << 32;
  static constexpr std::uint64_t partition_cookie(std::size_t slot) {
    return kPartitionCookieBase + slot;
  }

  /// The one full deploy. Without \p restored it compiles the live RIB and
  /// policies here; with it (warm restart) it adopts the checkpoint's
  /// compiled state and reuses its persisted remote and fast-path bindings
  /// and fast-path residue rules instead of fresh allocations. Then: base
  /// tables, ARP (every VNH of the replaced state unbound, the new state's
  /// bound), re-advertisement of every prefix and of the absorbed pending
  /// prefixes that left the RIB, a cleared update log, and the full safety
  /// stage.
  const CompiledSdx& install_compiled(
      const persist::CheckpointState* restored = nullptr);
  /// Clears the flow table and installs the compiled base state: the whole
  /// fabric under kBaseCookie (pairwise), or the shared band plus one
  /// priority band per partition under per-slot cookies (partitioned),
  /// recording each partition's priority base for later in-place swaps.
  void install_base_tables(const CompiledSdx& compiled);
  /// Partitioned mode, outbound policy change after install(): recompile
  /// only \p id's partition, swap its flow-table band under its cookie,
  /// ARP-bind the fresh bindings, re-advertise the affected prefixes, then
  /// empty the signature index and re-flush every fast-bound prefix, so no
  /// fast binding outlives the policy it was composed under.
  void recompile_participant_partition(ParticipantId id);
  /// The band cookie of the fast-path binding \p b.
  std::uint64_t fast_cookie(const VnhBinding& b) const {
    return kFastCookieBase + (b.vnh.value() - vnh_.pool().network().value());
  }
  /// Rebuilds the binding table for the deployed \p compiled state: its
  /// pairwise groups as base entries, then (warm restart) \p restored's
  /// fast-path bindings and their residue bands.
  void reset_bindings(const CompiledSdx& compiled,
                      const persist::CheckpointState* restored);
  /// Re-advertises \p prefix to every physical participant, or only to
  /// the participant slots set in the mask \p receivers. Receivers with
  /// the same best candidate and the same next hop form one update group:
  /// one attribute set in fib_ for all its in-process routers, one UPDATE
  /// for all its wire sessions. The prefix's FIB slot is resolved once and
  /// every in-process router is written by slot.
  void readvertise(Ipv4Prefix prefix,
                   const std::uint64_t* receivers = nullptr);
  /// Binds every live VNH: compiled (pairwise or per-partition), remote
  /// participant and fast-path bindings.
  void bind_arp(const CompiledSdx& compiled);
  /// Queues \p prefix (once, in arrival order) and returns its receiver
  /// mask: receiver_words() words, one bit per participant slot.
  std::uint64_t* mark_dirty(Ipv4Prefix prefix);
  std::size_t receiver_words() const {
    return (participants_.size() + 63) / 64;
  }
  /// Post-install update routing: the dirty queue with the receivers in
  /// \p changes, flushed when it reaches the policy's max_pending.
  void note_post_install_update(
      Ipv4Prefix prefix,
      const std::vector<bgp::RouteServer::BestChange>& changes);
  /// Runs the enabled safety stage: full when \p dirty is null, else an
  /// incremental re-check of exactly those prefixes. No-op unless
  /// verification is enabled and the runtime is installed.
  void run_safety_stage(const std::vector<Ipv4Prefix>* dirty);
  /// The rule-level audit of the compiled artifact, or an empty report
  /// while the binding table holds a prefix off its compiled group (the
  /// artifact is then not the deployment). Both full checks fold this in.
  verify::SafetyReport artifact_audit() const;
  /// Registers the journal's telemetry series on the runtime registry.
  void wire_journal_hooks();
  /// Re-applies a checkpoint into this (fresh) runtime; sets report.warm
  /// when the fingerprint check allows adopting the persisted tables.
  void restore_checkpoint(const persist::CheckpointState& st,
                          RecoveryReport& report);
  /// Re-applies one WAL record (recording suppressed by the caller).
  void replay_record(const persist::WalRecord& rec);

  /// Declared first so every layer holding metric handles (route server,
  /// fabric hooks, cached counters below) is destroyed before it.
  telemetry::Telemetry telemetry_;
  /// Cached instrument handles for the per-update hot paths (registered
  /// once in the constructor; registry handles are stable).
  telemetry::Counter* fast_updates_ = nullptr;
  telemetry::Counter* fast_rules_ = nullptr;
  telemetry::Counter* fast_compositions_ = nullptr;
  telemetry::Histogram* fast_seconds_ = nullptr;
  telemetry::Counter* batch_flushes_ = nullptr;
  telemetry::Counter* batch_updates_ = nullptr;
  telemetry::Histogram* batch_size_ = nullptr;
  telemetry::Gauge* fast_bindings_gauge_ = nullptr;
  telemetry::Counter* frontend_updates_ = nullptr;
  telemetry::Counter* frontend_bytes_ = nullptr;
  telemetry::Counter* frontend_drops_ = nullptr;
  telemetry::Counter* ingest_reconnects_ = nullptr;
  telemetry::Counter* partitions_recompiled_ = nullptr;
  telemetry::Counter* verify_full_runs_ = nullptr;
  telemetry::Counter* verify_incremental_runs_ = nullptr;
  telemetry::Histogram* verify_seconds_ = nullptr;
  telemetry::Counter* verify_classes_ = nullptr;
  telemetry::Counter* verify_edges_ = nullptr;
  telemetry::Counter* verify_unchecked_ = nullptr;
  /// Violation counters indexed by verify::ViolationKind.
  std::array<telemetry::Counter*, 4> verify_violations_{};

  bgp::RouteServer server_;
  CompileOptions options_;
  bgp::RoaTable roas_;
  RpkiMode rpki_mode_ = RpkiMode::kOff;
  std::vector<Participant> participants_;
  PortMap port_map_;
  VnhAllocator vnh_;
  dp::Fabric fabric_;
  /// The prefix index every router's FIB is a column of, and the attribute
  /// sets its entries point into: one per update group of each
  /// re-advertisement (see readvertise()).
  std::shared_ptr<bgp::FibIndex> fib_ = std::make_shared<bgp::FibIndex>();
  /// Routers keyed in participant slot order, one per physical port; deque
  /// keeps addresses stable for fabric attachment.
  std::deque<dp::BorderRouter> routers_;
  /// Indices into routers_ by participant slot (id - 1); empty for remote
  /// participants.
  std::vector<std::vector<std::size_t>> router_index_;
  std::unique_ptr<IncrementalEngine> engine_;
  std::unique_ptr<BgpFrontend> frontend_;
  /// Last frontend reconnect count synced into the ingest counter.
  std::uint64_t synced_frontend_reconnects_ = 0;
  std::deque<UpdateReport> update_log_;
  /// Every live binding by signature, and each prefix's (see
  /// binding_table.hpp).
  BindingTable bindings_;
  /// Per-remote-participant next-hop binding so senders can frame traffic
  /// toward prefixes only a remote participant announces.
  std::unordered_map<ParticipantId, VnhBinding> remote_bindings_;

  // Burst batching state. The starting policy flushes every update on
  // arrival: an inline update is a flush of one.
  BatchOptions batch_options_{/*max_pending=*/1, /*max_delay_seconds=*/0};
  std::vector<Ipv4Prefix> dirty_order_;  ///< arrival order, deduplicated
  std::unordered_map<Ipv4Prefix, std::size_t> dirty_index_;  ///< position
  /// Per dirty prefix (in dirty_order_ order), receiver_words() words: the
  /// participant slots whose best route changed since the last flush.
  std::vector<std::uint64_t> dirty_receivers_;
  double pending_clock_ = 0;  ///< advance_clock() time since first dirty

  /// Partitioned mode: priority base of each partition's band in the flow
  /// table, fixed at base-table installation. A partition that grows past
  /// its original band overlaps the next band's priorities — harmless,
  /// since partitions match disjoint ingress ports.
  std::vector<std::uint32_t> partition_bases_;

  /// Safety verification stage (verify/): present iff enabled.
  std::unique_ptr<verify::SafetyChecker> checker_;
  verify::SafetyReport last_safety_report_;

  net::PortId next_port_ = 1;
  std::uint32_t next_host_ = 1;

  /// Durability (persist/): the attached journal, and whether mutations are
  /// currently recorded (off during recovery replay and inside compound
  /// operations whose effects a single record already covers).
  std::unique_ptr<persist::Journal> journal_;
  bool journal_recording_ = false;
};

}  // namespace sdx::core
