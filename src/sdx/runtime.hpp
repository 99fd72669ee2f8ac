#pragma once

/// \file runtime.hpp
/// The SDX controller (paper Figure 3) behind one facade. SdxRuntime keeps
/// the topology, the policies, the route server's BGP entry points, the
/// durability code and the dirty queue, and composes three update stages,
/// each the one owner of its state, format and metrics:
///   - InstallStage (install_stage.hpp): flow-table bands with their
///     priorities and cookies, ARP, the binding table, remote bindings;
///   - AdvertiseStage (advertise_stage.hpp): the border routers, their
///     shared FibIndex, wire distribution and its counters;
///   - VerifyStage (verify_stage.hpp): the safety checker and its report.
///
/// Lifecycle: add participants and set policies; announce() routes (until
/// install() only the route server changes); install() compiles, deploys
/// and advertises everything. After install() every announce()/withdraw()
/// enters the dirty queue with the receivers whose best route it changed,
/// and flush() — explicit, size- or clock-triggered; at first every update
/// flushes at once — runs the queue through the three stages as one batch:
/// the §4.3.2 fast path. There is one full deploy, install_compiled():
/// install(), background_recompile() and a warm recover() all end in it,
/// and differ only in whether the compiled state is a live compile or a
/// decoded checkpoint. A policy change after install() redeploys at once,
/// so no prefix forwards under a policy that is no longer set. send()
/// pushes packets through the emulated data plane.

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bgp/route_server.hpp"
#include "bgp/rpki.hpp"
#include "dataplane/fabric.hpp"
#include "persist/journal.hpp"
#include "sdx/advertise_stage.hpp"
#include "sdx/bgp_frontend.hpp"
#include "sdx/compiler.hpp"
#include "sdx/incremental.hpp"
#include "sdx/install_stage.hpp"
#include "sdx/participant.hpp"
#include "sdx/verify_stage.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/safety.hpp"

namespace sdx::core {

class SdxRuntime {
 public:
  explicit SdxRuntime(bgp::DecisionConfig decision = {},
                      CompileOptions options = {});

  // --- topology -----------------------------------------------------------

  /// Adds a participant with \p port_count attachment ports (ids, MACs and
  /// IPs assigned automatically) and returns its id; the participant table
  /// may reallocate as members join, so use participant(id) for access.
  ParticipantId add_participant(const std::string& name, net::Asn asn,
                                std::size_t port_count = 1);

  /// Adds a remote participant (no physical presence, §3.1): it can install
  /// rewrite policies and originate routes but sends no traffic.
  ParticipantId add_remote_participant(const std::string& name, net::Asn asn) {
    return add(name, asn, 0);
  }

  Participant& participant(ParticipantId id);
  const Participant& participant(ParticipantId id) const;
  Participant* find(const std::string& name);
  const std::vector<Participant>& participants() const {
    return participants_;
  }
  const PortMap& ports() const { return port_map_; }

  // --- policies --------------------------------------------------------------
  //
  // After install() a change deploys before the call returns: a partitioned
  // outbound change swaps its partition in place and rebinds every
  // fast-bound prefix; every other change runs background_recompile(). A
  // rejected change (std::invalid_argument, std::out_of_range) leaves the
  // policy as it was.

  void set_outbound(ParticipantId id, std::vector<OutboundClause> clauses);
  void set_inbound(ParticipantId id, std::vector<InboundClause> clauses);

  // --- BGP ------------------------------------------------------------------

  /// Participant \p from announces \p prefix. The AS path defaults to the
  /// participant's own ASN; communities drive the route server's export
  /// policy (RFC 1997 NO_EXPORT/NO_ADVERTISE, "0:<asn>" per-peer blocking).
  /// After install() the prefix enters the dirty queue. Both calls throw
  /// std::out_of_range for an unknown participant, and a rejected call
  /// leaves the state and the journal untouched.
  void announce(ParticipantId from, Ipv4Prefix prefix,
                std::optional<net::AsPath> path = std::nullopt,
                std::vector<bgp::Community> communities = {});
  void withdraw(ParticipantId from, Ipv4Prefix prefix);

  /// A participant's BGP session drops: every route it advertised is
  /// withdrawn and its policies are removed; its ports stay, and
  /// re-announcing brings it back. After install() the withdrawals join the
  /// dirty queue and the recompile that follows absorbs the whole queue (no
  /// fast-path pass runs for them). Returns the number of prefixes
  /// withdrawn.
  std::size_t session_down(ParticipantId id);

  bgp::RouteServer& route_server() { return server_; }
  const bgp::RouteServer& route_server() const { return server_; }

  /// Switches re-advertisement from in-process delivery to the wire: every
  /// UPDATE toward a border router travels through a pair of RFC 4271
  /// sessions (BgpFrontend). Call before install(). Behaviour is identical
  /// either way (property-tested).
  void use_wire_distribution() { advertise_.use_wire_distribution(); }
  bool wire_distribution() const { return frontend() != nullptr; }
  const BgpFrontend* frontend() const { return advertise_.frontend(); }

  /// Opt-in: a wire session dropped by advance_clock() redials with capped
  /// exponential backoff (the participant still goes through session_down()
  /// at drop time), counted in `sdx_ingest_reconnects_total`. Throws
  /// std::logic_error without wire distribution.
  void enable_frontend_auto_reconnect(
      BgpFrontend::ReconnectPolicy policy = {}) {
    advertise_.enable_auto_reconnect(policy);
  }

  /// Advances the wire sessions' hold/keepalive clocks and ages any pending
  /// update batch (BatchOptions::max_delay_seconds). A dropped session is
  /// counted (`sdx_frontend_session_drops_total`) and run through
  /// session_down(), and the dropped ids are returned.
  std::vector<ParticipantId> advance_clock(double seconds);

  /// RPKI origin validation (paper §3.2: the SDX verifies prefix ownership
  /// before originating a route for a remote participant).
  enum class RpkiMode {
    kOff,         ///< no validation (default)
    kRemoteOnly,  ///< SDX-originated (remote-participant) routes must be Valid
    kStrict,      ///< additionally reject Invalid routes from anyone
  };
  void enable_rpki(bgp::RoaTable table,
                   RpkiMode mode = RpkiMode::kRemoteOnly) {
    roas_ = std::move(table);
    rpki_mode_ = mode;
  }
  const bgp::RoaTable& roa_table() const { return roas_; }

  // --- compilation & deployment --------------------------------------------

  /// Compiles and deploys everything; returns the compile result.
  const CompiledSdx& install();

  bool installed() const { return engine_ && engine_->has_compiled(); }
  const CompiledSdx& compiled() const { return engine_->current(); }

  /// The background (optimal) recompile, on the control thread: a full
  /// deploy of the live RIB and policies that absorbs the dirty queue.
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

  /// Sets the flush policy for updates after install(). The runtime starts
  /// at {1, 0}: each update flushes at once, as a batch of one. A wider
  /// policy makes a burst one batched pass, visible only after the flush.
  /// Flushes at once when the queue already meets the new max_pending.
  void enable_batching(BatchOptions options);
  void enable_batching() { enable_batching(BatchOptions{}); }

  /// Distinct prefixes waiting for the next flush.
  std::size_t pending_updates() const { return dirty_order_.size(); }

  /// Runs the dirty queue through the install (InstallStage::flush()),
  /// advertise and verify stages as one batch: a prefix whose binding
  /// changed is re-advertised to every router, any other to the receivers
  /// whose best route changed since the last flush. Returns the number of
  /// prefixes flushed (0 when idle).
  std::size_t flush();

  struct UpdateReport {
    Ipv4Prefix prefix;
    /// Rules of the binding this prefix's flush made for it (0 when it
    /// kept or joined one).
    std::size_t additional_rules = 0;
    double fast_seconds = 0;
  };

  /// The per-update fast-path log: a ring of the most recent
  /// kUpdateLogCapacity reports, cleared by every full deploy.
  static constexpr std::size_t kUpdateLogCapacity = 4096;
  const std::deque<UpdateReport>& update_log() const { return update_log_; }
  void clear_update_log() { update_log_.clear(); }

  // --- durability & crash recovery (persist/) -------------------------------

  /// Attaches a journal at \p dir (created if missing): from here on every
  /// externally-driven mutation appends a WAL record. A runtime that
  /// already has state writes an initial checkpoint. Throws
  /// std::logic_error when a journal is attached, or when \p dir holds
  /// journal state (use recover() for that).
  void attach_journal(const std::string& dir,
                      persist::Journal::Options options = {});

  /// True while mutations are being recorded to an attached journal.
  bool journaling() const { return journal_ != nullptr && journal_recording_; }
  const persist::Journal* journal() const { return journal_.get(); }

  /// Flushes any pending batch, then writes the full runtime state (RIB,
  /// participants, policies, VNH allocator, compiled tables + fingerprint,
  /// and the install stage's residue) as an atomic checkpoint, rotating the
  /// WAL to a segment anchored at its LSN. Returns the checkpoint LSN.
  /// Throws std::logic_error without an attached journal.
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
  /// newest valid checkpoint, replays the WAL tail as one batched flush,
  /// and resumes recording. When the checkpointed fingerprint matches, the
  /// restart is *warm*: the compiled state is adopted without recompiling
  /// and every persisted binding reused, so ARP caches stay valid. Throws
  /// std::logic_error on a non-fresh runtime, std::runtime_error when the
  /// directory holds neither a checkpoint nor a complete (genesis) WAL.
  RecoveryReport recover(const std::string& dir,
                         persist::Journal::Options options = {});

  // --- telemetry ------------------------------------------------------------

  /// The runtime's measurement plane: every layer and stage reports here,
  /// and every family the runtime owns is registered at construction.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

  /// Prometheus exposition of every metric, occupancy gauges refreshed
  /// first; counter series are byte-stable across compile thread counts.
  std::string dump_metrics();

  /// Chrome trace-event JSON of every recorded span (ui.perfetto.dev).
  std::string dump_trace() const {
    return telemetry_.tracer.render_chrome_json();
  }

  // --- data plane -----------------------------------------------------------

  dp::Fabric& fabric() { return fabric_; }
  const dp::Fabric& fabric() const { return fabric_; }
  dp::BorderRouter& router(ParticipantId id, std::size_t port_index = 0) {
    return advertise_.router(id, port_index);
  }

  /// The receiver-independent (VNH, VMAC) binding \p prefix holds: a
  /// fast-path binding or its pairwise compiled group's. Not the next hop
  /// of a remote participant's announcements (remote_binding()), nor a
  /// partitioned deployment's per-receiver one.
  std::optional<VnhBinding> current_binding(Ipv4Prefix prefix) const {
    return installed() ? install_.binding_of(prefix) : std::nullopt;
  }

  /// The pairwise compiled FEC group whose binding \p prefix holds (a
  /// flush may move it to another group, or onto a fast-path binding).
  std::optional<std::uint32_t> current_group(Ipv4Prefix prefix) const {
    return installed() ? install_.group_of(prefix) : std::nullopt;
  }

  /// The next-hop binding assigned to a remote participant's own
  /// announcements (std::nullopt for physical participants).
  std::optional<VnhBinding> remote_binding(ParticipantId advertiser) const {
    return install_.remote_binding(advertiser);
  }

  /// Sends an IP payload from a participant's border router through the
  /// fabric; returns the deliveries at egress ports.
  std::vector<dp::Fabric::Delivery> send(ParticipantId from,
                                         net::PacketHeader payload,
                                         std::size_t port_index = 0) {
    return fabric_.send(router(from, port_index), std::move(payload));
  }

  /// Burst counterpart of send() through the fabric's batched
  /// classification path; deliveries equal a loop of send().
  dp::Fabric::BatchDeliveries send_batch(
      ParticipantId from, std::span<const net::PacketHeader> payloads,
      std::size_t port_index = 0) {
    return fabric_.send_batch(router(from, port_index), payloads);
  }

  // --- policy safety verification (verify/) ---------------------------------

  /// The safety checker's window onto the live deployment (flow table,
  /// routers, ARP, route server) behind closures that borrow the runtime.
  /// Throws std::logic_error before install().
  verify::DeploymentView deployment_view() const;

  /// Turns on the verify stage (verify_stage.hpp): a full check after every
  /// deploy, an incremental one after every flush and partition swap.
  /// Results land in last_safety_report() and the `sdx_verify_*` families.
  /// Runs immediately when already installed.
  void enable_verification() {
    verify_.enable();
    run_safety_stage(nullptr);
  }
  bool verification_enabled() const { return verify_.enabled(); }

  /// One-shot full safety check (graph counterexamples plus the local-rule
  /// audit), the verify stage's full check with a fresh checker: no stage
  /// state, telemetry, table, rule, router or ARP counter is touched.
  /// Throws std::logic_error before install().
  verify::SafetyReport verify_now() const;

  /// The verify stage's most recent report (empty before the first).
  const verify::SafetyReport& last_safety_report() const {
    return verify_.last();
  }

 private:
  /// The one full deploy: a live compile, or (\p restored) the checkpoint's
  /// compiled state, through the install stage; the dirty queue and update
  /// log are absorbed, every prefix is re-advertised, and the full safety
  /// stage runs.
  const CompiledSdx& install_compiled(
      const persist::CheckpointState* restored = nullptr);
  /// Registers a participant with \p port_count ports (none: remote).
  ParticipantId add(const std::string& name, net::Asn asn,
                    std::size_t port_count);
  /// Partitioned outbound change after install(): recompiles \p id's
  /// partition, swaps it in place, re-advertises the affected prefixes and
  /// re-flushes every fast-bound prefix.
  void recompile_participant_partition(ParticipantId id);
  /// Queues \p prefix (once, in arrival order) and returns its receiver
  /// mask: one bit per participant slot.
  std::uint64_t* mark_dirty(Ipv4Prefix prefix);
  bool queue_full() const {
    return batch_options_.max_pending != 0 &&
           dirty_order_.size() >= batch_options_.max_pending;
  }
  /// Empties the dirty queue: its prefixes in arrival order and their
  /// receiver masks.
  std::pair<std::vector<Ipv4Prefix>, std::vector<std::uint64_t>> take();
  /// Post-install update routing: the dirty queue with the receivers in
  /// \p changes, flushed when it reaches the policy's max_pending.
  void note_post_install_update(
      Ipv4Prefix prefix,
      const std::vector<bgp::RouteServer::BestChange>& changes);
  /// Runs the enabled verify stage: full when \p dirty is null, else an
  /// incremental re-check of exactly those prefixes.
  void run_safety_stage(const std::vector<Ipv4Prefix>* dirty) {
    if (!verify_.enabled() || !installed()) return;
    verify_.run(deployment_view(), compiled(), install_.diverged(), dirty);
  }
  void record(const persist::WalRecord& rec) {
    if (journal_recording_) journal_->append(rec);
  }
  /// Re-applies a checkpoint into this (fresh) runtime; sets report.warm
  /// when the persisted tables are adopted.
  void restore_checkpoint(const persist::CheckpointState& st,
                          RecoveryReport& report);
  /// Re-applies one WAL record (recording suppressed by the caller).
  void replay_record(const persist::WalRecord& rec);

  /// Declared first so every layer holding metric handles (route server,
  /// stages, cached counters below) is destroyed before it.
  telemetry::Telemetry telemetry_;
  /// Cached handles of the runtime's own families, registered in the
  /// constructor (registry handles are stable).
  telemetry::Counter* fast_updates_ = nullptr;
  telemetry::Histogram* fast_seconds_ = nullptr;
  telemetry::Counter* batch_flushes_ = nullptr;
  telemetry::Counter* batch_updates_ = nullptr;
  telemetry::Histogram* batch_size_ = nullptr;
  telemetry::Counter* partitions_recompiled_ = nullptr;
  telemetry::Counter* recoveries_warm_ = nullptr;
  telemetry::Counter* recoveries_cold_ = nullptr;
  telemetry::Counter* replayed_records_ = nullptr;
  telemetry::Histogram* recovery_seconds_ = nullptr;
  /// Handed to every journal this runtime attaches or recovers.
  persist::Journal::Hooks journal_hooks_;

  bgp::RouteServer server_;
  CompileOptions options_;
  bgp::RoaTable roas_;
  RpkiMode rpki_mode_ = RpkiMode::kOff;
  std::vector<Participant> participants_;
  PortMap port_map_;
  VnhAllocator vnh_;
  dp::Fabric fabric_;
  InstallStage install_;
  AdvertiseStage advertise_;
  VerifyStage verify_;
  std::unique_ptr<IncrementalEngine> engine_;
  std::deque<UpdateReport> update_log_;

  // The dirty queue. The starting policy flushes every update on arrival:
  // an inline update is a flush of one.
  BatchOptions batch_options_{/*max_pending=*/1, /*max_delay_seconds=*/0};
  std::vector<Ipv4Prefix> dirty_order_;  ///< arrival order, deduplicated
  std::unordered_map<Ipv4Prefix, std::size_t> dirty_index_;  ///< position
  /// Per dirty prefix (in dirty_order_ order), receiver_words() words: the
  /// participant slots whose best route changed since the last flush.
  std::vector<std::uint64_t> dirty_receivers_;
  double pending_clock_ = 0;  ///< advance_clock() time since first dirty

  net::PortId next_port_ = 1;
  std::uint32_t next_host_ = 1;

  /// Durability (persist/): the attached journal, and whether mutations are
  /// currently recorded (off during recovery replay and inside compound
  /// operations whose effects a single record already covers).
  std::unique_ptr<persist::Journal> journal_;
  bool journal_recording_ = false;
};

}  // namespace sdx::core
