#pragma once

/// \file pipeline.hpp
/// The assembled ingest subsystem: reactor + TCP listener + spill queue
/// wired into an SdxRuntime's batched fast path, with the threading model
/// the design demands —
///
///   * the reactor thread owns every socket (accept, framing, FSMs,
///     backpressure shedding);
///   * the control thread calls drain(): DRR-drains the queue, applies
///     announce()/withdraw() through the runtime, flush()es the batch and
///     observes the ingest→install latency of every update it landed;
///   * MRT replay threads push into the same queue via MrtReplaySource.
///
/// Backpressure closes the loop across threads: the queue's space
/// callback (fired on the control thread inside drain()) posts a
/// resume_peer() to the reactor, which re-arms EPOLLIN for the shed
/// connections. Nothing is dropped anywhere on the path; CI asserts
/// `sdx_ingest_dropped_total 0`.
///
/// Telemetry (registered on the runtime's registry, exported with all
/// other series by dump_metrics): sdx_ingest_sessions,
/// sdx_ingest_bytes_total, sdx_ingest_updates_total,
/// sdx_ingest_applied_total, sdx_ingest_queue_depth,
/// sdx_ingest_sheds_total, sdx_ingest_dropped_total,
/// sdx_ingest_reconnects_total, sdx_ingest_open_rejected_total and the
/// sdx_ingest_install_latency_seconds histogram.

#include <cstdint>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ingest/listener.hpp"
#include "ingest/reactor.hpp"
#include "ingest/spill_queue.hpp"
#include "sdx/runtime.hpp"

namespace sdx::ingest {

class IngestPipeline {
 public:
  struct Options {
    BgpListener::Options listener;
    SpillQueue::Options queue;
    /// Max updates one drain() pass moves into a batch.
    std::size_t drain_batch = 256;
  };

  /// Binds to \p rt (which must outlive the pipeline) and registers the
  /// ingest telemetry on its registry. Peers are resolved by ASN against
  /// the participants registered at start() time.
  explicit IngestPipeline(core::SdxRuntime& rt)
      : IngestPipeline(rt, Options{}) {}
  IngestPipeline(core::SdxRuntime& rt, Options options);
  ~IngestPipeline();

  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  /// Snapshots the runtime's participant table (ASN → participant),
  /// binds the listener on 127.0.0.1:\p port (0 = ephemeral) and starts
  /// the reactor thread. Returns the bound port.
  std::uint16_t start(std::uint16_t port = 0);

  /// Stops the reactor thread and tears down every session.
  void stop();
  bool running() const { return thread_.joinable(); }

  /// Control thread: one DRR drain of up to drain_batch updates, applied
  /// through the runtime (announce/withdraw, then one flush).
  /// Returns the number of updates applied; 0 means the queue was empty.
  std::size_t drain();

  /// Drains until a pass comes up empty. Returns total updates applied.
  std::size_t drain_until_idle();

  /// Re-syncs the listener/queue statistics into the telemetry series
  /// (drain() does this automatically; call before dump_metrics() when
  /// idle).
  void refresh_metrics();

  std::uint64_t applied() const { return applied_total_; }

  SpillQueue& queue() { return queue_; }
  BgpListener& listener() { return *listener_; }
  Reactor& reactor() { return reactor_; }
  std::uint16_t port() const { return port_; }

 private:
  void apply(IngestedUpdate& update);

  core::SdxRuntime& rt_;
  Options options_;
  Reactor reactor_;
  SpillQueue queue_;
  std::unique_ptr<BgpListener> listener_;
  std::unordered_map<net::Asn, core::ParticipantId> by_asn_;
  std::thread thread_;
  std::uint16_t port_ = 0;
  std::vector<IngestedUpdate> batch_;  ///< drain() scratch
  std::uint64_t applied_total_ = 0;

  // Cached instrument handles (registry handles are stable) and the
  // last-synced listener readings (counters only move forward).
  telemetry::Gauge* sessions_ = nullptr;
  telemetry::Gauge* queue_depth_ = nullptr;
  telemetry::Counter* bytes_total_ = nullptr;
  telemetry::Counter* updates_total_ = nullptr;
  telemetry::Counter* applied_ = nullptr;
  telemetry::Counter* sheds_ = nullptr;
  telemetry::Counter* dropped_ = nullptr;
  telemetry::Counter* reconnects_ = nullptr;
  telemetry::Counter* open_rejected_ = nullptr;
  telemetry::Histogram* install_latency_ = nullptr;
  std::uint64_t synced_bytes_ = 0;
  std::uint64_t synced_updates_ = 0;
  std::uint64_t synced_sheds_ = 0;
  std::uint64_t synced_reconnects_ = 0;
  std::uint64_t synced_rejected_ = 0;
};

}  // namespace sdx::ingest
