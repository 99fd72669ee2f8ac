#include "ingest/pipeline.hpp"

#include <chrono>

namespace sdx::ingest {

IngestPipeline::IngestPipeline(core::SdxRuntime& rt, Options options)
    : rt_(rt), options_(options), queue_(options.queue) {
  auto& m = rt_.telemetry().metrics;
  sessions_ = &m.gauge("sdx_ingest_sessions",
                       "Established ingest BGP sessions");
  queue_depth_ = &m.gauge("sdx_ingest_queue_depth",
                          "Updates waiting in the ingest spill queue");
  bytes_total_ = &m.counter("sdx_ingest_bytes_total",
                            "Bytes received by the ingest reactor");
  updates_total_ = &m.counter("sdx_ingest_updates_total",
                              "UPDATEs decoded from ingest sessions");
  applied_ = &m.counter("sdx_ingest_applied_total",
                        "Ingested updates applied through the fast path");
  sheds_ = &m.counter("sdx_ingest_sheds_total",
                      "Read-interest sheds caused by queue backpressure");
  dropped_ = &m.counter("sdx_ingest_dropped_total",
                        "Updates dropped by the ingest path (held at 0)");
  reconnects_ = &m.counter("sdx_ingest_reconnects_total",
                           "BGP sessions automatically re-established");
  open_rejected_ = &m.counter("sdx_ingest_open_rejected_total",
                              "OPENs refused (no matching participant)");
  install_latency_ = &m.histogram(
      "sdx_ingest_install_latency_seconds",
      "Latency from ingest enqueue to fast-path install",
      telemetry::time_buckets());

  // Drain() (control thread) fires this; the actual re-arm must happen on
  // the reactor thread, so it is posted.
  queue_.set_space_callback([this](core::ParticipantId peer) {
    reactor_.post([this, peer] {
      if (listener_) listener_->resume_peer(peer);
    });
  });
}

IngestPipeline::~IngestPipeline() { stop(); }

std::uint16_t IngestPipeline::start(std::uint16_t port) {
  if (thread_.joinable()) return port_;
  by_asn_.clear();
  for (const auto& p : rt_.participants()) by_asn_.emplace(p.asn, p.id);
  listener_ = std::make_unique<BgpListener>(
      reactor_, queue_, options_.listener,
      [this](const bgp::OpenMessage& open)
          -> std::optional<core::ParticipantId> {
        auto it = by_asn_.find(open.my_as);
        if (it == by_asn_.end()) return std::nullopt;
        return it->second;
      });
  port_ = listener_->listen(port);
  reactor_.restart();
  thread_ = std::thread([this] { reactor_.run(); });
  return port_;
}

void IngestPipeline::stop() {
  if (!thread_.joinable()) return;
  reactor_.stop();
  thread_.join();
  listener_->close_all();
  refresh_metrics();
}

void IngestPipeline::apply(IngestedUpdate& u) {
  for (const auto prefix : u.update.withdrawn) {
    rt_.withdraw(u.participant, prefix);
  }
  if (u.update.attrs) {
    for (const auto prefix : u.update.nlri) {
      std::optional<net::AsPath> path;
      if (!u.update.attrs->as_path.empty()) path = u.update.attrs->as_path;
      rt_.announce(u.participant, prefix, std::move(path),
                   u.update.attrs->communities);
    }
  }
}

std::size_t IngestPipeline::drain() {
  batch_.clear();
  queue_.drain(options_.drain_batch, batch_);
  if (!batch_.empty()) {
    for (auto& u : batch_) apply(u);
    rt_.flush();
    const auto now = std::chrono::steady_clock::now();
    for (const auto& u : batch_) {
      install_latency_->observe(
          std::chrono::duration<double>(now - u.enqueued).count());
    }
    applied_->inc(batch_.size());
    applied_total_ += batch_.size();
  }
  refresh_metrics();
  return batch_.size();
}

std::size_t IngestPipeline::drain_until_idle() {
  std::size_t total = 0;
  for (;;) {
    const auto n = drain();
    if (n == 0) return total;
    total += n;
  }
}

void IngestPipeline::refresh_metrics() {
  queue_depth_->set(static_cast<double>(queue_.depth()));
  if (!listener_) return;
  sessions_->set(static_cast<double>(listener_->sessions()));
  // Counters are monotonic: publish the growth since the last sync.
  const auto sync = [](telemetry::Counter* c, std::uint64_t now_v,
                       std::uint64_t& last) {
    if (now_v > last) {
      c->inc(now_v - last);
      last = now_v;
    }
  };
  sync(bytes_total_, listener_->bytes_received(), synced_bytes_);
  sync(updates_total_, listener_->updates_received(), synced_updates_);
  sync(sheds_, queue_.shed_events(), synced_sheds_);
  sync(reconnects_, listener_->reconnects(), synced_reconnects_);
  sync(open_rejected_, listener_->open_rejected(), synced_rejected_);
  dropped_->inc(queue_.drops());  // contractually 0
}

}  // namespace sdx::ingest
