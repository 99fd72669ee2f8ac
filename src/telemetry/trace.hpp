#pragma once

/// \file trace.hpp
/// Scoped span tracing for the SDX pipelines: named, nested, timed spans
/// recorded against one steady-clock epoch and serialized as Chrome
/// trace-event JSON ("X" complete events), loadable in about:tracing or
/// https://ui.perfetto.dev. A span is an RAII value — construct to open,
/// destroy (or finish()) to record — and a null tracer makes it a no-op,
/// so instrumentation points need no `if (telemetry)` guards.
///
/// Nesting is positional, as in the Chrome format itself: spans on the same
/// thread whose [start, start+dur] intervals contain one another render as
/// parent/child. The compiler opens one "compile" span and a child span per
/// pipeline stage on the calling thread; the parallel workers inside a
/// stage are invisible here (the registry's histograms price them).
///
/// The tracer is bounded: it keeps the newest kCapacity completed spans and
/// evicts the oldest beyond that, counting each eviction, so a long-lived
/// runtime's trace memory stays flat.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace sdx::telemetry {

class Counter;
class SpanTracer;

/// One open span. Records itself into the tracer on destruction (or the
/// first finish() call). Move-only; a default-constructed or null-tracer
/// span is inert.
class Span {
 public:
  Span() = default;
  Span(SpanTracer* tracer, std::string name);
  Span(Span&& other) noexcept;
  Span& operator=(Span&& other) noexcept;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { finish(); }

  /// Ends the span now (idempotent).
  void finish();

 private:
  SpanTracer* tracer_ = nullptr;
  std::string name_;
  std::chrono::steady_clock::time_point start_{};
};

class SpanTracer {
 public:
  /// Completed spans kept; older ones are evicted, oldest first.
  static constexpr std::size_t kCapacity = 65536;

  SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

  /// Opens a span; it records when the returned value dies.
  Span span(std::string name) { return Span(this, std::move(name)); }

  struct Record {
    std::string name;
    double start_us = 0;  ///< microseconds since the tracer's epoch
    double dur_us = 0;
    std::uint32_t tid = 0;  ///< small per-thread id, stable within a tracer

    double end_us() const { return start_us + dur_us; }
    /// Positional nesting test: true when \p inner lies inside this span on
    /// the same thread (what the Chrome viewer renders as a child row).
    bool encloses(const Record& inner) const {
      return tid == inner.tid && start_us <= inner.start_us &&
             inner.end_us() <= end_us();
    }
  };

  /// The kept spans, oldest first, in completion order.
  std::vector<Record> records() const;

  /// Chrome trace-event JSON: {"traceEvents": [{"ph":"X", ...}, ...]}.
  std::string render_chrome_json() const;

  /// Spans evicted to hold the bound since construction or the last clear().
  std::uint64_t dropped() const;

  /// Also counts every eviction into \p counter (nullptr detaches); a
  /// clear() leaves the counter alone.
  void set_drop_counter(Counter* counter);

  /// Forgets every kept span and resets dropped().
  void clear();

 private:
  friend class Span;
  void record(const std::string& name,
              std::chrono::steady_clock::time_point start,
              std::chrono::steady_clock::time_point end);

  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Record> records_;
  std::uint64_t dropped_ = 0;
  Counter* drop_counter_ = nullptr;
  std::unordered_map<std::thread::id, std::uint32_t> tids_;
};

}  // namespace sdx::telemetry
