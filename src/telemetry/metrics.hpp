#pragma once

/// \file metrics.hpp
/// The SDX measurement plane: a thread-safe metrics registry with the three
/// classic instrument kinds — monotonic counters, gauges, and fixed-bucket
/// histograms — plus Prometheus-style text exposition and a JSON snapshot.
///
/// Design constraints:
///
///   * fast-path safe: updating an instrument is a relaxed atomic op (or a
///     short CAS loop for doubles), never a lock — instruments may be
///     hammered from inside the PR-1 thread pool and must be TSan-clean;
///   * handles are stable: the registry hands out references that remain
///     valid for its lifetime (instruments live behind unique_ptr), so hot
///     paths cache `Counter&` once and never re-probe the registry;
///   * get-or-create: registering the same (name, labels) twice returns the
///     same instrument, so instrumentation points need no global setup
///     phase;
///   * deterministic exposition: families and label sets render in sorted
///     order, counters print as integers — two runs that performed the same
///     logical work produce byte-identical counter series regardless of
///     thread count (the contract tests/test_runtime_telemetry.cpp holds
///     the whole stack to).
///
/// Naming follows the Prometheus conventions the exposition format implies:
/// counters end in `_total`, timings are `_seconds` histograms.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sdx::telemetry {

/// Label set of one instrument, e.g. {{"stage", "compose"}}. Order given at
/// registration is normalized (sorted by key) so equal sets are equal keys.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic counter. inc() is a relaxed fetch_add — safe from any thread.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Gauge: a value that goes both ways (table occupancy, RIB size).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double d) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + d,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: per-bucket atomic counts plus sum. Bounds are
/// upper bucket edges (ascending); an implicit +Inf bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative counts per bucket, ending with the +Inf bucket (== count()).
  std::vector<std::uint64_t> cumulative() const;

 private:
  std::vector<double> bounds_;
  /// Non-cumulative per-bucket hits; bounds_.size() + 1 slots (+Inf last).
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// Power-of-ten latency buckets (1 µs … 10 s) — the default for the
/// `_seconds` histograms across the stack.
std::vector<double> time_buckets();

/// Steady-clock seconds elapsed since \p t0.
inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

class MetricRegistry {
 public:
  /// Get-or-create. Throws std::invalid_argument when \p name is already
  /// registered as a different kind (or, for histograms, with different
  /// bounds). \p help is kept from the first registration.
  Counter& counter(std::string_view name, std::string_view help = "",
                   Labels labels = {});
  Gauge& gauge(std::string_view name, std::string_view help = "",
               Labels labels = {});
  Histogram& histogram(std::string_view name, std::string_view help = "",
                       std::vector<double> bounds = {}, Labels labels = {});

  /// Prometheus text exposition (version 0.0.4): `# HELP`/`# TYPE` per
  /// family, samples sorted by (name, labels). Counters print as integers.
  std::string render_prometheus() const;

  /// One JSON object: {"counters": [...], "gauges": [...],
  /// "histograms": [...]}, same deterministic order as the text format.
  std::string render_json() const;

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };

  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    std::vector<double> bounds;  ///< histogram families only
    /// Keyed by the rendered label string, so iteration is sorted.
    std::map<std::string, Instrument> instruments;
  };

  Family& family(std::string_view name, std::string_view help, Kind kind);
  Instrument& instrument(Family& fam, Labels labels);

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;
};

}  // namespace sdx::telemetry
