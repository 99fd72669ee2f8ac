#pragma once

/// Shared helpers for the figure/table benchmarks: workload construction
/// per §6.1 and small formatting utilities. Each bench binary regenerates
/// one table or figure of the paper (see DESIGN.md §4) and prints the same
/// rows/series the paper reports.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "ixp/ixp_generator.hpp"
#include "sdx/compiler.hpp"
#include "sdx/vnh_allocator.hpp"
#include "telemetry/telemetry.hpp"

namespace sdx::bench {

/// Compile-pipeline width for the benchmarks: the SDX_BENCH_THREADS
/// environment variable when set (1 = serial, N = N threads), else 0 =
/// one thread per hardware thread. Output is identical at any width, so
/// serial-vs-parallel speedup is a one-liner:
///   SDX_BENCH_THREADS=1 bench_fig08_compile_time   # serial baseline
///   SDX_BENCH_THREADS=4 bench_fig08_compile_time   # 4-thread pipeline
inline unsigned bench_threads() {
  if (const char* env = std::getenv("SDX_BENCH_THREADS")) {
    return static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  return 0;
}

/// Smoke mode (SDX_BENCH_SMOKE=1): benches shrink their workloads and
/// iteration counts so CI can exercise every code path end-to-end in
/// seconds. The rows keep their shape (same columns, fewer/smaller
/// configurations) — useful as an artifact, not as a measurement.
inline bool smoke() {
  const char* env = std::getenv("SDX_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// A generated IXP with §6.1 policies installed. \p policy_prefix_count is
/// the paper's x knob — the number of randomly-selected prefixes that SDX
/// policies apply to (0 = clauses unrestricted).
inline ixp::GeneratedIxp make_workload(std::size_t participants,
                                       std::size_t prefixes,
                                       std::size_t policy_prefix_count = 0,
                                       std::uint64_t seed = 1) {
  ixp::GeneratorConfig cfg;
  cfg.participants = participants;
  cfg.prefixes = prefixes;
  cfg.seed = seed;
  auto ixp = ixp::generate_ixp(cfg);
  ixp::PolicySynthConfig pcfg;
  pcfg.seed = seed * 31 + 7;
  if (policy_prefix_count > 0) {
    pcfg.policy_prefixes =
        ixp::sample_policy_prefixes(ixp, policy_prefix_count, seed * 17 + 3);
  }
  ixp::synthesize_policies(ixp, pcfg);
  return ixp;
}

/// Prints a Prometheus exposition after the CSV rows, each line prefixed
/// with "# " so CSV consumers skip it, and additionally writes the raw
/// exposition to the file named by SDX_BENCH_METRICS when that variable is
/// set (for scraping or diffing runs). A bench that drives an SdxRuntime
/// passes its dump_metrics(), which sets the occupancy gauges (flow-table
/// rules, ARP bindings, RIB prefixes) before rendering; the others pass
/// their registry's render_prometheus(). The counter series are byte-stable
/// across thread widths, so two runs of the same bench at different
/// SDX_BENCH_THREADS settings must produce identical `_total` lines — a
/// free determinism check on every bench run.
inline void emit_metrics_snapshot(const std::string& dump) {
  std::printf("# --- metrics snapshot ---\n");
  std::istringstream is(dump);
  for (std::string line; std::getline(is, line);) {
    std::printf("# %s\n", line.c_str());
  }
  if (const char* path = std::getenv("SDX_BENCH_METRICS")) {
    std::ofstream out(path);
    out << dump;
  }
}

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace sdx::bench
