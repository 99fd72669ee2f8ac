#pragma once

/// \file diff_oracle.hpp
/// Differential oracles over the SDX control plane's standing equivalence
/// claims. A fuzzer (or a checked-in regression file) supplies an update
/// trace — a sequence of announce/withdraw/session_down operations over a
/// small deterministic exchange — and the oracle replays it through
/// independent execution paths that the codebase promises are equivalent:
///
///   (a) fast path   — a batched §4.3.2 fast_update pass over the trace
///                     must forward packets exactly like a full optimal
///                     recompilation of the same state;
///   (b) parallelism — compiling the final state at threads=1 and
///                     threads=N must produce byte-identical artifacts
///                     (CompiledSdx::fingerprint());
///   (c) durability  — journaling the trace, crashing, and recovering
///                     (checkpoint + WAL tail replay) must reproduce the
///                     never-crashed runtime, probe-for-probe and
///                     fingerprint-for-fingerprint;
///   (d) partitioning — compiling the final state through the partitioned
///                     per-participant pipeline (attribute-encoded VMACs,
///                     masked stage-1 rules) must forward packets exactly
///                     like the pairwise cross-product pipeline;
///   (e) classification — for every probe frame a sender's border router
///                     emits, the installed flow table's lane/tuple lookup
///                     must return the very rule the reference scan
///                     (dp::reference_lookup over rules()) picks.
///   (g) batching    — replaying the probe set through the burst path
///                     (send_batch → FlowTable::process_batch) must yield
///                     the same deliveries and the same match/miss
///                     accounting as per-packet send() over the identical
///                     installed table;
///   (f) safety      — the deployed final state must verify clean under
///                     the symbolic safety checker (no forwarding loop,
///                     isolation breach, or blackhole), and every
///                     counterexample the checker does emit must reproduce
///                     when its packet is replayed through the data plane.
///
/// A failing trace is shrunk by a delta-debugging minimizer and written as
/// a ready-to-commit regression input under fuzz/corpus/regressions/, so a
/// CI fuzzing find turns into a permanent test with no manual reduction.
///
/// Fault injection (OracleOptions::fault) plants a known divergence in one
/// side of each equivalence — the oracle's own unit tests use it to prove
/// the detectors actually detect and the minimizer actually shrinks.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace sdx::fuzz {

/// One trace operation. Raw participant/prefix/variant bytes are clamped
/// into the trace's universe at application time, so every byte string
/// decodes into a valid trace (structured fuzzing needs a total decoder).
struct TraceOp {
  enum class Kind : std::uint8_t {
    kAnnounce = 0,
    kWithdraw = 1,
    kSessionDown = 2,
    /// Append an outbound clause at `participant` steering DNS traffic for
    /// `prefix` toward the participant named by `variant` (cross-participant
    /// policy churn; the compiler's BGP filter decides whether it deploys).
    kSteer = 3,
  };
  Kind kind = Kind::kAnnounce;
  std::uint8_t participant = 0;  ///< clamped modulo participant count
  std::uint8_t prefix = 0;       ///< clamped modulo prefix count
  std::uint8_t variant = 0;      ///< AS-path variant for announcements

  friend bool operator==(const TraceOp&, const TraceOp&) = default;
};

/// A fuzzer-generated update trace over a deterministic base exchange.
struct Trace {
  std::uint8_t participants = 3;  ///< 2..5 physical participants
  std::uint8_t prefixes = 8;      ///< 2..16 announced prefixes
  std::vector<TraceOp> ops;

  std::string to_string() const;

  friend bool operator==(const Trace&, const Trace&) = default;
};

/// Total decoder: any byte string yields a valid trace (sizes clamped,
/// op count capped at kMaxTraceOps).
inline constexpr std::size_t kMaxTraceOps = 24;
Trace decode_trace(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> encode_trace(const Trace& trace);

struct OracleOptions {
  unsigned threads = 4;  ///< the N of the threads=1 vs threads=N oracle

  bool check_fast_path = true;
  bool check_threads = true;
  bool check_recovery = true;
  bool check_partitioned = true;
  bool check_classifier = true;
  bool check_batch = true;
  bool check_verifier = true;

  /// Planted divergences for the oracle's own tests.
  enum class Fault : std::uint8_t {
    kNone = 0,
    /// The fast-path side drops the trace's last announce — models a fast
    /// path that loses a dirty prefix.
    kSkipLastFastAnnounce,
    /// The newest checkpoint loses its last RIB route before recovery —
    /// models silent checkpoint corruption that still passes the CRC.
    kCorruptCheckpointRoute,
    /// The threads=N side compiles one extra announcement — models a
    /// nondeterministic parallel pipeline.
    kPerturbThreadedCompile,
    /// The partitioned side loses prefix 0 before compiling — models a
    /// partition pipeline that forwards differently from the pairwise one.
    kPerturbPartitionedCompile,
    /// The classified lookup structure is wiped after install while rule
    /// storage stays intact — models a classifier index that desynced from
    /// the table it is supposed to mirror.
    kDesyncClassifiedLookup,
    /// The burst lookup path consults a stale (empty) index snapshot while
    /// per-packet lookups stay correct — models a batched fast path that
    /// desynced from the table under it.
    kDesyncBatchLookup,
    /// A two-participant forwarding loop is planted behind the runtime's
    /// back (mutual steering whose prefix is withdrawn straight from the
    /// route server, leaving stale router FIBs) — the safety verifier must
    /// report a loop whose counterexample packet reproduces under replay.
    kPlantVerifierLoop,
  };
  Fault fault = Fault::kNone;

  /// Directory for scratch journals; empty = a fresh mkdtemp under /tmp.
  std::string scratch_dir;
};

struct OracleVerdict {
  bool ok = true;
  std::string oracle;  ///< "fast-path" | "threads" | "recovery" |
                       ///< "partitioned" | "classifier" | "batch" | "verify"
  std::string detail;  ///< first observed divergence, human-readable
};

class DifferentialOracle {
 public:
  explicit DifferentialOracle(OracleOptions options = {});

  /// Replays \p trace through every enabled equivalence; returns the first
  /// divergence found (ok=true when all hold).
  OracleVerdict check(const Trace& trace) const;

  /// Delta-debugging reduction of a failing trace: repeatedly removes op
  /// windows while check() still fails. Returns the smallest failing trace
  /// found (the input itself when it does not fail).
  Trace minimize(const Trace& trace) const;

  /// Serializes \p trace under \p dir as `trace-<crc32c>.bin` — the
  /// ready-to-commit regression input format replayed by
  /// tests/test_diff_oracle.cpp and the fuzz_diff_oracle corpus. Returns
  /// the file path.
  static std::string write_regression(const std::string& dir,
                                      const Trace& trace);
  static Trace load_regression(const std::string& path);

 private:
  OracleOptions options_;
};

}  // namespace sdx::fuzz
