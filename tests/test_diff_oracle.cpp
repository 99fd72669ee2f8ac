/// The differential oracle's own tests: fault injection plants a known
/// divergence in one side of each equivalence and the oracle must (a)
/// detect it, (b) blame the right oracle, and (c) shrink the failing trace
/// to at most three ops with the delta-debugging minimizer. Clean traces —
/// including every committed regression input — must pass every
/// equivalence (fast path, threads, recovery, partitioned, classifier,
/// safety verification).

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "fuzz/corpus.hpp"
#include "fuzz/diff_oracle.hpp"

namespace sdx::fuzz {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/sdx_oracle_XXXXXX";
    path_ = ::mkdtemp(tmpl);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

Trace small_trace() {
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  // The last op is an announce that steals best-path for prefix 0 (shorter
  // AS path from a different participant), so dropping it on the fast side
  // observably changes forwarding.
  t.ops = {
      TraceOp{TraceOp::Kind::kAnnounce, 2, 1, 2},
      TraceOp{TraceOp::Kind::kWithdraw, 0, 3, 0},
      TraceOp{TraceOp::Kind::kAnnounce, 1, 0, 0},
  };
  return t;
}

TEST(DiffOracle, CleanTracePassesAllEquivalences) {
  DifferentialOracle oracle;
  const auto verdict = oracle.check(small_trace());
  EXPECT_TRUE(verdict.ok) << verdict.oracle << ": " << verdict.detail;
}

TEST(DiffOracle, SeedCorpusPassesAllEquivalences) {
  DifferentialOracle oracle;
  for (const auto& bytes : seed_corpus("diff_oracle")) {
    const auto trace = decode_trace(bytes);
    const auto verdict = oracle.check(trace);
    EXPECT_TRUE(verdict.ok) << trace.to_string() << "\n"
                            << verdict.oracle << ": " << verdict.detail;
  }
}

TEST(DiffOracle, DetectsFastPathSkippingADirtyPrefix) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kSkipLastFastAnnounce;
  DifferentialOracle oracle(options);

  const auto verdict = oracle.check(small_trace());
  ASSERT_FALSE(verdict.ok) << "planted fast-path divergence went undetected";
  EXPECT_EQ(verdict.oracle, "fast-path");
  EXPECT_FALSE(verdict.detail.empty());

  const auto minimized = oracle.minimize(small_trace());
  EXPECT_LE(minimized.ops.size(), 3u);
  EXPECT_FALSE(oracle.check(minimized).ok)
      << "minimized trace must still fail";
}

TEST(DiffOracle, DetectsCorruptedCheckpointOnRecovery) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kCorruptCheckpointRoute;
  DifferentialOracle oracle(options);

  // A zero-op trace: recovery diverges on the base RIB alone, so no tail
  // op can re-announce (and thereby mask) the corrupted route.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  const auto verdict = oracle.check(t);
  ASSERT_FALSE(verdict.ok) << "planted checkpoint corruption went undetected";
  EXPECT_EQ(verdict.oracle, "recovery");

  const auto minimized = oracle.minimize(t);
  EXPECT_LE(minimized.ops.size(), 3u);
  EXPECT_TRUE(minimized.ops.empty())
      << "a zero-op failure must minimize to zero ops";
}

TEST(DiffOracle, DetectsNondeterministicParallelCompile) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kPerturbThreadedCompile;
  DifferentialOracle oracle(options);

  const auto verdict = oracle.check(small_trace());
  ASSERT_FALSE(verdict.ok) << "planted compile perturbation went undetected";
  EXPECT_EQ(verdict.oracle, "threads");

  const auto minimized = oracle.minimize(small_trace());
  EXPECT_LE(minimized.ops.size(), 3u);
  EXPECT_FALSE(oracle.check(minimized).ok);
}

TEST(DiffOracle, DetectsPartitionedCompileDivergence) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kPerturbPartitionedCompile;
  DifferentialOracle oracle(options);

  // Zero ops suffice: the planted withdrawal of prefix 0 on the partitioned
  // side diverges on the base exchange alone.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  const auto verdict = oracle.check(t);
  ASSERT_FALSE(verdict.ok) << "planted partition divergence went undetected";
  EXPECT_EQ(verdict.oracle, "partitioned");
  EXPECT_FALSE(verdict.detail.empty());

  const auto minimized = oracle.minimize(t);
  EXPECT_TRUE(minimized.ops.empty())
      << "a zero-op failure must minimize to zero ops";
}

TEST(DiffOracle, DetectsDesyncedClassifierIndex) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kDesyncClassifiedLookup;
  DifferentialOracle oracle(options);

  // Zero ops suffice: wiping the classifier index makes every classified
  // probe miss while the reference scan still matches the base rules.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  const auto verdict = oracle.check(t);
  ASSERT_FALSE(verdict.ok) << "planted classifier desync went undetected";
  EXPECT_EQ(verdict.oracle, "classifier");
  EXPECT_FALSE(verdict.detail.empty());

  const auto minimized = oracle.minimize(t);
  EXPECT_TRUE(minimized.ops.empty())
      << "a zero-op failure must minimize to zero ops";
}

TEST(DiffOracle, DetectsDesyncedBatchLookup) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kDesyncBatchLookup;
  DifferentialOracle oracle(options);

  // Zero ops suffice: the planted desync makes every batched probe miss
  // while the per-packet path still matches the base rules.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  const auto verdict = oracle.check(t);
  ASSERT_FALSE(verdict.ok) << "planted batch desync went undetected";
  EXPECT_EQ(verdict.oracle, "batch");
  EXPECT_FALSE(verdict.detail.empty());

  const auto minimized = oracle.minimize(t);
  EXPECT_TRUE(minimized.ops.empty())
      << "a zero-op failure must minimize to zero ops";
}

TEST(DiffOracle, CleanSteerTracePassesAllEquivalences) {
  // Cross-participant steering churn: steer toward an advertiser (deploys),
  // steer toward a non-advertiser (BGP-filtered out), make the target a
  // transit advertiser mid-trace, then withdraw it again. Every execution
  // path — fast, threaded, partitioned, classified, recovered, verified —
  // must agree on the result.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  t.ops = {
      TraceOp{TraceOp::Kind::kSteer, 0, 1, 1},     // P1 steers x1 -> P2 (owner)
      TraceOp{TraceOp::Kind::kAnnounce, 2, 1, 1},  // P3 transit-announces x1
      TraceOp{TraceOp::Kind::kSteer, 1, 1, 2},     // P2 steers x1 -> P3
      TraceOp{TraceOp::Kind::kWithdraw, 2, 1, 0},  // P3 drops x1 again
  };
  DifferentialOracle oracle;
  const auto verdict = oracle.check(t);
  EXPECT_TRUE(verdict.ok) << verdict.oracle << ": " << verdict.detail;
}

TEST(DiffOracle, SteerOpsRoundTripThroughCodec) {
  Trace t;
  t.participants = 4;
  t.prefixes = 5;
  t.ops = {
      TraceOp{TraceOp::Kind::kSteer, 1, 2, 3},
      TraceOp{TraceOp::Kind::kAnnounce, 0, 0, 1},
      TraceOp{TraceOp::Kind::kSteer, 3, 4, 0},
      TraceOp{TraceOp::Kind::kSessionDown, 2, 0, 0},
  };
  EXPECT_EQ(decode_trace(encode_trace(t)), t);
  EXPECT_NE(t.to_string().find("S(p2,x2->p4)"), std::string::npos)
      << t.to_string();
}

TEST(DiffOracle, DetectsPlantedVerifierLoop) {
  OracleOptions options;
  options.fault = OracleOptions::Fault::kPlantVerifierLoop;
  DifferentialOracle oracle(options);

  // Zero ops suffice: the plant (mutual steering left deployed while the
  // steered prefix is withdrawn behind the runtime's back) is independent
  // of the trace body.
  Trace t;
  t.participants = 3;
  t.prefixes = 4;
  const auto verdict = oracle.check(t);
  ASSERT_FALSE(verdict.ok) << "planted forwarding loop went undetected";
  EXPECT_EQ(verdict.oracle, "verify");
  EXPECT_FALSE(verdict.detail.empty());

  const auto minimized = oracle.minimize(t);
  EXPECT_TRUE(minimized.ops.empty())
      << "a zero-op failure must minimize to zero ops";
}

TEST(DiffOracle, MinimizeReturnsPassingTraceUnchanged) {
  DifferentialOracle oracle;
  const auto t = small_trace();
  EXPECT_EQ(oracle.minimize(t), t);
}

TEST(DiffOracle, RegressionFilesRoundTrip) {
  TempDir dir;
  const auto t = small_trace();
  const auto path = DifferentialOracle::write_regression(dir.path(), t);
  EXPECT_EQ(fs::path(path).parent_path(), fs::path(dir.path()));
  EXPECT_EQ(fs::path(path).extension(), ".bin");
  EXPECT_EQ(DifferentialOracle::load_regression(path), t);

  // Re-writing the same trace is idempotent: the name embeds the content
  // checksum, so one failure cannot pile up duplicate files.
  EXPECT_EQ(DifferentialOracle::write_regression(dir.path(), t), path);
}

TEST(DiffOracle, CommittedRegressionsStayFixed) {
  const fs::path dir =
      fs::path(SDX_SOURCE_DIR) / "fuzz" / "corpus" / "regressions";
  ASSERT_TRUE(fs::exists(dir));
  DifferentialOracle oracle;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".bin") continue;
    const auto trace =
        DifferentialOracle::load_regression(entry.path().string());
    const auto verdict = oracle.check(trace);
    EXPECT_TRUE(verdict.ok)
        << entry.path() << " regressed: " << verdict.oracle << ": "
        << verdict.detail;
  }
}

}  // namespace
}  // namespace sdx::fuzz
