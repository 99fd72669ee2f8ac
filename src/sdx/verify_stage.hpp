#pragma once

/// \file verify_stage.hpp
/// The runtime's verify stage: the safety checker behind
/// SdxRuntime::enable_verification(), the report of its last pass, the
/// verification metric families (registered at construction, so they exist
/// whether or not verification is on) and the rule-level audit of the
/// compiled artifact. Enabled, it runs a full check after every full deploy
/// and an incremental one over the dirty prefixes after every flush and
/// partition swap. SdxRuntime::verify_now() runs the same full check with a
/// fresh checker and touches no stage state and no metric.

#include <array>
#include <memory>
#include <vector>

#include "bgp/route_server.hpp"
#include "sdx/compiler.hpp"
#include "sdx/participant.hpp"
#include "sdx/port_map.hpp"
#include "telemetry/telemetry.hpp"
#include "verify/safety.hpp"

namespace sdx::core {

class VerifyStage {
 public:
  VerifyStage(const std::vector<Participant>& participants,
              const PortMap& ports, const bgp::RouteServer& server,
              telemetry::Telemetry& telemetry);

  void enable() { checker_ = std::make_unique<verify::SafetyChecker>(); }
  bool enabled() const { return checker_ != nullptr; }
  const verify::SafetyReport& last() const { return last_; }

  /// The enabled stage over \p view, the deployment of \p compiled: a full
  /// check when \p dirty is null, else an incremental re-check of exactly
  /// those prefixes. \p diverged: some prefix is held off its compiled
  /// group, so the artifact is not the deployment (see check()).
  void run(const verify::DeploymentView& view, const CompiledSdx& compiled,
           bool diverged, const std::vector<Ipv4Prefix>* dirty);

  /// The one full check, run by \p checker (the stage's own, or a fresh
  /// one for SdxRuntime::verify_now()): the artifact audit as local
  /// findings, then the walk of the deployed forwarding graph.
  verify::SafetyReport check(verify::SafetyChecker& checker,
                             const verify::DeploymentView& view,
                             const CompiledSdx& compiled, bool diverged) const;

 private:
  const std::vector<Participant>& participants_;
  const PortMap& ports_;
  const bgp::RouteServer& server_;
  telemetry::SpanTracer& tracer_;
  std::unique_ptr<verify::SafetyChecker> checker_;  ///< present iff enabled
  verify::SafetyReport last_;

  telemetry::Counter* full_runs_;
  telemetry::Counter* incremental_runs_;
  telemetry::Histogram* seconds_;
  /// The work of each pass: classes checked, edges probed, framings and
  /// rule lookups asked.
  telemetry::Counter* classes_;
  telemetry::Counter* edges_;
  telemetry::Counter* framings_;
  telemetry::Counter* lookups_;
  /// The size of the last report's proof (the checker's running totals).
  telemetry::Gauge* proof_classes_;
  telemetry::Gauge* proof_edges_;
  telemetry::Counter* unchecked_;
  /// Violation counters indexed by verify::ViolationKind.
  std::array<telemetry::Counter*, 4> violations_{};
};

}  // namespace sdx::core
