#include "sdx/verify_stage.hpp"

#include <string>

#include "sdx/verifier.hpp"

namespace sdx::core {

VerifyStage::VerifyStage(const std::vector<Participant>& participants,
                         const PortMap& ports, const bgp::RouteServer& server,
                         telemetry::Telemetry& telemetry)
    : participants_(participants),
      ports_(ports),
      server_(server),
      tracer_(telemetry.tracer) {
  auto& reg = telemetry.metrics;
  full_runs_ = &reg.counter("sdx_verify_runs_total",
                            "safety verification passes", {{"mode", "full"}});
  incremental_runs_ =
      &reg.counter("sdx_verify_runs_total", "safety verification passes",
                   {{"mode", "incremental"}});
  seconds_ = &reg.histogram("sdx_verify_seconds",
                            "safety verification wall time (seconds)");
  classes_ = &reg.counter("sdx_verify_classes_total",
                          "packet equivalence classes checked");
  edges_ = &reg.counter("sdx_verify_edges_total",
                        "forwarding-graph edges probed");
  framings_ = &reg.counter("sdx_verify_framings_total",
                           "border-router framings asked by the checker");
  lookups_ = &reg.counter("sdx_verify_lookups_total",
                          "flow-table rule lookups asked by the checker");
  proof_classes_ =
      &reg.gauge("sdx_verify_classes",
                 "packet equivalence classes in the last report's proof");
  proof_edges_ =
      &reg.gauge("sdx_verify_edges",
                 "forwarding-graph edges in the last report's proof");
  unchecked_ = &reg.counter(
      "sdx_verify_unchecked_variants_total",
      "header variants past the enumeration cap, left unchecked");
  // Every kind, so the exposition is shape-stable whether or not a kind
  // ever fires (the bench baselines gate on counter equality).
  for (auto kind :
       {verify::ViolationKind::kLoop, verify::ViolationKind::kIsolation,
        verify::ViolationKind::kBlackhole, verify::ViolationKind::kLocalRule}) {
    violations_[static_cast<std::size_t>(kind)] = &reg.counter(
        "sdx_verify_violations_total", "safety violations detected",
        {{"kind", std::string(verify::kind_name(kind))}});
  }
}

void VerifyStage::run(const verify::DeploymentView& view,
                      const CompiledSdx& compiled, bool diverged,
                      const std::vector<Ipv4Prefix>* dirty) {
  telemetry::Span span = tracer_.span("safety_verify");
  if (dirty == nullptr) {
    last_ = check(*checker_, view, compiled, diverged);
    full_runs_->inc();
  } else {
    last_ = checker_->incremental(view, *dirty);
    incremental_runs_->inc();
  }
  seconds_->observe(last_.seconds);
  classes_->inc(last_.work.classes);
  edges_->inc(last_.work.edges);
  framings_->inc(last_.work.framings);
  lookups_->inc(last_.work.lookups);
  proof_classes_->set(static_cast<double>(last_.classes_checked));
  proof_edges_->set(static_cast<double>(last_.edges_walked));
  unchecked_->inc(last_.unchecked_variants);
  for (const auto& v : last_.violations) {
    violations_[static_cast<std::size_t>(v.kind)]->inc();
  }
}

verify::SafetyReport VerifyStage::check(verify::SafetyChecker& checker,
                                        const verify::DeploymentView& view,
                                        const CompiledSdx& compiled,
                                        bool diverged) const {
  // The static audit compares the compiled artifact against the current
  // RIB, so it is only meaningful while the artifact IS the deployment. A
  // prefix held off its compiled group means newer rules shadow stale
  // artifact rules; auditing the artifact then reports phantom export
  // mismatches the live table cannot exhibit. The graph walk always checks
  // the live table, so safety coverage is unaffected — only the rule-level
  // audit waits for the next full recompile.
  checker.set_local_findings(
      diverged ? verify::SafetyReport{}
               : audit(compiled, participants_, ports_, server_));
  return checker.full(view);
}

}  // namespace sdx::core
