/// Tests for the static rule-table auditor: compiled workloads must pass
/// clean, and injected corruptions of each invariant must be flagged.

#include <gtest/gtest.h>

#include "ixp/ixp_generator.hpp"
#include "sdx/runtime.hpp"
#include "sdx/verifier.hpp"

namespace sdx::core {
namespace {

using net::Field;
using net::Ipv4Prefix;

class VerifierFixture : public ::testing::Test {
 protected:
  VerifierFixture() {
    a = rt.add_participant("A", 65001);
    b = rt.add_participant("B", 65002, 2);
    c = rt.add_participant("C", 65003);
    rt.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                        OutboundClause{ClauseMatch{}.dst_port(443), c}});
    rt.set_inbound(
        b, {InboundClause{ClauseMatch{}.src(Ipv4Prefix::parse("0.0.0.0/1")),
                          {},
                          0}});
    rt.announce(b, Ipv4Prefix::parse("100.1.0.0/16"),
                net::AsPath{65002, 10});
    rt.announce(c, Ipv4Prefix::parse("100.1.0.0/16"), net::AsPath{65003, 9});
    rt.announce(c, Ipv4Prefix::parse("100.2.0.0/16"), net::AsPath{65003, 9});
    rt.install();
  }
  SdxRuntime rt;
  bgp::ParticipantId a = 0, b = 0, c = 0;
};

TEST_F(VerifierFixture, CompiledScenarioPassesClean) {
  auto report = audit(rt.compiled(), rt.participants(), rt.ports(),
                      rt.route_server());
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.local_rules_checked, rt.compiled().fabric.size());
}

TEST_F(VerifierFixture, FlagsMissingCatchAll) {
  CompiledSdx broken = rt.compiled();
  broken.fabric.rules().pop_back();
  auto report =
      audit(broken, rt.participants(), rt.ports(), rt.route_server());
  EXPECT_FALSE(report.ok());
}

TEST_F(VerifierFixture, FlagsVirtualPortOutput) {
  CompiledSdx broken = rt.compiled();
  policy::Rule bad;
  bad.match = net::FlowMatch::on(Field::kDstPort, 9999);
  bad.actions = {policy::ActionSeq::set(Field::kPort, rt.ports().vport(b))};
  broken.fabric.rules().insert(broken.fabric.rules().begin(), bad);
  auto report =
      audit(broken, rt.participants(), rt.ports(), rt.route_server());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].what.find("virtual port"),
            std::string::npos);
}

TEST_F(VerifierFixture, FlagsVmacLeakToRouter) {
  CompiledSdx broken = rt.compiled();
  ASSERT_FALSE(broken.bindings.empty());
  policy::Rule bad;
  // Tagged traffic forwarded to B's first port without the MAC rewrite:
  // B's router would drop it.
  bad.match = net::FlowMatch::on(Field::kDstMac,
                                 broken.bindings[0].vmac.bits());
  bad.actions = {policy::ActionSeq::set(
      Field::kPort, rt.participant(b).ports[0].id)};
  broken.fabric.rules().insert(broken.fabric.rules().begin(), bad);
  auto report =
      audit(broken, rt.participants(), rt.ports(), rt.route_server());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].what.find("router MAC"), std::string::npos);
}

TEST_F(VerifierFixture, FlagsBgpInconsistentForwarding) {
  CompiledSdx broken = rt.compiled();
  // Find the group for 100.2.0.0/16, which only C exported. Forwarding it
  // to B violates "only along BGP-advertised paths".
  auto it = broken.fecs.group_of.find(Ipv4Prefix::parse("100.2.0.0/16"));
  ASSERT_NE(it, broken.fecs.group_of.end());
  const auto vmac = broken.bindings[it->second].vmac;
  policy::Rule bad;
  bad.match = net::FlowMatch::on(Field::kPort, rt.participant(a).ports[0].id);
  bad.match.with(Field::kDstMac, vmac.bits());
  policy::ActionSeq act = policy::ActionSeq::set(
      Field::kDstMac, rt.participant(b).ports[0].router_mac.bits());
  act.then_set(Field::kPort, rt.participant(b).ports[0].id);
  bad.actions = {act};
  broken.fabric.rules().insert(broken.fabric.rules().begin(), bad);
  auto report =
      audit(broken, rt.participants(), rt.ports(), rt.route_server());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].what.find("without a matching BGP export"),
            std::string::npos);
}

TEST_F(VerifierFixture, FlagsUnknownOutputPort) {
  CompiledSdx broken = rt.compiled();
  policy::Rule bad;
  bad.match = net::FlowMatch::on(Field::kDstPort, 1234);
  bad.actions = {policy::ActionSeq::set(Field::kPort, 777)};
  broken.fabric.rules().insert(broken.fabric.rules().begin(), bad);
  auto report =
      audit(broken, rt.participants(), rt.ports(), rt.route_server());
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.violations[0].what.find("unowned port"),
            std::string::npos);
}

TEST(VerifierWorkload, GeneratedWorkloadsAuditClean) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    ixp::GeneratorConfig cfg;
    cfg.participants = 80;
    cfg.prefixes = 2000;
    cfg.seed = seed;
    auto ixp = ixp::generate_ixp(cfg);
    ixp::PolicySynthConfig pcfg;
    pcfg.seed = seed;
    pcfg.policy_prefixes = ixp::sample_policy_prefixes(ixp, 1500, seed);
    ixp::synthesize_policies(ixp, pcfg);
    SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server);
    VnhAllocator vnh;
    auto compiled = compiler.compile(vnh);
    auto report = audit(compiled, ixp.participants, ixp.ports, ixp.server);
    EXPECT_TRUE(report.ok()) << "seed " << seed << ": " << report.to_string();
  }
}

}  // namespace
}  // namespace sdx::core
