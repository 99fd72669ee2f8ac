/// Micro-benchmarks (google-benchmark) for the policy-compiler primitives
/// the SDX pipeline is built from: predicate compilation (including the
/// linear-size BGP prefix-list path), parallel/sequential classifier
/// composition, pull-back, flow-table lookup (including a single call
/// against a burst of one), and border-router FIB re-advertisement.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "dataplane/border_router.hpp"
#include "dataplane/flow_table.hpp"
#include "netbase/rng.hpp"
#include "policy/compile.hpp"

namespace {

using namespace sdx;
using policy::Classifier;
using policy::Policy;
using policy::Predicate;

Policy app_peering_policy() {
  return (policy::match(net::Field::kDstPort, 80) >> policy::fwd(10)) +
         (policy::match(net::Field::kDstPort, 443) >> policy::fwd(11));
}

std::vector<net::Ipv4Prefix> prefix_list(std::size_t n) {
  std::vector<net::Ipv4Prefix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(net::Ipv4Prefix(
        net::Ipv4Address(0x0A000000u + (static_cast<std::uint32_t>(i) << 8)),
        24));
  }
  return out;
}

void BM_CompileAppPeeringPolicy(benchmark::State& state) {
  Policy p = app_peering_policy();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::compile(p));
  }
}
BENCHMARK(BM_CompileAppPeeringPolicy);

void BM_CompileBgpPrefixFilter(benchmark::State& state) {
  auto prefixes = prefix_list(static_cast<std::size_t>(state.range(0)));
  Policy p = policy::match(Predicate::any_of(net::Field::kDstIp, prefixes)) >>
             policy::fwd(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::compile(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_CompileBgpPrefixFilter)->Range(16, 4096)->Complexity();

void BM_ParCompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = policy::compile(policy::match(
      Predicate::any_of(net::Field::kDstIp, prefix_list(n))) >>
      policy::fwd(1));
  auto b = policy::compile(policy::match(net::Field::kDstPort, 80) >>
                           policy::fwd(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::par_compose(a, b));
  }
}
BENCHMARK(BM_ParCompose)->Range(16, 1024);

void BM_SeqCompose(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto a = policy::compile(policy::match(
      Predicate::any_of(net::Field::kDstIp, prefix_list(n))) >>
      policy::fwd(1));
  auto b = policy::compile(
      (policy::match(net::Field::kPort, 1) >>
       policy::modify(net::Field::kDstMac, std::uint64_t{42}) >>
       policy::fwd(7)) +
      policy::drop());
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::seq_compose(a, b));
  }
}
BENCHMARK(BM_SeqCompose)->Range(16, 1024);

void BM_PullBack(benchmark::State& state) {
  auto through = policy::compile(
      (policy::match(net::Field::kPort, 9) >> policy::fwd(3)) +
      (policy::match(net::Field::kDstPort, 80) >> policy::fwd(4)));
  net::FlowMatch domain = net::FlowMatch::on(net::Field::kPort, 1);
  policy::ActionSeq act = policy::ActionSeq::set(net::Field::kPort, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy::pull_back(domain, act, through));
  }
}
BENCHMARK(BM_PullBack);

/// The iSDX default geometry, as the runtime would wire it.
dp::VmacLaneSpec vmac_spec() {
  dp::VmacLaneSpec s;
  s.enabled = true;
  s.top_value = 0x02ull << 40;
  s.top_mask = 0xFFull << 40;
  s.group_bits = 20;
  s.nexthop_bits = 12;
  s.attr_bits = 8;
  return s;
}

/// n FIB-style /24 dst-IP prefix rules (all land in one tuple).
void fill_prefix_rules(dp::FlowTable& table, std::size_t n) {
  auto prefixes = prefix_list(n);
  for (std::size_t i = 0; i < n; ++i) {
    dp::FlowRule r;
    r.priority = static_cast<std::uint32_t>(n - i);
    r.match = net::FlowMatch::on_prefix(net::Field::kDstIp, prefixes[i]);
    r.actions = {policy::ActionSeq::set(net::Field::kPort, 2)};
    table.install(std::move(r));
  }
}

/// n compiled-stage-1-shaped VMAC rules: mostly exact per-group defaults,
/// plus masked attribute-bit clause rules — the population the exact-match
/// fast lane is built for.
void fill_vmac_rules(dp::FlowTable& table, std::size_t n) {
  const auto spec = vmac_spec();
  for (std::size_t i = 0; i < n; ++i) {
    dp::FlowRule r;
    r.priority = static_cast<std::uint32_t>(1000 + (n - i));
    if (i % 8 == 7) {  // one masked clause rule per 8 group defaults
      const std::uint64_t bit = 1ull << (spec.attr_shift() + i % 8);
      r.match.set(net::Field::kDstMac,
                  net::FieldMatch::masked(spec.top_value | bit,
                                          spec.top_mask | bit));
    } else {
      r.match = net::FlowMatch::on(net::Field::kDstMac,
                                   spec.top_value | (i & 0xFFFFF));
    }
    r.actions = {policy::ActionSeq::set(net::Field::kPort, 2)};
    table.install(std::move(r));
  }
}

void lookup_loop(benchmark::State& state, dp::FlowTable& table,
                 dp::FlowTable::LookupMode mode,
                 const net::PacketHeader& packet) {
  table.set_lookup_mode(mode);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(packet));
  }
  state.SetComplexityN(state.range(0));
}

/// Linear vs classified over the same tables: the crossover (and the ≥10×
/// gap at 4096 VMAC-tagged rules) shows up in one table with Complexity().
void BM_FlowTableLookup(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  fill_prefix_rules(table, n);
  net::SplitMix64 rng(5);
  auto packet = net::PacketBuilder()
                    .dst_ip(net::Ipv4Address(
                        0x0A000000u + (static_cast<std::uint32_t>(
                                           rng.below(n)) << 8)))
                    .build();
  lookup_loop(state, table, dp::FlowTable::LookupMode::kLinear, packet);
}
BENCHMARK(BM_FlowTableLookup)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupClassified(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  fill_prefix_rules(table, n);
  net::SplitMix64 rng(5);
  auto packet = net::PacketBuilder()
                    .dst_ip(net::Ipv4Address(
                        0x0A000000u + (static_cast<std::uint32_t>(
                                           rng.below(n)) << 8)))
                    .build();
  lookup_loop(state, table, dp::FlowTable::LookupMode::kClassified, packet);
}
BENCHMARK(BM_FlowTableLookupClassified)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupVmacLinear(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  table.set_vmac_lanes(vmac_spec());
  fill_vmac_rules(table, n);
  net::SplitMix64 rng(5);
  std::uint64_t group = rng.below(n);
  if (group % 8 == 7) --group;  // land on an installed per-group default
  auto packet =
      net::PacketBuilder()
          .dst_mac(net::MacAddress(vmac_spec().top_value | group))
          .build();
  lookup_loop(state, table, dp::FlowTable::LookupMode::kLinear, packet);
}
BENCHMARK(BM_FlowTableLookupVmacLinear)->Range(64, 4096)->Complexity();

void BM_FlowTableLookupVmacClassified(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  dp::FlowTable table;
  table.set_vmac_lanes(vmac_spec());
  fill_vmac_rules(table, n);
  net::SplitMix64 rng(5);
  std::uint64_t group = rng.below(n);
  if (group % 8 == 7) --group;  // land on an installed per-group default
  auto packet =
      net::PacketBuilder()
          .dst_mac(net::MacAddress(vmac_spec().top_value | group))
          .build();
  lookup_loop(state, table, dp::FlowTable::LookupMode::kClassified, packet);
}
BENCHMARK(BM_FlowTableLookupVmacClassified)->Range(64, 4096)->Complexity();

/// A single lookup()/process() call against a burst of one through
/// lookup_batch()/process_batch(), on the 4096-rule prefix (`vmac:0`) and
/// VMAC (`vmac:1`) tables, rotating over 1024 packets that each hit an
/// installed rule. `call`: 0 lookup, 1 lookup_batch, 2 process,
/// 3 process_batch. Prices keeping the per-packet path beside the burst
/// path.
void BM_SingleVsBurstOfOne(benchmark::State& state) {
  constexpr std::size_t kRules = 4096;
  const bool vmac = state.range(0) == 1;
  dp::FlowTable table;
  if (vmac) {
    table.set_vmac_lanes(vmac_spec());
    fill_vmac_rules(table, kRules);
  } else {
    fill_prefix_rules(table, kRules);
  }
  net::SplitMix64 rng(5);
  std::vector<net::PacketHeader> packets;
  for (int i = 0; i < 1024; ++i) {
    std::uint64_t n = rng.below(kRules);
    if (vmac) {
      if (n % 8 == 7) --n;  // land on an installed per-group default
      packets.push_back(
          net::PacketBuilder()
              .dst_mac(net::MacAddress(vmac_spec().top_value | n))
              .build());
    } else {
      packets.push_back(
          net::PacketBuilder()
              .dst_ip(net::Ipv4Address(0x0A000000u +
                                       (static_cast<std::uint32_t>(n) << 8)))
              .build());
    }
  }
  std::size_t next = 0;
  const auto one = [&] {
    return std::span<const net::PacketHeader>(&packets[next++ & 1023], 1);
  };
  const dp::FlowRule* hit[1];
  switch (state.range(1)) {
    case 0:
      for (auto _ : state) benchmark::DoNotOptimize(table.lookup(one()[0]));
      break;
    case 1:
      for (auto _ : state) {
        table.lookup_batch(one(), hit);
        benchmark::DoNotOptimize(hit[0]);
      }
      break;
    case 2:
      for (auto _ : state) benchmark::DoNotOptimize(table.process(one()[0]));
      break;
    default:
      for (auto _ : state) benchmark::DoNotOptimize(table.process_batch(one()));
      break;
  }
}
BENCHMARK(BM_SingleVsBurstOfOne)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}})
    ->ArgNames({"vmac", "call"});

/// The route server's re-advertisement fan-out (paper §4.2): every
/// fast-path update gives a prefix a fresh VNH and re-announces it to every
/// participant's border router, each of which rewrites its FIB entry. 100
/// routers hold 5000 /24 routes each; one iteration re-announces one
/// prefix, drawn at random, with a new next hop to all of them.
void BM_RouterFibReadvertise(benchmark::State& state) {
  constexpr std::size_t kRouters = 100;
  constexpr std::size_t kPrefixes = 5000;
  const auto prefixes = prefix_list(kPrefixes);
  std::vector<dp::BorderRouter> routers;
  routers.reserve(kRouters);
  for (std::size_t i = 0; i < kRouters; ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    routers.emplace_back(65000 + id, id, net::MacAddress(id),
                         net::Ipv4Address(0xAC100000u + id));
  }
  bgp::UpdateMessage msg;
  msg.attrs.emplace();
  msg.attrs->as_path = net::AsPath{65001, 65100, 65200};
  msg.attrs->communities = {bgp::make_community(65001, 100)};
  msg.attrs->next_hop = net::Ipv4Address(0xAC100001u);
  msg.nlri = prefixes;
  for (auto& r : routers) r.process_update(msg);

  net::SplitMix64 rng(7);
  std::uint32_t vnh = 0xAC110000u;
  msg.nlri.resize(1);
  for (auto _ : state) {
    msg.nlri[0] = prefixes[rng.below(kPrefixes)];
    msg.attrs->next_hop = net::Ipv4Address(++vnh);
    for (auto& r : routers) {
      r.process_update(msg);
      benchmark::DoNotOptimize(&r);
    }
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRouters));
}
BENCHMARK(BM_RouterFibReadvertise);

}  // namespace

BENCHMARK_MAIN();
