/// Parallel-compilation determinism: for every thread count the compiled
/// output — fabric rule list (contents and order), stats, FEC groups and
/// ids, VNH bindings — must be byte-identical to the serial result. Pins
/// the output of every compile mode and of one fast-path burst to golden
/// constants. Also unit-tests the netbase thread pool and the sharded FEC
/// merge.
///
/// Run this binary under `cmake -DSDX_SANITIZE=thread` to have TSan check
/// the slot-ownership discipline of every parallel stage.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "ixp/ixp_generator.hpp"
#include "netbase/parallel.hpp"
#include "persist/crc32c.hpp"
#include "sdx/compiler.hpp"
#include "sdx/fec.hpp"
#include "sdx/incremental.hpp"
#include "sdx/runtime.hpp"
#include "sdx/vnh_allocator.hpp"

namespace sdx::core {
namespace {

using net::Ipv4Address;
using net::Ipv4Prefix;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  net::ThreadPool pool(8);
  EXPECT_EQ(pool.size(), 8u);
  std::vector<int> hits(20000, 0);
  pool.parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];  // slot-owned write
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(hits.size()));
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, ParallelMapFillsSlotsInOrder) {
  net::ThreadPool pool(4);
  auto squares = pool.parallel_map(
      1000, 1, [](std::size_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (std::size_t i = 0; i < squares.size(); ++i) {
    EXPECT_EQ(squares[i], i * i);
  }
}

TEST(ThreadPoolTest, SingleThreadRunsInline) {
  net::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::size_t calls = 0;
  pool.parallel_for(100, 1, [&](std::size_t begin, std::size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 100u);
  });
  EXPECT_EQ(calls, 1u);  // one inline invocation, no chunking
}

TEST(ThreadPoolTest, ExceptionPropagatesAndPoolStaysUsable) {
  net::ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(5000, 1,
                        [](std::size_t begin, std::size_t end) {
                          for (std::size_t i = begin; i < end; ++i) {
                            if (i == 4321) throw std::runtime_error("boom");
                          }
                        }),
      std::runtime_error);
  // The pool survives a failed loop.
  std::vector<int> hits(1000, 0);
  pool.parallel_for(hits.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) ++hits[i];
  });
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, ManyConsecutiveLoopsReuseWorkers) {
  net::ThreadPool pool(8);
  std::vector<std::size_t> acc(512, 0);
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(acc.size(), 1,
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) ++acc[i];
                      });
  }
  EXPECT_TRUE(std::all_of(acc.begin(), acc.end(),
                          [](std::size_t a) { return a == 200; }));
}

// ---------------------------------------------------------------------------
// Sharded FEC merge

void expect_fec_equal(const FecResult& serial, const FecResult& parallel) {
  ASSERT_EQ(serial.groups.size(), parallel.groups.size());
  for (std::size_t g = 0; g < serial.groups.size(); ++g) {
    EXPECT_EQ(serial.groups[g].prefixes, parallel.groups[g].prefixes)
        << "group " << g;
    EXPECT_EQ(serial.groups[g].clauses, parallel.groups[g].clauses)
        << "group " << g;
    EXPECT_EQ(serial.groups[g].defaults, parallel.groups[g].defaults)
        << "group " << g;
  }
  EXPECT_EQ(serial.group_of, parallel.group_of);
}

std::vector<Ipv4Prefix> dense_prefixes(std::size_t n) {
  std::vector<Ipv4Prefix> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Ipv4Prefix(
        Ipv4Address((20u << 24) | (static_cast<std::uint32_t>(i) << 8)), 24));
  }
  return out;
}

TEST(FecShardMergeTest, ShardedResultIsByteIdenticalToSerial) {
  // Enough prefixes that an 8-thread pool uses many shards, with group
  // signatures spread so every shard holds pieces of several groups.
  const auto universe = dense_prefixes(900);
  std::vector<ClauseReach> clauses(6);
  for (std::size_t i = 0; i < universe.size(); ++i) {
    for (std::size_t c = 0; c < clauses.size(); ++c) {
      if (i % (c + 2) == 0) clauses[c].prefixes.push_back(universe[i]);
    }
  }
  auto defaults_of = [&](Ipv4Prefix p) {
    DefaultVector d(4);
    const std::uint32_t v = p.network().value() >> 8;
    d[0] = v % 3;
    if (v % 5 != 0) d[2] = v % 7;
    return d;
  };

  auto serial = compute_fecs(clauses, defaults_of, nullptr);
  for (unsigned threads : {2u, 8u}) {
    net::ThreadPool pool(threads);
    auto parallel = compute_fecs(clauses, defaults_of, &pool);
    expect_fec_equal(serial, parallel);
  }
}

TEST(FecShardMergeTest, CollidingSignaturesAcrossShardsMergeToOneGroup) {
  // Every prefix carries the same (clause set, default vector) signature
  // but hashes into different shards: the canonical merge must collapse
  // all shard-local groups into a single global one.
  const auto universe = dense_prefixes(700);
  std::vector<ClauseReach> clauses(2);
  clauses[0].prefixes = universe;
  clauses[1].prefixes = universe;
  auto defaults_of = [](Ipv4Prefix) {
    DefaultVector d(3);
    d[1] = 9u;
    return d;
  };

  net::ThreadPool pool(8);
  auto result = compute_fecs(clauses, defaults_of, &pool);
  ASSERT_EQ(result.group_count(), 1u);
  EXPECT_EQ(result.groups[0].prefixes.size(), universe.size());
  EXPECT_TRUE(std::is_sorted(result.groups[0].prefixes.begin(),
                             result.groups[0].prefixes.end()));
  EXPECT_EQ(result.groups[0].clauses, (std::vector<std::uint32_t>{0, 1}));
  for (auto p : universe) EXPECT_EQ(result.group_of.at(p), 0u);
  expect_fec_equal(compute_fecs(clauses, defaults_of, nullptr), result);
}

// ---------------------------------------------------------------------------
// Full-pipeline determinism on a generated IXP workload

ixp::GeneratedIxp make_ixp() {
  ixp::GeneratorConfig cfg;
  cfg.participants = 30;
  cfg.prefixes = 600;
  cfg.seed = 5;
  auto ixp = ixp::generate_ixp(cfg);
  ixp::PolicySynthConfig pcfg;
  pcfg.seed = 11;
  pcfg.policy_prefixes = ixp::sample_policy_prefixes(ixp, 250, 13);
  ixp::synthesize_policies(ixp, pcfg);
  return ixp;
}

CompiledSdx compile_with(const ixp::GeneratedIxp& ixp, unsigned threads) {
  CompileOptions options;
  options.threads = threads;
  SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server, options);
  VnhAllocator vnh;
  return compiler.compile(vnh);
}

TEST(ParallelCompileDeterminism, ThreadCountNeverChangesTheOutput) {
  const auto ixp = make_ixp();
  const CompiledSdx serial = compile_with(ixp, 1);
  EXPECT_EQ(serial.stats.threads_used, 1u);
  ASSERT_GT(serial.stats.final_rules, 0u);
  ASSERT_GT(serial.fecs.group_count(), 1u);

  for (unsigned threads : {2u, 8u}) {
    const CompiledSdx parallel = compile_with(ixp, threads);
    EXPECT_EQ(parallel.stats.threads_used, threads);

    // Fabric: same rules, same order, same actions (string form is the
    // byte-level witness).
    EXPECT_EQ(parallel.stats.final_rules, serial.stats.final_rules);
    EXPECT_EQ(parallel.fabric.to_string(), serial.fabric.to_string());

    // Stats that summarize the pipeline must agree exactly.
    EXPECT_EQ(parallel.stats.stage1_rules, serial.stats.stage1_rules);
    EXPECT_EQ(parallel.stats.clause_count, serial.stats.clause_count);
    EXPECT_EQ(parallel.stats.prefix_groups, serial.stats.prefix_groups);
    EXPECT_EQ(parallel.stats.prefixes_grouped, serial.stats.prefixes_grouped);
    EXPECT_EQ(parallel.stats.pair_compositions,
              serial.stats.pair_compositions);

    // FEC group membership and ids.
    expect_fec_equal(serial.fecs, parallel.fecs);

    // Clause reach sets in global clause order.
    ASSERT_EQ(parallel.reaches.size(), serial.reaches.size());
    for (std::size_t i = 0; i < serial.reaches.size(); ++i) {
      EXPECT_EQ(parallel.reaches[i].owner, serial.reaches[i].owner);
      EXPECT_EQ(parallel.reaches[i].clause_index,
                serial.reaches[i].clause_index);
      EXPECT_EQ(parallel.reaches[i].prefixes, serial.reaches[i].prefixes);
    }

    // VNH/VMAC bindings, group-for-group.
    EXPECT_EQ(parallel.bindings, serial.bindings);
  }
}

TEST(ParallelCompileDeterminism, AblationModesStayDeterministicToo) {
  const auto ixp = make_ixp();
  for (bool prune : {false, true}) {
    for (bool memoize : {false, true}) {
      CompileOptions options;
      options.prune_pairs = prune;
      options.memoize_stage2 = memoize;
      options.threads = 1;
      SdxCompiler serial(ixp.participants, ixp.ports, ixp.server, options);
      VnhAllocator vnh1;
      const auto want = serial.compile(vnh1);
      options.threads = 8;
      SdxCompiler parallel(ixp.participants, ixp.ports, ixp.server, options);
      VnhAllocator vnh8;
      const auto got = parallel.compile(vnh8);
      EXPECT_EQ(got.fabric.to_string(), want.fabric.to_string())
          << "prune=" << prune << " memoize=" << memoize;
      EXPECT_EQ(got.stats.pair_compositions, want.stats.pair_compositions);
    }
  }
}

// Golden output of every compile mode and of one fast-path burst on the
// generated exchange. The constants pin the artifact bytes (fingerprint
// CRC) and the composition work counters, so any change to how stage-1
// rules are composed through stage-2 shows up here first.
TEST(CompilerGolden, CompileModesAndFastPathBurstArePinned) {
  const auto ixp = make_ixp();
  struct Case {
    const char* name;
    CompileOptions options;
    std::uint32_t fingerprint_crc;
    std::size_t pair_compositions;
  };
  auto with = [](auto edit) {
    CompileOptions o;
    edit(o);
    return o;
  };
  const Case cases[] = {
      {"threads=1", with([](CompileOptions& o) { o.threads = 1; }),
       2896637247u, 430},
      {"threads=8", with([](CompileOptions& o) { o.threads = 8; }),
       2896637247u, 430},
      {"memoize_stage2=false",
       with([](CompileOptions& o) { o.memoize_stage2 = false; }),
       2896637247u, 430},
      {"prune_pairs=false",
       with([](CompileOptions& o) { o.prune_pairs = false; }), 2896637247u,
       7800},
      {"vmac_grouping=false",
       with([](CompileOptions& o) { o.vmac_grouping = false; }), 2554059754u,
       3469},
      {"partitioned", with([](CompileOptions& o) { o.partitioned = true; }),
       310347451u, 325},
  };
  for (const Case& c : cases) {
    SdxCompiler compiler(ixp.participants, ixp.ports, ixp.server, c.options);
    VnhAllocator vnh;
    const CompiledSdx compiled = compiler.compile(vnh);
    EXPECT_EQ(persist::crc32c(compiled.fingerprint()), c.fingerprint_crc)
        << c.name;
    EXPECT_EQ(compiled.stats.pair_compositions, c.pair_compositions)
        << c.name;
  }

  IncrementalEngine engine(
      SdxCompiler(ixp.participants, ixp.ports, ixp.server));
  VnhAllocator vnh;
  engine.full_recompile(vnh);
  // Sixteen policy-covered prefixes, spread over the sorted grouped set.
  std::vector<Ipv4Prefix> covered;
  for (const auto& [prefix, _] : engine.current().fecs.group_of) {
    covered.push_back(prefix);
  }
  std::sort(covered.begin(), covered.end());
  ASSERT_GE(covered.size(), 16u);
  std::vector<Ipv4Prefix> burst;
  for (std::size_t i = 0; i < 16; ++i) {
    burst.push_back(covered[i * covered.size() / 16]);
  }
  auto batch = engine.fast_update_batch(burst, vnh);
  const std::size_t rules = batch.rules.size();
  EXPECT_EQ(persist::crc32c(
                policy::Classifier(std::move(batch.rules)).to_string()),
            3380430012u);
  EXPECT_EQ(batch.compositions, 28u);
  EXPECT_EQ(batch.additional_rules, 47u);
  EXPECT_EQ(batch.additional_rules, rules);
}

TEST(ParallelCompileDeterminism, RuntimeThreadKnobKeepsDeployIdentical) {
  struct Deploy {
    std::string fabric;
    std::string fingerprint;
    std::size_t table_rules = 0;
  };
  // With \p churn, post-install updates run through the fast path and a
  // background_recompile() rebuilds the tables before the comparison.
  auto build = [](unsigned threads, bool churn) {
    CompileOptions options;
    options.threads = threads;
    SdxRuntime sdx(bgp::DecisionConfig{}, options);
    const auto a = sdx.add_participant("A", 65001);
    const auto b = sdx.add_participant("B", 65002, /*port_count=*/2);
    const auto c = sdx.add_participant("C", 65003);
    sdx.set_outbound(a, {OutboundClause{ClauseMatch{}.dst_port(80), b},
                         OutboundClause{ClauseMatch{}.dst_port(443), c}});
    const auto prefix = [](std::uint32_t i) {
      return Ipv4Prefix(Ipv4Address((100u << 24) | (i << 16)), 16);
    };
    for (std::uint32_t i = 0; i < 24; ++i) {
      sdx.announce(b, prefix(i));
      if (i % 3 != 0) sdx.announce(c, prefix(i));
    }
    sdx.install();
    if (churn) {
      sdx.announce(c, prefix(0));
      sdx.withdraw(c, prefix(1));
      sdx.announce(c, prefix(30), net::AsPath{65003, 9});
      sdx.withdraw(b, prefix(2));
      sdx.background_recompile();
    }
    return Deploy{sdx.compiled().fabric.to_string(),
                  sdx.compiled().fingerprint(),
                  sdx.fabric().sdx_switch().table().size()};
  };
  EXPECT_EQ(build(4, false).fabric, build(1, false).fabric);
  const Deploy serial = build(1, true);
  const Deploy wide = build(8, true);
  EXPECT_EQ(wide.fingerprint, serial.fingerprint);
  EXPECT_EQ(wide.table_rules, serial.table_rules);
}

}  // namespace
}  // namespace sdx::core
