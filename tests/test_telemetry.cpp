/// Unit tests for the telemetry subsystem: instrument semantics, registry
/// get-or-create identity, deterministic exposition, span tracing, and
/// thread safety of the fast paths under the compilation thread pool
/// (run the SDX_SANITIZE=thread preset to let TSan check the latter).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "netbase/parallel.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace sdx::telemetry {
namespace {

TEST(Counter, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Gauge, SetAndAddGoBothWays) {
  Gauge g;
  g.set(10.0);
  g.add(-3.5);
  EXPECT_DOUBLE_EQ(g.value(), 6.5);
  g.set(0.0);
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsObservationsCumulatively) {
  Histogram h({1.0, 10.0, 100.0});
  for (double v : {0.5, 5.0, 5.0, 50.0, 500.0}) h.observe(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 560.5);
  // Cumulative per upper edge, +Inf last: ≤1 → 1, ≤10 → 3, ≤100 → 4, all 5.
  EXPECT_EQ(h.cumulative(), (std::vector<std::uint64_t>{1, 3, 4, 5}));
}

TEST(Histogram, BoundaryValueFallsInLowerBucket) {
  Histogram h({1.0, 10.0});
  h.observe(1.0);  // `le` edges are inclusive, as in Prometheus
  EXPECT_EQ(h.cumulative()[0], 1u);
}

TEST(Histogram, RejectsUnsortedBounds) {
  EXPECT_THROW(Histogram({10.0, 1.0}), std::invalid_argument);
}

TEST(Registry, GetOrCreateReturnsTheSameInstrument) {
  MetricRegistry reg;
  Counter& a = reg.counter("sdx_updates_total", "updates seen");
  Counter& b = reg.counter("sdx_updates_total");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);

  // Distinct label sets are distinct instruments; label order is
  // normalized so a permuted registration finds the same one.
  Counter& x = reg.counter("sdx_rules_total", "", {{"stage", "synth"}});
  Counter& y = reg.counter("sdx_rules_total", "", {{"stage", "compose"}});
  EXPECT_NE(&x, &y);
  Counter& x2 = reg.counter("sdx_rules_total", "",
                            {{"stage", "synth"}});
  EXPECT_EQ(&x, &x2);
  Gauge& g1 = reg.gauge("sdx_depth", "", {{"a", "1"}, {"b", "2"}});
  Gauge& g2 = reg.gauge("sdx_depth", "", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&g1, &g2);
}

TEST(Registry, KindMismatchThrows) {
  MetricRegistry reg;
  reg.counter("sdx_thing_total");
  EXPECT_THROW(reg.gauge("sdx_thing_total"), std::invalid_argument);
  EXPECT_THROW(reg.histogram("sdx_thing_total"), std::invalid_argument);
  reg.histogram("sdx_lat_seconds", "", {0.1, 1.0});
  EXPECT_THROW(reg.histogram("sdx_lat_seconds", "", {0.5, 1.0}),
               std::invalid_argument);
}

TEST(Registry, PrometheusRenderingIsExactAndSorted) {
  MetricRegistry reg;
  // Registered out of name order on purpose: exposition sorts by name.
  reg.gauge("sdx_rib_prefixes", "prefixes in the RIB").set(7);
  Counter& c = reg.counter("sdx_announcements_total", "BGP announcements");
  c.inc(12);
  Histogram& h =
      reg.histogram("sdx_compile_seconds", "compile latency", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);

  const std::string expected =
      "# HELP sdx_announcements_total BGP announcements\n"
      "# TYPE sdx_announcements_total counter\n"
      "sdx_announcements_total 12\n"
      "# HELP sdx_compile_seconds compile latency\n"
      "# TYPE sdx_compile_seconds histogram\n"
      "sdx_compile_seconds_bucket{le=\"0.1\"} 1\n"
      "sdx_compile_seconds_bucket{le=\"1\"} 2\n"
      "sdx_compile_seconds_bucket{le=\"+Inf\"} 2\n"
      "sdx_compile_seconds_sum 0.55\n"
      "sdx_compile_seconds_count 2\n"
      "# HELP sdx_rib_prefixes prefixes in the RIB\n"
      "# TYPE sdx_rib_prefixes gauge\n"
      "sdx_rib_prefixes 7\n";
  EXPECT_EQ(reg.render_prometheus(), expected);
}

TEST(Registry, JsonSnapshotCarriesEveryInstrument) {
  MetricRegistry reg;
  reg.counter("sdx_updates_total", "", {{"peer", "a"}}).inc(2);
  reg.gauge("sdx_occupancy").set(3.5);
  reg.histogram("sdx_wait_seconds", "", {1.0}).observe(0.25);
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("{\"name\":\"sdx_updates_total\",\"labels\":"
                      "{\"peer\":\"a\"},\"value\":2}"),
            std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"sdx_occupancy\",\"labels\":{},"
                      "\"value\":3.5}"),
            std::string::npos);
  EXPECT_NE(json.find("\"buckets\":[{\"le\":\"1\",\"count\":1},"
                      "{\"le\":\"+Inf\",\"count\":1}]"),
            std::string::npos);
}

TEST(Registry, ConcurrentUpdatesFromTheThreadPoolAreExact) {
  // The instruments' fast paths are lock-free; hammer one counter, one
  // gauge and one histogram from every pool thread and check nothing is
  // lost. Under -DSDX_SANITIZE=thread this is the TSan witness for the
  // whole measurement plane.
  MetricRegistry reg;
  Counter& c = reg.counter("sdx_ops_total");
  Gauge& g = reg.gauge("sdx_inflight");
  Histogram& h = reg.histogram("sdx_op_seconds", "", {0.5});
  net::ThreadPool pool(4);
  constexpr std::size_t kOps = 20000;
  pool.parallel_for(kOps, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      c.inc();
      g.add(1.0);
      h.observe(i % 2 == 0 ? 0.25 : 0.75);
      // Get-or-create races against updates too.
      reg.counter("sdx_ops_total").inc();
    }
  });
  EXPECT_EQ(c.value(), 2 * kOps);
  EXPECT_DOUBLE_EQ(g.value(), static_cast<double>(kOps));
  EXPECT_EQ(h.count(), kOps);
  EXPECT_EQ(h.cumulative(), (std::vector<std::uint64_t>{kOps / 2, kOps}));
}

TEST(Tracer, RecordsNestedSpansPositionally) {
  SpanTracer tracer;
  {
    Span outer = tracer.span("compile");
    { Span inner = tracer.span("synth"); }
  }
  auto records = tracer.records();
  ASSERT_EQ(records.size(), 2u);
  // Completion order: inner closes first.
  EXPECT_EQ(records[0].name, "synth");
  EXPECT_EQ(records[1].name, "compile");
  EXPECT_TRUE(records[1].encloses(records[0]));
  EXPECT_FALSE(records[0].encloses(records[1]));
}

TEST(Tracer, SpanIsMoveOnlyAndFinishIsIdempotent) {
  SpanTracer tracer;
  Span a = tracer.span("work");
  Span b = std::move(a);
  b.finish();
  b.finish();
  a.finish();  // moved-from span is inert
  EXPECT_EQ(tracer.records().size(), 1u);

  // A null tracer produces no records and no crashes.
  Span inert(nullptr, "ghost");
  inert.finish();
  EXPECT_EQ(tracer.records().size(), 1u);
}

TEST(Tracer, ChromeJsonHasCompleteEvents) {
  SpanTracer tracer;
  { Span s = tracer.span("stage \"one\""); }
  const std::string json = tracer.render_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage \\\"one\\\"\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  tracer.clear();
  EXPECT_EQ(tracer.records().size(), 0u);
  EXPECT_EQ(tracer.render_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}");
}

TEST(Tracer, KeepsTheNewestSpansAndCountsEvictions) {
  SpanTracer tracer;
  Counter evicted;
  tracer.set_drop_counter(&evicted);
  constexpr std::size_t kCap = SpanTracer::kCapacity;
  for (std::size_t i = 0; i < kCap + 3; ++i) {
    Span s = tracer.span("span" + std::to_string(i));
  }
  auto records = tracer.records();
  ASSERT_EQ(records.size(), kCap);
  // The three oldest went; the rest stay in completion order.
  EXPECT_EQ(records.front().name, "span3");
  EXPECT_EQ(records.back().name, "span" + std::to_string(kCap + 2));
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(evicted.value(), 3u);
  EXPECT_EQ(tracer.render_chrome_json().find("\"span2\""), std::string::npos);

  // clear() resets the kept spans and dropped(); the counter keeps its
  // total.
  tracer.clear();
  EXPECT_TRUE(tracer.records().empty());
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(evicted.value(), 3u);
}

TEST(Tracer, ThreadsGetDistinctStableTids) {
  SpanTracer tracer;
  net::ThreadPool pool(3);
  pool.parallel_for(64, 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      Span s = tracer.span("chunk");
    }
  });
  auto records = tracer.records();
  ASSERT_EQ(records.size(), 64u);
  for (const auto& r : records) EXPECT_LT(r.tid, 3u);
}

}  // namespace
}  // namespace sdx::telemetry
