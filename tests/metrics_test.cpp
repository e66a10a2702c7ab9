// Tests for the live server metrics registry: instrument semantics
// (counters, gauges, histogram bucketing), reference stability, exactness
// under concurrent observers, and the two renderings with their
// consistency invariants (histogram count == sum of bucket counts; the
// cumulative +Inf text bucket == count) that the CI server smoke asserts
// from the outside.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "service/metrics.hpp"

namespace cmc::service {
namespace {

TEST(Metrics, CounterAndGaugeSemantics) {
  MetricsRegistry reg;
  reg.counter("reqs").inc();
  reg.counter("reqs").inc(4);
  EXPECT_EQ(reg.counterValue("reqs"), 5u);
  EXPECT_EQ(reg.counterValue("never_touched"), 0u);

  Gauge& depth = reg.gauge("queue_depth");
  depth.inc(3);
  depth.dec();
  EXPECT_EQ(reg.gaugeValue("queue_depth"), 2);
  depth.dec(5);  // gauges may go negative
  EXPECT_EQ(reg.gaugeValue("queue_depth"), -3);
  depth.set(7);
  EXPECT_EQ(reg.gaugeValue("queue_depth"), 7);
}

TEST(Metrics, ReferencesAreStableAcrossCreation) {
  // Call sites resolve once and update lock-free; a rebalanced registry
  // must never move an instrument.
  MetricsRegistry reg;
  Counter& first = reg.counter("anchor");
  for (int i = 0; i < 256; ++i) {
    reg.counter("filler_" + std::to_string(i));
    reg.histogram("hist_" + std::to_string(i));
  }
  EXPECT_EQ(&first, &reg.counter("anchor"));
  first.inc();
  EXPECT_EQ(reg.counterValue("anchor"), 1u);
}

/// Index of the bucket whose upper bound is exactly `bound`.
std::size_t bucketIndex(double bound) {
  const std::vector<double>& bounds = LatencyHistogram::bucketBounds();
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    if (bounds[i] == bound) return i;
  }
  ADD_FAILURE() << "no bucket bound " << bound;
  return bounds.size();
}

TEST(Metrics, HistogramBucketsObservations) {
  LatencyHistogram h;
  h.observe(0.0004);  // le 0.0005
  h.observe(0.004);   // le 0.005
  h.observe(0.7);     // le 1.0
  h.observe(120.0);   // +Inf overflow
  h.observe(-1.0);    // clamps to 0 -> the first bucket
  const LatencyHistogram::Snapshot s = h.snapshot();
  const std::vector<double>& bounds = LatencyHistogram::bucketBounds();
  ASSERT_EQ(s.counts.size(), bounds.size() + 1);  // finite + overflow
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.counts[0], 1u);                     // the clamped -1
  EXPECT_EQ(s.counts[bucketIndex(0.0005)], 1u);   // 0.0004
  EXPECT_EQ(s.counts[bucketIndex(0.005)], 1u);    // 0.004
  EXPECT_EQ(s.counts[bucketIndex(1.0)], 1u);      // 0.7
  EXPECT_EQ(s.counts.back(), 1u);  // 120 s overflows the ladder
  EXPECT_NEAR(s.sumSeconds, 0.0004 + 0.004 + 0.7 + 120.0, 1e-3);

  // The invariant every snapshot must satisfy: bucket counts partition the
  // observations.
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, s.count);
}

TEST(Metrics, SubMillisecondObservationLandsBelowTheMillisecondBucket) {
  // A 30 us component obligation must not be lumped in with everything
  // else under 1 ms.
  LatencyHistogram h;
  h.observe(0.00003);
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.counts[bucketIndex(0.00005)], 1u);  // (25 us, 50 us]
  EXPECT_EQ(s.counts[bucketIndex(0.001)], 0u);
  std::uint64_t total = 0;
  for (std::uint64_t c : s.counts) total += c;
  EXPECT_EQ(total, s.count);
  EXPECT_LT(s.quantile(0.5), 0.001);

  MetricsRegistry reg;
  reg.histogram("lat").observe(0.00003);
  const std::string text = reg.toText();
  EXPECT_NE(text.find("lat_bucket{le=\"5e-05\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"2.5e-05\"} 0\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 1\n"), std::string::npos);
}

TEST(Metrics, ConcurrentObserversLoseNothing) {
  // Counters and histograms are relaxed atomics: concurrent updates must
  // still be exact in the final tally (the sanitizer job runs this under
  // TSan).
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  LatencyHistogram& h = reg.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.observe(t < 2 ? 0.002 : 2.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads * kPerThread));
  const LatencyHistogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(s.counts[bucketIndex(0.0025)],
            static_cast<std::uint64_t>(2 * kPerThread));
  EXPECT_EQ(s.counts[bucketIndex(2.5)],
            static_cast<std::uint64_t>(2 * kPerThread));
}

TEST(Metrics, JsonRenderingIsConsistent) {
  MetricsRegistry reg;
  reg.counter("checks_admitted").inc(3);
  reg.gauge("in_flight").set(-2);
  reg.histogram("request_seconds").observe(0.01);
  reg.histogram("request_seconds").observe(3.0);
  const std::string json = reg.toJson();
  EXPECT_NE(json.find("\"checks_admitted\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"in_flight\": -2"), std::string::npos);
  EXPECT_NE(json.find("\"request_seconds\": {\"count\": 2"),
            std::string::npos);
  EXPECT_NE(json.find("\"bounds\": [1e-05, "), std::string::npos);
}

TEST(Metrics, TextRenderingCumulativeBuckets) {
  MetricsRegistry reg;
  reg.counter("checks_admitted").inc(2);
  LatencyHistogram& h = reg.histogram("lat");
  h.observe(0.0005);
  h.observe(0.3);
  h.observe(999.0);
  const std::string text = reg.toText();
  EXPECT_NE(text.find("checks_admitted 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_count 3\n"), std::string::npos);
  // Cumulative: every observation is <= +Inf, so the final bucket equals
  // the count — the invariant the server smoke greps for.
  EXPECT_NE(text.find("lat_bucket{le=\"+Inf\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"0.001\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_bucket{le=\"0.5\"} 2\n"), std::string::npos);
}

}  // namespace
}  // namespace cmc::service
