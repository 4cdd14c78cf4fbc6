// Unit coverage for pq::obs: histogram bucket boundaries, counter overflow,
// deterministic cross-shard merge, and the JSON/Prometheus round trip. These
// tests pin the contracts docs/OBSERVABILITY.md documents; the sharded
// determinism integration test builds on them.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace pq::obs {
namespace {

// --- counters --------------------------------------------------------------

TEST(CounterTest, IncrementsAndMerges) {
  Counter a;
  EXPECT_EQ(a.value(), 0u);
  a.inc();
  a.inc(41);
  EXPECT_EQ(a.value(), 42u);

  Counter b;
  b.inc(8);
  a.merge(b);
  EXPECT_EQ(a.value(), 50u);
}

TEST(CounterTest, OverflowWrapsModulo2To64) {
  Counter c;
  c.inc(std::numeric_limits<std::uint64_t>::max());
  c.inc(1);
  EXPECT_EQ(c.value(), 0u);
  c.inc(7);
  EXPECT_EQ(c.value(), 7u);

  // Merge wraps the same way — the sum of shard counters is well defined
  // even at the extreme.
  Counter hi;
  hi.inc(std::numeric_limits<std::uint64_t>::max());
  c.merge(hi);
  EXPECT_EQ(c.value(), 6u);
}

// --- gauges ----------------------------------------------------------------

TEST(GaugeTest, MaxModeKeepsHighWatermark) {
  Gauge g(GaugeMode::kMax);
  g.set_max(10);
  g.set_max(3);
  EXPECT_EQ(g.value(), 10u);

  Gauge other(GaugeMode::kMax);
  other.set_max(25);
  g.merge(other);
  EXPECT_EQ(g.value(), 25u);
}

TEST(GaugeTest, SumModeAddsAcrossShards) {
  Gauge g(GaugeMode::kSum);
  g.set(100);
  Gauge other(GaugeMode::kSum);
  other.set(50);
  g.merge(other);
  EXPECT_EQ(g.value(), 150u);
}

// --- histogram bucket boundaries ------------------------------------------

TEST(HistogramTest, BucketBoundariesFollowBitWidth) {
  // bucket 0 = {0}, bucket 1 = {1}, bucket i = [2^(i-1), 2^i - 1].
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);

  // Every power of two opens a new bucket; its predecessor closes one.
  for (std::size_t i = 1; i < 64; ++i) {
    const std::uint64_t pow2 = 1ull << i;
    EXPECT_EQ(Histogram::bucket_of(pow2), i + 1) << "2^" << i;
    EXPECT_EQ(Histogram::bucket_of(pow2 - 1), i) << "2^" << i << " - 1";
  }
  EXPECT_EQ(Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max()),
            64u);
}

TEST(HistogramTest, BucketUppersAreInclusiveBounds) {
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(3), 7u);
  EXPECT_EQ(Histogram::bucket_upper(64),
            std::numeric_limits<std::uint64_t>::max());
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    // A bucket's upper bound maps back into that bucket...
    EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i)), i);
    // ...and one past it maps into the next.
    if (i < 64) {
      EXPECT_EQ(Histogram::bucket_of(Histogram::bucket_upper(i) + 1), i + 1);
    }
  }
}

TEST(HistogramTest, ObserveTracksAggregates) {
  Histogram h;
  h.observe(5);
  h.observe(100);
  h.observe(0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(5)), 1u);
  EXPECT_EQ(h.bucket_count(Histogram::bucket_of(100)), 1u);
  EXPECT_EQ(h.bucket_count(0), 1u);
}

TEST(HistogramTest, QuantileWalksCumulativeCounts) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.observe(10);   // bucket 4, upper 15
  for (int i = 0; i < 10; ++i) h.observe(1000); // bucket 10, upper 1023
  EXPECT_EQ(h.quantile(0.5), 15u);
  // The p99 falls in the tail bucket; it is clamped by the observed max.
  EXPECT_EQ(h.quantile(0.99), 1000u);
  EXPECT_EQ(h.quantile(0.0), 15u);
}

TEST(HistogramTest, MergeAddsBucketsAndCombinesAggregates) {
  Histogram a, b;
  a.observe(4);
  a.observe(6);
  b.observe(1);
  b.observe(1 << 20);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.sum(), 4u + 6u + 1u + (1u << 20));
  EXPECT_EQ(a.min(), 1u);
  EXPECT_EQ(a.max(), 1u << 20);
  EXPECT_EQ(a.bucket_count(3), 2u);  // 4 and 6 share [4,7]
  EXPECT_EQ(a.bucket_count(1), 1u);
  EXPECT_EQ(a.bucket_count(21), 1u);
}

// --- registry semantics ----------------------------------------------------

TEST(RegistryTest, ReturnsStableReferencesByName) {
  MetricsRegistry reg;
  Counter& c1 = reg.counter("pq_test_total");
  Counter& c2 = reg.counter("pq_test_total");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  EXPECT_EQ(reg.counter_value("pq_test_total"), 3u);
}

TEST(RegistryTest, TypeMismatchThrows) {
  MetricsRegistry reg;
  reg.counter("pq_test_total");
  EXPECT_THROW(reg.gauge("pq_test_total"), std::logic_error);
  EXPECT_THROW(reg.histogram("pq_test_total"), std::logic_error);
  EXPECT_THROW(reg.gauge_value("pq_test_total"), std::logic_error);
  EXPECT_THROW((void)reg.counter_value("pq_missing"), std::out_of_range);
}

// Builds a synthetic shard registry with all three metric kinds; `shard`
// varies the values so merges are non-trivial.
MetricsRegistry make_shard(std::uint64_t shard) {
  MetricsRegistry reg;
  reg.counter("pq_test_packets_total").inc(100 + shard);
  reg.gauge("pq_test_peak_depth", GaugeMode::kMax).set_max(10 * (shard + 1));
  reg.gauge("pq_test_sram_bytes", GaugeMode::kSum).set(4096);
  Histogram& h = reg.histogram("pq_test_latency_ns");
  for (std::uint64_t i = 0; i <= shard; ++i) h.observe(1ull << (i + 4));
  reg.counter("pq_test_drain_ns_total", "", /*timing=*/true).inc(777 * shard);
  return reg;
}

TEST(RegistryTest, MergeMatchesHandComputedTotals) {
  MetricsRegistry merged;
  for (std::uint64_t s = 0; s < 4; ++s) merged.merge(make_shard(s));
  EXPECT_EQ(merged.counter_value("pq_test_packets_total"),
            100u + 101u + 102u + 103u);
  EXPECT_EQ(merged.gauge_value("pq_test_peak_depth"), 40u);   // max
  EXPECT_EQ(merged.gauge_value("pq_test_sram_bytes"), 4u * 4096u);  // sum
  EXPECT_EQ(merged.histogram_at("pq_test_latency_ns").count(),
            1u + 2u + 3u + 4u);
}

// The determinism contract: merging the same shard registries in ANY
// grouping and order yields byte-identical serialized output. This is what
// lets a 1-thread and an 8-thread run agree.
TEST(RegistryTest, MergeIsOrderAndGroupingInvariant) {
  constexpr std::uint64_t kShards = 8;
  auto merge_in_order = [](const std::vector<std::uint64_t>& order) {
    MetricsRegistry merged;
    for (const auto s : order) merged.merge(make_shard(s));
    return merged.to_json();
  };

  std::vector<std::uint64_t> order(kShards);
  std::iota(order.begin(), order.end(), 0);
  const std::string forward = merge_in_order(order);

  std::reverse(order.begin(), order.end());
  EXPECT_EQ(merge_in_order(order), forward);

  std::mt19937 rng(2024);
  for (int trial = 0; trial < 5; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    EXPECT_EQ(merge_in_order(order), forward) << "trial " << trial;
  }

  // Tree-shaped grouping (how a worker pool with 2 or 4 threads would
  // combine partial merges) agrees with the flat left fold.
  MetricsRegistry left, right;
  for (std::uint64_t s = 0; s < kShards / 2; ++s) left.merge(make_shard(s));
  for (std::uint64_t s = kShards / 2; s < kShards; ++s) {
    right.merge(make_shard(s));
  }
  left.merge(right);
  EXPECT_EQ(left.to_json(), forward);
}

TEST(RegistryTest, TimingViewOmitsWallClockMetrics) {
  MetricsRegistry reg = make_shard(1);
  const std::string full = reg.to_json(IncludeTimings::kYes);
  const std::string det = reg.to_json(IncludeTimings::kNo);
  EXPECT_NE(full.find("pq_test_drain_ns_total"), std::string::npos);
  EXPECT_EQ(det.find("pq_test_drain_ns_total"), std::string::npos);
  EXPECT_NE(det.find("pq_test_packets_total"), std::string::npos);

  const std::string prom = reg.to_prometheus(IncludeTimings::kNo);
  EXPECT_EQ(prom.find("pq_test_drain_ns_total"), std::string::npos);
}

// --- serialization round trips ---------------------------------------------

TEST(RegistryTest, JsonRoundTripIsByteExact) {
  MetricsRegistry merged;
  for (std::uint64_t s = 0; s < 3; ++s) merged.merge(make_shard(s));
  const std::string once = merged.to_json();
  const MetricsRegistry back = MetricsRegistry::from_json(once);
  EXPECT_EQ(back.to_json(), once);

  // Values survive, not just bytes.
  EXPECT_EQ(back.counter_value("pq_test_packets_total"),
            merged.counter_value("pq_test_packets_total"));
  EXPECT_EQ(back.gauge_value("pq_test_peak_depth"),
            merged.gauge_value("pq_test_peak_depth"));
  const Histogram& h = back.histogram_at("pq_test_latency_ns");
  EXPECT_EQ(h.count(), merged.histogram_at("pq_test_latency_ns").count());
  EXPECT_EQ(h.sum(), merged.histogram_at("pq_test_latency_ns").sum());
  EXPECT_EQ(h.min(), merged.histogram_at("pq_test_latency_ns").min());
  EXPECT_EQ(h.max(), merged.histogram_at("pq_test_latency_ns").max());
}

TEST(RegistryTest, FromJsonRejectsMalformedInput) {
  EXPECT_THROW(MetricsRegistry::from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(MetricsRegistry::from_json("{\"metrics\":["),
               std::invalid_argument);
  EXPECT_THROW(
      MetricsRegistry::from_json(
          "{\"metrics\":[{\"name\":\"x\",\"type\":\"tuba\",\"timing\":0}]}"),
      std::invalid_argument);
}

TEST(RegistryTest, PrometheusExpositionShape) {
  MetricsRegistry reg;
  reg.counter("pq_test_packets_total", "packets").inc(12);
  reg.gauge("pq_test_depth", GaugeMode::kMax, "depth").set_max(7);
  Histogram& h = reg.histogram("pq_test_ns", "latency");
  h.observe(3);
  h.observe(900);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# HELP pq_test_packets_total packets"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE pq_test_packets_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("pq_test_packets_total 12"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pq_test_depth gauge"), std::string::npos);
  EXPECT_NE(prom.find("pq_test_depth 7"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE pq_test_ns histogram"), std::string::npos);
  // Cumulative buckets: the 900 sample (bucket 10, upper 1023) must be
  // included in the le="1023" count together with the 3 sample.
  EXPECT_NE(prom.find("pq_test_ns_bucket{le=\"1023\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("pq_test_ns_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(prom.find("pq_test_ns_sum 903"), std::string::npos);
  EXPECT_NE(prom.find("pq_test_ns_count 2"), std::string::npos);
}

}  // namespace
}  // namespace pq::obs
