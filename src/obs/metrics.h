// pq::obs — low-overhead metrics for the PrintQueue reproduction itself.
//
// The paper's thesis is that you cannot diagnose what you do not measure
// in-band; this subsystem applies the same discipline to the simulator:
// monotonic counters, gauges, log2-bucketed histograms and RAII scoped
// timers, collected into per-shard MetricsRegistry instances that merge
// deterministically (the same contract as control::ShardedAnalysis, so the
// merged output is byte-identical for any thread count) and serialize to
// JSON and Prometheus text exposition.
//
// Determinism contract (docs/OBSERVABILITY.md): every metric except those
// registered with `timing = true` depends only on the workload, never on
// scheduling. Wall-clock-derived metrics (drain ns, poll/query latency) are
// tagged `timing` and excluded from the deterministic serialization view
// (`IncludeTimings::kNo`), which is what the sharded determinism test
// byte-compares across thread counts.
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace pq::obs {

/// Monotonic counter. Increments wrap modulo 2^64 (unsigned overflow is
/// well defined and tested); merge is addition.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_ += n; }
  std::uint64_t value() const { return v_; }
  void merge(const Counter& o) { v_ += o.v_; }

 private:
  std::uint64_t v_ = 0;
};

/// How a gauge combines across shards.
enum class GaugeMode : std::uint8_t {
  kMax,  ///< high-watermark (e.g. peak queue depth): merge takes the max
  kSum,  ///< additive level (e.g. resident bytes): merge adds
};

class Gauge {
 public:
  explicit Gauge(GaugeMode mode = GaugeMode::kMax) : mode_(mode) {}

  void set(std::uint64_t v) { v_ = v; }
  void set_max(std::uint64_t v) {
    if (v > v_) v_ = v;
  }
  std::uint64_t value() const { return v_; }
  GaugeMode mode() const { return mode_; }
  void merge(const Gauge& o) {
    if (mode_ == GaugeMode::kMax) {
      set_max(o.v_);
    } else {
      v_ += o.v_;
    }
  }

 private:
  std::uint64_t v_ = 0;
  GaugeMode mode_;
};

/// Log2-bucketed histogram over non-negative integer samples (latencies in
/// ns, sizes in bytes/cells). Bucket i holds samples whose bit width is i:
/// bucket 0 = {0}, bucket 1 = {1}, bucket 2 = [2,3], bucket 3 = [4,7], ...
/// bucket 64 = [2^63, 2^64-1]. Fixed footprint, one bit_width per observe.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  void observe(std::uint64_t v) {
    ++buckets_[bucket_of(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Bucket index a value lands in (== std::bit_width).
  static std::size_t bucket_of(std::uint64_t v) {
    return static_cast<std::size_t>(std::bit_width(v));
  }
  /// Inclusive upper bound of bucket i (2^i - 1; saturates at 2^64-1).
  static std::uint64_t bucket_upper(std::size_t i) {
    return i >= 64 ? ~0ull : (1ull << i) - 1;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(std::size_t i) const { return buckets_.at(i); }

  /// Approximate quantile: the upper bound of the bucket where the
  /// cumulative count first reaches q * count (clamped by observed max).
  std::uint64_t quantile(double q) const;

  void merge(const Histogram& o);

  /// Deserialization hooks (from_json only): overwrite one bucket's raw
  /// count, then patch the exact aggregates the serialized form carried.
  void restore_bucket(std::size_t i, std::uint64_t n) { buckets_.at(i) = n; }
  void restore_aggregates(std::uint64_t count, std::uint64_t sum,
                          std::uint64_t min, std::uint64_t max) {
    count_ = count;
    sum_ = sum;
    min_ = min;
    max_ = max;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

/// Monotonic nanosecond stopwatch for manual accumulation.
class StopwatchNs {
 public:
  StopwatchNs() : t0_(std::chrono::steady_clock::now()) {}
  std::uint64_t elapsed_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

/// RAII timer: observes the scope's wall-clock ns into a histogram (and
/// optionally a running-total counter) on destruction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h, Counter* total_ns = nullptr)
      : h_(&h), total_(total_ns) {}
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ~ScopedTimer() {
    const std::uint64_t ns = watch_.elapsed_ns();
    h_->observe(ns);
    if (total_ != nullptr) total_->inc(ns);
  }

 private:
  Histogram* h_;
  Counter* total_;
  StopwatchNs watch_;
};

enum class MetricType : std::uint8_t { kCounter, kGauge, kHistogram };

/// Whether wall-clock-derived (`timing`) metrics appear in serialized
/// output. kNo is the deterministic view the cross-thread byte-identity
/// contract covers.
enum class IncludeTimings : std::uint8_t { kNo, kYes };

/// A named collection of metrics, ordered by name (std::map) so iteration,
/// merge and serialization are deterministic. One registry per shard; the
/// coordinator merges them in shard-index order. Returned references are
/// stable for the registry's lifetime — resolve them once, off the hot path.
class MetricsRegistry {
 public:
  /// Registers (or finds) a metric. Re-registering an existing name with a
  /// different type throws std::logic_error; help/timing of the first
  /// registration win.
  Counter& counter(std::string_view name, std::string_view help = "",
                   bool timing = false);
  Gauge& gauge(std::string_view name, GaugeMode mode = GaugeMode::kMax,
               std::string_view help = "", bool timing = false);
  Histogram& histogram(std::string_view name, std::string_view help = "",
                       bool timing = false);

  /// Merges another registry in: metrics are matched by name (counters add,
  /// gauges combine per their mode, histogram buckets add); names only in
  /// `other` are copied. Type mismatches throw std::logic_error. Merge is
  /// associative and commutative, so any merge order over a set of shard
  /// registries yields the same result.
  void merge(const MetricsRegistry& other);

  std::size_t size() const { return metrics_.size(); }
  bool contains(std::string_view name) const {
    return metrics_.find(std::string(name)) != metrics_.end();
  }

  /// Value lookups for tests and exporters (throw std::out_of_range when
  /// missing or std::logic_error on type mismatch).
  std::uint64_t counter_value(std::string_view name) const;
  std::uint64_t gauge_value(std::string_view name) const;
  const Histogram& histogram_at(std::string_view name) const;

  /// Canonical JSON: `{"metrics":[...]}` sorted by name, integers only, no
  /// floats — byte-comparable across runs. IncludeTimings::kNo omits
  /// timing-tagged metrics (the deterministic view).
  std::string to_json(IncludeTimings timings = IncludeTimings::kYes) const;

  /// Prometheus text exposition (one # HELP/# TYPE block per metric;
  /// histograms emit cumulative le-labelled buckets, _sum and _count).
  std::string to_prometheus(
      IncludeTimings timings = IncludeTimings::kYes) const;

  /// Parses exactly the format to_json emits (whitespace-tolerant).
  /// Throws std::invalid_argument on malformed input. Round-trip contract:
  /// from_json(r.to_json()).to_json() == r.to_json().
  static MetricsRegistry from_json(std::string_view json);

 private:
  struct Metric {
    MetricType type = MetricType::kCounter;
    bool timing = false;
    std::string help;
    Counter counter;
    Gauge gauge;
    Histogram hist;
  };

  Metric& entry(std::string_view name, MetricType type, std::string_view help,
                bool timing, GaugeMode mode);
  const Metric& at(std::string_view name, MetricType type) const;

  std::map<std::string, Metric> metrics_;
};

}  // namespace pq::obs
