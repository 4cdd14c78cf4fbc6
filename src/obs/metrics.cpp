#include "obs/metrics.h"

#include <cmath>
#include <stdexcept>
#include <vector>

#include "common/json_reader.h"

namespace pq::obs {

namespace {

const char* type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "?";
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

}  // namespace

std::uint64_t Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    cumulative += buckets_[i];
    if (static_cast<double>(cumulative) >= target && cumulative > 0) {
      // The bucket's upper bound, clamped by the true observed extremes.
      const std::uint64_t ub = bucket_upper(i);
      return std::min(std::max(ub, min()), max_);
    }
  }
  return max_;
}

void Histogram::merge(const Histogram& o) {
  if (o.count_ == 0) return;
  for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
  if (count_ == 0 || o.min_ < min_) min_ = o.min_;
  if (o.max_ > max_) max_ = o.max_;
  count_ += o.count_;
  sum_ += o.sum_;
}

MetricsRegistry::Metric& MetricsRegistry::entry(std::string_view name,
                                                MetricType type,
                                                std::string_view help,
                                                bool timing, GaugeMode mode) {
  auto [it, inserted] = metrics_.try_emplace(std::string(name));
  Metric& m = it->second;
  if (inserted) {
    m.type = type;
    m.timing = timing;
    m.help = std::string(help);
    m.gauge = Gauge(mode);
  } else if (m.type != type) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' re-registered as a different type");
  }
  return m;
}

const MetricsRegistry::Metric& MetricsRegistry::at(std::string_view name,
                                                   MetricType type) const {
  auto it = metrics_.find(std::string(name));
  if (it == metrics_.end()) {
    throw std::out_of_range("no metric named '" + std::string(name) + "'");
  }
  if (it->second.type != type) {
    throw std::logic_error("metric '" + std::string(name) +
                           "' has a different type");
  }
  return it->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help, bool timing) {
  return entry(name, MetricType::kCounter, help, timing, GaugeMode::kMax)
      .counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, GaugeMode mode,
                              std::string_view help, bool timing) {
  return entry(name, MetricType::kGauge, help, timing, mode).gauge;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::string_view help, bool timing) {
  return entry(name, MetricType::kHistogram, help, timing, GaugeMode::kMax)
      .hist;
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  return at(name, MetricType::kCounter).counter.value();
}

std::uint64_t MetricsRegistry::gauge_value(std::string_view name) const {
  return at(name, MetricType::kGauge).gauge.value();
}

const Histogram& MetricsRegistry::histogram_at(std::string_view name) const {
  return at(name, MetricType::kHistogram).hist;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, theirs] : other.metrics_) {
    auto [it, inserted] = metrics_.try_emplace(name);
    Metric& mine = it->second;
    if (inserted) {
      mine = theirs;
      continue;
    }
    if (mine.type != theirs.type) {
      throw std::logic_error("merge: metric '" + name +
                             "' has conflicting types");
    }
    switch (mine.type) {
      case MetricType::kCounter:
        mine.counter.merge(theirs.counter);
        break;
      case MetricType::kGauge:
        mine.gauge.merge(theirs.gauge);
        break;
      case MetricType::kHistogram:
        mine.hist.merge(theirs.hist);
        break;
    }
  }
}

std::string MetricsRegistry::to_json(IncludeTimings timings) const {
  std::string out = "{\"metrics\":[";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    if (m.timing && timings == IncludeTimings::kNo) continue;
    if (!first) out += ',';
    first = false;
    out += "\n  {\"name\":\"";
    out += name;
    out += "\",\"type\":\"";
    out += type_name(m.type);
    out += "\",\"timing\":";
    out += m.timing ? '1' : '0';
    switch (m.type) {
      case MetricType::kCounter:
        out += ",\"value\":";
        append_u64(out, m.counter.value());
        break;
      case MetricType::kGauge:
        out += ",\"mode\":\"";
        out += m.gauge.mode() == GaugeMode::kMax ? "max" : "sum";
        out += "\",\"value\":";
        append_u64(out, m.gauge.value());
        break;
      case MetricType::kHistogram: {
        out += ",\"count\":";
        append_u64(out, m.hist.count());
        out += ",\"sum\":";
        append_u64(out, m.hist.sum());
        out += ",\"min\":";
        append_u64(out, m.hist.min());
        out += ",\"max\":";
        append_u64(out, m.hist.max());
        out += ",\"buckets\":[";
        bool bfirst = true;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (m.hist.bucket_count(i) == 0) continue;
          if (!bfirst) out += ',';
          bfirst = false;
          out += '[';
          append_u64(out, i);
          out += ',';
          append_u64(out, m.hist.bucket_count(i));
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

std::string MetricsRegistry::to_prometheus(IncludeTimings timings) const {
  std::string out;
  for (const auto& [name, m] : metrics_) {
    if (m.timing && timings == IncludeTimings::kNo) continue;
    if (!m.help.empty()) {
      out += "# HELP " + name + " " + m.help + "\n";
    }
    out += "# TYPE " + name + " ";
    out += type_name(m.type);
    out += '\n';
    switch (m.type) {
      case MetricType::kCounter:
        out += name + " " + std::to_string(m.counter.value()) + "\n";
        break;
      case MetricType::kGauge:
        out += name + " " + std::to_string(m.gauge.value()) + "\n";
        break;
      case MetricType::kHistogram: {
        std::uint64_t cumulative = 0;
        std::size_t highest = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (m.hist.bucket_count(i) > 0) highest = i;
        }
        for (std::size_t i = 0; i <= highest && m.hist.count() > 0; ++i) {
          cumulative += m.hist.bucket_count(i);
          out += name + "_bucket{le=\"" +
                 std::to_string(Histogram::bucket_upper(i)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} " +
               std::to_string(m.hist.count()) + "\n";
        out += name + "_sum " + std::to_string(m.hist.sum()) + "\n";
        out += name + "_count " + std::to_string(m.hist.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

// --- from_json: a minimal parser for exactly the shape to_json emits ---

MetricsRegistry MetricsRegistry::from_json(std::string_view json) {
  MetricsRegistry reg;
  JsonCursor c(json);
  const auto fail = [&c](const char* what) {
    throw std::invalid_argument(std::string("metrics JSON: ") + what +
                                " at offset " + std::to_string(c.offset()));
  };
  const auto expect = [&](char ch) {
    if (!c.eat(ch)) fail("unexpected character");
  };
  const auto string = [&] {
    std::string out;
    if (!c.string(out)) fail("expected an unescaped string");
    return out;
  };
  const auto u64 = [&] {
    std::uint64_t v = 0;
    if (!c.u64(v)) fail("expected an integer");
    return v;
  };
  expect('{');
  if (string() != "metrics") fail("expected \"metrics\"");
  expect(':');
  expect('[');
  if (!c.eat(']')) {
    do {
      expect('{');
      std::string name, type, mode = "max";
      bool timing = false;
      std::uint64_t value = 0, count = 0, sum = 0, minv = 0, maxv = 0;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;
      do {
        const std::string key = string();
        expect(':');
        if (key == "name") {
          name = string();
        } else if (key == "type") {
          type = string();
        } else if (key == "mode") {
          mode = string();
        } else if (key == "timing") {
          timing = u64() != 0;
        } else if (key == "value") {
          value = u64();
        } else if (key == "count") {
          count = u64();
        } else if (key == "sum") {
          sum = u64();
        } else if (key == "min") {
          minv = u64();
        } else if (key == "max") {
          maxv = u64();
        } else if (key == "buckets") {
          expect('[');
          if (!c.eat(']')) {
            do {
              expect('[');
              const std::uint64_t idx = u64();
              expect(',');
              const std::uint64_t n = u64();
              expect(']');
              buckets.emplace_back(idx, n);
            } while (c.eat(','));
            expect(']');
          }
        } else {
          fail("unknown key");
        }
      } while (c.eat(','));
      expect('}');
      if (name.empty()) fail("metric without a name");
      if (type == "counter") {
        reg.counter(name, "", timing).inc(value);
      } else if (type == "gauge") {
        reg.gauge(name, mode == "sum" ? GaugeMode::kSum : GaugeMode::kMax,
                  "", timing)
            .set(value);
      } else if (type == "histogram") {
        Histogram& dst = reg.histogram(name, "", timing);
        for (const auto& [idx, n] : buckets) {
          if (idx >= Histogram::kBuckets) fail("bucket index out of range");
          dst.restore_bucket(static_cast<std::size_t>(idx), n);
        }
        dst.restore_aggregates(count, sum, minv, maxv);
      } else {
        fail("unknown metric type");
      }
    } while (c.eat(','));
    expect(']');
  }
  expect('}');
  return reg;
}

}  // namespace pq::obs
