// Shared helpers for the perfbench binary: argv lookup, exact quantiles,
// peak RSS, the flat JSON result line, and an in-memory span tracer.
//
// Everything here measures the program from outside: spans are opened
// around calls into the modules' public functions (or inside thin
// interposers on the public seams — sim::EgressHook, core::PipelineObserver,
// control::TelemetrySink), never inside src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

// --- argv -----------------------------------------------------------------

class Args {
 public:
  Args(int argc, char** argv) : v_(argv + 1, argv + argc) {}

  std::string str(const char* name, const char* dflt) const {
    for (std::size_t i = 0; i + 1 < v_.size(); ++i) {
      if (v_[i] == name) return v_[i + 1];
    }
    return dflt;
  }
  double num(const char* name, double dflt) const {
    const std::string s = str(name, "");
    if (s.empty()) return dflt;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0') {
      std::fprintf(stderr, "perfbench: %s expects a number, got '%s'\n", name,
                   s.c_str());
      std::exit(2);
    }
    return v;
  }

 private:
  std::vector<std::string> v_;
};

// --- statistics -------------------------------------------------------------

/// Exact quantile over all samples, linear interpolation between the two
/// nearest ranks (numpy's default). q in [0, 1].
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// A tail latency: the value at `percentile` over `samples` samples.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};

/// The tail at `percentile`, which each workload fixes as the highest of
/// {99.9, 99, 90, 50} that leaves at least ten samples beyond it at the
/// sample count a run is designed to reach (a fixed choice, so the metric
/// never switches percentile between runs). A run with fewer samples falls
/// back to the highest percentile that still has ten beyond it.
inline Tail tail(const std::vector<double>& v, double percentile) {
  Tail t;
  t.samples = v.size();
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    const double beyond = (1.0 - p / 100.0) * static_cast<double>(v.size());
    if (p <= percentile && (beyond >= 10.0 || p == 50.0)) {
      t.percentile = p;
      t.value = quantile(v, p / 100.0);
      return t;
    }
  }
  return t;
}

/// VmHWM of this process, in MB.
inline double peak_rss_mb() {
  double mb = 0.0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      unsigned long kb = 0;
      if (std::sscanf(line, "VmHWM: %lu kB", &kb) == 1) {
        mb = static_cast<double>(kb) / 1024.0;
        break;
      }
    }
    std::fclose(f);
  }
  return mb;
}

// --- result line ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the run's result as one flat JSON object on its own line:
/// {"correct": .., "attempted": .., "failed": .., "metrics": {name:
/// {"value": v, "unit": u}, ...}, "counts": {...}}. `counts` carries the
/// deterministic per-seed values run.py compares with recorded_counts.json.
using Counts = std::vector<std::pair<std::string, std::uint64_t>>;

inline void print_result(bool correct, std::uint64_t attempted,
                         std::uint64_t failed,
                         const std::vector<Metric>& metrics,
                         const Counts& counts) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}, \"counts\": {";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + counts[i].first + "\": " + std::to_string(counts[i].second);
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- tracing ----------------------------------------------------------------

/// One timed interval. `parent` indexes the enclosing span of the same lane
/// (-1 for a lane root).
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
};

/// A single-threaded span buffer: one per thread of work (the main thread,
/// or one shard, which only ever runs on one worker at a time).
class Lane {
 public:
  explicit Lane(std::string name) : name_(std::move(name)) {}

  void open(const char* name) {
    const auto parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{name, now_ns(), 0, parent});
    stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::string& name() const { return name_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the part covered by child spans), in
  /// seconds, summed per span name.
  void add_self_times(std::map<std::string, double>& out) const {
    std::vector<std::int64_t> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] +=
          s.end_ns - s.start_ns;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].name] +=
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                              child[i]) / 1e9;
    }
  }

 private:
  std::string name_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Opens a span on construction and closes it on destruction; a null lane
/// (untraced run) makes both a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name) : lane_(lane) {
    if (lane_ != nullptr) lane_->open(name);
  }
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->close();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
};

/// Owns every lane of one traced iteration. Lanes are created on the main
/// thread before workers start; each is then written by one thread only.
class Tracer {
 public:
  Lane& lane(const std::string& name) {
    lanes_.emplace_back(name);
    return lanes_.back();
  }
  void clear() { lanes_.clear(); }

  /// Self seconds per span name across all lanes whose name starts with
  /// `lane_prefix` (empty: every lane).
  std::map<std::string, double> self_times(const std::string& lane_prefix = "")
      const {
    std::map<std::string, double> out;
    for (const Lane& l : lanes_) {
      if (l.name().compare(0, lane_prefix.size(), lane_prefix) == 0) {
        l.add_self_times(out);
      }
    }
    return out;
  }

  /// Writes every span as JSON lines: {"workload", "lane", "id", "name",
  /// "start_ns", "end_ns", "parent"}; start/end are relative to the
  /// earliest span.
  bool write(const std::string& path, const std::string& workload) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::int64_t origin = 0;
    bool first = true;
    for (const Lane& l : lanes_) {
      for (const Span& s : l.spans()) {
        if (first || s.start_ns < origin) origin = s.start_ns;
        first = false;
      }
    }
    for (const Lane& l : lanes_) {
      for (std::size_t i = 0; i < l.spans().size(); ++i) {
        const Span& s = l.spans()[i];
        std::fprintf(f,
                     "{\"workload\": \"%s\", \"lane\": \"%s\", \"id\": %zu, "
                     "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                     "\"parent\": %d}\n",
                     workload.c_str(), l.name().c_str(), i, s.name,
                     static_cast<long long>(s.start_ns - origin),
                     static_cast<long long>(s.end_ns - origin), s.parent);
      }
    }
    return std::fclose(f) == 0;
  }

 private:
  std::deque<Lane> lanes_;  ///< deque: lane references stay valid
};

}  // namespace perfbench
