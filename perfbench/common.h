// What the three workloads share: the run configuration, the report each
// fills in, the tracing interposers on the program's public seams, input
// generation, and the single-threaded replay used to cost layers that run
// on threads the benchmark cannot interpose on.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "control/analysis_program.h"
#include "control/sharded_analysis.h"
#include "control/telemetry_sink.h"
#include "core/pipeline.h"
#include "core/port_pipeline.h"
#include "sim/hooks.h"
#include "wire/telemetry.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     ///< scratch space inside the checkout
  std::string trace_path;  ///< where the traced run writes its spans
};

/// Everything one process measures. Timings are pooled over iterations;
/// per-layer values are kept per traced iteration and reported as medians.
struct Report {
  // End-to-end samples (untraced iterations only).
  std::vector<double> setup_s;
  std::vector<double> ingest_pps;
  std::vector<double> recovery_s;
  std::vector<double> live_query_us;
  std::vector<double> archive_query_ms;
  std::vector<double> attribution_ms;
  /// Tail percentiles the workload's sample counts support (bench_util.h
  /// tail()).
  double live_tail_pct = 90.0;
  double archive_tail_pct = 90.0;
  double open_loop_lateness_us = 0.0;  ///< serve_live only (median)
  double open_loop_lateness_max_us = 0.0;

  // Traced iterations: per-layer values, and traced/untraced ingest pairs.
  std::vector<std::map<std::string, double>> layers;
  std::vector<double> traced_ingest_pps;

  // Operations attempted / failed (queries not answered in full, records
  // shed or rejected), and output-check failures.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> check_failures;
  /// Deterministic values per input trace (compared across the
  /// iterations that reuse a trace here, and against recorded_counts.json
  /// by run.py), and each trace's culprit precision.
  std::map<std::size_t, Counts> trace_counts;
  std::map<std::size_t, double> trace_precision;
  std::uint64_t iterations = 0;

  /// Adds one untraced iteration's end-to-end samples.
  void add_iteration(double setup, double ingest, double recovery,
                     const std::vector<double>& live,
                     const std::vector<double>& attribution,
                     const std::vector<double>& archive);

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  /// Records a trace's counts and precision the first time it runs and
  /// checks that every later iteration on it reproduces them exactly.
  void check_repeat(std::size_t trace, const Counts& counts,
                    double precision);
  /// Every trace's counts, flattened as "<name>.t<trace>".
  Counts counts() const;
  /// Mean precision over the traces.
  double culprit_precision() const;
};

/// Each run draws this many input traces from its seed and cycles through
/// them, so a run's medians average over several inputs rather than
/// following one trace's quirks.
inline constexpr std::size_t kTraces = 6;

/// Which iterations run, on which trace, and which are traced. Untraced
/// runs cycle the traces; traced runs alternate an untraced and a traced
/// iteration on the same trace (their ratio is the tracing overhead).
/// Untraced runs cover every trace at least once, traced runs at least two
/// pairs; then iterations continue until --seconds have passed.
class Schedule {
 public:
  explicit Schedule(const RunConfig& cfg)
      : end_ns_(now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9)),
        trace_(cfg.trace) {}
  bool more(std::uint64_t done) const {
    const std::uint64_t min = trace_ ? 4 : kTraces;
    // A traced run never stops between an untraced iteration and its
    // traced partner.
    return done < min || now_ns() < end_ns_ || (trace_ && done % 2 == 1);
  }
  std::size_t input(std::uint64_t i) const {
    return static_cast<std::size_t>((trace_ ? i / 2 : i) % kTraces);
  }
  bool traced(std::uint64_t i) const { return trace_ && i % 2 == 1; }

 private:
  std::int64_t end_ns_;
  bool trace_;
};

/// An answer's coverage or confidence says part of it is missing (the
/// values are sums of fractions, so allow for rounding).
inline bool partial(double coverage) { return coverage < 1.0 - 1e-9; }

// --- interposers on the public seams -----------------------------------------

/// sim::EgressHook forwarding to one core::PortPipeline; spans "core.absorb".
class TracingHook final : public pq::sim::EgressHook {
 public:
  TracingHook(pq::core::PortPipeline* next, Lane* lane)
      : next_(next), lane_(lane) {}
  void on_egress(const pq::sim::EgressContext& ctx) override {
    const ScopedSpan s(lane_, "core.absorb");
    next_->on_egress(ctx);
  }
  void on_egress_batch(const pq::sim::PacketBatch& batch) override {
    const ScopedSpan s(lane_, "core.absorb");
    next_->on_egress_batch(batch);
  }

 private:
  pq::core::PortPipeline* next_;
  Lane* lane_;
};

/// core::PipelineObserver forwarding to the shard's AnalysisProgram (which
/// registered itself on construction). Calls that do work — a poll or a DQ
/// unlock, and every DQ trigger — get spans "control.poll" and
/// "control.dq_trigger"; the no-op fast path is forwarded untimed.
class TracingObserver final : public pq::core::PipelineObserver {
 public:
  TracingObserver(pq::control::AnalysisProgram* next, Lane* lane)
      : next_(next), lane_(lane) {}
  void on_time(pq::Timestamp now) override {
    if (now < next_->next_time_event()) {
      next_->on_time(now);
      return;
    }
    const ScopedSpan s(lane_, "control.poll");
    next_->on_time(now);
  }
  void on_dq_trigger(const pq::core::DqNotification& n) override {
    const ScopedSpan s(lane_, "control.dq_trigger");
    next_->on_dq_trigger(n);
  }
  pq::Timestamp next_time_event() const override {
    return next_->next_time_event();
  }

 private:
  pq::control::AnalysisProgram* next_;
  Lane* lane_;
};

/// control::TelemetrySink forwarding to the shard's store::ArchiveWriter;
/// spans "store.append" ("store.append_dq" for captures, which are appended
/// outside a poll).
class TracingSink final : public pq::control::TelemetrySink {
 public:
  TracingSink(pq::control::TelemetrySink* next, Lane* lane)
      : next_(next), lane_(lane) {}
  void on_window_snapshot(std::uint32_t port,
                          const pq::control::WindowSnapshot& snap) override {
    const ScopedSpan s(lane_, "store.append");
    next_->on_window_snapshot(port, snap);
  }
  void on_monitor_snapshot(std::uint32_t partition,
                           const pq::control::MonitorSnapshot& snap) override {
    const ScopedSpan s(lane_, "store.append");
    next_->on_monitor_snapshot(partition, snap);
  }
  void on_dq_capture(std::uint32_t port,
                     const pq::control::DqCapture& cap) override {
    const ScopedSpan s(lane_, "store.append_dq");
    next_->on_dq_capture(port, cap);
  }
  void on_calibration(const pq::control::CalibrationRecord& cal) override {
    const ScopedSpan s(lane_, "store.append");
    next_->on_calibration(cal);
  }

 private:
  pq::control::TelemetrySink* next_;
  Lane* lane_;
};

// --- inputs and configuration ------------------------------------------------

/// The perf_smoke generator, seeded: one web-search flow trace per port
/// (egress_hint = port), merged in arrival order.
std::vector<pq::Packet> web_search_trace(std::uint32_t ports,
                                         pq::Duration duration_ns,
                                         std::uint64_t seed);

/// The register layout every single-switch workload uses (perf_smoke's).
pq::core::PipelineConfig pipeline_config();

/// A victim packet and the truth its diagnosis is scored against: the
/// flows dequeued on its port while it waited (pq::ground direct culprits).
struct VictimCase {
  std::uint32_t port = 0;
  pq::Timestamp enq = 0;
  pq::Timestamp deq = 0;
  pq::core::FlowCounts truth;
};

/// Appends `n` victims drawn by `rng` from one port's records: packets
/// that queued behind at least 1000 cells.
void sample_victims(const std::vector<pq::wire::TelemetryRecord>& records,
                    std::uint32_t port, std::size_t n, pq::Rng& rng,
                    std::vector<VictimCase>& out);

/// Bytes one DQ capture copies (window cells + monitor entries).
std::uint64_t capture_bytes(const pq::control::DqCapture& cap);

/// Per-port record streams fed through a fresh ShardedPipeline +
/// ShardedAnalysis on this thread, in PacketBatch chunks of `batch`, with
/// no archive. Returns the absorb wall time and the part of it the
/// analysis programs spent polling (their poll_latency_ns). This costs the
/// absorb layer where the program's own threads cannot be interposed on.
struct ReplayCost {
  double absorb_s = 0.0;
  double poll_s = 0.0;
};
ReplayCost replay_cost(
    const std::vector<std::vector<pq::wire::TelemetryRecord>>& per_port,
    const pq::core::PipelineConfig& pcfg,
    const pq::control::AnalysisConfig& acfg, std::uint32_t batch);

/// m[key], or 0 when absent.
inline double at(const std::map<std::string, double>& m, const char* key) {
  const auto it = m.find(key);
  return it != m.end() ? it->second : 0.0;
}

/// Sum of poll_latency_ns over every shard's program, in seconds.
double poll_seconds(const pq::control::ShardedAnalysis& analysis);

/// Shares of a traced iteration's wall clock. `direct` holds main-thread
/// self seconds per layer; `parallel` holds busy seconds per layer summed
/// over `threads` workers that ran inside a phase of `phase_wall_s`. Adds
/// "share.<layer>" for every layer and "share.unaccounted" so the shares
/// sum to 1, plus "trace.wall_s".
void add_shares(std::map<std::string, double>& out, double wall_s,
                const std::map<std::string, double>& direct,
                const std::map<std::string, double>& parallel,
                double phase_wall_s, double threads);

/// Every per-layer metric name, so each workload reports the full set
/// (zero where a layer does no work on that workload).
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

void run_replay_dq_archive(const RunConfig& cfg, Report& r);
void run_serve_live(const RunConfig& cfg, Report& r);
void run_fabric_incast(const RunConfig& cfg, Report& r);

}  // namespace perfbench
