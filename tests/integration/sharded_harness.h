// Shared harness for the sharded-stack equivalence tests: one workload, one
// system configuration, and one flattened RunResult so every test that
// claims "byte-identical" compares the same, complete surface — pipeline
// register state across all banks, query answers, merged DQ notification
// and fault streams, health counters, and the deterministic metrics view.
//
// sharded_determinism_test.cpp sweeps thread counts with this harness;
// batch_differential_test.cpp sweeps batch sizes. New equivalence
// dimensions should extend run_once() rather than fork the encoders, so a
// field added to RunResult strengthens every sweep at once.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "control/metrics_export.h"
#include "control/sharded_analysis.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"
#include "wire/bytes.h"

namespace pq::harness {

constexpr std::uint32_t kPorts = 8;
/// Wide variant: enough shards that a 16-thread sweep actually runs 16
/// concurrent workers (threads clamp to the port count).
constexpr std::uint32_t kPortsWide = 16;

inline std::vector<Packet> workload(std::uint32_t ports = kPorts) {
  std::vector<std::vector<Packet>> parts;
  for (std::uint32_t p = 0; p < ports; ++p) {
    traffic::FlowTraceConfig tcfg;
    tcfg.flow_sizes = &traffic::web_search_flow_sizes();
    tcfg.duration_ns = 6'000'000;  // enough for several polls at m0=10,k=9
    tcfg.seed = 1000 + p;
    tcfg.flow_id_base = p * 1'000'000;
    auto pkts = traffic::generate_flow_trace(tcfg);
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
  }
  return traffic::merge_traces(std::move(parts));
}

inline control::ShardedSystem::Config system_config(
    bool with_faults, std::uint32_t ports = kPorts) {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(ports);
  for (std::uint32_t p = 0; p < ports; ++p) {
    cfg.ports[p].port_id = p;
    cfg.ports[p].collect_depth_series = false;
  }
  cfg.pipeline.windows.m0 = 10;
  cfg.pipeline.windows.alpha = 1;
  cfg.pipeline.windows.k = 9;
  cfg.pipeline.windows.num_windows = 4;
  cfg.pipeline.monitor.max_depth_cells = 25000;
  cfg.pipeline.monitor.granularity_cells = 8;
  cfg.pipeline.dq_depth_threshold_cells = 400;
  if (with_faults) {
    faults::FaultPlanConfig f;
    f.seed = 77;
    f.torn_reads.probability = 0.25;
    f.trigger_storm.probability = 0.001;
    f.trigger_storm.forced_depth_cells = 500;
    f.clock_skew.max_abs_skew_ns = 2000;
    cfg.faults = f;
  }
  return cfg;
}

inline void encode_windows(std::vector<std::uint8_t>& buf,
                           const core::TimeWindowSet& w) {
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    const auto state = w.read_bank(bank, 0);
    for (const auto& window : state) {
      for (const auto& cell : window) {
        wire::put_u64(buf, cell.occupied ? flow_signature(cell.flow) : 0);
        wire::put_u64(buf, cell.cycle_id);
        wire::put_u8(buf, cell.occupied ? 1 : 0);
      }
    }
  }
}

inline void encode_monitor(std::vector<std::uint8_t>& buf,
                           const core::QueueMonitor& m,
                           std::uint32_t partitions) {
  for (std::uint32_t bank = 0; bank < 4; ++bank) {
    for (std::uint32_t part = 0; part < partitions; ++part) {
      const auto state = m.read_bank(bank, part);
      wire::put_u32(buf, state.top);
      for (const auto& e : state.entries) {
        wire::put_u64(buf, e.inc.valid ? flow_signature(e.inc.flow) : 0);
        wire::put_u64(buf, e.inc.seq);
        wire::put_u64(buf, e.dec.valid ? flow_signature(e.dec.flow) : 0);
        wire::put_u64(buf, e.dec.seq);
      }
    }
  }
}

/// A mkdtemp-backed scratch directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "pq-archive-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) == nullptr) {
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = tmpl;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Archive options the equivalence sweeps use: segments small enough that
/// every run rolls several per port, so segment boundaries are part of what
/// the byte-identity assertions exercise.
inline store::ArchiveOptions harness_archive_options(const std::string& dir) {
  store::ArchiveOptions opts;
  opts.dir = dir;
  opts.segment_bytes = 32 * 1024;
  opts.flush_watermark_bytes = 16 * 1024;
  return opts;
}

/// Everything the determinism contract promises, flattened to comparable
/// bytes/values.
struct RunResult {
  std::vector<std::uint8_t> registers;  ///< all shards, all banks
  std::vector<std::pair<std::uint64_t, double>> answers;  ///< sorted counts
  std::vector<std::uint8_t> fault_schedule;
  /// (prefix, firing seq, deq_ts, victim flow) per notification, flattened
  std::vector<std::uint64_t> dq_stream;
  control::HealthStats health;
  std::uint64_t packets_seen = 0;
  std::uint64_t dq_fired = 0;
  /// Merged pq::obs registry in its deterministic serialization view
  /// (IncludeTimings::kNo) — must be byte-identical across thread counts
  /// and batch sizes.
  std::string metrics_json;
  /// pq::store archive written during the run, reduced to its logical
  /// content (ArchiveReader::logical_content) — same contract.
  std::vector<std::uint8_t> archive_bytes;
};

/// One equivalence-sweep execution, fully specified. Everything here is a
/// pure scheduling knob: any two specs over the same packets and
/// with_faults must produce byte-identical RunResults.
struct RunSpec {
  bool with_faults = false;
  unsigned threads = 1;
  std::uint32_t batch = 1;
  std::uint32_t ports = kPorts;
  /// Engine epoch size; nullopt = the ShardedSystem::Config default.
  std::optional<Duration> epoch_ns;
  bool pin_threads = false;
};

inline void encode_dq(std::vector<std::uint64_t>& out,
                      const control::ShardedAnalysis::ShardDq& d) {
  out.push_back(d.global_prefix);
  out.push_back(d.seq);
  out.push_back(d.notification.deq_timestamp);
  out.push_back(flow_signature(d.notification.victim_flow));
}

/// The merged DQ stream's reference, built without the epoch handoff: every
/// shard's captures appended in shard order, then one stable sort by
/// dequeue time.
inline std::vector<std::uint64_t> reference_dq_stream(
    const control::ShardedAnalysis& analysis) {
  std::vector<control::ShardedAnalysis::ShardDq> all;
  for (std::uint32_t s = 0; s < analysis.num_shards(); ++s) {
    const auto& captures = analysis.program(s).dq_captures(0);
    for (std::uint64_t seq = 0; seq < captures.size(); ++seq) {
      control::ShardedAnalysis::ShardDq d;
      d.global_prefix = s;
      d.seq = seq;
      d.notification = captures[seq].notification;
      all.push_back(d);
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const control::ShardedAnalysis::ShardDq& a,
                      const control::ShardedAnalysis::ShardDq& b) {
                     return a.notification.deq_timestamp <
                            b.notification.deq_timestamp;
                   });
  std::vector<std::uint64_t> out;
  for (const auto& d : all) encode_dq(out, d);
  return out;
}

/// Flattens a finished system to the full comparison surface. Factored out
/// of run_once() so other drivers of a ShardedSystem — in particular the
/// NetworkEngine's per-switch nodes (tests/net/network_differential_test) —
/// can assert byte-identity against a standalone run over the exact same
/// surface instead of a hand-picked subset. `archive_dir` is the directory
/// the (already closed) archive was written to. Every call also checks the
/// incrementally merged DQ stream against reference_dq_stream().
inline RunResult collect_result(control::ShardedSystem& sys,
                                const std::string& archive_dir) {
  RunResult r;
  r.archive_bytes = store::ArchiveReader(archive_dir).logical_content();
  for (std::uint32_t s = 0; s < sys.pipeline().num_shards(); ++s) {
    auto& pipe = sys.pipeline().shard(s).pipeline();
    encode_windows(r.registers, pipe.windows());
    encode_monitor(r.registers, pipe.monitor(),
                   pipe.monitor().port_partitions());
  }

  // A mid-trace interval query and a point query on every shard.
  for (std::uint32_t s = 0; s < sys.pipeline().num_shards(); ++s) {
    const auto counts =
        sys.analysis().query_time_windows(s, 2'000'000, 4'000'000);
    std::vector<std::pair<std::uint64_t, double>> sorted;
    for (const auto& [flow, n] : counts) {
      sorted.emplace_back(flow_signature(flow), n);
    }
    std::sort(sorted.begin(), sorted.end());
    r.answers.insert(r.answers.end(), sorted.begin(), sorted.end());
    for (const auto& c : sys.analysis().query_queue_monitor(s, 3'000'000)) {
      r.answers.emplace_back(flow_signature(c.flow),
                             static_cast<double>(c.seq));
    }
  }

  for (const auto& d : sys.analysis().merged_dq_notifications()) {
    encode_dq(r.dq_stream, d);
  }
  EXPECT_EQ(r.dq_stream, reference_dq_stream(sys.analysis()))
      << "merged DQ stream differs from the per-shard captures";
  if (sys.faults() != nullptr) {
    r.fault_schedule = sys.faults()->serialize_merged_schedule();
  }
  r.health = sys.analysis().health();
  r.packets_seen = sys.pipeline().packets_seen();
  r.dq_fired = sys.pipeline().dq_triggers_fired();
  r.metrics_json = control::collect_system_metrics(sys).to_json(
      obs::IncludeTimings::kNo);
  return r;
}

inline RunResult run_once(const std::vector<Packet>& packets,
                          const RunSpec& spec) {
  auto cfg = system_config(spec.with_faults, spec.ports);
  if (spec.epoch_ns.has_value()) cfg.epoch_ns = *spec.epoch_ns;
  control::ShardedSystem sys(std::move(cfg));
  const TempDir archive_dir;
  store::Archive archive(harness_archive_options(archive_dir.path()));
  archive.attach(sys.pipeline(), sys.analysis());
  auto opts = sys.default_run_options(spec.threads, spec.batch);
  opts.pin_threads = spec.pin_threads;
  sys.run(packets, opts);
  archive.close();
  return collect_result(sys, archive_dir.path());
}

/// Legacy signature used by the original 8-port sweeps.
inline RunResult run_once(const std::vector<Packet>& packets, bool with_faults,
                          unsigned threads, std::uint32_t batch = 1) {
  RunSpec spec;
  spec.with_faults = with_faults;
  spec.threads = threads;
  spec.batch = batch;
  return run_once(packets, spec);
}

}  // namespace pq::harness
