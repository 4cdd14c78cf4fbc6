// Control plane for the port-sharded execution engine.
//
// Each core::PortPipeline shard gets its own AnalysisProgram: polls are
// driven by the shard's own packet stream, snapshots and HealthStats are
// shard-local, and nothing on the packet path crosses shards — which is
// what makes parallel drains race-free and byte-deterministic. This type
// is the coordinator-side view: it routes queries to the owning shard,
// aggregates HealthStats, and merges the shards' data-plane-query
// notification streams into one deterministic sequence ordered by dequeue
// timestamp (ties: shard index, then per-shard firing order).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "control/analysis_program.h"
#include "core/port_pipeline.h"
#include "faults/sharded_faults.h"
#include "obs/metrics.h"
#include "sim/sharded_engine.h"

namespace pq::control {

class ShardedAnalysis {
 public:
  /// Attaches one AnalysisProgram per existing shard (enable every port on
  /// the pipeline first). With `faults`, each shard's program gets that
  /// shard's torn-read injector.
  ShardedAnalysis(core::ShardedPipeline& pipeline, AnalysisConfig cfg,
                  faults::ShardedFaultPlan* faults = nullptr);

  /// Final checkpoint on every shard.
  void finalize(Timestamp end_time);

  AnalysisProgram& program(std::uint32_t global_prefix) {
    return *programs_.at(global_prefix);
  }
  const AnalysisProgram& program(std::uint32_t global_prefix) const {
    return *programs_.at(global_prefix);
  }
  std::size_t num_shards() const { return programs_.size(); }

  // --- Query routing (global prefix -> owning shard) ---

  core::FlowCounts query_time_windows(std::uint32_t global_prefix,
                                      Timestamp t1, Timestamp t2) const {
    const obs::ScopedTimer timer(query_ns_);
    return program(global_prefix).query_time_windows(0, t1, t2);
  }
  AnalysisProgram::IntervalAnswer query_time_windows_detail(
      std::uint32_t global_prefix, Timestamp t1, Timestamp t2) const {
    const obs::ScopedTimer timer(query_ns_);
    return program(global_prefix).query_time_windows_detail(0, t1, t2);
  }
  std::vector<core::OriginalCulprit> query_queue_monitor(
      std::uint32_t global_prefix, Timestamp t,
      std::uint8_t queue_id = 0) const {
    const obs::ScopedTimer timer(query_ns_);
    return program(global_prefix)
        .query_queue_monitor(pipe_.monitor_partition(queue_id), t);
  }

  /// Wall-clock latency of every routed query (coordinator side). A timing
  /// metric: excluded from the determinism contract.
  const obs::Histogram& query_latency_ns() const { return query_ns_; }

  // --- Merged shard outputs ---

  /// One data-plane query capture annotated with its shard; `seq` is the
  /// capture's firing index within the shard.
  struct ShardDq {
    std::uint32_t global_prefix = 0;
    std::uint64_t seq = 0;
    core::DqNotification notification;  ///< port_prefix rewritten to global
  };

  /// The data-plane-query notifications every shard fired during the
  /// engine run, merged in dequeue-timestamp order (ties: shard index, then
  /// firing order). Built epoch by epoch while the shards drain.
  const std::vector<ShardDq>& merged_dq_notifications() const {
    return merged_dq_;
  }

  // --- Epoch-batched handoff (sim/epoch_handoff.h) ---

  /// Callbacks the engine drives at every epoch seal. The seal side runs
  /// on the worker that owns the shard and copies the DQ captures fired
  /// this epoch into the chunk's sidecar; the ready side runs on the run()
  /// caller thread and folds them into the merged stream — so by the time
  /// the workers join, merged_dq_notifications() is already assembled.
  /// Stable for the life of this object; pass to
  /// ShardedEngine::set_epoch_hooks.
  const sim::EpochHooks& epoch_hooks() const { return epoch_hooks_; }

  /// Resets the incremental cursors and merged stream for an engine run.
  /// ShardedSystem calls this before its run.
  void begin_epoch_run();

  /// Shard-local HealthStats aggregated over all shards.
  HealthStats health() const;

  std::uint64_t polls_performed() const;
  std::uint64_t bytes_polled() const;

 private:
  const AnalysisProgram& program_unchecked(std::uint32_t i) const {
    return *programs_[i];
  }
  std::shared_ptr<void> seal_epoch(std::uint32_t shard,
                                   const sim::EpochSeal& seal);
  void epoch_ready(const std::vector<std::shared_ptr<void>>& sidecars);

  core::ShardedPipeline& pipe_;
  std::vector<std::unique_ptr<AnalysisProgram>> programs_;
  /// Mutable: queries are logically const reads; the coordinator issues
  /// them from one thread (the shard workers never touch this).
  mutable obs::Histogram query_ns_;

  sim::EpochHooks epoch_hooks_;
  /// Per shard, captures already sealed into some epoch; only the worker
  /// draining the shard touches its slot (same ownership rule as the
  /// shard's registers).
  std::vector<std::size_t> dq_cursors_;
  /// Consumer-thread state: the incrementally merged DQ stream.
  std::vector<ShardDq> merged_dq_;
};

/// Everything a port-sharded run needs, wired: engine + shards + per-shard
/// fault chains + per-shard control planes. Ports are enabled for every
/// engine port; forwarding defaults to the packet's egress hint (multi-port
/// workloads pin their traffic).
class ShardedSystem {
 public:
  struct Config {
    std::vector<sim::PortConfig> ports;
    core::PipelineConfig pipeline;
    AnalysisConfig analysis;
    /// Nullopt disables fault injection entirely.
    std::optional<faults::FaultPlanConfig> faults;
    /// Simulated-time epoch for the incremental shard handoff; must be
    /// > 0. Results are byte-identical for any value — the epoch size is a
    /// scheduling knob (docs/ARCHITECTURE.md §8).
    Duration epoch_ns = sim::kDefaultEpochNs;
  };

  explicit ShardedSystem(Config cfg);

  /// Runs the workload on `threads` workers and takes the final checkpoint
  /// at the last departure across all ports. `batch` > 1 drains each shard
  /// in PacketBatch chunks (see ShardedEngine::run); results are
  /// byte-identical for any batch size. Single-shot, like the engine: run()
  /// and run_partitioned() together may be called once.
  void run(std::vector<Packet> packets, unsigned threads = 1,
           std::uint32_t batch = 1);

  /// Same, with full control of the execution knobs. opts.epoch_ns
  /// overrides Config::epoch_ns for this run.
  void run(std::vector<Packet> packets,
           const sim::ShardedEngine::RunOptions& opts);

  /// Drains pre-staged per-port streams, skipping the partition path
  /// entirely (see ShardedEngine::run_partitioned).
  void run_partitioned(std::vector<std::vector<Packet>> shards,
                       const sim::ShardedEngine::RunOptions& opts);

  /// The execution options run(packets, threads, batch) expands to.
  sim::ShardedEngine::RunOptions default_run_options(
      unsigned threads, std::uint32_t batch) const {
    sim::ShardedEngine::RunOptions opts;
    opts.threads = threads;
    opts.batch = batch;
    opts.epoch_ns = epoch_ns_;
    return opts;
  }

  sim::ShardedEngine& engine() { return engine_; }
  const sim::ShardedEngine& engine() const { return engine_; }
  core::ShardedPipeline& pipeline() { return pipeline_; }
  const core::ShardedPipeline& pipeline() const { return pipeline_; }
  ShardedAnalysis& analysis() { return *analysis_; }
  const ShardedAnalysis& analysis() const { return *analysis_; }
  faults::ShardedFaultPlan* faults() { return faults_.get(); }
  const faults::ShardedFaultPlan* faults() const { return faults_.get(); }

 private:
  void finalize_run();

  sim::ShardedEngine engine_;
  core::ShardedPipeline pipeline_;
  std::unique_ptr<faults::ShardedFaultPlan> faults_;
  std::unique_ptr<ShardedAnalysis> analysis_;
  Duration epoch_ns_ = 0;
};

}  // namespace pq::control
