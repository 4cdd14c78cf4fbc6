// Port-sharded execution engine.
//
// On real hardware every egress port's pipeline is an independent unit; the
// simulator mirrors that. The engine partitions an arrival-ordered packet
// vector by the forwarding decision (one shard per egress port, preserving
// per-port arrival order) and drains each shard on a worker from a small
// thread pool. Shards share no mutable state — each worker touches exactly
// one EgressPort and the hooks registered on it — so the per-port outputs
// are byte-identical for any thread count, including 1.
//
// Partitioning runs on the same worker pool (two-pass count/scatter,
// byte-identical shards); drivers that already hold per-port streams skip
// it via run_partitioned(). Cross-shard views are built while the workers
// drain: shards seal per-epoch record chunks into per-shard SPSC queues and
// the caller thread merges them in (deq_timestamp, shard index, per-shard
// order) (sim/epoch_handoff.h).
//
// Determinism contract: a hook registered on one port only ever runs on the
// worker draining that port, and sees that port's packets in dequeue order.
// A hook shared across ports is NOT shard-safe; use one core::PortPipeline
// per port instead (see core/port_pipeline.h).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "obs/metrics.h"
#include "sim/egress_port.h"
#include "sim/epoch_handoff.h"

namespace pq::sim {

/// Default simulated time between epoch seals, shared by every
/// configuration that carries an epoch size (RunOptions,
/// control::ShardedSystem::Config, net::NodeConfig).
inline constexpr Duration kDefaultEpochNs = 4'000'000;

class ShardedEngine {
 public:
  /// How a run executes. Every combination produces byte-identical shard
  /// outputs and merged views — threads, batch, epoch size and pinning are
  /// pure scheduling knobs (docs/ARCHITECTURE.md §8/§10).
  struct RunOptions {
    /// Worker threads, clamped to [1, num_ports()].
    unsigned threads = 1;
    /// > 1 drains each shard in PacketBatch chunks of this size
    /// (EgressPort::set_hook_batch); 1 is the scalar oracle path.
    std::uint32_t batch = 1;
    /// Shards seal their records every `epoch_ns` of simulated time and the
    /// caller thread merges sealed epochs while workers drain. Must be > 0.
    Duration epoch_ns = kDefaultEpochNs;
    /// Best-effort round-robin CPU pinning of the workers
    /// (common/thread_pin.h); failures are recorded, never fatal.
    bool pin_threads = false;
  };

  explicit ShardedEngine(std::vector<PortConfig> port_configs);

  /// Replaces the forwarding function (packet -> egress port index).
  void set_forwarding(std::function<std::uint32_t(const Packet&)> fwd);
  const std::function<std::uint32_t(const Packet&)>& forwarding() const {
    return fwd_;
  }

  /// Attaches a hook to one port's shard (not owned; must outlive the
  /// engine). The hook must be shard-local: it runs on whichever worker
  /// drains this port, concurrently with other shards' hooks.
  void add_hook(std::uint32_t port_index, EgressHook* hook);

  /// Registers the control layer's epoch-handoff callbacks (not owned).
  /// See sim/epoch_handoff.h.
  void set_epoch_hooks(const EpochHooks* hooks) { epoch_hooks_ = hooks; }

  /// Partitions `packets` by the forwarding decision and drains every
  /// shard. Packets must be in non-decreasing arrival order; a pre-sorted
  /// input (every generator output is) skips the sort entirely, and with
  /// opts.threads > 1 the partition itself runs on the worker pool. Throws
  /// std::out_of_range if the forwarding function returns an invalid port
  /// and std::invalid_argument if opts.epoch_ns is 0.
  ///
  /// The engine is single-shot: run() and run_partitioned() together may be
  /// called once; a second call throws std::logic_error.
  void run(std::vector<Packet> packets, const RunOptions& opts);

  /// Equivalent to run(packets, {threads, batch}) with the default epoch.
  void run(std::vector<Packet> packets, unsigned threads = 1,
           std::uint32_t batch = 1);

  /// Drains pre-staged per-port streams (shards[p] feeds port p, in
  /// arrival order) without touching the partition path at all — the fast
  /// lane for drivers that generate or receive traffic per port. Missing
  /// trailing shards are treated as empty; extra shards throw. Single-shot,
  /// like run().
  void run_partitioned(std::vector<std::vector<Packet>> shards,
                       const RunOptions& opts);

  /// Splits an arrival-ordered packet vector into one arrival-ordered vector
  /// per port. Exposed for tests and for drivers that partition externally.
  /// Single-threaded; run() uses the parallel equivalent internally.
  static std::vector<std::vector<Packet>> partition(
      const std::vector<Packet>& packets,
      const std::function<std::uint32_t(const Packet&)>& fwd,
      std::size_t num_ports);

  /// All ports' telemetry records merged in dequeue-timestamp order (ties
  /// broken by egress port index, then per-port record order) — the
  /// deterministic cross-shard view of the run, built epoch by epoch while
  /// the shards drain.
  const std::vector<wire::TelemetryRecord>& merged_records() const {
    return merged_;
  }

  EgressPort& port(std::uint32_t index) { return *ports_.at(index); }
  const EgressPort& port(std::uint32_t index) const {
    return *ports_.at(index);
  }
  std::size_t num_ports() const { return ports_.size(); }

  /// Wall-clock ns spent draining one shard. Written only by the worker
  /// that owns the shard during the run; read after it.
  std::uint64_t drain_ns(std::uint32_t index) const {
    return drain_ns_.at(index);
  }

  /// CPU each worker of the run ended up on: -1 when unpinned,
  /// unsupported, or the pin failed. Empty before the first run. Timing
  /// metadata only — results never depend on placement.
  const std::vector<int>& worker_cpus() const { return worker_cpus_; }

 private:
  /// Validates `opts` and claims the engine's single run.
  void start_run(const RunOptions& opts);
  void run_shards(std::vector<std::vector<Packet>>&& shards,
                  const RunOptions& opts);
  /// Epoch-stepped drain: advance to each boundary, flush, seal a chunk.
  void drain_shard_epochs(std::size_t p, const std::vector<Packet>& shard,
                          const RunOptions& opts, EpochCollector& collector);
  /// Two-pass parallel partition (count then scatter), byte-identical to
  /// the sequential partition for any worker count.
  std::vector<std::vector<Packet>> partition_parallel(
      const std::vector<Packet>& packets, unsigned workers) const;

  std::vector<std::unique_ptr<EgressPort>> ports_;
  std::vector<std::uint64_t> drain_ns_;
  std::vector<int> worker_cpus_;
  std::function<std::uint32_t(const Packet&)> fwd_;
  const EpochHooks* epoch_hooks_ = nullptr;
  /// Records merged incrementally while the shards drain.
  std::vector<wire::TelemetryRecord> merged_;
  /// True until set_forwarding() replaces the built-in dst-hash decision;
  /// gates the batched partition fast path.
  bool default_fwd_ = true;
  bool ran_ = false;
};

}  // namespace pq::sim
