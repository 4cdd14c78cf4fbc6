// The pq_serve shard supervisor: one worker thread + one bounded ingest
// queue per port shard, with a watchdog view over all of them.
//
// The worker replays queue batches through the shard's egress hook chain
// (faults, if planned, then the PortPipeline) with replay_records(), the
// loop pq_replay drains its shards with — and because absorb_batch is
// split-invariant (ARCHITECTURE §10), the variable-size chunks the daemon
// happens to pop produce the same register state and archive bytes as any
// offline replay of the same per-port record stream. Shard state is guarded
// by a per-shard mutex so the metrics collector and archive flushes can
// reach it mid-ingest. Live queries do not take it: they
// read the shard program's published checkpoints under the program's own
// history lock (control/analysis_program.h), so they never wait for a
// batch.
//
// Robustness posture:
//   - submit() routes by egress port; unknown ports are rejected with a
//     counter, never dropped silently.
//   - overload policy is explicit: kBackpressure stalls the feed pump,
//     kShedNewest drops with exact accounting (IngestQueue::shed_total).
//   - the watchdog samples per-worker heartbeats; a shard with queued work
//     and no progress between two checks is a stall (counted, reported).
//   - drain_and_join() closes every queue, lets workers finish the backlog,
//     then takes the final checkpoint — the graceful half of the
//     kill-and-recover story (the other half is ArchiveReader's scan).
//   - a store error on a worker (an archive append or seal that fails) is
//     kept, not thrown on: the worker closes its own queue, so a
//     backpressured pump is refused instead of blocking on a shard that no
//     longer pops, and failure() reports the first such error.
#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "control/sharded_analysis.h"
#include "core/port_pipeline.h"
#include "faults/sharded_faults.h"
#include "serve/ingest_queue.h"
#include "wire/telemetry.h"

namespace pq::serve {

enum class OverloadPolicy : std::uint8_t {
  kBackpressure = 0,  ///< full queue blocks the feed pump (lossless)
  kShedNewest = 1,    ///< full queue drops the newest record (bounded lag)
};

struct SupervisorOptions {
  std::size_t batch = 256;  ///< max records per absorb chunk
  /// Per-shard ingest queue cap, in records (56 bytes each). The queue is
  /// the only slack between the one feed pump and the shard workers, so
  /// it is sized in time: at ~4 M records/s per shard it holds ~8 ms of
  /// feed, more than the few ms a busy host can take to wake a sleeping
  /// worker or pump. A ~2 ms queue lets such a late wake-up fill one
  /// queue, block the pump and starve the other shards.
  std::size_t queue_capacity = 32768;
  OverloadPolicy overload = OverloadPolicy::kBackpressure;
  std::chrono::milliseconds pop_wait{20};
  /// Best-effort round-robin CPU pinning of the shard workers
  /// (common/thread_pin.h). Placement is a timing concern only — the
  /// effective CPU is reported via worker_cpu(), never in results.
  bool pin_threads = false;
};

enum class Submit : std::uint8_t {
  kOk = 0,
  kShed = 1,
  kUnknownPort = 2,
  kClosed = 3,
};

class ShardSupervisor {
 public:
  /// Every port must already be enabled on `pipeline` and `analysis`
  /// constructed over it. Fault egress chains (when `faults` is non-null)
  /// are created here, on the constructing thread, so no lazy plan
  /// creation happens once workers run.
  ShardSupervisor(core::ShardedPipeline& pipeline,
                  control::ShardedAnalysis& analysis,
                  faults::ShardedFaultPlan* faults, SupervisorOptions opts);
  ~ShardSupervisor();
  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  void start();

  /// Routes one record to its shard's queue under the overload policy.
  Submit submit(const wire::TelemetryRecord& rec);

  /// Closes every queue, joins the workers after they drain the backlog,
  /// and takes the final checkpoint on every shard that absorbed records
  /// and did not fail. A checkpoint that throws fails its shard. Never
  /// throws; idempotent.
  void drain_and_join();

  /// The first exception a shard's worker or final checkpoint threw, or
  /// null. A failed shard absorbs nothing more.
  std::exception_ptr failure() const;

  /// One watchdog pass: returns how many shards have queued work but made
  /// no progress since the previous pass (also accumulated in
  /// watchdog_stalls_total()).
  std::uint32_t check_watchdog();

  /// Exclusive access to one shard's pipeline, program and archive writer,
  /// for metrics reads and flushes that must not interleave with an
  /// absorb. Queries do not need it.
  std::unique_lock<std::mutex> lock_shard(std::uint32_t prefix) {
    return std::unique_lock<std::mutex>(shards_[prefix]->mu);
  }

  // --- Aggregate accounting (exact, not sampled) ---
  std::uint64_t records_submitted() const;  ///< accepted into a queue
  std::uint64_t records_absorbed() const;   ///< replayed into a shard
  std::uint64_t shed_total() const;
  std::uint64_t rejected_port_total() const;
  std::uint64_t watchdog_stalls_total() const;
  std::size_t queue_depth() const;       ///< current, summed over shards
  std::size_t queue_peak_depth() const;  ///< max single-shard high-watermark
  std::size_t num_shards() const { return shards_.size(); }
  bool draining() const;

  /// CPU the shard's worker is running on after the pin attempt: -1 when
  /// unpinned, unsupported, or the worker has not started yet.
  int worker_cpu(std::uint32_t prefix) const {
    return shards_[prefix]->cpu.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    explicit Shard(std::size_t cap) : queue(cap) {}
    IngestQueue queue;
    std::thread worker;
    std::mutex mu;  ///< guards pipeline/program state during absorbs
    std::atomic<std::uint64_t> heartbeat{0};
    std::uint64_t heartbeat_seen = 0;  ///< watchdog-thread private
    std::atomic<std::uint64_t> absorbed{0};
    std::atomic<int> cpu{-1};  ///< effective worker CPU (-1 = unpinned)
    Timestamp last_deq = 0;  ///< guarded by mu
    sim::EgressHook* hook = nullptr;
    bool failed = false;  ///< set by the worker; read after its join
  };

  void worker_loop(std::uint32_t prefix);
  /// Marks the shard failed, closes its queue and keeps `error` if it is
  /// the first.
  void fail(Shard& sh, std::exception_ptr error);

  core::ShardedPipeline& pipeline_;
  control::ShardedAnalysis& analysis_;
  SupervisorOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> rejected_port_{0};
  std::atomic<std::uint64_t> watchdog_stalls_{0};
  std::atomic<bool> started_{false};
  std::atomic<bool> drained_{false};
  mutable std::mutex failure_mu_;
  std::exception_ptr failure_;  ///< guarded by failure_mu_
};

/// The record -> egress-context mapping shared with pq_replay: cells are
/// derived from bytes, everything else is carried verbatim.
sim::EgressContext to_context(const wire::TelemetryRecord& r);

/// Replays one shard's records, in dequeue order, into `hook`: one
/// on_egress per record when `batch` <= 1 (the scalar oracle), otherwise
/// on_egress_batch over consecutive chunks of up to `batch` contexts built
/// in `scratch`, which the caller owns so a long-lived worker reuses its
/// storage.
void replay_records(std::span<const wire::TelemetryRecord> records,
                    sim::EgressHook& hook, std::size_t batch,
                    sim::PacketBatch& scratch);

}  // namespace pq::serve
