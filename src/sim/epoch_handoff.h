// Epoch-batched record handoff: how shard outputs reach the caller thread.
//
// Simulated time is cut into fixed epochs of `epoch_ns`. A shard worker
// advances its port to each epoch boundary (EgressPort::advance_to), flushes
// the hook batch, and seals everything that departed in that epoch — the
// newly appended telemetry records plus an opaque control-plane sidecar
// (control::ShardedAnalysis packs its DQ captures in there) — into a
// RecordChunk pushed onto the shard's SPSC queue. The run() caller thread
// consumes chunks while the workers are still draining and performs the
// deterministic dequeue-order merge one epoch at a time, so by the time the
// last worker joins the merged views are already built.
//
// Determinism: chunk `e` of every shard contains exactly the events with
// dequeue timestamp in (e*epoch_ns, (e+1)*epoch_ns] — advance_to executes
// all departures at or before the boundary before the seal, on every shard,
// so a concatenation in shard order followed by a stable sort on the
// timestamp alone yields the documented (deq_timestamp, shard index,
// per-shard order) merge order, the same as one stable sort over every
// shard's records, for ANY epoch size, thread count, or batch size
// (tests/sim/epoch_handoff_test.cpp,
// tests/integration/sharded_determinism_test.cpp).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/spsc_queue.h"
#include "common/types.h"
#include "wire/telemetry.h"

namespace pq::sim {

/// One sealed epoch boundary, as seen by the worker that owns the shard.
struct EpochSeal {
  std::uint64_t epoch = 0;
  /// Inclusive upper bound of the sealed span (departures at exactly the
  /// boundary belong to this epoch on every shard).
  Timestamp boundary = 0;
  /// Last seal of this shard's drain; nothing follows.
  bool final_seal = false;
};

/// What a shard publishes per epoch: its records for the span plus an
/// opaque sidecar the control layer attaches at seal time (DQ captures —
/// sim never looks inside).
struct RecordChunk {
  std::uint64_t epoch = 0;
  bool final_chunk = false;
  std::vector<wire::TelemetryRecord> records;
  std::shared_ptr<void> sidecar;
};

/// Control-plane attachment points for the epoch handoff.
struct EpochHooks {
  /// Worker side — runs on the worker that owns `shard`, after the port
  /// advanced to the boundary and the hook batch was flushed. Whatever it
  /// returns rides the record chunk to the consumer.
  std::function<std::shared_ptr<void>(std::uint32_t shard, const EpochSeal&)>
      seal;
  /// Consumer side — runs on the run() caller thread once every shard has
  /// sealed `epoch` and the records were merged. `sidecars` is shard-
  /// ordered (null where a shard was already past its final seal).
  /// `last_epoch` marks the final invocation of the run.
  std::function<void(std::uint64_t epoch,
                     const std::vector<std::shared_ptr<void>>& sidecars,
                     bool last_epoch)>
      ready;
};

/// Consumer-side assembly: per-shard chunk queues, the epoch watermark, and
/// the incremental deterministic merge. One instance per ShardedEngine run.
///
/// Threading: publish() is called by shard workers (one producer per shard
/// queue); poll()/finish() only by the consumer thread. With
/// `concurrent == false` (single-worker runs) publish() merges inline and
/// the queues are bypassed entirely.
class EpochCollector {
 public:
  EpochCollector(std::size_t num_shards, bool concurrent,
                 std::vector<wire::TelemetryRecord>& merged_out,
                 const EpochHooks* hooks);

  /// Producer side. Blocks briefly when the consumer lags (bounded queues
  /// are the backpressure seam); never blocks in non-concurrent mode.
  void publish(std::uint32_t shard, RecordChunk&& chunk);

  /// Consumer side: drain whatever the workers have published and merge
  /// every epoch that became complete. Returns true if any progress was
  /// made (chunk accepted or epoch merged).
  bool poll();

  /// Consumer side, after every worker finished publishing: drains the
  /// queues to completion and merges all remaining epochs.
  void finish();

  /// True once every shard's final chunk has been merged.
  bool complete() const;

 private:
  struct ShardState {
    std::deque<RecordChunk> pending;
    std::uint64_t received = 0;  ///< chunks accepted: epochs [0, received)
    bool final_received = false;
    std::uint64_t final_epoch = 0;
  };

  void accept(std::uint32_t shard, RecordChunk&& chunk);
  /// Merges epoch `next_` if every shard covers it; returns false when the
  /// watermark cannot advance yet.
  bool try_merge_next();

  std::vector<ShardState> shards_;
  std::vector<std::unique_ptr<SpscQueue<RecordChunk>>> queues_;
  std::vector<wire::TelemetryRecord>& merged_;
  const EpochHooks* hooks_;
  std::uint64_t next_ = 0;  ///< lowest unmerged epoch
  std::size_t finals_seen_ = 0;
  bool concurrent_;
  bool complete_ = false;
};

}  // namespace pq::sim
