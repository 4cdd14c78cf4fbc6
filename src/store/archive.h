// pq::store — crash-safe, segmented archive of the control plane's
// telemetry stream, with retroactive querying (archive_reader.h).
//
// The paper's workflow keeps register records only as long as the analysis
// process lives; this subsystem makes them durable. One ArchiveWriter per
// shard subscribes (as a control::TelemetrySink) to that shard's verified
// snapshots, data-plane captures and per-poll calibrations, frames each
// event as a CRC32-guarded block and appends it to fixed-capacity segment
// files in the v2 format. Each block is written the moment its event
// arrives, in one pass from record to disk: the v2 codec deltas the record
// against the previous one of its kind, the frame goes through the
// torn-write seam to stdio, and the fsync policy makes it durable.
//
// Determinism contract: a writer runs entirely on its shard's thread and
// consumes a shard-local, schedule-independent event stream, so the
// archive's logical content (ArchiveReader::logical_content) — and, with
// equal options, its physical bytes — are identical for any thread count
// and batch size. Crash contract: after a crash at any byte boundary, the
// reader recovers exactly the longest valid prefix of each port's stream.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "control/telemetry_sink.h"
#include "obs/metrics.h"
#include "store/archive_format.h"
#include "store/block_codec_v2.h"
#include "store/segment_chain.h"

namespace pq::core {
class ShardedPipeline;
}  // namespace pq::core
namespace pq::control {
class ShardedAnalysis;
}  // namespace pq::control
namespace pq::faults {
class TornWriteInjector;
class ShardedFaultPlan;
}  // namespace pq::faults

namespace pq::store {

class ArchiveReader;

/// Appends one port's telemetry stream to its segment chain. Not
/// thread-safe by design: exactly one shard drives it, synchronously.
class ArchiveWriter final : public control::TelemetrySink {
 public:
  /// `params`/`monitor_levels` describe the emitting pipeline's register
  /// layout (stamped into every segment header, so a reader can decode the
  /// stream even if no calibration block survives). `write_faults`, when
  /// set, interposes on every block append and may tear it (the injected
  /// crash); not owned, must outlive the writer. `opts.resume` repairs the
  /// chain as `chain_end` says, else as scan_chain_end finds it.
  ArchiveWriter(std::uint32_t port, const core::TimeWindowParams& params,
                std::uint32_t monitor_levels, ArchiveOptions opts,
                faults::TornWriteInjector* write_faults = nullptr,
                const ChainEnd* chain_end = nullptr);
  ~ArchiveWriter() override;

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  // --- control::TelemetrySink ---
  void on_window_snapshot(std::uint32_t port,
                          const control::WindowSnapshot& snap) override;
  void on_monitor_snapshot(std::uint32_t partition,
                           const control::MonitorSnapshot& snap) override;
  void on_dq_capture(std::uint32_t port,
                     const control::DqCapture& cap) override;
  void on_calibration(const control::CalibrationRecord& cal) override;

  /// Writes the open segment's footer and closes it. Idempotent. Without
  /// close(), the archive is still recoverable — it just looks like a
  /// crash (that is the point). Throws std::runtime_error when the footer
  /// may not have reached the file; the writer is then dead.
  void close();

  /// Pushes stdio's buffer of the open segment into the kernel without
  /// closing it: the page cache survives a SIGKILL, the user-space buffer
  /// does not. A long-running process calls this on a timer so a kill loses
  /// at most one tick of telemetry. Durability against power loss is the
  /// fsync policy's job. No-op once closed or dead; throws
  /// std::runtime_error (and the writer dies) when the bytes do not reach
  /// the file.
  void flush();

  /// True after an injected torn write, a failed append or a segment that
  /// failed to seal: all further events are discarded and no footer will
  /// be written.
  bool dead() const { return dead_; }

  std::uint32_t port() const { return port_; }
  const WriterStats& stats() const { return stats_; }

 private:
  /// Encodes `rec` through the codec, frames it and appends it, rolling
  /// the segment first when the frame would push it past capacity.
  /// `logical_size` is the length of its register_records encoding, which
  /// the codec weighs a delta against and the stats count; only a raw
  /// payload serializes it.
  template <class Record>
  void append(BlockKind kind, std::uint32_t partition, std::uint64_t t_lo,
              std::uint64_t t_hi, const Record& rec, std::size_t logical_size);
  void open_segment();
  /// Writes the footer and closes the file. Throws if the footer may not
  /// have reached it (fail_segment).
  void close_segment();
  void sync_file();
  /// The open segment can no longer be sealed: closes it as it stands,
  /// marks the writer dead, so no later segment opens past a chain that
  /// ends here, and throws std::runtime_error naming `what` and the file.
  [[noreturn]] void fail_segment(const char* what);
  /// ArchiveOptions::retain_segments: deletes the oldest on-disk segments
  /// beyond the retention cap.
  void apply_retention();

  std::uint32_t port_;
  core::TimeWindowParams params_;
  std::uint32_t monitor_levels_;
  ArchiveOptions opts_;
  faults::TornWriteInjector* write_faults_;
  Duration t_set_;  ///< window-set period (a checkpoint's coverage depth)

  std::FILE* file_ = nullptr;
  std::uint32_t next_segment_index_ = 0;
  std::vector<std::uint32_t> live_segments_;  ///< on-disk indices, oldest first
  std::uint64_t header_bytes_ = 0;
  std::uint64_t segment_block_bytes_ = 0;
  std::vector<IndexEntry> segment_index_;
  /// Delta bases of the open segment, reset whenever a segment opens.
  SegmentPayloadCodec codec_;

  bool dead_ = false;
  bool closed_ = false;
  WriterStats stats_;
};

/// Owns the per-port writers of one archive directory and wires them into a
/// sharded run. Writers are created lazily per port; attach() covers every
/// shard of a system in one call.
class Archive {
 public:
  /// With `opts.resume` and an existing `opts.dir`, runs the recovery scan
  /// (one worker per hardware thread) before any writer exists, and each
  /// writer resumes from its port's ChainEnd. Throws what the scan throws
  /// (an unreadable archive), before any file is touched.
  explicit Archive(ArchiveOptions opts);
  ~Archive();

  Archive(const Archive&) = delete;
  Archive& operator=(const Archive&) = delete;

  /// The port's writer, created on first use. With `faults`, the port's
  /// shard-local torn-write injector interposes on its appends.
  ArchiveWriter& writer(std::uint32_t port,
                        const core::TimeWindowParams& params,
                        std::uint32_t monitor_levels,
                        faults::TornWriteInjector* write_faults = nullptr);

  /// Creates one writer per shard and installs it as the shard program's
  /// telemetry sink. Call before driving packets; the sinks stay installed
  /// until the analysis is destroyed, so the Archive must outlive the run.
  void attach(core::ShardedPipeline& pipeline,
              control::ShardedAnalysis& analysis,
              faults::ShardedFaultPlan* faults = nullptr);

  /// Closes every writer (footer + fsync per policy), then throws the first
  /// writer's error, if any. Idempotent.
  void close();

  /// flush() on every writer (the caller must hold whatever locks
  /// normally serialize appends to these writers).
  void flush_all();

  const ArchiveOptions& options() const { return opts_; }
  /// The recovery scan the constructor ran, or null when it ran none.
  const ArchiveReader* recovery() const { return recovery_.get(); }

  /// Per-port writer stats summed across all writers.
  WriterStats stats() const;

 private:
  ArchiveOptions opts_;
  std::unique_ptr<const ArchiveReader> recovery_;
  /// Ordered by port so close order and summed stats are deterministic.
  std::map<std::uint32_t, std::unique_ptr<ArchiveWriter>> writers_;
};

/// Flattens writer counters into a registry (pq_store_* namespace). Same
/// add-into contract as control/metrics_export.h.
void export_writer_metrics(obs::MetricsRegistry& reg, const WriterStats& s);

}  // namespace pq::store
