// The pq_serve daemon: the always-on composition of everything below it.
//
//   feed (file tail) -> [feed fault injector] -> StreamDecoder
//     -> ShardSupervisor (bounded queues, per-shard workers)
//     -> PortPipeline shards -> AnalysisProgram polls -> pq::store archive
// with a QueryRouter answering the QueryService protocol on a unix socket
// and a Prometheus text endpoint on another.
//
// Lifecycle contract (docs/SERVICE.md):
//   startup   — if the archive directory holds history, the Archive's one
//               recovery scan (trust-nothing prefix recovery) gives the
//               router its recovered horizon and each writer the record it
//               resumes from (repairing torn tails content-neutrally). An
//               archive the scan cannot read throws before any file is
//               touched.
//   running   — ingest under an explicit overload policy; watchdog passes
//               over per-shard heartbeats; periodic metrics snapshots. A
//               store error (a shard's append or seal, a flush tick, a
//               final checkpoint, a footer) stops ingest: run() drains the
//               other shards, closes the archive, prints one
//               `pq_serve: ...` line and returns 1.
//   SIGTERM   — graceful drain: stop ingesting, absorb every queued
//               record, final checkpoint, archive footers, final metrics
//               dump, exit 0. Loses nothing that reached a queue.
//   SIGKILL   — nothing runs; the NEXT start's recovery scan restores the
//               longest valid prefix. That restart answers queries over
//               surviving history byte-identically to pq_query.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "control/sharded_analysis.h"
#include "core/port_pipeline.h"
#include "faults/sharded_faults.h"
#include "serve/feed.h"
#include "serve/query_router.h"
#include "serve/socket_server.h"
#include "serve/supervisor.h"
#include "store/archive.h"
#include "store/archive_reader.h"

namespace pq::serve {

struct DaemonConfig {
  std::vector<std::uint32_t> ports;  ///< egress ports to serve
  core::PipelineConfig pipeline;
  control::AnalysisConfig analysis;
  SupervisorOptions supervisor;

  std::string feed_path;     ///< stream file to tail (empty = no file feed)
  bool follow = true;        ///< keep tailing after EOF (false: drain+exit)
  std::size_t read_chunk = 64 * 1024;

  std::string archive_dir;   ///< empty = no persistence
  std::uint32_t retain_segments = 0;  ///< 0 = keep everything
  std::uint64_t archive_segment_bytes = 0;  ///< 0 = store default
  store::FsyncPolicy archive_fsync = store::FsyncPolicy::kNone;

  std::string query_socket;    ///< empty = no query endpoint
  std::string metrics_socket;  ///< empty = no scrape endpoint
  std::string metrics_out;     ///< .prom file refreshed periodically
  std::uint32_t metrics_every_ms = 1000;
  std::uint32_t watchdog_ms = 500;
  /// Durability tick: push the archive writers' stdio buffers to the
  /// kernel this often, so a SIGKILL loses at most one tick of telemetry.
  /// 0 disables.
  std::uint32_t flush_every_ms = 100;
  std::uint32_t poll_sleep_us = 1000;  ///< idle sleep between empty polls

  std::optional<faults::FaultPlanConfig> faults;
};

/// What the startup recovery scan found (empty when there was no history).
struct RecoverySummary {
  bool scanned = false;
  std::vector<std::uint32_t> ports;
  store::ReaderStats stats;
};

class Daemon {
 public:
  /// Builds the full stack (shards, archive with its recovery scan,
  /// supervisor, router). Throws std::runtime_error on unusable
  /// configuration (no ports, unbindable sockets) or an archive the scan
  /// cannot read.
  explicit Daemon(DaemonConfig cfg);
  ~Daemon();

  /// Runs until `stop` becomes true (graceful drain), the feed hits EOF
  /// with follow disabled, or a store error stops ingest. Returns the
  /// process exit code: 0, or 1 after a store error.
  int run(const std::atomic<bool>& stop);

  const RecoverySummary& recovery() const { return recovery_; }
  const ShardSupervisor& supervisor() const { return *supervisor_; }
  const DecodeStats& decode_stats() const { return decoder_.stats(); }

  /// One consistent metrics snapshot across all shards (takes every shard
  /// lock). Safe to call at any point in the lifecycle.
  obs::MetricsRegistry collect_metrics();

 private:
  void pump_feed_bytes(std::span<const std::uint8_t> bytes);
  void ingest_and_submit(std::span<const std::uint8_t> bytes);
  void write_metrics_file();
  void flush_archive();

  DaemonConfig cfg_;
  RecoverySummary recovery_;
  core::ShardedPipeline pipeline_;
  std::unique_ptr<faults::ShardedFaultPlan> shard_faults_;
  std::unique_ptr<faults::FaultPlan> feed_faults_;  ///< feed channel only
  std::unique_ptr<control::ShardedAnalysis> analysis_;
  std::optional<store::Archive> archive_;
  std::unique_ptr<ShardSupervisor> supervisor_;
  std::unique_ptr<QueryRouter> router_;
  std::unique_ptr<QueryServer> query_server_;
  std::unique_ptr<MetricsServer> metrics_server_;
  FileTailFeed tail_;
  /// Guards the single-writer ingest state (decoder, feed injector,
  /// scratch) against concurrent metrics snapshots.
  std::mutex ingest_mu_;
  StreamDecoder decoder_;
  std::vector<wire::TelemetryRecord> scratch_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace pq::serve
