#include "serve/daemon.h"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <thread>

#include "control/metrics_export.h"

namespace pq::serve {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Daemon::Daemon(DaemonConfig cfg)
    : cfg_(std::move(cfg)),
      pipeline_(cfg_.pipeline),
      tail_(cfg_.feed_path) {
  if (cfg_.ports.empty()) {
    throw std::runtime_error("pq_serve: no ports configured");
  }

  for (const std::uint32_t port : cfg_.ports) pipeline_.enable_port(port);

  if (cfg_.faults.has_value()) {
    shard_faults_ = std::make_unique<faults::ShardedFaultPlan>(*cfg_.faults);
    // The feed is one byte stream upstream of the port demux, so its
    // injector lives in a standalone plan seeded from the same config (the
    // per-port plans cover the egress and read paths).
    feed_faults_ = std::make_unique<faults::FaultPlan>(*cfg_.faults);
  }

  analysis_ = std::make_unique<control::ShardedAnalysis>(
      pipeline_, cfg_.analysis, shard_faults_.get());

  if (!cfg_.archive_dir.empty()) {
    store::ArchiveOptions aopts;
    aopts.dir = cfg_.archive_dir;
    aopts.resume = true;
    aopts.retain_segments = cfg_.retain_segments;
    aopts.fsync = cfg_.archive_fsync;
    if (cfg_.archive_segment_bytes > 0) {
      aopts.segment_bytes = cfg_.archive_segment_bytes;
    }
    archive_.emplace(aopts);
    if (const store::ArchiveReader* scan = archive_->recovery()) {
      recovery_ = {true, scan->ports(), scan->stats()};
    }
    archive_->attach(pipeline_, *analysis_, shard_faults_.get());
  }

  supervisor_ = std::make_unique<ShardSupervisor>(
      pipeline_, *analysis_, shard_faults_.get(), cfg_.supervisor);
  router_ =
      std::make_unique<QueryRouter>(pipeline_, *analysis_, supervisor_.get());
  if (recovery_.scanned) {
    router_->load_recovered(*archive_->recovery(), cfg_.ports);
  }

  if (!cfg_.query_socket.empty()) {
    query_server_ = std::make_unique<QueryServer>(
        cfg_.query_socket, [this](std::span<const std::uint8_t> req) {
          return router_->handle(req);
        });
  }
  if (!cfg_.metrics_socket.empty()) {
    metrics_server_ = std::make_unique<MetricsServer>(
        cfg_.metrics_socket,
        [this] { return collect_metrics().to_prometheus(); });
  }
}

Daemon::~Daemon() {
  if (query_server_) query_server_->stop();
  if (metrics_server_) metrics_server_->stop();
  supervisor_->drain_and_join();
  if (archive_) {
    // A seal that fails throws; a destructor can only report it.
    try {
      archive_->close();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "pq_serve: cannot close archive %s: %s\n",
                   cfg_.archive_dir.c_str(), e.what());
    }
  }
}

void Daemon::ingest_and_submit(std::span<const std::uint8_t> bytes) {
  scratch_.clear();
  decoder_.ingest(bytes, scratch_);
  for (const auto& rec : scratch_) supervisor_->submit(rec);
}

void Daemon::pump_feed_bytes(std::span<const std::uint8_t> bytes) {
  std::lock_guard<std::mutex> lk(ingest_mu_);
  if (feed_faults_) {
    const auto delivered = feed_faults_->feed_channel().transmit(bytes);
    ingest_and_submit(delivered);
  } else {
    ingest_and_submit(bytes);
  }
}

int Daemon::run(const std::atomic<bool>& stop) {
  start_ns_ = steady_now_ns();
  supervisor_->start();
  if (query_server_) query_server_->start();
  if (metrics_server_) metrics_server_->start();

  using clock = std::chrono::steady_clock;
  auto last_watchdog = clock::now();
  auto last_metrics = last_watchdog;
  auto last_flush = last_watchdog;
  std::vector<std::uint8_t> raw;

  // A store error (a shard's append or seal, a flush tick, a final
  // checkpoint, a footer) ends ingest; the first one is reported.
  std::exception_ptr error;
  while (!stop.load(std::memory_order_relaxed) && !error) {
    raw.clear();
    const std::size_t got =
        cfg_.feed_path.empty() ? 0 : tail_.poll(raw, cfg_.read_chunk);
    if (got > 0) {
      pump_feed_bytes(raw);
    } else {
      if (!cfg_.follow) break;  // one pass over the feed, then drain
      std::this_thread::sleep_for(
          std::chrono::microseconds(cfg_.poll_sleep_us));
    }
    const auto now = clock::now();
    if (cfg_.watchdog_ms > 0 &&
        now - last_watchdog >= std::chrono::milliseconds(cfg_.watchdog_ms)) {
      supervisor_->check_watchdog();
      last_watchdog = now;
    }
    if (!cfg_.metrics_out.empty() &&
        now - last_metrics >=
            std::chrono::milliseconds(cfg_.metrics_every_ms)) {
      write_metrics_file();
      last_metrics = now;
    }
    if (archive_ && cfg_.flush_every_ms > 0 &&
        now - last_flush >= std::chrono::milliseconds(cfg_.flush_every_ms)) {
      try {
        flush_archive();
      } catch (...) {
        error = std::current_exception();
      }
      last_flush = now;
    }
    if (!error) error = supervisor_->failure();
  }

  // Drain: release anything the fault injector still holds, absorb every
  // queued record, close the archive, dump final metrics. After a store
  // error the feed stays where it stopped and the failed shard takes no
  // final checkpoint; the others drain as usual.
  if (feed_faults_ && !error) {
    std::lock_guard<std::mutex> lk(ingest_mu_);
    const auto rest = feed_faults_->feed_channel().flush();
    ingest_and_submit(rest);
  }
  supervisor_->drain_and_join();
  if (!error) error = supervisor_->failure();
  if (archive_) {
    try {
      archive_->close();
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (!cfg_.metrics_out.empty()) write_metrics_file();
  if (query_server_) query_server_->stop();
  if (metrics_server_) metrics_server_->stop();
  if (!error) return 0;
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pq_serve: %s\n", e.what());
  }
  return 1;
}

void Daemon::flush_archive() {
  // Writers append on their shard's worker thread under the shard mutex, so
  // the flush takes every shard lock first (same discipline as
  // collect_metrics). Flush timing never changes archive CONTENT, only how
  // soon bytes leave the process, so the archive stays a deterministic
  // function of the feed.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(pipeline_.num_shards());
  for (std::uint32_t s = 0; s < pipeline_.num_shards(); ++s) {
    locks.push_back(supervisor_->lock_shard(s));
  }
  archive_->flush_all();
}

void Daemon::write_metrics_file() {
  const std::string body = collect_metrics().to_prometheus();
  std::FILE* f = std::fopen(cfg_.metrics_out.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

obs::MetricsRegistry Daemon::collect_metrics() {
  // Every shard lock is held for the pipeline/analysis/archive read so the
  // snapshot is consistent with absorbs; single locks are fine elsewhere.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(pipeline_.num_shards());
  for (std::uint32_t s = 0; s < pipeline_.num_shards(); ++s) {
    locks.push_back(supervisor_->lock_shard(s));
  }
  obs::MetricsRegistry reg =
      control::collect_replay_metrics(pipeline_, *analysis_);
  if (archive_) store::export_writer_metrics(reg, archive_->stats());
  if (shard_faults_) {
    for (const std::uint32_t port : cfg_.ports) {
      if (const faults::FaultPlan* plan = shard_faults_->plan_if(port)) {
        control::export_fault_metrics(reg, *plan);
      }
    }
  }
  locks.clear();

  if (recovery_.scanned) store::export_reader_metrics(reg, recovery_.stats);

  {
    std::lock_guard<std::mutex> lk(ingest_mu_);
    const DecodeStats& d = decoder_.stats();
    reg.counter("pq_serve_frames_ok_total", "feed frames decoded cleanly")
        .inc(d.frames_ok);
    reg.counter("pq_serve_frames_rejected_total",
                "corrupt feed spans skipped by resync")
        .inc(d.frames_rejected);
    reg.counter("pq_serve_feed_bytes_total", "feed bytes ingested")
        .inc(d.bytes_in);
    reg.counter("pq_serve_feed_resync_bytes_total",
                "feed bytes discarded while resyncing")
        .inc(d.bytes_resynced);
    if (feed_faults_) control::export_fault_metrics(reg, *feed_faults_);
  }

  reg.counter("pq_serve_records_total", "records accepted into shard queues")
      .inc(supervisor_->records_submitted());
  reg.counter("pq_serve_records_absorbed_total",
              "records replayed into shard pipelines")
      .inc(supervisor_->records_absorbed());
  reg.counter("pq_serve_shed_total",
              "records dropped by the overload policy")
      .inc(supervisor_->shed_total());
  reg.counter("pq_serve_rejected_port_total",
              "records for ports this daemon does not serve")
      .inc(supervisor_->rejected_port_total());
  reg.counter("pq_serve_watchdog_stalls_total",
              "watchdog passes that found a stuck shard")
      .inc(supervisor_->watchdog_stalls_total());
  reg.gauge("pq_serve_queue_depth_peak", obs::GaugeMode::kMax,
            "per-shard ingest queue high-watermark")
      .set_max(supervisor_->queue_peak_depth());
  if (cfg_.supervisor.pin_threads) {
    // Worker placement is scheduling metadata: timing-tagged, outside the
    // deterministic metrics view.
    std::uint64_t pinned = 0;
    for (std::uint32_t s = 0; s < supervisor_->num_shards(); ++s) {
      const int cpu = supervisor_->worker_cpu(s);
      if (cpu < 0) continue;
      ++pinned;
      reg.gauge("pq_serve_shard" + std::to_string(s) + "_cpu",
                obs::GaugeMode::kMax, "effective CPU of the shard worker",
                /*timing=*/true)
          .set(static_cast<std::uint64_t>(cpu));
    }
    reg.gauge("pq_serve_pinned_workers", obs::GaugeMode::kMax,
              "shard workers successfully pinned", /*timing=*/true)
        .set(pinned);
  }

  if (query_server_) {
    const ServerStats& s = query_server_->stats();
    reg.counter("pq_serve_query_connections_total",
                "query socket connections accepted")
        .inc(s.connections.load(std::memory_order_relaxed));
    reg.counter("pq_serve_query_frames_total", "query frames received")
        .inc(s.frames.load(std::memory_order_relaxed));
    reg.counter("pq_serve_query_oversized_total",
                "query frames rejected for an oversized length prefix")
        .inc(s.oversized.load(std::memory_order_relaxed));
  }
  if (start_ns_ > 0) {
    reg.gauge("pq_serve_uptime_ns", obs::GaugeMode::kMax,
              "wall-clock ns since the daemon started (timing)",
              /*timing=*/true)
        .set_max(steady_now_ns() - start_ns_);
  }
  return reg;
}

}  // namespace pq::serve
