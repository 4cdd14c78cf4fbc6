// pq_replay — offline analysis of a collected trace: replay the egress
// stream through the PrintQueue data plane, then answer culprit queries.
//
// Usage:
//   pq_replay <trace.pqt> [--victim worst|<packet_id>] [--top K]
//             [--alpha A] [--k K] [--T N] [--m0 M] [--salvage]
//             [--threads N] [--batch N] [--pin-threads]
//             [--save-records out.pqr]
//             [--archive-dir dir] [--archive-fsync none|segment|block]
//             [--archive-segment-bytes N] [--archive-format 1|2]
//             [--metrics-out metrics.json] [--metrics-prom metrics.prom]
//             [--simd auto|avx2|scalar] [--print-simd]
//
// Multi-port traces are replayed through one PortPipeline shard per egress
// port; `--threads N` drains the shards on a worker pool and `--batch N`
// (default 256) feeds each shard in PacketBatch chunks through the batched
// hot path (results are byte-identical for any N and any batch size —
// see docs/ARCHITECTURE.md §8/§10; `--batch 1` is the scalar oracle).
// `--pin-threads` pins each worker to a CPU round-robin (best effort; the
// effective placement lands in --metrics-out as timing-tagged gauges and
// never affects results).
// `--archive-dir` additionally streams every shard's telemetry into a
// crash-safe pq::store archive (docs/STORAGE.md) that pq_query can answer
// the same culprit queries from after the process is gone.
// Prints the victim's direct, indirect, and original culprits with
// ground-truth accuracy against the victim port's records.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_args.h"
#include "common/simd/dispatch.h"
#include "common/thread_pin.h"
#include "control/metrics_export.h"
#include "control/register_records.h"
#include "control/sharded_analysis.h"
#include "ground/ground_truth.h"
#include "ground/metrics.h"
#include "serve/supervisor.h"
#include "store/archive.h"
#include "wire/trace_io.h"

namespace {

/// Options follow the trace path.
constexpr int kFirstOption = 2;

void print_counts(const char* title, const pq::core::FlowCounts& counts,
                  std::size_t top) {
  std::printf("\n%s (%zu flows):\n", title, counts.size());
  for (const auto& [flow, n] : pq::core::top_k_flows(counts, top)) {
    std::printf("  %-44s %10.1f\n", pq::to_string(flow).c_str(), n);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pq;
  // SIMD dispatch resolves before any engine object exists; --print-simd is
  // a bare probe (no trace needed), so it is handled ahead of usage checks.
  if (arg_flag(argc, argv, "--print-simd")) {
    std::printf("compiled: scalar%s\n",
                simd::compiled(simd::Level::kAvx2) ? " avx2" : "");
    std::printf("cpu: %s\n",
                simd::cpu_supports(simd::Level::kAvx2) ? "avx2" : "scalar");
    std::printf("landed: %s\n", simd::to_string(simd::configure()));
    return 0;
  }
  if (const char* req =
          arg_str(argc, argv, "--simd", nullptr, kFirstOption)) {
    const auto parsed = simd::parse_request(req);
    if (!parsed) {
      std::fprintf(stderr, "unknown --simd '%s' (auto|avx2|scalar)\n", req);
      return 2;
    }
    simd::configure(*parsed);
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pq_replay <trace.pqt> [--victim worst|<id>] "
                 "[--top K] [--alpha A] [--k K] [--T N] [--m0 M] "
                 "[--salvage] [--threads N] [--batch N] [--pin-threads] "
                 "[--save-records out.pqr] [--archive-dir dir] "
                 "[--archive-fsync none|segment|block] "
                 "[--archive-segment-bytes N] [--archive-format 1|2] "
                 "[--metrics-out out.json] [--metrics-prom out.prom] "
                 "[--simd auto|avx2|scalar] [--print-simd]\n");
    return 2;
  }

  std::vector<wire::TelemetryRecord> records;
  try {
    records = wire::read_trace_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1], e.what());
    return 1;
  }
  if (records.empty()) {
    std::fprintf(stderr, "trace is empty\n");
    return 1;
  }

  core::PipelineConfig cfg;
  cfg.windows.m0 = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--m0", 6, kFirstOption));
  cfg.windows.alpha = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--alpha", 2, kFirstOption));
  cfg.windows.k = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--k", 12, kFirstOption));
  cfg.windows.num_windows = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--T", 4, kFirstOption));
  std::uint32_t max_depth = 0;
  for (const auto& r : records) {
    max_depth = std::max(max_depth, r.enq_qdepth + bytes_to_cells(r.size_bytes));
  }
  cfg.monitor.max_depth_cells = std::max(1024u, max_depth);

  // One shard per egress port present in the trace; per-shard streams keep
  // the global dequeue order restricted to that port.
  ground::GroundTruth truth(records);
  core::ShardedPipeline pipeline(cfg);
  std::vector<std::vector<wire::TelemetryRecord>> shard_records;
  for (const auto& r : truth.records_by_deq()) {
    const std::uint32_t prefix = pipeline.enable_port(r.egress_port);
    if (prefix >= shard_records.size()) shard_records.resize(prefix + 1);
    shard_records[prefix].push_back(r);
  }

  control::AnalysisConfig acfg;
  acfg.salvage_stale_cells = arg_flag(argc, argv, "--salvage", kFirstOption);
  control::ShardedAnalysis analysis(pipeline, acfg);

  // Durable telemetry archive: one writer per shard, installed as the
  // shard program's sink before any packet is replayed.
  std::optional<store::Archive> archive;
  if (const char* dir =
          arg_str(argc, argv, "--archive-dir", nullptr, kFirstOption)) {
    store::ArchiveOptions aopts;
    aopts.dir = dir;
    aopts.segment_bytes = static_cast<std::uint64_t>(arg_double(
        argc, argv, "--archive-segment-bytes",
        static_cast<double>(aopts.segment_bytes), kFirstOption));
    aopts.format_version = static_cast<std::uint16_t>(arg_double(
        argc, argv, "--archive-format",
        static_cast<double>(aopts.format_version), kFirstOption));
    const char* fsync =
        arg_str(argc, argv, "--archive-fsync", "none", kFirstOption);
    if (std::strcmp(fsync, "block") == 0) {
      aopts.fsync = store::FsyncPolicy::kPerBlock;
    } else if (std::strcmp(fsync, "segment") == 0) {
      aopts.fsync = store::FsyncPolicy::kPerSegment;
    } else if (std::strcmp(fsync, "none") == 0) {
      aopts.fsync = store::FsyncPolicy::kNone;
    } else {
      std::fprintf(stderr, "unknown --archive-fsync '%s'\n", fsync);
      return 2;
    }
    try {
      archive.emplace(aopts);
      archive->attach(pipeline, analysis);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cannot open archive %s: %s\n", dir, e.what());
      return 1;
    }
  }

  const auto threads = std::max(
      1u, static_cast<unsigned>(
              arg_double(argc, argv, "--threads", 1, kFirstOption)));
  const auto batch = std::max(
      1u, static_cast<unsigned>(
              arg_double(argc, argv, "--batch", 256, kFirstOption)));
  const bool pin_threads = arg_flag(argc, argv, "--pin-threads", kFirstOption);
  const unsigned workers = std::min<unsigned>(
      threads, static_cast<unsigned>(pipeline.num_shards()));
  std::vector<int> worker_cpus(workers, -1);
  std::atomic<std::uint32_t> next{0};
  auto replay_shards = [&](unsigned worker_index) {
    if (pin_threads) {
      worker_cpus[worker_index] = pin_current_thread(worker_index);
    }
    sim::PacketBatch scratch;
    for (std::uint32_t s = next.fetch_add(1); s < pipeline.num_shards();
         s = next.fetch_add(1)) {
      serve::replay_records(shard_records[s], pipeline.shard(s), batch,
                            scratch);
      analysis.program(s).finalize(
          shard_records[s].back().deq_timestamp() + 1);
    }
  };
  if (workers == 1) {
    replay_shards(0);
  } else {
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < workers; ++t) {
      pool.emplace_back(replay_shards, t);
    }
    for (auto& t : pool) t.join();
  }

  if (archive) {
    archive->close();
    const auto s = archive->stats();
    std::printf("archive: %llu blocks / %llu bytes in %llu segment%s "
                "written to %s (%llu dropped)\n",
                static_cast<unsigned long long>(s.blocks_appended),
                static_cast<unsigned long long>(s.bytes_appended),
                static_cast<unsigned long long>(s.segments_closed),
                s.segments_closed == 1 ? "" : "s",
                arg_str(argc, argv, "--archive-dir", "", kFirstOption),
                static_cast<unsigned long long>(s.blocks_dropped));
  }

  // Victim selection.
  const char* victim_arg =
      arg_str(argc, argv, "--victim", "worst", kFirstOption);
  const wire::TelemetryRecord* victim = nullptr;
  if (std::strcmp(victim_arg, "worst") == 0) {
    for (const auto& r : records) {
      if (victim == nullptr || r.deq_timedelta > victim->deq_timedelta) {
        victim = &r;
      }
    }
  } else {
    const auto want = static_cast<std::uint64_t>(std::atoll(victim_arg));
    for (const auto& r : records) {
      if (r.packet_id == want) victim = &r;
    }
    if (victim == nullptr) {
      std::fprintf(stderr, "packet id %s not found\n", victim_arg);
      return 1;
    }
  }
  const std::uint32_t egress_port = victim->egress_port;
  const auto prefix = *pipeline.port_prefix(egress_port);

  if (const char* out =
          arg_str(argc, argv, "--save-records", nullptr, kFirstOption)) {
    control::write_records_file(
        out, control::collect_records(pipeline.shard(prefix).pipeline(),
                                      analysis.program(prefix)));
    std::printf("register records saved to %s (port %u)\n", out, egress_port);
  }

  // Ground truth for accuracy is the victim port's own queue.
  ground::GroundTruth port_truth(shard_records[prefix]);

  const auto top = static_cast<std::size_t>(
      arg_double(argc, argv, "--top", 8, kFirstOption));
  std::printf("simd: %s (requested %s)\n",
              simd::to_string(simd::active_level()),
              simd::to_string(simd::active_request()));
  std::printf("trace: %zu records over %.2f ms on %zu port%s "
              "(%u threads)\n",
              records.size(),
              static_cast<double>(truth.records_by_deq().back().deq_timestamp()) / 1e6,
              pipeline.num_shards(), pipeline.num_shards() == 1 ? "" : "s",
              workers);
  std::printf("victim: %s on port %u, enq %.3f ms, queued %.1f us, "
              "depth %u cells\n",
              to_string(victim->flow).c_str(), egress_port,
              static_cast<double>(victim->enq_timestamp) / 1e6,
              static_cast<double>(victim->deq_timedelta) / 1e3,
              victim->enq_qdepth);

  const Timestamp t1 = victim->enq_timestamp;
  const Timestamp t2 = victim->deq_timestamp();

  const auto direct = analysis.query_time_windows(prefix, t1, t2);
  print_counts("direct culprits", direct, top);
  const auto pr =
      ground::flow_count_accuracy(direct, port_truth.direct_culprits(t1, t2));
  std::printf("  [accuracy vs trace ground truth: P %.3f R %.3f]\n",
              pr.precision, pr.recall);

  const Timestamp regime = port_truth.regime_start(t1);
  print_counts("indirect culprits",
               analysis.query_time_windows(prefix, regime, t1), top);
  std::printf("  [congestion regime began %.1f us before the victim]\n",
              static_cast<double>(t1 - regime) / 1e3);

  print_counts("original causes of the buildup (queue monitor)",
               core::culprit_counts(analysis.query_queue_monitor(prefix, t2)),
               top);

  // Serialize the run's metrics last so the query-latency histogram covers
  // every query issued above.
  const char* metrics_json =
      arg_str(argc, argv, "--metrics-out", nullptr, kFirstOption);
  const char* metrics_prom =
      arg_str(argc, argv, "--metrics-prom", nullptr, kFirstOption);
  if (metrics_json != nullptr || metrics_prom != nullptr) {
    auto metrics = control::collect_replay_metrics(pipeline, analysis);
    if (archive) store::export_writer_metrics(metrics, archive->stats());
    // Worker placement is scheduling metadata: timing-tagged, so it never
    // enters the deterministic (IncludeTimings::kNo) view.
    if (pin_threads) {
      std::uint64_t pinned = 0;
      for (unsigned t = 0; t < workers; ++t) {
        if (worker_cpus[t] < 0) continue;
        ++pinned;
        metrics
            .gauge("pq_replay_worker" + std::to_string(t) + "_cpu",
                   obs::GaugeMode::kMax, "effective CPU of replay worker",
                   /*timing=*/true)
            .set(static_cast<std::uint64_t>(worker_cpus[t]));
      }
      metrics
          .gauge("pq_replay_pinned_workers", obs::GaugeMode::kMax,
                 "replay workers successfully pinned", /*timing=*/true)
          .set(pinned);
    }
    auto write_file = [](const char* path, const std::string& body) {
      std::FILE* f = std::fopen(path, "w");
      if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
      }
      std::fwrite(body.data(), 1, body.size(), f);
      std::fclose(f);
      return true;
    };
    if (metrics_json != nullptr && write_file(metrics_json, metrics.to_json())) {
      std::printf("metrics written to %s\n", metrics_json);
    }
    if (metrics_prom != nullptr &&
        write_file(metrics_prom, metrics.to_prometheus())) {
      std::printf("metrics written to %s\n", metrics_prom);
    }
  }
  return 0;
}
