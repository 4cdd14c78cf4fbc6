// perf_smoke — the CI performance canary. Replays a canned multi-port
// workload through the full sharded stack (engine + per-port pipelines +
// per-shard analysis), then reports the numbers a hot-path regression
// cannot hide from:
//
//   throughput_pps     packets drained per wall-clock second (sim phase,
//                      batched hook delivery at --batch)
//   replay_pps_scalar  pure pipeline-replay throughput at batch 1 (the
//   replay_pps_batch   scalar oracle) and at --batch; the ratio is
//   replay_speedup_x   gated by the committed baseline
//   replay_pps_archive   batched replay with a pq::store archive attached
//   replay_archive_ratio_x  (fsync none); the ratio to the no-archive run
//                      gates the archiving overhead (docs/STORAGE.md)
//   simd_speedup_x     batched replay at the native dispatch level over the
//                      same replay forced to PQ_SIMD_LEVEL=scalar; 1.0 when
//                      the host has no AVX2 (the baseline gates it only
//                      when simd_avx2_available is 1 — see `requires` in
//                      tools/check_bench_regression.py)
//   query_p50_ns /     exact quantiles over a fixed batch of coordinator
//   query_p99_ns       queries (time-window + queue-monitor)
//   peak_rss_kb        VmHWM from /proc/self/status
//
// The replay phase also byte-compares the deterministic metrics view
// (IncludeTimings::kNo) of the scalar and batched replays and fails hard on
// any difference — the bench doubles as a cheap batching-correctness gate.
//
// Results land in BENCH_perf_smoke.json (flat, comparator-friendly; see
// tools/check_bench_regression.py) and the run's full metric registry in
// metrics.json. Wall-clock sampling uses std::chrono directly so the bench
// measures identically in PQ_METRICS=ON and OFF builds — that is what makes
// the "instrumentation is within noise" acceptance check meaningful.
//
// Usage: perf_smoke [--threads N] [--ports P] [--ms D] [--batch N]
//                   [--simd auto|avx2|scalar]
//                   [--out BENCH_perf_smoke.json] [--metrics-out metrics.json]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/cli_args.h"
#include "common/simd/dispatch.h"
#include "control/metrics_export.h"
#include "control/sharded_analysis.h"
#include "serve/supervisor.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"
#include "wire/telemetry.h"

namespace {

using namespace pq;

std::vector<Packet> make_workload(std::uint32_t ports, Duration duration_ns) {
  std::vector<std::vector<Packet>> parts;
  for (std::uint32_t p = 0; p < ports; ++p) {
    traffic::FlowTraceConfig tcfg;
    tcfg.flow_sizes = &traffic::web_search_flow_sizes();
    tcfg.duration_ns = duration_ns;
    tcfg.seed = 4242 + p;
    tcfg.flow_id_base = p * 1'000'000;
    auto pkts = traffic::generate_flow_trace(tcfg);
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
  }
  return traffic::merge_traces(std::move(parts));
}

control::ShardedSystem::Config system_config(std::uint32_t ports) {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(ports);
  for (std::uint32_t p = 0; p < ports; ++p) {
    cfg.ports[p].port_id = p;
    cfg.ports[p].collect_depth_series = false;
  }
  cfg.pipeline.windows.m0 = 10;
  cfg.pipeline.windows.alpha = 2;
  cfg.pipeline.windows.k = 10;
  cfg.pipeline.windows.num_windows = 4;
  cfg.pipeline.monitor.max_depth_cells = 25000;
  cfg.pipeline.monitor.granularity_cells = 8;
  cfg.pipeline.dq_depth_threshold_cells = 400;
  return cfg;
}

double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

struct ReplayOutcome {
  double best_pps = 0.0;        ///< best of the timed repetitions
  std::string metrics_json;     ///< deterministic view (IncludeTimings::kNo)
  /// Archive-attached reps only: what the stream would have occupied as v1
  /// frames vs what the v2 writer actually appended. Their ratio is the
  /// compression the baseline gates as archive_bytes_ratio_x.
  std::uint64_t archive_logical_bytes = 0;
  std::uint64_t archive_physical_bytes = 0;
};

/// Stages each shard's egress stream as fixed-size SoA chunks, the batched
/// path's native input format. Staging happens once, outside any timed
/// section, mirroring how the scalar path's AoS contexts are staged by the
/// caller: the timed loop then measures delivery + absorption in both
/// modes, not input-format conversion.
std::vector<std::vector<sim::PacketBatch>> stage_chunks(
    const std::vector<std::vector<sim::EgressContext>>& shard_ctxs,
    std::uint32_t batch) {
  std::vector<std::vector<sim::PacketBatch>> chunks(shard_ctxs.size());
  for (std::size_t s = 0; s < shard_ctxs.size(); ++s) {
    sim::PacketBatch pb;
    pb.reserve(batch);
    for (const auto& ctx : shard_ctxs[s]) {
      pb.push(ctx);
      if (pb.size() >= batch) {
        chunks[s].push_back(pb);
        pb.clear();
      }
    }
    if (!pb.empty()) chunks[s].push_back(pb);
  }
  return chunks;
}

/// Replays the collected per-port egress streams through a fresh pipeline +
/// analysis stack at the given batch size, single-threaded (so the measured
/// ratio isolates batching from thread scheduling). Construction and
/// finalize stay outside the timed section; the timed loop is exactly the
/// record-feeding hot path, fed from each mode's pre-staged native format
/// (AoS contexts for scalar, SoA chunks for batched).
ReplayOutcome run_replay(
    const std::vector<std::vector<sim::EgressContext>>& shard_ctxs,
    const std::vector<std::vector<sim::PacketBatch>>& shard_chunks,
    const core::PipelineConfig& pcfg, std::uint32_t batch, int reps,
    const std::string& archive_dir = {}, bool keep_archive = false,
    const control::AnalysisConfig& acfg = {}) {
  ReplayOutcome out;
  std::size_t total = 0;
  for (const auto& v : shard_ctxs) total += v.size();
  for (int rep = 0; rep < reps; ++rep) {
    core::ShardedPipeline pipeline(pcfg);
    for (std::uint32_t p = 0; p < shard_ctxs.size(); ++p) {
      pipeline.enable_port(p);
    }
    control::ShardedAnalysis analysis(pipeline, acfg);
    // With an archive dir, every shard streams its telemetry through a
    // pq::store writer during the timed loop (fsync none) — the archiving
    // cost lands inside the measured section, which is the point.
    std::optional<store::Archive> archive;
    if (!archive_dir.empty()) {
      store::ArchiveOptions aopts;
      aopts.dir = archive_dir;
      archive.emplace(aopts);
      archive->attach(pipeline, analysis);
    }

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t s = 0; s < pipeline.num_shards(); ++s) {
      auto& shard = pipeline.shard(s);
      if (batch <= 1) {
        for (const auto& ctx : shard_ctxs[s]) shard.on_egress(ctx);
      } else {
        for (const auto& pb : shard_chunks[s]) shard.on_egress_batch(pb);
      }
    }
    const auto t1 = std::chrono::steady_clock::now();

    for (std::uint32_t s = 0; s < pipeline.num_shards(); ++s) {
      if (!shard_ctxs[s].empty()) {
        analysis.program(s).finalize(
            shard_ctxs[s].back().deq_timestamp() + 1);
      }
    }
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs > 0.0) {
      out.best_pps =
          std::max(out.best_pps, static_cast<double>(total) / secs);
    }
    if (rep == reps - 1) {
      out.metrics_json = control::collect_replay_metrics(pipeline, analysis)
                             .to_json(obs::IncludeTimings::kNo);
    }
    if (archive) {
      archive->close();
      out.archive_logical_bytes = archive->stats().logical_bytes;
      out.archive_physical_bytes = archive->stats().bytes_appended;
      if (!keep_archive) {
        std::error_code ec;
        std::filesystem::remove_all(archive_dir, ec);  // fresh dir per rep
      }
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto ports = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--ports", 4));
  const auto duration_ms = arg_double(argc, argv, "--ms", 40);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const auto threads = static_cast<unsigned>(arg_double(
      argc, argv, "--threads", std::min<unsigned>(hw, ports)));
  const auto batch = std::max(
      1u, static_cast<unsigned>(arg_double(argc, argv, "--batch", 256)));
  const char* out_path =
      arg_str(argc, argv, "--out", "BENCH_perf_smoke.json");
  const char* metrics_path =
      arg_str(argc, argv, "--metrics-out", "metrics.json");
  if (const char* req = arg_str(argc, argv, "--simd", nullptr)) {
    const auto parsed = simd::parse_request(req);
    if (!parsed) {
      std::fprintf(stderr, "unknown --simd '%s' (auto|avx2|scalar)\n", req);
      return 2;
    }
    simd::configure(*parsed);
  }

  const auto packets = make_workload(
      ports, static_cast<Duration>(duration_ms * 1e6));

  control::ShardedSystem sys(system_config(ports));
  const auto t0 = std::chrono::steady_clock::now();
  sys.run(packets, threads, batch);
  const auto t1 = std::chrono::steady_clock::now();
  const double run_ms =
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  const double throughput_pps =
      run_ms > 0.0 ? static_cast<double>(packets.size()) / (run_ms / 1e3)
                   : 0.0;

  // A fixed batch of queries spread across shards and the trace's span;
  // exact quantiles over the per-query wall clock.
  std::vector<double> query_ns;
  const Timestamp span = static_cast<Timestamp>(duration_ms * 1e6);
  constexpr int kQueriesPerShard = 50;
  for (std::uint32_t s = 0; s < sys.pipeline().num_shards(); ++s) {
    for (int i = 0; i < kQueriesPerShard; ++i) {
      const Timestamp lo = span / 8 + (span / (2 * kQueriesPerShard)) *
                                          static_cast<Timestamp>(i);
      const auto q0 = std::chrono::steady_clock::now();
      const auto counts =
          sys.analysis().query_time_windows(s, lo, lo + span / 8);
      const auto culprits =
          sys.analysis().query_queue_monitor(s, lo + span / 16);
      const auto q1 = std::chrono::steady_clock::now();
      query_ns.push_back(
          std::chrono::duration<double, std::nano>(q1 - q0).count());
      // Keep the optimizer honest.
      if (counts.size() + culprits.size() == static_cast<std::size_t>(-1)) {
        std::printf("impossible\n");
      }
    }
  }
  const double p50 = exact_quantile(query_ns, 0.50);
  const double p99 = exact_quantile(query_ns, 0.99);
  const std::uint64_t rss_kb = peak_rss_kb();

  std::uint64_t dequeued = 0, dropped = 0;
  for (std::uint32_t p = 0; p < sys.engine().num_ports(); ++p) {
    dequeued += sys.engine().port(p).stats().dequeued;
    dropped += sys.engine().port(p).stats().dropped;
  }

  // Replay phase: the same egress streams fed straight into fresh pipeline
  // stacks, once per batch size. Scalar (batch 1) is the oracle; the
  // batched run must produce a byte-identical deterministic metrics view,
  // and the throughput ratio is the number the baseline gates.
  std::vector<std::vector<sim::EgressContext>> shard_ctxs(
      sys.engine().num_ports());
  for (std::uint32_t p = 0; p < sys.engine().num_ports(); ++p) {
    const auto& recs = sys.engine().port(p).records();
    shard_ctxs[p].reserve(recs.size());
    for (const auto& r : recs) shard_ctxs[p].push_back(serve::to_context(r));
  }
  core::PipelineConfig replay_cfg = system_config(ports).pipeline;
  // The replay metric is the data-plane hot path: windows + monitor + gap
  // EWMA + trigger predicates. DQ triggers stay disabled here — each fire
  // copies and retains a full bank snapshot, which is control-plane work
  // (measured by the query-latency section above) and, on this trace
  // (>80% of packets past the depth threshold), repeats every
  // dq_read_time; its allocator traffic is identical in both modes and
  // only drowns the scalar/batched signal. EXPERIMENTS.md reports the
  // with-captures ratio alongside.
  replay_cfg.dq_depth_threshold_cells = 0;
  replay_cfg.dq_delay_threshold_ns = 0;
  const auto shard_chunks = stage_chunks(shard_ctxs, batch);
  // One untimed warmup per mode, then interleaved scalar/batched reps:
  // alternating keeps clock-frequency and cache drift from biasing one
  // mode (both see the same machine conditions), and best-of per mode
  // rejects one-off stalls.
  constexpr int kReplayReps = 3;
  // Scratch directory for the archive-enabled reps, wiped between reps by
  // run_replay so every measurement starts from an empty segment chain.
  std::string archive_scratch =
      (std::filesystem::temp_directory_path() / "pq-perf-archive-XXXXXX")
          .string();
  if (mkdtemp(archive_scratch.data()) == nullptr) {
    std::fprintf(stderr, "cannot create archive scratch dir\n");
    return 1;
  }
  const std::string archive_dir = archive_scratch + "/archive";
  run_replay(shard_ctxs, shard_chunks, replay_cfg, 1, 1);
  run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1);
  run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1, archive_dir);
  // The SIMD leg: the identical batched replay with dispatch forced to
  // scalar, interleaved with the native-level reps like everything else.
  // The ratio isolates the vector kernels (same batching, same staging);
  // the deterministic metrics views must still be byte-identical, which
  // makes the bench a cross-dispatch-level correctness gate too.
  const simd::Level native_level = simd::active_level();
  ReplayOutcome scalar, batched, archived, forced_scalar;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    const ReplayOutcome s =
        run_replay(shard_ctxs, shard_chunks, replay_cfg, 1, 1);
    const ReplayOutcome b =
        run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1);
    const ReplayOutcome a =
        run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1,
                   archive_dir);
    simd::set_active_level(simd::Level::kScalar);
    const ReplayOutcome v =
        run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1);
    simd::set_active_level(native_level);
    scalar.best_pps = std::max(scalar.best_pps, s.best_pps);
    batched.best_pps = std::max(batched.best_pps, b.best_pps);
    archived.best_pps = std::max(archived.best_pps, a.best_pps);
    forced_scalar.best_pps = std::max(forced_scalar.best_pps, v.best_pps);
    scalar.metrics_json = s.metrics_json;
    batched.metrics_json = b.metrics_json;
    archived.metrics_json = a.metrics_json;
    forced_scalar.metrics_json = v.metrics_json;
  }
  // Archive v2 metrics: one more archived rep, kept on disk this time, is
  // (a) the compression measurement — WriterStats tracks both the physical
  // bytes appended and what the same stream costs as v1 frames — and
  // (b) the corpus for the indexed `--as-of` seek latency: an ArchiveReader
  // recovers it and answers time-window queries at horizons spread across
  // the span, exact quantiles over per-query wall clock.
  // Poll fast enough that each port checkpoints dozens of times: delta
  // compression only engages between same-kind blocks sharing a segment,
  // and a steady checkpoint cadence is exactly the daemon's steady state.
  // The monitor runs at a coarser granularity here so the stream is
  // dominated by window checkpoints — the structure delta coding targets;
  // the per-1-cell monitor ladder churns almost fully between polls and
  // would only measure that churn, not the codec.
  control::AnalysisConfig seek_acfg;
  seek_acfg.poll_period_ns = 200'000;  // fixed, so the ratio is span-independent
  core::PipelineConfig seek_pcfg = replay_cfg;
  seek_pcfg.monitor.granularity_cells = 128;
  const ReplayOutcome kept =
      run_replay(shard_ctxs, shard_chunks, seek_pcfg, batch, 1, archive_dir,
                 true, seek_acfg);
  const double archive_bytes_ratio =
      kept.archive_physical_bytes > 0
          ? static_cast<double>(kept.archive_logical_bytes) /
                static_cast<double>(kept.archive_physical_bytes)
          : 0.0;
  std::vector<double> seek_ns;
  {
    store::ArchiveReader reader(archive_dir);
    constexpr int kSeeksPerPort = 50;
    for (const std::uint32_t port : reader.ports()) {
      for (int i = 0; i < kSeeksPerPort; ++i) {
        const Timestamp as_of =
            span / 8 + (span / kSeeksPerPort) * static_cast<Timestamp>(i);
        const auto q0 = std::chrono::steady_clock::now();
        const auto counts = reader.query_time_windows(
            port, span / 8, span - span / 8, 0, as_of);
        const auto q1 = std::chrono::steady_clock::now();
        seek_ns.push_back(
            std::chrono::duration<double, std::nano>(q1 - q0).count());
        if (counts.size() == static_cast<std::size_t>(-1)) {
          std::printf("impossible\n");
        }
      }
    }
    if (reader.seek_stats().seeks == 0) {
      std::fprintf(stderr, "FAIL: as-of queries never used the seek index\n");
      return 1;
    }
  }
  const double seek_p50 = exact_quantile(seek_ns, 0.50);
  const double seek_p99 = exact_quantile(seek_ns, 0.99);
  {
    std::error_code ec;
    std::filesystem::remove_all(archive_scratch, ec);
  }
  if (scalar.metrics_json != batched.metrics_json) {
    std::fprintf(stderr,
                 "FAIL: batched replay (batch %u) diverged from the scalar "
                 "oracle — deterministic metrics views differ\n",
                 batch);
    return 1;
  }
  if (archived.metrics_json != batched.metrics_json) {
    std::fprintf(stderr,
                 "FAIL: attaching the archive perturbed the replay — "
                 "deterministic metrics views differ\n");
    return 1;
  }
  if (forced_scalar.metrics_json != batched.metrics_json) {
    std::fprintf(stderr,
                 "FAIL: SIMD dispatch level %s diverged from forced-scalar "
                 "dispatch — deterministic metrics views differ\n",
                 simd::to_string(native_level));
    return 1;
  }
  const double replay_speedup =
      scalar.best_pps > 0.0 ? batched.best_pps / scalar.best_pps : 0.0;
  const double archive_ratio =
      batched.best_pps > 0.0 ? archived.best_pps / batched.best_pps : 0.0;
  const bool simd_avx2_available = simd::supported(simd::Level::kAvx2);
  // 1.0 when dispatch already lands on scalar (no AVX2, or --simd scalar):
  // the two legs measured the same code and their ratio is only noise.
  const double simd_speedup =
      native_level != simd::Level::kScalar && forced_scalar.best_pps > 0.0
          ? batched.best_pps / forced_scalar.best_pps
          : 1.0;

  std::printf("perf_smoke: %zu pkts, %u ports, %u threads, batch %u\n",
              packets.size(), ports, threads, batch);
  std::printf("  run        %.1f ms  (%.2f Mpps)\n", run_ms,
              throughput_pps / 1e6);
  std::printf("  replay     %.2f Mpps scalar, %.2f Mpps batch %u "
              "(%.2fx, deterministic counters identical)\n",
              scalar.best_pps / 1e6, batched.best_pps / 1e6, batch,
              replay_speedup);
  std::printf("  archive    %.2f Mpps with pq::store attached "
              "(%.2fx of no-archive)\n",
              archived.best_pps / 1e6, archive_ratio);
  std::printf("  archive v2 %.2fx compression (%lu logical -> %lu physical "
              "bytes), as-of seek p50 %.1f us p99 %.1f us (%zu seeks)\n",
              archive_bytes_ratio,
              static_cast<unsigned long>(kept.archive_logical_bytes),
              static_cast<unsigned long>(kept.archive_physical_bytes),
              seek_p50 / 1e3, seek_p99 / 1e3, seek_ns.size());
  std::printf("  simd       %s landed, %.2f Mpps forced-scalar dispatch "
              "(%.2fx, deterministic counters identical)\n",
              simd::to_string(native_level), forced_scalar.best_pps / 1e6,
              simd_speedup);
  std::printf("  query p50  %.1f us   p99 %.1f us  (%zu queries)\n",
              p50 / 1e3, p99 / 1e3, query_ns.size());
  std::printf("  peak RSS   %lu kB\n",
              static_cast<unsigned long>(rss_kb));
  std::printf("  drained    %lu pkts, %lu drops\n",
              static_cast<unsigned long>(dequeued),
              static_cast<unsigned long>(dropped));

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"throughput_pps\": %.0f,\n"
                 "  \"replay_pps_scalar\": %.0f,\n"
                 "  \"replay_pps_batch\": %.0f,\n"
                 "  \"replay_speedup_x\": %.3f,\n"
                 "  \"replay_pps_archive\": %.0f,\n"
                 "  \"replay_archive_ratio_x\": %.3f,\n"
                 "  \"archive_bytes_ratio_x\": %.3f,\n"
                 "  \"query_seek_p50_ns\": %.0f,\n"
                 "  \"query_seek_p99_ns\": %.0f,\n"
                 "  \"simd_speedup_x\": %.3f,\n"
                 "  \"simd_avx2_available\": %d,\n"
                 "  \"query_p50_ns\": %.0f,\n"
                 "  \"query_p99_ns\": %.0f,\n"
                 "  \"peak_rss_kb\": %lu,\n"
                 "  \"run_ms\": %.2f,\n"
                 "  \"packets\": %zu,\n"
                 "  \"dequeued\": %lu,\n"
                 "  \"dropped\": %lu,\n"
                 "  \"ports\": %u,\n"
                 "  \"threads\": %u,\n"
                 "  \"batch\": %u\n"
                 "}\n",
                 throughput_pps, scalar.best_pps, batched.best_pps,
                 replay_speedup, archived.best_pps, archive_ratio,
                 archive_bytes_ratio, seek_p50, seek_p99,
                 simd_speedup, simd_avx2_available ? 1 : 0, p50, p99,
                 static_cast<unsigned long>(rss_kb), run_ms, packets.size(),
                 static_cast<unsigned long>(dequeued),
                 static_cast<unsigned long>(dropped), ports, threads, batch);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }

  const auto metrics = control::collect_system_metrics(sys);
  if (std::FILE* f = std::fopen(metrics_path, "w")) {
    const std::string body = metrics.to_json();
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", metrics_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", metrics_path);
    return 1;
  }
  return 0;
}
