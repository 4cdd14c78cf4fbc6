// ratio_canary — the CI canary for what the repository benchmark
// (perfbench/) does not gate: in-process throughput ratios and a canned
// workload's exact counts. Drains a canned multi-port workload through the
// full sharded stack once, then replays the per-port egress records through
// fresh pipeline + analysis stacks, single-threaded: scalar (batch 1, the
// oracle), batched, batched with a pq::store archive attached (fsync none),
// and batched with SIMD dispatch forced to scalar. It gates
// replay_speedup_x (batched / scalar), replay_archive_ratio_x (archived /
// batched), simd_speedup_x (batched / forced-scalar, only where dispatch
// landed on AVX2), archive_bytes_ratio_x (the v2 codec's compression) and,
// loosely, the absolute replay rates, each against a floor below: a ratio
// of two back-to-back measurements in one process is far less
// runner-sensitive than an absolute rate. A missed floor, a moved count or
// any difference between the replays' deterministic metrics views
// (IncludeTimings::kNo) exits 1.
//
// Usage: ratio_canary   (no options; writes nothing but a temp archive)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/simd/dispatch.h"
#include "control/metrics_export.h"
#include "control/sharded_analysis.h"
#include "serve/supervisor.h"
#include "store/archive.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"

namespace {

using namespace pq;

// The canned workload's exact counts: the generator, the queueing model
// or drop behaviour moved if they do.
constexpr std::uint64_t kPackets = 120'224;
constexpr std::uint64_t kDequeued = 112'894;
constexpr std::uint64_t kDropped = 7'330;

// Floors: the value each gate was set at, less its tolerance.
constexpr double kMinReplaySpeedupX = 1.65;  // 2.2x - 25%
constexpr double kMinSimdSpeedupX = 1.00;    // 1.25x - 20%
constexpr double kMinArchiveRatioX = 0.90;   // 1.0x - 10%
constexpr double kMinBytesRatioX = 2.002;    // 2.2x - 9%
constexpr double kMinScalarPps = 5.0e6;      // 25 Mpps - 80%
constexpr double kMinBatchPps = 11.0e6;      // 55 Mpps - 80%

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

struct ReplayOutcome {
  double best_pps = 0.0;        ///< best of the timed repetitions
  std::string metrics_json;     ///< deterministic view (IncludeTimings::kNo)
  /// Archive-attached reps only: what the stream would have occupied as v1
  /// frames vs what the v2 writer actually appended. Their ratio is the
  /// compression gated as archive_bytes_ratio_x.
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
    const std::string& archive_dir = {},
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
      std::error_code ec;
      std::filesystem::remove_all(archive_dir, ec);  // fresh dir per rep
    }
  }
  return out;
}

/// Prints one gate line and returns whether `value` reached `floor`.
bool at_least(const char* name, double value, double floor,
              double scale = 1.0, const char* unit = "x") {
  const bool ok = value >= floor;
  std::printf("  %-24s %9.3f %-4s floor %9.3f  %s\n", name, value / scale,
              unit, floor / scale, ok ? "ok" : "FAIL");
  return ok;
}

}  // namespace

int main() {
  constexpr std::uint32_t ports = 4;
  constexpr double duration_ms = 40;
  constexpr unsigned threads = 2;
  constexpr unsigned batch = 256;

  const auto packets = make_workload(
      ports, static_cast<Duration>(duration_ms * 1e6));

  control::ShardedSystem sys(system_config(ports));
  sys.run(packets, threads, batch);

  std::uint64_t dequeued = 0, dropped = 0;
  for (std::uint32_t p = 0; p < sys.engine().num_ports(); ++p) {
    dequeued += sys.engine().port(p).stats().dequeued;
    dropped += sys.engine().port(p).stats().dropped;
  }

  // Replay phase: the same egress streams fed straight into fresh pipeline
  // stacks, once per batch size. Scalar (batch 1) is the oracle; the
  // batched run must produce a byte-identical deterministic metrics view,
  // and the throughput ratio is the number the canary gates.
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
  // (measured end to end by perfbench's replay_dq_archive) and, on this trace
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
  // The SIMD leg: the identical batched replay with dispatch forced to
  // scalar, interleaved with the native-level reps like everything else.
  // The ratio isolates the vector kernels (same batching, same staging);
  // the deterministic metrics views must still be byte-identical, which
  // makes the bench a cross-dispatch-level correctness gate too.
  const simd::Level native_level = simd::active_level();
  run_replay(shard_ctxs, shard_chunks, replay_cfg, 1, 1);
  run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1);
  run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1, archive_dir);
  simd::set_active_level(simd::Level::kScalar);
  run_replay(shard_ctxs, shard_chunks, replay_cfg, batch, 1);
  simd::set_active_level(native_level);
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
  // Archive v2 compression: one more archived rep — WriterStats tracks both
  // the physical bytes appended and what the same stream costs as v1
  // frames.
  // Poll fast enough that each port checkpoints dozens of times: delta
  // compression only engages between same-kind blocks sharing a segment,
  // and a steady checkpoint cadence is exactly the daemon's steady state.
  // The monitor runs at a coarser granularity here so the stream is
  // dominated by window checkpoints — the structure delta coding targets;
  // the per-8-cell monitor ladder churns almost fully between polls and
  // would only measure that churn, not the codec.
  control::AnalysisConfig kept_acfg;
  kept_acfg.poll_period_ns = 200'000;  // fixed: the ratio is span-independent
  core::PipelineConfig kept_pcfg = replay_cfg;
  kept_pcfg.monitor.granularity_cells = 128;
  const ReplayOutcome kept =
      run_replay(shard_ctxs, shard_chunks, kept_pcfg, batch, 1, archive_dir,
                 kept_acfg);
  const double archive_bytes_ratio =
      kept.archive_physical_bytes > 0
          ? static_cast<double>(kept.archive_logical_bytes) /
                static_cast<double>(kept.archive_physical_bytes)
          : 0.0;
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
  // 1.0 when dispatch already lands on scalar (no AVX2, -DPQ_SIMD=OFF or
  // PQ_SIMD_LEVEL=scalar): the two legs measured the same code, their ratio
  // is only noise, and the gate is skipped.
  const double simd_speedup =
      native_level != simd::Level::kScalar && forced_scalar.best_pps > 0.0
          ? batched.best_pps / forced_scalar.best_pps
          : 1.0;

  std::printf("ratio_canary: %zu pkts, %u ports, %u threads, batch %u, "
              "simd %s\n",
              packets.size(), ports, threads, batch,
              simd::to_string(native_level));
  bool ok = packets.size() == kPackets && dequeued == kDequeued &&
            dropped == kDropped;
  std::printf("  drained    %zu pkts, %lu dequeued, %lu drops (want %lu, "
              "%lu, %lu)  %s\n",
              packets.size(), static_cast<unsigned long>(dequeued),
              static_cast<unsigned long>(dropped),
              static_cast<unsigned long>(kPackets),
              static_cast<unsigned long>(kDequeued),
              static_cast<unsigned long>(kDropped), ok ? "ok" : "FAIL");
  ok = at_least("replay_pps_scalar", scalar.best_pps, kMinScalarPps, 1e6,
                "Mpps") && ok;
  ok = at_least("replay_pps_batch", batched.best_pps, kMinBatchPps, 1e6,
                "Mpps") && ok;
  ok = at_least("replay_speedup_x", replay_speedup, kMinReplaySpeedupX) && ok;
  ok = at_least("replay_archive_ratio_x", archive_ratio, kMinArchiveRatioX) &&
       ok;
  std::printf("  archive bytes            %lu logical -> %lu physical\n",
              static_cast<unsigned long>(kept.archive_logical_bytes),
              static_cast<unsigned long>(kept.archive_physical_bytes));
  ok = at_least("archive_bytes_ratio_x", archive_bytes_ratio,
                kMinBytesRatioX) && ok;
  if (native_level != simd::Level::kScalar) {
    ok = at_least("simd_speedup_x", simd_speedup, kMinSimdSpeedupX) && ok;
  } else {
    std::printf("  %-24s skipped (dispatch landed on scalar)\n",
                "simd_speedup_x");
  }
  std::printf("%s\n", ok ? "all gates hold" : "FAIL: a gate missed");
  return ok ? 0 : 1;
}
