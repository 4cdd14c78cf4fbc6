// pq_serve — the always-on PrintQueue ingest daemon (docs/SERVICE.md).
//
// Tails a stream-framed telemetry file (pq_gentrace --stream, or anything
// appending wire::append_record_frame frames), feeds the port-sharded
// engine online, archives every shard's telemetry to a crash-safe
// pq::store directory with segment retention, answers live culprit
// queries over the QueryService protocol on a unix socket, and exposes
// Prometheus metrics on another.
//
// Usage:
//   pq_serve --ports P1[,P2...] [--feed trace.pqsm] [--exit-at-eof]
//            [--batch N] [--queue-cap N] [--overload backpressure|shed]
//            [--pin-threads]
//            [--archive-dir DIR] [--retain-segments N]
//            [--archive-segment-bytes N] [--archive-fsync none|segment|block]
//            [--archive-format 1|2] [--recovery-threads N]
//            [--compact-every-ms N] [--compact-keep-newest N]
//            [--query-sock PATH] [--metrics-sock PATH]
//            [--metrics-out FILE] [--metrics-every-ms N]
//            [--watchdog-ms N] [--flush-every-ms N] [--poll-sleep-us N]
//            [--faults plan.json]
//            [--alpha A] [--k K] [--T N] [--m0 M] [--max-depth CELLS]
//            [--salvage] [--simd auto|avx2|scalar] [--print-simd]
//
// Lifecycle: SIGTERM/SIGINT triggers a graceful drain (queued records
// absorbed, archive footers written, final metrics dumped, exit 0); a
// second signal aborts immediately. After a SIGKILL, the next start with
// the same --archive-dir recovers the longest valid prefix and keeps
// serving queries over it.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cli_args.h"
#include "common/simd/dispatch.h"
#include "serve/daemon.h"
#include "serve/fault_config.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) {
  if (g_stop.exchange(true)) std::_Exit(130);  // second signal: hard abort
}

std::vector<std::uint32_t> parse_ports(const char* list) {
  std::vector<std::uint32_t> ports;
  if (list == nullptr) return ports;
  const std::string s = list;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      ports.push_back(static_cast<std::uint32_t>(std::atoi(tok.c_str())));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pq;

  // SIMD dispatch resolves before the daemon spins up any shard thread;
  // --print-simd is a bare probe and exits without needing --ports.
  if (arg_flag(argc, argv, "--print-simd")) {
    std::printf("compiled: scalar%s\n",
                simd::compiled(simd::Level::kAvx2) ? " avx2" : "");
    std::printf("cpu: %s\n",
                simd::cpu_supports(simd::Level::kAvx2) ? "avx2" : "scalar");
    std::printf("landed: %s\n", simd::to_string(simd::configure()));
    return 0;
  }
  if (const char* req = arg_str(argc, argv, "--simd", nullptr)) {
    const auto parsed = simd::parse_request(req);
    if (!parsed) {
      std::fprintf(stderr, "unknown --simd '%s' (auto|avx2|scalar)\n", req);
      return 2;
    }
    simd::configure(*parsed);
  }

  serve::DaemonConfig dc;
  dc.ports = parse_ports(arg_str(argc, argv, "--ports", nullptr));
  if (dc.ports.empty()) {
    std::fprintf(stderr,
                 "usage: pq_serve --ports P1[,P2...] [--feed FILE] "
                 "[--exit-at-eof] [--archive-dir DIR] [--query-sock PATH] "
                 "[--metrics-sock PATH] ... (see header comment)\n");
    return 2;
  }

  dc.pipeline.windows.m0 =
      static_cast<std::uint32_t>(arg_double(argc, argv, "--m0", 6));
  dc.pipeline.windows.alpha =
      static_cast<std::uint32_t>(arg_double(argc, argv, "--alpha", 2));
  dc.pipeline.windows.k =
      static_cast<std::uint32_t>(arg_double(argc, argv, "--k", 12));
  dc.pipeline.windows.num_windows =
      static_cast<std::uint32_t>(arg_double(argc, argv, "--T", 4));
  dc.pipeline.monitor.max_depth_cells = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--max-depth", 25000.0));
  dc.analysis.salvage_stale_cells = arg_flag(argc, argv, "--salvage");

  dc.feed_path = arg_str(argc, argv, "--feed", "");
  dc.follow = !arg_flag(argc, argv, "--exit-at-eof");
  dc.supervisor.batch = static_cast<std::size_t>(
      arg_double(argc, argv, "--batch", 256));
  dc.supervisor.queue_capacity = static_cast<std::size_t>(
      arg_double(argc, argv, "--queue-cap", 8192));
  dc.supervisor.pin_threads = arg_flag(argc, argv, "--pin-threads");
  const char* overload = arg_str(argc, argv, "--overload", "backpressure");
  if (std::strcmp(overload, "shed") == 0) {
    dc.supervisor.overload = serve::OverloadPolicy::kShedNewest;
  } else if (std::strcmp(overload, "backpressure") != 0) {
    std::fprintf(stderr, "unknown --overload '%s'\n", overload);
    return 2;
  }

  dc.archive_dir = arg_str(argc, argv, "--archive-dir", "");
  dc.retain_segments = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--retain-segments", 0));
  dc.archive_segment_bytes = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--archive-segment-bytes", 0));
  const char* fsync = arg_str(argc, argv, "--archive-fsync", "none");
  if (std::strcmp(fsync, "block") == 0) {
    dc.archive_fsync = store::FsyncPolicy::kPerBlock;
  } else if (std::strcmp(fsync, "segment") == 0) {
    dc.archive_fsync = store::FsyncPolicy::kPerSegment;
  } else if (std::strcmp(fsync, "none") != 0) {
    std::fprintf(stderr, "unknown --archive-fsync '%s'\n", fsync);
    return 2;
  }
  dc.archive_format = static_cast<std::uint16_t>(arg_double(
      argc, argv, "--archive-format", store::kFormatVersionV2));
  if (dc.archive_format != store::kFormatVersionV1 &&
      dc.archive_format != store::kFormatVersionV2) {
    std::fprintf(stderr, "--archive-format must be 1 or 2\n");
    return 2;
  }
  dc.recovery_threads = static_cast<unsigned>(
      arg_double(argc, argv, "--recovery-threads", 0));
  dc.compact_every_ms = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--compact-every-ms", 0));
  dc.compact_keep_newest = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--compact-keep-newest", 1));

  dc.query_socket = arg_str(argc, argv, "--query-sock", "");
  dc.metrics_socket = arg_str(argc, argv, "--metrics-sock", "");
  dc.metrics_out = arg_str(argc, argv, "--metrics-out", "");
  dc.metrics_every_ms = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--metrics-every-ms", 1000));
  dc.watchdog_ms = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--watchdog-ms", 500));
  dc.flush_every_ms = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--flush-every-ms", 100));
  dc.poll_sleep_us = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--poll-sleep-us", 1000));

  if (const char* plan = arg_str(argc, argv, "--faults", nullptr)) {
    faults::FaultPlanConfig fcfg;
    std::string error;
    if (!serve::load_fault_config(plan, fcfg, error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }
    dc.faults = fcfg;
  }

  std::unique_ptr<serve::Daemon> daemon;
  try {
    daemon = std::make_unique<serve::Daemon>(std::move(dc));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pq_serve: %s\n", e.what());
    return 1;
  }

  const serve::RecoverySummary& rec = daemon->recovery();
  if (rec.scanned) {
    std::printf("recovered: %zu port(s), %llu block(s), %llu byte(s) "
                "truncated, %llu recover%s\n",
                rec.ports.size(),
                static_cast<unsigned long long>(rec.stats.blocks_recovered),
                static_cast<unsigned long long>(rec.stats.bytes_truncated),
                static_cast<unsigned long long>(rec.stats.recoveries),
                rec.stats.recoveries == 1 ? "y" : "ies");
  }
  std::printf("pq_serve: %zu shard(s) up, simd %s (requested %s)\n",
              daemon->supervisor().num_shards(),
              simd::to_string(simd::active_level()),
              simd::to_string(simd::active_request()));
  std::fflush(stdout);

  struct sigaction sa{};
  sa.sa_handler = on_signal;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  std::signal(SIGPIPE, SIG_IGN);  // belt-and-braces beside MSG_NOSIGNAL

  const int rc = daemon->run(g_stop);

  const serve::ShardSupervisor& sup = daemon->supervisor();
  const serve::DecodeStats& d = daemon->decode_stats();
  std::printf("pq_serve: drained — %llu record(s) absorbed, %llu shed, "
              "%llu frame(s) ok, %llu rejected, %llu stall(s) seen\n",
              static_cast<unsigned long long>(sup.records_absorbed()),
              static_cast<unsigned long long>(sup.shed_total()),
              static_cast<unsigned long long>(d.frames_ok),
              static_cast<unsigned long long>(d.frames_rejected),
              static_cast<unsigned long long>(sup.watchdog_stalls_total()));
  return rc;
}
