// serve_steady — steady-state canary for the pq_serve ingest path. Runs
// the daemon's hot loop in-process (framed byte stream -> StreamDecoder ->
// ShardSupervisor -> per-shard pipeline + analysis absorb) under the
// backpressure overload policy, with a concurrent thread firing live
// culprit queries through the QueryRouter the whole time. Reports:
//
//   ingest_pps       records through decode+submit+absorb per wall-clock
//                    second, drain included (the daemon's sustained rate)
//   query_p50_ns /   exact quantiles of live query latency measured
//   query_p99_ns     WHILE the firehose is running — the number a stalled
//                    shard lock or a blocking archive flush moves
//   queries_answered live queries completed during ingest
//   shed_total       must be 0: backpressure may stall the producer but
//                    never drops (gated at 0% by the committed baseline)
//   records          deterministic workload size (gated at 0%)
//   peak_rss_kb      VmHWM from /proc/self/status
//
// Results land in BENCH_serve_steady.json (flat, comparator-friendly; see
// tools/check_bench_regression.py and bench/baselines/).
//
// Usage: serve_steady [--records N] [--ports P] [--batch N]
//                     [--out BENCH_serve_steady.json]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/cli_args.h"
#include "control/query_service.h"
#include "serve/feed.h"
#include "serve/query_router.h"
#include "serve/supervisor.h"
#include "wire/trace_io.h"

namespace {

using namespace pq;

double exact_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

/// The framed stream a producer would write to the daemon's feed file:
/// records round-robin the ports, a skewed flow population per port, and
/// timestamps advancing so the analysis programs keep polling mid-run.
std::vector<std::uint8_t> make_stream(std::uint64_t records,
                                      std::uint32_t ports) {
  std::vector<std::uint8_t> bytes;
  bytes.reserve(records * wire::kRecordFrameBytes);
  for (std::uint64_t i = 0; i < records; ++i) {
    wire::TelemetryRecord r;
    // Zipf-ish skew without a PRNG: low flow ids recur geometrically.
    const auto bucket = static_cast<std::uint32_t>(i % 128);
    r.flow = make_flow(1 + (bucket < 64 ? bucket % 8 : bucket));
    r.egress_port = static_cast<std::uint32_t>(i % ports);
    r.size_bytes = 200 + static_cast<std::uint32_t>(i % 1200);
    r.enq_timestamp = 300 * (i / ports + 1);
    r.deq_timedelta = 250;
    r.enq_qdepth = static_cast<std::uint32_t>(i % 900);
    r.packet_id = i + 1;
    wire::append_record_frame(bytes, r);
  }
  return bytes;
}

core::PipelineConfig pipeline_config() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 10;
  cfg.windows.alpha = 2;
  cfg.windows.k = 10;
  cfg.windows.num_windows = 4;
  cfg.monitor.max_depth_cells = 25000;
  cfg.monitor.granularity_cells = 8;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const auto records = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--records", 1'500'000));
  const auto ports = std::max(
      1u, static_cast<std::uint32_t>(arg_double(argc, argv, "--ports", 4)));
  const auto batch = std::max(
      1u, static_cast<unsigned>(arg_double(argc, argv, "--batch", 256)));
  const char* out_path =
      arg_str(argc, argv, "--out", "BENCH_serve_steady.json");

  const auto stream = make_stream(records, ports);

  core::ShardedPipeline pipeline(pipeline_config());
  for (std::uint32_t p = 0; p < ports; ++p) pipeline.enable_port(p);
  control::ShardedAnalysis analysis(pipeline, {}, nullptr);

  serve::SupervisorOptions opts;
  opts.batch = batch;
  opts.overload = serve::OverloadPolicy::kBackpressure;
  serve::ShardSupervisor sup(pipeline, analysis, nullptr, opts);
  serve::QueryRouter router(pipeline, analysis, &sup);
  sup.start();

  // Live queries on their own thread, paced so they probe latency rather
  // than contend for every shard lock slice. Runs until ingest finishes.
  std::atomic<bool> ingest_done{false};
  std::vector<double> query_ns;
  std::uint64_t malformed = 0;
  std::thread prober([&] {
    std::uint64_t id = 0;
    while (!ingest_done.load(std::memory_order_relaxed)) {
      control::QueryRequest req;
      req.type = (id % 2 == 0) ? control::QueryType::kTimeWindows
                               : control::QueryType::kQueueMonitor;
      req.request_id = ++id;
      req.port_prefix = static_cast<std::uint32_t>(id % ports);
      const Timestamp span = 300 * (records / ports);
      req.t1 = req.type == control::QueryType::kQueueMonitor ? span / 2 : 0;
      req.t2 = span;
      const auto t0 = std::chrono::steady_clock::now();
      const auto resp_bytes = router.handle(control::encode_request(req));
      const auto t1 = std::chrono::steady_clock::now();
      if (control::decode_response(resp_bytes).status ==
          control::QueryStatus::kMalformed) {
        ++malformed;
      }
      query_ns.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // The timed section is exactly the daemon's pump loop: feed-sized chunks
  // through the incremental decoder, every record submitted under
  // backpressure, then the graceful drain (absorb everything queued).
  serve::StreamDecoder decoder;
  std::vector<wire::TelemetryRecord> scratch;
  constexpr std::size_t kChunk = 64 * 1024;
  std::uint64_t submitted = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t off = 0; off < stream.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, stream.size() - off);
    scratch.clear();
    decoder.ingest({stream.data() + off, n}, scratch);
    for (const auto& r : scratch) {
      if (sup.submit(r) == serve::Submit::kOk) ++submitted;
    }
  }
  sup.drain_and_join();
  const auto t1 = std::chrono::steady_clock::now();
  ingest_done.store(true);
  prober.join();

  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double ingest_pps =
      secs > 0.0 ? static_cast<double>(submitted) / secs : 0.0;
  const double p50 = exact_quantile(query_ns, 0.50);
  const double p99 = exact_quantile(query_ns, 0.99);
  const std::uint64_t rss_kb = peak_rss_kb();

  bool fail = false;
  if (sup.shed_total() != 0 || sup.records_absorbed() != submitted ||
      submitted != records) {
    std::fprintf(stderr,
                 "FAIL: backpressure ingest lost records — submitted %llu "
                 "of %llu, absorbed %llu, shed %llu\n",
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(records),
                 static_cast<unsigned long long>(sup.records_absorbed()),
                 static_cast<unsigned long long>(sup.shed_total()));
    fail = true;
  }
  if (malformed != 0 || query_ns.empty()) {
    std::fprintf(stderr,
                 "FAIL: live queries degraded under ingest — %zu answered, "
                 "%llu malformed\n",
                 query_ns.size(), static_cast<unsigned long long>(malformed));
    fail = true;
  }

  std::printf("serve_steady: %llu records, %u ports, batch %u\n",
              static_cast<unsigned long long>(records), ports, batch);
  std::printf("  ingest     %.2f Mpps (%.2f s, drain included)\n",
              ingest_pps / 1e6, secs);
  std::printf("  queries    %zu live, p50 %.1f us, p99 %.1f us\n",
              query_ns.size(), p50 / 1e3, p99 / 1e3);
  std::printf("  shed       %llu (backpressure: must be 0)\n",
              static_cast<unsigned long long>(sup.shed_total()));
  std::printf("  peak RSS   %lu kB\n", static_cast<unsigned long>(rss_kb));

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"ingest_pps\": %.0f,\n"
                 "  \"query_p50_ns\": %.0f,\n"
                 "  \"query_p99_ns\": %.0f,\n"
                 "  \"queries_answered\": %zu,\n"
                 "  \"records\": %llu,\n"
                 "  \"shed_total\": %llu,\n"
                 "  \"peak_rss_kb\": %lu,\n"
                 "  \"ports\": %u,\n"
                 "  \"batch\": %u\n"
                 "}\n",
                 ingest_pps, p50, p99, query_ns.size(),
                 static_cast<unsigned long long>(submitted),
                 static_cast<unsigned long long>(sup.shed_total()),
                 static_cast<unsigned long>(rss_kb), ports, batch);
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return fail ? 1 : 0;
}
