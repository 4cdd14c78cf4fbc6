// perfbench — runs one benchmark workload in this process and prints its
// metrics. Normally started through run.py, which builds this binary first:
//
//   perfbench --workload replay_dq_archive|serve_live|fabric_incast
//             --seed N --seconds S --trace 0|1 --workdir DIR [--trace-out F]
//
// Inputs are generated from the seed before any clock starts. The workload
// then repeats full iterations (set-up, ingest, queries, restart) until S
// seconds have passed; with --trace 1 every other iteration is traced and
// the per-layer metrics are reported instead of the end-to-end ones. The
// last stdout line is the flat JSON result (bench_util.h print_result).
// Metric definitions are in METRICS.md.
#include <cstdio>
#include <filesystem>
#include <string>

#include "common.h"

namespace {

using namespace perfbench;

void print_end_to_end(const RunConfig& cfg, const Report& r, bool correct) {
  const Tail live = tail(r.live_query_us, r.live_tail_pct);
  const Tail arch = tail(r.archive_query_ms, r.archive_tail_pct);
  const double failed_ratio =
      r.attempted > 0 ? static_cast<double>(r.failed) /
                            static_cast<double>(r.attempted)
                      : 1.0;
  std::printf("%s: %llu iterations\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(r.iterations));
  std::printf("  live query     p50 %.2f us, p%g %.2f us (%zu samples)\n",
              quantile(r.live_query_us, 0.5), live.percentile, live.value,
              live.samples);
  if (cfg.workload == "serve_live") {
    std::printf(
        "  open loop      generator lateness p50 %.2f us, max %.2f us\n",
        r.open_loop_lateness_us, r.open_loop_lateness_max_us);
  }
  std::printf("  archive query  p50 %.3f ms, p%g %.3f ms (%zu samples)\n",
              quantile(r.archive_query_ms, 0.5), arch.percentile, arch.value,
              arch.samples);
  std::printf("  attribution    p50 %.3f ms (%zu samples)\n",
              median(r.attribution_ms), r.attribution_ms.size());
  std::printf("  failed_op_ratio %.6f (%llu of %llu)\n", failed_ratio,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  const std::vector<Metric> metrics = {
      {"setup_s", median(r.setup_s), "s"},
      {"ingest_pps", median(r.ingest_pps), "1/s"},
      {"live_query_p50_us", quantile(r.live_query_us, 0.5), "us"},
      {"live_query_tail_us", live.value, "us"},
      {"recovery_s", median(r.recovery_s), "s"},
      {"archive_query_p50_ms", quantile(r.archive_query_ms, 0.5), "ms"},
      {"archive_query_tail_ms", arch.value, "ms"},
      {"attribution_ms", median(r.attribution_ms), "ms"},
      {"culprit_precision", r.culprit_precision(), "ratio"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"ok_op_ratio", 1.0 - failed_ratio, "ratio"},
  };
  for (const Metric& m : metrics) {
    std::printf("  %-22s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, r.attempted, r.failed, metrics, r.counts());
}

void print_per_layer(const RunConfig& cfg, const Report& r, bool correct) {
  std::vector<Metric> metrics;
  std::printf("%s: %zu traced iterations, spans in %s\n", cfg.workload.c_str(),
              r.layers.size(), cfg.trace_path.c_str());
  for (const auto& [name, unit] : per_layer_metrics()) {
    std::vector<double> v;
    for (const auto& it : r.layers) {
      const auto f = it.find(name);
      v.push_back(f != it.end() ? f->second : 0.0);
    }
    metrics.push_back({name, median(v), unit});
  }
  // Tracing overhead: traced ingest rate over the untraced rate measured
  // alternately in the same process.
  const double untraced = median(r.ingest_pps);
  metrics.back().value =
      untraced > 0.0 ? median(r.traced_ingest_pps) / untraced : 0.0;
  for (const Metric& m : metrics) {
    std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(correct, r.attempted, r.failed, metrics, r.counts());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  RunConfig cfg;
  cfg.workload = args.str("--workload", "");
  cfg.seed = static_cast<std::uint64_t>(args.num("--seed", 1));
  cfg.seconds = args.num("--seconds", 10);
  cfg.trace = args.num("--trace", 0) != 0;
  cfg.workdir = args.str("--workdir", "");
  cfg.trace_path = args.str("--trace-out", "");
  if (cfg.workdir.empty()) {
    std::fprintf(stderr, "perfbench: --workdir is required\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.workdir, ec);
  std::filesystem::create_directories(cfg.workdir);

  Report r;
  try {
    if (cfg.workload == "replay_dq_archive") {
      run_replay_dq_archive(cfg, r);
    } else if (cfg.workload == "serve_live") {
      run_serve_live(cfg, r);
    } else if (cfg.workload == "fabric_incast") {
      run_fabric_incast(cfg, r);
    } else {
      std::fprintf(stderr, "perfbench: unknown --workload '%s'\n",
                   cfg.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", cfg.workload.c_str(),
                 e.what());
    std::filesystem::remove_all(cfg.workdir, ec);
    return 1;
  }
  std::filesystem::remove_all(cfg.workdir, ec);

  for (const std::string& f : r.check_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  const bool correct = r.check_failures.empty();
  if (cfg.trace) {
    print_per_layer(cfg, r, correct);
  } else {
    print_end_to_end(cfg, r, correct);
  }
  return correct ? 0 : 1;
}
