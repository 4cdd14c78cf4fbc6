// net_incast — canary for the network-wide path (src/net/). Replays the
// 3-switch leaf-spine cross-rack incast from traffic::cross_rack_incast
// (two leaves, one spine; six aggressors across the fabric converge on one
// receiver downlink at 1.2x line rate while a thin victim flow shares the
// hop), then runs hop attribution and reports:
//
//   net_replay_pps             packet-hops through transport + telemetry
//                              replay per wall-clock second
//   correct_hop                1 when NetworkAnalysis names the scenario's
//                              congested hop (receiver downlink), else 0 —
//                              gated with min_floor 1
//   hop_attribution_precision  precision of the per-switch time-window
//                              culprit query at that hop vs record ground
//                              truth — gated with min_floor 0.8
//   delivered / dropped        end-to-end packet accounting (the incast is
//                              engineered drop-free: dropped gated at 0)
//   victim_hops                INT hops recorded on the victim's path
//   peak_rss_kb                VmHWM from /proc/self/status
//
// Results land in BENCH_net_incast.json (flat, comparator-friendly; the
// committed baseline is bench/baselines/net_incast_baseline.json).
//
// Usage: net_incast [--senders N] [--gbps G] [--ms N] [--threads T]
//                   [--out BENCH_net_incast.json]
#include <chrono>
#include <cstdio>

#include "common/cli_args.h"
#include "net/network_analysis.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"

int main(int argc, char** argv) {
  using namespace pq;
  const char* out_path =
      arg_str(argc, argv, "--out", "BENCH_net_incast.json");

  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 1;
  lsp.hosts_per_leaf = 4;
  const net::Topology topo = net::make_leaf_spine(lsp);

  traffic::CrossRackIncastConfig cfg;
  cfg.receiver_host = 0;
  cfg.senders =
      static_cast<std::uint32_t>(arg_double(argc, argv, "--senders", 6.0));
  cfg.sender_gbps = arg_double(argc, argv, "--gbps", 2.0);
  cfg.duration_ns =
      static_cast<Duration>(arg_double(argc, argv, "--ms", 4.0) * 1e6);
  cfg.seed = 1;
  traffic::NetScenario sc = traffic::cross_rack_incast(topo, cfg);

  net::NetworkConfig ncfg;
  ncfg.topology = topo;
  ncfg.node.pipeline.windows.m0 = 10;
  ncfg.node.pipeline.windows.alpha = 1;
  ncfg.node.pipeline.windows.k = 9;
  ncfg.node.pipeline.windows.num_windows = 4;
  ncfg.node.pipeline.monitor.max_depth_cells = 25000;
  ncfg.node.pipeline.monitor.granularity_cells = 8;

  net::NetworkEngine net(ncfg);
  const auto threads =
      static_cast<unsigned>(arg_double(argc, argv, "--threads", 2.0));
  const auto t0 = std::chrono::steady_clock::now();
  net.run(std::move(sc.injections), threads, 64);
  const auto t1 = std::chrono::steady_clock::now();

  net::NetworkAnalysis analysis(net);
  const net::AttributionReport report = analysis.attribute(sc.victim, 8);

  const net::NetRunStats& st = net.stats();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  const double replay_pps =
      secs > 0.0 ? static_cast<double>(st.total_hops) / secs : 0.0;
  const bool correct_hop =
      report.culprit_switch == sc.expected_culprit_switch &&
      report.culprit_port == sc.expected_culprit_port;
  const std::uint64_t rss_kb = peak_rss_kb();

  std::printf("net_incast: %u senders @ %.1f Gbps, %.1f ms, %u threads\n",
              cfg.senders, cfg.sender_gbps,
              static_cast<double>(cfg.duration_ns) / 1e6, threads);
  std::printf("  replay     %.2f Mhop/s (%.3f s, %llu packet-hops)\n",
              replay_pps / 1e6, secs,
              static_cast<unsigned long long>(st.total_hops));
  std::printf("  packets    %llu injected, %llu delivered, %llu dropped\n",
              static_cast<unsigned long long>(st.injected),
              static_cast<unsigned long long>(st.delivered),
              static_cast<unsigned long long>(st.dropped));
  std::printf("  attribution switch %u port %u (%s), precision %.3f, "
              "recall %.3f, %zu victim hops\n",
              report.culprit_switch, report.culprit_port,
              correct_hop ? "correct" : "WRONG",
              report.direct_accuracy.precision,
              report.direct_accuracy.recall, report.hops.size());
  std::printf("  peak RSS   %lu kB\n", static_cast<unsigned long>(rss_kb));

  if (std::FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"net_replay_pps\": %.0f,\n"
                 "  \"correct_hop\": %d,\n"
                 "  \"hop_attribution_precision\": %.6f,\n"
                 "  \"hop_attribution_recall\": %.6f,\n"
                 "  \"injected\": %llu,\n"
                 "  \"delivered\": %llu,\n"
                 "  \"dropped\": %llu,\n"
                 "  \"victim_hops\": %zu,\n"
                 "  \"transport_epochs\": %llu,\n"
                 "  \"peak_rss_kb\": %lu\n"
                 "}\n",
                 replay_pps, correct_hop ? 1 : 0,
                 report.direct_accuracy.precision,
                 report.direct_accuracy.recall,
                 static_cast<unsigned long long>(st.injected),
                 static_cast<unsigned long long>(st.delivered),
                 static_cast<unsigned long long>(st.dropped),
                 report.hops.size(),
                 static_cast<unsigned long long>(st.transport_epochs),
                 static_cast<unsigned long>(rss_kb));
    std::fclose(f);
    std::printf("wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path);
    return 1;
  }
  return correct_hop && report.direct_accuracy.precision >= 0.8 ? 0 : 1;
}
