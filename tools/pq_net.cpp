// pq_net — network-wide PrintQueue driver (docs/NETWORK.md).
//
// Replays a multi-switch scenario through the NetworkEngine (per-switch
// sharded PrintQueue stacks composed hop by hop in GVT epochs), then runs
// hop attribution for the scenario's victim flow and prints the JSON
// report: per-hop victim delays, the attributed hop, the culprit flows the
// time-window query names there, and precision/recall against
// record-derived ground truth.
//
// Usage:
//   pq_net <incast|ecmp> [--topology leafspine|fattree|FILE.json]
//          [--leaves L] [--spines S] [--hosts H] [--k K]
//          [--senders N] [--gbps G] [--ms N] [--seed S]
//          [--threads T] [--batch B] [--top-k K] [--out report.json]
//
//   pq_net topo-dump [--topology ...]   # print the resolved topology JSON
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/cli_args.h"
#include "net/network_analysis.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: pq_net <incast|ecmp|topo-dump>\n"
      "              [--topology leafspine|fattree|FILE.json]\n"
      "              [--leaves L] [--spines S] [--hosts H] [--k K]\n"
      "              [--senders N] [--gbps G] [--ms N] [--seed S]\n"
      "              [--threads T] [--batch B] [--top-k K] [--out FILE]\n");
  std::exit(2);
}

/// Options follow the mode.
constexpr int kFirstOption = 2;

pq::net::Topology resolve_topology(int argc, char** argv,
                                   const std::string& mode) {
  using namespace pq;
  const std::string spec =
      arg_str(argc, argv, "--topology", "leafspine", kFirstOption);
  if (spec == "leafspine") {
    // ecmp needs spine fan-out and a rack wide enough that the loaded
    // uplink (not the receiver downlinks) stays the bottleneck.
    const bool ecmp = mode == "ecmp";
    net::LeafSpineParams p;
    p.leaves = static_cast<std::uint32_t>(
        arg_double(argc, argv, "--leaves", 2.0, kFirstOption));
    p.spines = static_cast<std::uint32_t>(
        arg_double(argc, argv, "--spines", ecmp ? 2.0 : 1.0, kFirstOption));
    p.hosts_per_leaf = static_cast<std::uint32_t>(
        arg_double(argc, argv, "--hosts", ecmp ? 8.0 : 4.0, kFirstOption));
    return net::make_leaf_spine(p);
  }
  if (spec == "fattree") {
    net::FatTreeParams p;
    p.k = static_cast<std::uint32_t>(
        arg_double(argc, argv, "--k", 4.0, kFirstOption));
    return net::make_fat_tree(p);
  }
  return net::load_topology_file(spec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pq;
  if (argc < 2) usage();
  const std::string mode = argv[1];

  net::Topology topo;
  try {
    topo = resolve_topology(argc, argv, mode);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pq_net: %s\n", e.what());
    return 1;
  }

  if (mode == "topo-dump") {
    std::fputs(net::to_json(topo).c_str(), stdout);
    return 0;
  }

  const auto seed = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--seed", 1.0, kFirstOption));
  const auto duration = static_cast<Duration>(
      arg_double(argc, argv, "--ms", 4.0, kFirstOption) * 1e6);

  traffic::NetScenario sc;
  try {
    if (mode == "incast") {
      traffic::CrossRackIncastConfig cfg;
      cfg.receiver_host = 0;
      cfg.senders = static_cast<std::uint32_t>(
          arg_double(argc, argv, "--senders", 6.0, kFirstOption));
      cfg.sender_gbps = arg_double(argc, argv, "--gbps", 2.0, kFirstOption);
      cfg.duration_ns = duration;
      cfg.seed = seed;
      sc = traffic::cross_rack_incast(topo, cfg);
    } else if (mode == "ecmp") {
      traffic::EcmpImbalanceConfig cfg;
      cfg.src_host = 0;
      cfg.dst_host = static_cast<std::uint32_t>(topo.hosts.size() - 1);
      cfg.flows = static_cast<std::uint32_t>(
          arg_double(argc, argv, "--senders", 10.0, kFirstOption));
      cfg.flow_gbps = arg_double(argc, argv, "--gbps", 4.5, kFirstOption);
      cfg.duration_ns = duration;
      cfg.seed = seed;
      sc = traffic::ecmp_imbalance(topo, cfg);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pq_net: %s\n", e.what());
    return 1;
  }

  net::NetworkConfig ncfg;
  ncfg.topology = topo;
  ncfg.node.pipeline.windows.m0 = 10;
  ncfg.node.pipeline.windows.alpha = 1;
  ncfg.node.pipeline.windows.k = 9;
  ncfg.node.pipeline.windows.num_windows = 4;
  ncfg.node.pipeline.monitor.max_depth_cells = 25000;
  ncfg.node.pipeline.monitor.granularity_cells = 8;

  net::NetworkEngine net(ncfg);
  net.run(std::move(sc.injections),
          static_cast<unsigned>(
              arg_double(argc, argv, "--threads", 1.0, kFirstOption)),
          static_cast<std::uint32_t>(
              arg_double(argc, argv, "--batch", 1.0, kFirstOption)));

  net::NetworkAnalysis analysis(net);
  const auto top_k = static_cast<std::size_t>(
      arg_double(argc, argv, "--top-k", 5.0, kFirstOption));
  net::AttributionReport report;
  try {
    report = analysis.attribute(sc.victim, top_k);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pq_net: attribution failed: %s\n", e.what());
    return 1;
  }

  const std::string json = net::to_json(report, net.stats());
  const char* out = arg_str(argc, argv, "--out", nullptr, kFirstOption);
  if (out != nullptr) {
    std::ofstream f(out);
    f << json;
  }
  std::fputs(json.c_str(), stdout);

  const bool hop_correct =
      report.culprit_switch == sc.expected_culprit_switch &&
      report.culprit_port == sc.expected_culprit_port;
  std::fprintf(stderr,
               "attributed hop: switch %u port %u (%s), precision %.3f, "
               "recall %.3f\n",
               report.culprit_switch, report.culprit_port,
               hop_correct ? "matches ground truth" : "MISMATCH",
               report.direct_accuracy.precision, report.direct_accuracy.recall);
  return hop_correct ? 0 : 3;
}
