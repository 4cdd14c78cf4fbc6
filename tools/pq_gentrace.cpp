// pq_gentrace — generate a workload, run it through the simulated egress
// port, and store the resulting telemetry records to a trace file (the
// offline-analysis input format, mirroring the paper artifact's
// DPDK-collected logs).
//
// Usage:
//   pq_gentrace <uw|ws|dm|burst|casestudy> <output.pqt>
//               [--ms N] [--seed S] [--rate GBPS] [--buffer CELLS]
//               [--stream] [--port P]
//
// `--stream` writes the self-delimiting frame-per-record format pq_serve
// tails (append_record_frame) instead of the one-shot trace bundle;
// `--port P` rewrites every record's egress port (the simulated port is
// single-ported; serving tests want distinct port IDs).
//
// The `topology` kind is the network-wide variant (docs/NETWORK.md): it
// builds a leaf-spine fabric and writes one trace file PER SOURCE HOST
// (<output>.host<N>.pqt) of pre-switch arrivals — egress_port carries the
// source host id and deq_timedelta is zero — whose 5-tuples are
// source-port-searched so consecutive flows from each host ECMP-hash onto
// distinct spine paths (traffic::flow_on_path).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/cli_args.h"
#include "net/topology.h"
#include "sim/egress_port.h"
#include "traffic/case_study.h"
#include "traffic/net_scenarios.h"
#include "traffic/scenarios.h"
#include "traffic/trace_gen.h"
#include "wire/trace_io.h"

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: pq_gentrace <uw|ws|dm|burst|casestudy> <output.pqt>\n"
               "                   [--ms N] [--seed S] [--rate GBPS]\n"
               "                   [--buffer CELLS] [--stream] [--port P]\n"
               "       pq_gentrace topology <output-prefix>\n"
               "                   [--ms N] [--leaves L] [--spines S]\n"
               "                   [--hosts H] [--flows F] [--gbps G]\n");
  std::exit(2);
}

/// Options follow the kind and the output path.
constexpr int kFirstOption = 3;

}  // namespace

namespace {

/// The `topology` kind: per-source-host arrival traces over a leaf-spine
/// fabric, flows pinned to distinct ECMP paths.
int run_topology_mode(int argc, char** argv, const std::string& out_prefix,
                      pq::Duration duration) {
  using namespace pq;
  net::LeafSpineParams lsp;
  lsp.leaves = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--leaves", 2.0, kFirstOption));
  lsp.spines = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--spines", 2.0, kFirstOption));
  lsp.hosts_per_leaf = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--hosts", 2.0, kFirstOption));
  const net::Topology topo = net::make_leaf_spine(lsp);
  const auto flows_per_host = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--flows", 4.0, kFirstOption));
  const double gbps = arg_double(argc, argv, "--gbps", 0.5, kFirstOption);

  const auto num_hosts = static_cast<std::uint32_t>(topo.hosts.size());
  for (const net::HostConfig& src : topo.hosts) {
    std::vector<wire::TelemetryRecord> records;
    std::uint64_t next_id = 0;
    for (std::uint32_t f = 0; f < flows_per_host; ++f) {
      // A cross-rack destination, cycling over the other racks' hosts.
      std::uint32_t dst = (src.id + 1 + f) % num_hosts;
      while (topo.hosts[dst].attach_switch == src.attach_switch) {
        dst = (dst + 1) % num_hosts;
      }
      // Pin consecutive flows to distinct members of the equal-cost set.
      const auto& set = topo.route_ports(src.attach_switch, dst);
      FlowId base;
      base.src_ip = src.ip;
      base.dst_ip = topo.hosts[dst].ip;
      base.src_port = static_cast<std::uint16_t>(10000 + 131 * f);
      base.dst_port = 5001;
      base.proto = 6;
      const FlowId flow =
          traffic::flow_on_path(topo, src.attach_switch, dst, base,
                                set[f % set.size()]);
      for (const Packet& pkt :
           traffic::paced_flow(flow, 0, duration, gbps, kMtuBytes)) {
        wire::TelemetryRecord r;
        r.flow = pkt.flow;
        r.egress_port = src.id;  // source-host marker, not a switch port
        r.size_bytes = pkt.size_bytes;
        r.enq_timestamp = pkt.arrival_ns;
        r.packet_id = next_id++;
        records.push_back(r);
      }
    }
    std::sort(records.begin(), records.end(),
              [](const wire::TelemetryRecord& a,
                 const wire::TelemetryRecord& b) {
                return a.enq_timestamp < b.enq_timestamp;
              });
    const std::string path =
        out_prefix + ".host" + std::to_string(src.id) + ".pqt";
    wire::write_trace_file(path, records);
    std::printf("%s: %zu arrivals, %u flows on %u-spine ECMP\n", path.c_str(),
                records.size(), flows_per_host, lsp.spines);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pq;
  if (argc < 3) usage();
  const std::string kind = argv[1];
  const std::string out_path = argv[2];
  const double ms = arg_double(argc, argv, "--ms", 30.0, kFirstOption);
  const auto seed = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--seed", 1.0, kFirstOption));
  const auto duration = static_cast<Duration>(ms * 1e6);

  if (kind == "topology") {
    return run_topology_mode(argc, argv, out_path, duration);
  }

  sim::PortConfig port_cfg;
  port_cfg.line_rate_gbps =
      arg_double(argc, argv, "--rate", 10.0, kFirstOption);
  port_cfg.capacity_cells = static_cast<std::uint32_t>(
      arg_double(argc, argv, "--buffer", 25000.0, kFirstOption));
  sim::EgressPort port(port_cfg);

  if (kind == "uw" || kind == "ws" || kind == "dm") {
    const auto tk = kind == "uw"   ? traffic::TraceKind::kUW
                    : kind == "ws" ? traffic::TraceKind::kWS
                                   : traffic::TraceKind::kDM;
    port.run(traffic::generate_trace(tk, duration, seed));
  } else if (kind == "burst") {
    Rng rng(seed);
    traffic::PacketTraceConfig bg;
    bg.duration_ns = duration;
    bg.avg_load = 0.6;
    bg.bursty = false;
    bg.seed = seed;
    traffic::MicroburstConfig mb;
    mb.start = duration / 3;
    mb.rate_gbps = 30.0;
    mb.packets = 4000;
    port.run(traffic::merge_traces({traffic::generate_uw_trace(bg),
                                    traffic::generate_microburst(mb, rng)}));
  } else if (kind == "casestudy") {
    traffic::CaseStudyConfig cs;
    cs.duration_ns = std::max<Duration>(duration, 100'000'000);
    cs.seed = seed;
    run_case_study(cs, port);
  } else {
    usage();
  }

  std::vector<wire::TelemetryRecord> records = port.records();
  const double port_override =
      arg_double(argc, argv, "--port", -1.0, kFirstOption);
  if (port_override >= 0.0) {
    for (auto& r : records) {
      r.egress_port = static_cast<std::uint32_t>(port_override);
    }
  }
  if (arg_flag(argc, argv, "--stream", kFirstOption)) {
    wire::write_stream_file(out_path, records);
  } else {
    wire::write_trace_file(out_path, records);
  }
  std::printf("%s: %zu records (%llu dropped), peak depth %u cells, "
              "span %.2f ms\n",
              out_path.c_str(), port.records().size(),
              static_cast<unsigned long long>(port.stats().dropped),
              port.stats().peak_depth_cells,
              static_cast<double>(port.stats().last_departure) / 1e6);
  return 0;
}
