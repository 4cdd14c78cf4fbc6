#include "common.h"

#include <algorithm>

#include "ground/ground_truth.h"
#include "serve/supervisor.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"

namespace perfbench {

using namespace pq;

namespace {

/// The layer a span name belongs to: the text before the first '.'.
std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

}  // namespace

void Report::check_repeat(std::size_t trace, const Counts& counts,
                          double precision) {
  const auto it = trace_counts.find(trace);
  if (it == trace_counts.end()) {
    trace_counts[trace] = counts;
    trace_precision[trace] = precision;
    return;
  }
  check(it->second == counts,
        "deterministic counts changed between iterations on one trace");
  check(trace_precision[trace] == precision,
        "culprit precision changed between iterations on one trace");
}

void Report::add_iteration(double setup, double ingest, double recovery,
                           const std::vector<double>& live,
                           const std::vector<double>& attribution,
                           const std::vector<double>& archive) {
  setup_s.push_back(setup);
  ingest_pps.push_back(ingest);
  recovery_s.push_back(recovery);
  live_query_us.insert(live_query_us.end(), live.begin(), live.end());
  attribution_ms.insert(attribution_ms.end(), attribution.begin(),
                        attribution.end());
  archive_query_ms.insert(archive_query_ms.end(), archive.begin(),
                          archive.end());
}

Counts Report::counts() const {
  Counts out;
  for (const auto& [trace, counts] : trace_counts) {
    for (const auto& [name, v] : counts) {
      out.emplace_back(name + ".t" + std::to_string(trace), v);
    }
  }
  return out;
}

double Report::culprit_precision() const {
  double sum = 0.0;
  for (const auto& [trace, p] : trace_precision) sum += p;
  return trace_precision.empty()
             ? 0.0
             : sum / static_cast<double>(trace_precision.size());
}

std::vector<Packet> web_search_trace(std::uint32_t ports, Duration duration_ns,
                                     std::uint64_t seed) {
  std::vector<std::vector<Packet>> parts;
  for (std::uint32_t p = 0; p < ports; ++p) {
    traffic::FlowTraceConfig tcfg;
    tcfg.flow_sizes = &traffic::web_search_flow_sizes();
    tcfg.duration_ns = duration_ns;
    tcfg.seed = seed * 1000 + p;
    tcfg.flow_id_base = p * 1'000'000;
    auto pkts = traffic::generate_flow_trace(tcfg);
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
  }
  return traffic::merge_traces(std::move(parts));
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

void sample_victims(const std::vector<wire::TelemetryRecord>& records,
                    std::uint32_t port, std::size_t n, Rng& rng,
                    std::vector<VictimCase>& out) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].enq_qdepth >= 1000 && records[i].deq_timedelta > 0) {
      eligible.push_back(i);
    }
  }
  if (eligible.empty()) return;
  const ground::GroundTruth truth(records);
  for (std::size_t v = 0; v < n; ++v) {
    const auto& rec = records[eligible[rng() % eligible.size()]];
    out.push_back({port, rec.enq_timestamp, rec.deq_timestamp(),
                   truth.direct_culprits(rec.enq_timestamp,
                                         rec.deq_timestamp())});
  }
}

std::uint64_t capture_bytes(const control::DqCapture& cap) {
  std::uint64_t cells = 0;
  for (const auto& w : cap.windows) cells += w.size();
  return cells * sizeof(core::WindowCell) +
         cap.monitor.entries.size() * sizeof(core::MonitorEntry);
}

double poll_seconds(const control::ShardedAnalysis& analysis) {
  double s = 0.0;
  for (std::uint32_t i = 0; i < analysis.num_shards(); ++i) {
    s += static_cast<double>(analysis.program(i).poll_latency_ns().sum()) / 1e9;
  }
  return s;
}

ReplayCost replay_cost(
    const std::vector<std::vector<wire::TelemetryRecord>>& per_port,
    const core::PipelineConfig& pcfg, const control::AnalysisConfig& acfg,
    std::uint32_t batch) {
  // Stage the SoA chunks first so only delivery and absorb are timed.
  std::vector<std::vector<sim::PacketBatch>> chunks(per_port.size());
  for (std::size_t p = 0; p < per_port.size(); ++p) {
    sim::PacketBatch pb;
    pb.reserve(batch);
    for (const auto& r : per_port[p]) {
      pb.push(serve::to_context(r));
      if (pb.size() >= batch) {
        chunks[p].push_back(pb);
        pb.clear();
      }
    }
    if (!pb.empty()) chunks[p].push_back(pb);
  }
  core::ShardedPipeline pipeline(pcfg);
  for (std::uint32_t p = 0; p < per_port.size(); ++p) pipeline.enable_port(p);
  control::ShardedAnalysis analysis(pipeline, acfg);
  const std::int64_t t0 = now_ns();
  for (std::uint32_t p = 0; p < per_port.size(); ++p) {
    auto& shard = pipeline.shard(p);
    for (const auto& pb : chunks[p]) shard.on_egress_batch(pb);
  }
  const std::int64_t t1 = now_ns();
  return ReplayCost{seconds_between(t0, t1), poll_seconds(analysis)};
}

void add_shares(std::map<std::string, double>& out, double wall_s,
                const std::map<std::string, double>& direct,
                const std::map<std::string, double>& parallel,
                double phase_wall_s, double threads) {
  static const char* const kLayers[] = {"setup", "sim",   "core",  "control",
                                        "store", "wire",  "serve", "net"};
  std::map<std::string, double> wall_equiv;
  for (const auto& [name, s] : direct) wall_equiv[layer_of(name)] += s;
  // Busy seconds on `threads` workers become wall-clock seconds of the
  // phase; if estimates overshoot the phase, scale them into it.
  double busy = 0.0;
  for (const auto& [name, s] : parallel) busy += std::max(0.0, s);
  const double fit = busy / threads > phase_wall_s && busy > 0.0
                         ? phase_wall_s * threads / busy
                         : 1.0;
  for (const auto& [name, s] : parallel) {
    wall_equiv[layer_of(name)] += std::max(0.0, s) * fit / threads;
  }
  double accounted = 0.0;
  for (const char* layer : kLayers) {
    const double share = wall_s > 0.0 ? wall_equiv[layer] / wall_s : 0.0;
    out[std::string("share.") + layer] = share;
    accounted += share;
  }
  out["share.unaccounted"] = 1.0 - accounted;
  out["trace.wall_s"] = wall_s;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"sim.drain_s", "s"},
      {"sim.ns_per_pkt", "ns"},
      {"sim.handoff_s", "s"},
      {"sim.shard_skew_x", "x"},
      {"sim.drops", "count"},
      {"core.absorb_s", "s"},
      {"core.packets", "count"},
      {"core.dq_fires", "count"},
      {"core.dq_copy_mb", "MB"},
      {"control.dq_capture_s", "s"},
      {"control.poll_s", "s"},
      {"control.polls", "count"},
      {"control.poll_mb", "MB"},
      {"control.query_s", "s"},
      {"store.append_s", "s"},
      {"store.blocks", "count"},
      {"store.written_mb", "MB"},
      {"store.compression_x", "x"},
      {"store.close_s", "s"},
      {"store.recovery_blocks", "count"},
      {"store.query_s", "s"},
      {"store.blocks_bypassed_per_query", "count"},
      {"wire.decode_s", "s"},
      {"serve.submit_wait_s", "s"},
      {"serve.drain_s", "s"},
      {"serve.queue_peak", "count"},
      {"serve.shed", "count"},
      {"net.pass2_s", "s"},
      {"net.pass1_s", "s"},
      {"net.transport_epochs", "count"},
      {"net.hops", "count"},
      {"net.attribute_s", "s"},
      {"share.setup", "ratio"},
      {"share.sim", "ratio"},
      {"share.core", "ratio"},
      {"share.control", "ratio"},
      {"share.store", "ratio"},
      {"share.wire", "ratio"},
      {"share.serve", "ratio"},
      {"share.net", "ratio"},
      {"share.unaccounted", "ratio"},
      {"trace.wall_s", "s"},
      {"trace.overhead_x", "x"},
  };
  return kMetrics;
}

}  // namespace perfbench
