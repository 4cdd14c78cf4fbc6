// End-to-end check that the pq::obs export path reports the truth: totals
// in the merged registry (what `pq_replay --metrics-out` serializes) must
// equal independently computed ground truth from the workload and the
// engine's own per-port statistics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "control/metrics_export.h"
#include "control/sharded_analysis.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"

namespace pq {
namespace {

constexpr std::uint32_t kPorts = 4;

std::vector<Packet> workload() {
  std::vector<std::vector<Packet>> parts;
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    traffic::FlowTraceConfig tcfg;
    tcfg.flow_sizes = &traffic::web_search_flow_sizes();
    tcfg.duration_ns = 5'000'000;
    tcfg.seed = 900 + p;
    tcfg.flow_id_base = p * 1'000'000;
    auto pkts = traffic::generate_flow_trace(tcfg);
    for (auto& pk : pkts) pk.egress_hint = p;
    parts.push_back(std::move(pkts));
  }
  return traffic::merge_traces(std::move(parts));
}

control::ShardedSystem::Config system_config() {
  control::ShardedSystem::Config cfg;
  cfg.ports.resize(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
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

TEST(MetricsIntegration, TotalsMatchTraceGroundTruth) {
  const auto packets = workload();
  control::ShardedSystem sys(system_config());
  sys.run(packets, 2);

  // Ground truth straight from the engine's per-port statistics, summed by
  // hand — the same numbers the trace itself pins down (every offered
  // packet is either enqueued or tail-dropped; a drained queue dequeues
  // exactly what it enqueued).
  std::uint64_t enq = 0, deq = 0, drop = 0, bytes = 0;
  std::uint64_t peak = 0;
  for (std::uint32_t p = 0; p < sys.engine().num_ports(); ++p) {
    const sim::PortStats& s = sys.engine().port(p).stats();
    enq += s.enqueued;
    deq += s.dequeued;
    drop += s.dropped;
    bytes += s.bytes_sent;
    peak = std::max<std::uint64_t>(peak, s.peak_depth_cells);
  }
  ASSERT_EQ(enq + drop, packets.size());
  ASSERT_EQ(deq, enq);  // fully drained

  const obs::MetricsRegistry reg = control::collect_system_metrics(sys);
  EXPECT_EQ(reg.counter_value("pq_sim_packets_enqueued_total"), enq);
  EXPECT_EQ(reg.counter_value("pq_sim_packets_dequeued_total"), deq);
  EXPECT_EQ(reg.counter_value("pq_sim_packets_dropped_total"), drop);
  EXPECT_EQ(reg.counter_value("pq_sim_bytes_sent_total"), bytes);
  EXPECT_EQ(reg.gauge_value("pq_sim_queue_depth_peak_cells"), peak);

  // The data-plane stage sees exactly the dequeued stream.
  EXPECT_EQ(reg.counter_value("pq_core_packets_seen_total"), deq);
  EXPECT_EQ(reg.counter_value("pq_core_packets_seen_total") +
                reg.counter_value("pq_sim_packets_dropped_total"),
            packets.size());

  // Register-bank touches decompose exactly into their two sources.
  EXPECT_EQ(reg.counter_value("pq_core_register_bank_touches_total"),
            reg.counter_value("pq_core_window_cells_stored_total") +
                reg.counter_value("pq_core_monitor_updates_total"));
  // Every dequeued packet probes the queue monitor once.
  EXPECT_EQ(reg.counter_value("pq_core_monitor_updates_total"), deq);

  // What --metrics-out writes is this registry's JSON; the round trip must
  // preserve the ground-truth totals bit for bit.
  const std::string json = reg.to_json();
  const obs::MetricsRegistry back = obs::MetricsRegistry::from_json(json);
  EXPECT_EQ(back.counter_value("pq_sim_packets_enqueued_total"), enq);
  EXPECT_EQ(back.counter_value("pq_sim_packets_dropped_total"), drop);
  EXPECT_EQ(back.to_json(), json);
}

TEST(MetricsIntegration, ReplayCollectorMatchesPipelineCounters) {
  const auto packets = workload();
  control::ShardedSystem sys(system_config());
  sys.run(packets, 2);

  // collect_replay_metrics is the pq_replay --metrics-out path: pipeline +
  // analysis only (no sim layer). Its core totals must agree with the
  // system-wide collector.
  const obs::MetricsRegistry replay =
      control::collect_replay_metrics(sys.pipeline(), sys.analysis());
  const obs::MetricsRegistry full = control::collect_system_metrics(sys);
  EXPECT_EQ(replay.counter_value("pq_core_packets_seen_total"),
            full.counter_value("pq_core_packets_seen_total"));
  EXPECT_EQ(replay.counter_value("pq_core_window_cells_stored_total"),
            full.counter_value("pq_core_window_cells_stored_total"));
  EXPECT_EQ(replay.counter_value("pq_control_polls_total"),
            full.counter_value("pq_control_polls_total"));
  EXPECT_FALSE(replay.contains("pq_sim_packets_enqueued_total"));
}

}  // namespace
}  // namespace pq
