// Unit tests for the pull-based exporters in control/metrics_export: each
// export_* must report exactly the source object's own counters, and the
// documented additive contract (exporting twice double-counts; gauges
// combine per their mode) must hold, because collect_system_metrics leans
// on it when merging shard registries.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "control/metrics_export.h"
#include "core/pipeline.h"
#include "faults/fault_plan.h"

namespace pq::control {
namespace {

core::PipelineConfig pipeline_config() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 4;
  cfg.windows.alpha = 1;
  cfg.windows.k = 5;
  cfg.windows.num_windows = 3;
  cfg.monitor.max_depth_cells = 640;
  cfg.monitor.granularity_cells = 8;
  cfg.dq_depth_threshold_cells = 100;
  return cfg;
}

sim::EgressContext make_ctx(std::uint32_t i) {
  sim::EgressContext c;
  c.flow = make_flow(i % 17);
  c.egress_port = 0;
  c.enq_timestamp = 1'000ull * i;
  c.deq_timedelta = 50;
  c.enq_qdepth = i % 130;  // crosses the 100-cell trigger threshold
  c.packet_id = i;
  return c;
}

/// A pipeline with some of everything on its counters: stores, evictions,
/// fired and ignored triggers, bank rotations.
core::PrintQueuePipeline driven_pipeline() {
  core::PrintQueuePipeline pipe(pipeline_config());
  pipe.enable_port(0);
  for (std::uint32_t i = 0; i < 250; ++i) pipe.on_egress(make_ctx(i));
  // A locked bank turns the next trigger into an ignored one.
  pipe.windows().begin_dataplane_query();
  pipe.on_egress(make_ctx(120));  // depth 120 >= threshold, but locked
  pipe.windows().end_dataplane_query();
  pipe.windows().flip_periodic();
  pipe.monitor().flip_periodic();
  for (std::uint32_t i = 250; i < 500; ++i) pipe.on_egress(make_ctx(i));
  return pipe;
}

TEST(MetricsExport, PipelineExporterReportsPipelineCounters) {
  const core::PrintQueuePipeline pipe = driven_pipeline();
  // The drive must have hit every counted path.
  ASSERT_GT(pipe.dq_triggers_fired(), 0u);
  ASSERT_GT(pipe.dq_triggers_ignored(), 0u);

  obs::MetricsRegistry reg;
  export_pipeline_metrics(reg, pipe);

  EXPECT_EQ(reg.counter_value("pq_core_packets_seen_total"),
            pipe.packets_seen());
  EXPECT_EQ(reg.counter_value("pq_core_dq_triggers_fired_total"),
            pipe.dq_triggers_fired());
  EXPECT_EQ(reg.counter_value("pq_core_dq_triggers_ignored_total"),
            pipe.dq_triggers_ignored());

  const core::WindowStats& ws = pipe.windows().stats();
  std::uint64_t stored = 0, passed = 0, dropped = 0;
  for (const auto v : ws.stored) stored += v;
  for (const auto v : ws.passed) passed += v;
  for (const auto v : ws.dropped) dropped += v;
  ASSERT_GT(passed + dropped, 0u) << "drive produced no evictions";
  EXPECT_EQ(reg.counter_value("pq_core_window_cells_stored_total"), stored);
  EXPECT_EQ(reg.counter_value("pq_core_window_evictions_passed_total"),
            passed);
  EXPECT_EQ(reg.counter_value("pq_core_window_evictions_dropped_total"),
            dropped);
  EXPECT_EQ(reg.counter_value("pq_core_window_rotations_total"),
            pipe.windows().rotation_epoch());
  EXPECT_EQ(reg.counter_value("pq_core_monitor_updates_total"),
            pipe.monitor().updates());
  EXPECT_EQ(reg.counter_value("pq_core_monitor_rotations_total"),
            pipe.monitor().rotation_epoch());
  EXPECT_EQ(reg.counter_value("pq_core_register_bank_touches_total"),
            stored + pipe.monitor().updates());
  EXPECT_EQ(reg.gauge_value("pq_core_windows_sram_bytes"),
            pipe.windows().sram_bytes());
  EXPECT_EQ(reg.gauge_value("pq_core_monitor_sram_bytes"),
            pipe.monitor().sram_bytes());
}

TEST(MetricsExport, ExportIsAdditive) {
  // The header warns: every export_* ADDS into the registry — counters
  // increment on repeated export, and the per-shard registries are meant
  // to be combined with merge(), where the SRAM gauges (GaugeMode::kSum)
  // aggregate footprint across shards.
  const core::PrintQueuePipeline pipe = driven_pipeline();
  obs::MetricsRegistry once;
  export_pipeline_metrics(once, pipe);
  obs::MetricsRegistry twice;
  export_pipeline_metrics(twice, pipe);
  export_pipeline_metrics(twice, pipe);

  for (const char* name :
       {"pq_core_packets_seen_total", "pq_core_window_cells_stored_total",
        "pq_core_monitor_updates_total",
        "pq_core_register_bank_touches_total"}) {
    EXPECT_EQ(twice.counter_value(name), 2 * once.counter_value(name))
        << name;
  }

  obs::MetricsRegistry merged;
  export_pipeline_metrics(merged, pipe);
  obs::MetricsRegistry other_shard;
  export_pipeline_metrics(other_shard, pipe);
  merged.merge(other_shard);
  EXPECT_EQ(merged.counter_value("pq_core_packets_seen_total"),
            2 * pipe.packets_seen());
  EXPECT_EQ(merged.gauge_value("pq_core_windows_sram_bytes"),
            2 * once.gauge_value("pq_core_windows_sram_bytes"));
  EXPECT_EQ(merged.gauge_value("pq_core_monitor_sram_bytes"),
            2 * once.gauge_value("pq_core_monitor_sram_bytes"));
}

TEST(MetricsExport, FaultExporterTalliesScheduleByKind) {
  faults::FaultPlanConfig fcfg;
  fcfg.seed = 9;
  fcfg.torn_reads.probability = 0.6;
  fcfg.torn_reads.cells_scrambled = 4;
  fcfg.trigger_storm.probability = 0.3;
  fcfg.trigger_storm.forced_depth_cells = 500;
  fcfg.clock_skew.max_abs_skew_ns = 1'500;
  faults::FaultPlan plan(fcfg);

  // Fire torn reads...
  for (int i = 0; i < 40; ++i) {
    core::WindowState wsnap(2, std::vector<core::WindowCell>(16));
    plan.torn_reads().on_window_read(0, wsnap);
    core::MonitorState msnap;
    msnap.entries.resize(16);
    plan.torn_reads().on_monitor_read(0, msnap);
  }
  // ...and the egress chain (storm + skew) over a short stream.
  struct NullHook final : sim::EgressHook {
    void on_egress(const sim::EgressContext&) override {}
  } sink;
  sim::EgressHook* chain = plan.attach_egress_chain(&sink);
  for (std::uint32_t i = 0; i < 200; ++i) chain->on_egress(make_ctx(i));

  ASSERT_FALSE(plan.schedule().empty());

  obs::MetricsRegistry reg;
  export_fault_metrics(reg, plan);
  EXPECT_EQ(reg.counter_value("pq_faults_injections_total"),
            plan.schedule().size());

  // Per-kind counters match a hand tally and partition the total.
  auto tally = [&plan](faults::FaultKind kind) {
    std::uint64_t n = 0;
    for (const auto& e : plan.schedule()) n += e.kind == kind ? 1 : 0;
    return n;
  };
  const std::uint64_t torn_w = tally(faults::FaultKind::kTornWindowRead);
  const std::uint64_t torn_m = tally(faults::FaultKind::kTornMonitorRead);
  const std::uint64_t forced = tally(faults::FaultKind::kForcedTrigger);
  const std::uint64_t skew = tally(faults::FaultKind::kSkewApplied);
  ASSERT_GT(torn_w, 0u);
  ASSERT_GT(torn_m, 0u);
  ASSERT_GT(forced, 0u);
  ASSERT_GT(skew, 0u);
  EXPECT_EQ(reg.counter_value("pq_faults_torn_window_read_total"), torn_w);
  EXPECT_EQ(reg.counter_value("pq_faults_torn_monitor_read_total"), torn_m);
  EXPECT_EQ(reg.counter_value("pq_faults_forced_trigger_total"), forced);
  EXPECT_EQ(reg.counter_value("pq_faults_clock_skew_total"), skew);
  EXPECT_EQ(torn_w + torn_m + forced + skew, plan.schedule().size())
      << "an injector kind fired that the tally does not cover";
}

}  // namespace
}  // namespace pq::control
