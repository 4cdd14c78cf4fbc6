#include "control/analysis_program.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ground/metrics.h"

namespace pq::control {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 4;   // 16 ns cells
  cfg.windows.alpha = 1;
  cfg.windows.k = 6;    // 64 cells -> window 0 period 1024 ns
  cfg.windows.num_windows = 3;
  cfg.monitor.max_depth_cells = 200;
  return cfg;
}

sim::EgressContext ctx(std::uint32_t flow, Timestamp deq,
                       Duration delta = 0, std::uint32_t qdepth = 0) {
  sim::EgressContext c;
  c.flow = make_flow(flow);
  c.egress_port = 0;
  c.size_bytes = 80;
  c.packet_cells = 1;
  c.enq_qdepth = qdepth;
  c.enq_timestamp = deq - delta;
  c.deq_timedelta = delta;
  return c;
}

TEST(AnalysisProgram, DefaultPollPeriodIsSetPeriod) {
  core::PrintQueuePipeline pipe(small_config());
  AnalysisProgram ap(pipe, {});
  EXPECT_EQ(ap.poll_period_ns(), pipe.windows().layout().set_period_ns());
}

TEST(AnalysisProgram, PollsOncePerPeriod) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  const Duration t_set = ap.poll_period_ns();
  // Feed packets spanning 3.5 set periods.
  for (Timestamp t = 16; t < t_set * 7 / 2; t += 16) {
    pipe.on_egress(ctx(1, t));
  }
  EXPECT_EQ(ap.polls_performed(), 3u);
  EXPECT_EQ(ap.window_snapshots(0).size(), 3u);
  EXPECT_EQ(ap.monitor_snapshots(0).size(), 3u);
}

TEST(AnalysisProgram, FinalizeAddsTailCheckpoint) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  pipe.on_egress(ctx(1, 100));
  EXPECT_EQ(ap.window_snapshots(0).size(), 0u);
  ap.finalize(200);
  EXPECT_EQ(ap.window_snapshots(0).size(), 1u);
}

TEST(AnalysisProgram, SnapshotsAlternateBanks) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  const std::uint32_t b0 = pipe.windows().active_bank();
  pipe.on_egress(ctx(1, ap.poll_period_ns() + 1));
  EXPECT_NE(pipe.windows().active_bank(), b0);
  pipe.on_egress(ctx(1, 2 * ap.poll_period_ns() + 1));
  EXPECT_EQ(pipe.windows().active_bank(), b0);
}

TEST(AnalysisProgram, QueryRecoversUniformTrafficExactlyInFreshWindow) {
  // One packet per cell period, all within the most recent window period:
  // the asynchronous query must recover per-flow counts exactly.
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisConfig cfg;
  cfg.z0_override = 1.0;
  AnalysisProgram ap(pipe, cfg);
  Timestamp t = 16;
  for (int i = 0; i < 60; ++i, t += 16) {
    pipe.on_egress(ctx(static_cast<std::uint32_t>(i % 4), t));
  }
  ap.finalize(t);
  const auto counts = ap.query_time_windows(0, 16, t);
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [flow, n] : counts) EXPECT_NEAR(n, 15.0, 0.01);
}

TEST(AnalysisProgram, QuerySpansMultipleCheckpoints) {
  // Traffic over several set periods: a query covering an interval that
  // crosses checkpoint boundaries stitches them together.
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisConfig cfg;
  cfg.z0_override = 1.0;
  AnalysisProgram ap(pipe, cfg);
  const Duration t_set = ap.poll_period_ns();
  Timestamp t = 16;
  std::uint64_t sent = 0;
  for (; t < 3 * t_set; t += 16) {
    pipe.on_egress(ctx(1, t));
    ++sent;
  }
  ap.finalize(t);
  const auto counts = ap.query_time_windows(0, 0, t);
  ASSERT_TRUE(counts.contains(make_flow(1)));
  // Compression loses some packets in deep windows, but the recovered total
  // must be in the right range.
  EXPECT_GT(counts.at(make_flow(1)), 0.5 * static_cast<double>(sent));
  EXPECT_LT(counts.at(make_flow(1)), 1.5 * static_cast<double>(sent));
}

TEST(AnalysisProgram, EmptyQueriesReturnNothing) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  EXPECT_TRUE(ap.query_time_windows(0, 0, 1000).empty());  // no snapshots
  pipe.on_egress(ctx(1, 100));
  ap.finalize(200);
  EXPECT_TRUE(ap.query_time_windows(0, 50, 50).empty());  // empty interval
}

TEST(AnalysisProgram, DqTriggerCapturesSpecialRegisters) {
  core::PipelineConfig pcfg = small_config();
  pcfg.dq_delay_threshold_ns = 100;
  core::PrintQueuePipeline pipe(pcfg);
  pipe.enable_port(0);
  AnalysisConfig cfg;
  cfg.z0_override = 1.0;
  cfg.dq_read_time_ns = 1000;
  AnalysisProgram ap(pipe, cfg);

  // Direct culprits of the victim: packets dequeued within [enq, deq].
  pipe.on_egress(ctx(2, 32));
  pipe.on_egress(ctx(2, 48));
  pipe.on_egress(ctx(3, 64));
  // Victim: enqueued at 20, dequeued at 80 (delay 60 < threshold? no: 60;
  // use a 200 ns delay victim dequeued at 220).
  pipe.on_egress(ctx(9, 220, 200));
  ASSERT_EQ(ap.dq_captures(0).size(), 1u);
  const auto& cap = ap.dq_captures(0)[0];
  EXPECT_EQ(cap.notification.victim_flow, make_flow(9));

  const auto counts = ap.query_dq_capture(cap, cap.notification.enq_timestamp,
                                          cap.notification.deq_timestamp);
  // Packets of flows 2 and 3 dequeued in [20, 220) are direct culprits.
  EXPECT_NEAR(counts.at(make_flow(2)), 2.0, 0.01);
  EXPECT_NEAR(counts.at(make_flow(3)), 1.0, 0.01);
}

TEST(AnalysisProgram, DqLockReleasesAfterReadTime) {
  core::PipelineConfig pcfg = small_config();
  pcfg.dq_delay_threshold_ns = 100;
  core::PrintQueuePipeline pipe(pcfg);
  pipe.enable_port(0);
  AnalysisConfig cfg;
  cfg.dq_read_time_ns = 500;
  AnalysisProgram ap(pipe, cfg);

  pipe.on_egress(ctx(1, 300, 200));  // trigger at deq 300
  EXPECT_TRUE(pipe.windows().dataplane_query_locked());
  pipe.on_egress(ctx(2, 500, 200));  // within read window: ignored
  EXPECT_EQ(ap.dq_captures(0).size(), 1u);
  pipe.on_egress(ctx(3, 900, 200));  // past 300+500: lock released, refires
  EXPECT_EQ(ap.dq_captures(0).size(), 2u);
}

TEST(AnalysisProgram, QueueMonitorQueryPicksNearestSnapshot) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  const Duration t_set = ap.poll_period_ns();

  // First period: queue builds to 50 under flow 1. The packet that crosses
  // into the second period observes the same depth (no new entry) and
  // triggers the first checkpoint; only then does flow 2 push to 120.
  pipe.on_egress(ctx(1, 100, 0, 49));
  pipe.on_egress(ctx(1, t_set + 10, 0, 49));
  pipe.on_egress(ctx(2, t_set + 50, 0, 119));
  ap.finalize(2 * t_set);

  const auto early = ap.query_queue_monitor(0, 100);
  ASSERT_FALSE(early.empty());
  EXPECT_EQ(early.back().level, 50u);

  const auto late = ap.query_queue_monitor(0, 2 * t_set);
  ASSERT_FALSE(late.empty());
  EXPECT_EQ(late.back().level, 120u);
  EXPECT_EQ(late.back().flow, make_flow(2));
}

/// Keeps the newest calibration the program emitted.
struct CalibrationProbe final : TelemetrySink {
  void on_window_snapshot(std::uint32_t, const WindowSnapshot&) override {}
  void on_monitor_snapshot(std::uint32_t, const MonitorSnapshot&) override {}
  void on_dq_capture(std::uint32_t, const DqCapture&) override {}
  void on_calibration(const CalibrationRecord& cal) override { last = cal; }
  CalibrationRecord last;
};

TEST(AnalysisProgram, CoefficientsUseMeasuredGapWhenNoOverride) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  CalibrationProbe probe;
  ap.set_sink(&probe);
  // 32 ns dequeue gaps with m0 = 4 -> z0 = 16/32 = 0.5. Gaps only count
  // while the queue is non-empty (Theorem 3 applies during congestion).
  Timestamp t = 0;
  for (int i = 0; i < 1000; ++i) {
    t += 32;
    pipe.on_egress(ctx(1, t, 0, /*qdepth=*/3));
  }
  const auto coeffs = ap.coefficients(0);
  const auto expected = core::CoefficientTable::compute(0.5, 1, 3);
  EXPECT_NEAR(coeffs.coefficient(1), expected.coefficient(1), 0.05);

  // Queries use the z0 measured at the newest poll — the calibration an
  // archive answer as of that checkpoint uses — not the gap measured since.
  const std::uint64_t polls = ap.polls_performed();
  ASSERT_GT(polls, 0u);
  const double at_poll = probe.last.z0;
  EXPECT_EQ(ap.coefficients(0).z(0), at_poll);
  const Timestamp next_poll = ap.next_time_event();
  for (t += 128; t < next_poll; t += 128) {
    pipe.on_egress(ctx(1, t, 0, /*qdepth=*/3));
  }
  ASSERT_EQ(ap.polls_performed(), polls);
  EXPECT_EQ(ap.coefficients(0).z(0), at_poll);

  // The next poll takes the wider gap: z0 falls.
  pipe.on_egress(ctx(1, t, 0, /*qdepth=*/3));
  ASSERT_EQ(ap.polls_performed(), polls + 1);
  EXPECT_LT(probe.last.z0, at_poll);
  EXPECT_EQ(ap.coefficients(0).z(0), probe.last.z0);

  // An override wins at query time, between polls too; 0 restores the
  // newest poll's z0.
  ap.set_z0_override(0.25);
  EXPECT_EQ(ap.coefficients(0).z(0), 0.25);
  ap.set_z0_override(0.0);
  EXPECT_EQ(ap.coefficients(0).z(0), probe.last.z0);
}

TEST(AnalysisProgram, BytesPolledGrowsWithPolls) {
  core::PrintQueuePipeline pipe(small_config());
  pipe.enable_port(0);
  AnalysisProgram ap(pipe, {});
  EXPECT_EQ(ap.bytes_polled(), 0u);
  pipe.on_egress(ctx(1, ap.poll_period_ns() + 1));
  const auto after_one = ap.bytes_polled();
  EXPECT_GT(after_one, 0u);
  pipe.on_egress(ctx(1, 2 * ap.poll_period_ns() + 1));
  EXPECT_EQ(ap.bytes_polled(), 2 * after_one);
}

}  // namespace
}  // namespace pq::control
