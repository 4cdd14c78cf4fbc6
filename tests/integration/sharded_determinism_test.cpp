// The determinism contract of the port-sharded engine (docs/ARCHITECTURE.md):
// a multi-port run produces byte-identical pipeline register state, query
// answers, merged notification streams, health counters and fault schedules
// for ANY thread count — 1, 2 and 8 are exercised here, with and without an
// active FaultPlan. The workload, configuration, RunResult shape and
// encoders live in sharded_harness.h, shared with the batch-size sweep in
// batch_differential_test.cpp.
#include <gtest/gtest.h>

#include "control/analysis_program.h"
#include "sharded_harness.h"
#include "sim/egress_port.h"

namespace pq {
namespace {

using harness::run_once;
using harness::RunResult;
using harness::system_config;
using harness::workload;

class ShardedDeterminism : public ::testing::TestWithParam<bool> {};

TEST_P(ShardedDeterminism, ByteIdenticalAcrossThreadCounts) {
  const bool with_faults = GetParam();
  const auto packets = workload();
  const RunResult base = run_once(packets, with_faults, 1);

  ASSERT_GT(base.packets_seen, 0u);
  ASSERT_FALSE(base.registers.empty());
  if (with_faults) {
    // The plan must actually have fired faults for this test to mean much.
    ASSERT_FALSE(base.fault_schedule.empty());
    EXPECT_GT(base.health.torn_reads_detected, 0u);
  }
  EXPECT_GT(base.dq_fired, 0u);
  ASSERT_FALSE(base.archive_bytes.empty());

  for (const unsigned threads : {2u, 8u}) {
    const RunResult other = run_once(packets, with_faults, threads);
    EXPECT_EQ(base.registers, other.registers) << "threads=" << threads;
    EXPECT_EQ(base.answers, other.answers) << "threads=" << threads;
    EXPECT_EQ(base.fault_schedule, other.fault_schedule)
        << "threads=" << threads;
    EXPECT_EQ(base.dq_stream, other.dq_stream) << "threads=" << threads;
    EXPECT_EQ(base.health, other.health) << "threads=" << threads;
    EXPECT_EQ(base.packets_seen, other.packets_seen) << "threads=" << threads;
    EXPECT_EQ(base.dq_fired, other.dq_fired) << "threads=" << threads;
    EXPECT_EQ(base.metrics_json, other.metrics_json) << "threads=" << threads;
    EXPECT_EQ(base.archive_bytes, other.archive_bytes)
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(WithAndWithoutFaults, ShardedDeterminism,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& tpi) {
                           return tpi.param ? "FaultPlan" : "Clean";
                         });

void expect_equal(const RunResult& base, const RunResult& other,
                  const ::testing::Message& label) {
  EXPECT_EQ(base.registers, other.registers) << label;
  EXPECT_EQ(base.answers, other.answers) << label;
  EXPECT_EQ(base.fault_schedule, other.fault_schedule) << label;
  EXPECT_EQ(base.dq_stream, other.dq_stream) << label;
  EXPECT_EQ(base.health, other.health) << label;
  EXPECT_EQ(base.packets_seen, other.packets_seen) << label;
  EXPECT_EQ(base.dq_fired, other.dq_fired) << label;
  EXPECT_EQ(base.metrics_json, other.metrics_json) << label;
  EXPECT_EQ(base.archive_bytes, other.archive_bytes) << label;
}

// Sixteen genuinely concurrent workers (16 ports, so no thread clamps away)
// under an active FaultPlan, with and without pinning, against the scalar
// single-thread oracle — the widest sweep in the suite.
TEST(ShardedDeterminism, SixteenThreadsWideWorkload) {
  const auto packets = workload(harness::kPortsWide);
  harness::RunSpec oracle_spec;
  oracle_spec.with_faults = true;
  oracle_spec.ports = harness::kPortsWide;
  const RunResult oracle = run_once(packets, oracle_spec);

  ASSERT_GT(oracle.packets_seen, 0u);
  ASSERT_FALSE(oracle.fault_schedule.empty());
  EXPECT_GT(oracle.dq_fired, 0u);
  EXPECT_GT(oracle.health.torn_reads_detected, 0u);

  for (const unsigned threads : {2u, 8u, 16u}) {
    for (const std::uint32_t batch : {1u, 256u}) {
      harness::RunSpec spec = oracle_spec;
      spec.threads = threads;
      spec.batch = batch;
      spec.pin_threads = threads == 16;  // pinning must be a pure no-op
      expect_equal(oracle, run_once(packets, spec),
                   ::testing::Message()
                       << "threads=" << threads << " batch=" << batch);
    }
  }
}

// The epoch size is a scheduling knob, not a semantic one: any epoch size
// (tiny and relatively prime to everything, the 4 ms default, absurdly
// large) must be byte-identical, at any thread count, under an active
// FaultPlan, to the scalar single-thread run whose one epoch spans the
// whole trace — every merge there is one global sort.
TEST(ShardedDeterminism, EpochHandoffMatchesLegacyMerge) {
  const auto packets = workload();
  harness::RunSpec single_epoch;
  single_epoch.with_faults = true;
  single_epoch.epoch_ns = Duration{1} << 40;
  const RunResult oracle = run_once(packets, single_epoch);
  ASSERT_GT(oracle.packets_seen, 0u);
  EXPECT_GT(oracle.dq_fired, 0u);

  for (const Duration epoch : {Duration{100'003}, Duration{4'000'000},
                               Duration{1} << 40}) {
    for (const unsigned threads : {1u, 8u}) {
      harness::RunSpec spec;
      spec.with_faults = true;
      spec.threads = threads;
      spec.batch = 64;
      spec.epoch_ns = epoch;
      expect_equal(oracle, run_once(packets, spec),
                   ::testing::Message()
                       << "epoch_ns=" << epoch << " threads=" << threads);
    }
  }
}

// The sharded stack and the monolithic pipeline answer the same queries on
// the same per-port traffic: sanity that sharding did not change what a
// shard computes (same windows, same coefficients, same filtering).
TEST(ShardedDeterminism, ShardMatchesMonolithicSinglePort) {
  traffic::FlowTraceConfig tcfg;
  tcfg.flow_sizes = &traffic::web_search_flow_sizes();
  tcfg.duration_ns = 6'000'000;
  tcfg.seed = 5;
  auto pkts = traffic::generate_flow_trace(tcfg);
  for (auto& pk : pkts) pk.egress_hint = 0;

  // Monolithic: one pipeline on a bare egress port.
  core::PipelineConfig pcfg = system_config(false).pipeline;
  pcfg.dq_depth_threshold_cells = 0;  // compare the polling path only
  core::PrintQueuePipeline mono(pcfg);
  mono.enable_port(0);
  control::AnalysisProgram mono_ap(mono, {});
  sim::EgressPort port(sim::PortConfig{});
  port.add_hook(&mono);
  port.run(pkts);
  mono_ap.finalize(port.stats().last_departure + 1);

  // Sharded: same config, one shard, parallel path.
  auto scfg = system_config(false);
  scfg.ports.resize(1);
  scfg.pipeline.dq_depth_threshold_cells = 0;  // match mono (no triggers)
  control::ShardedSystem sys(scfg);
  sys.run(pkts, 4);

  const auto a = mono_ap.query_time_windows(0, 2'000'000, 4'000'000);
  const auto b = sys.analysis().query_time_windows(0, 2'000'000, 4'000'000);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [flow, n] : a) {
    auto it = b.find(flow);
    ASSERT_NE(it, b.end());
    EXPECT_DOUBLE_EQ(n, it->second);
  }
}

// The wired switch refuses an empty port list before wiring any shard.
TEST(ShardedSystem, RejectsZeroPorts) {
  auto cfg = system_config(true);
  cfg.ports.clear();
  EXPECT_THROW(control::ShardedSystem{cfg}, std::invalid_argument);
}

}  // namespace
}  // namespace pq
