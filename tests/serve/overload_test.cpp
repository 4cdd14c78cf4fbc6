// Overload behaviour of the pq_serve ingest path: the bounded IngestQueue
// and the ShardSupervisor's two explicit degradation policies. The
// invariants under test are the daemon's memory contract — a full queue
// either stalls the producer or sheds with EXACT accounting (submitted ==
// absorbed + shed, always), never grows without bound — and that live
// queries keep being answered while the firehose is on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "common/cli_args.h"
#include "control/query_service.h"
#include "serve/ingest_queue.h"
#include "serve/query_router.h"
#include "serve/supervisor.h"
#include "wire/telemetry.h"

namespace pq::serve {
namespace {

wire::TelemetryRecord make_record(std::uint64_t i, std::uint32_t port) {
  wire::TelemetryRecord r;
  r.flow = make_flow(static_cast<std::uint32_t>(1 + i % 64));
  r.egress_port = port;
  r.size_bytes = 200;
  r.enq_timestamp = 500 * (i + 1);
  r.deq_timedelta = 250;
  r.enq_qdepth = static_cast<std::uint32_t>(i % 100);
  r.packet_id = i + 1;
  return r;
}

core::PipelineConfig small_pipeline() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 10;
  cfg.windows.alpha = 1;
  cfg.windows.k = 6;
  cfg.windows.num_windows = 3;
  cfg.monitor.max_depth_cells = 25000;
  return cfg;
}

TEST(IngestQueue, ShedsNewestWithExactCountWhenFull) {
  IngestQueue q(4);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(q.try_push(make_record(i, 0)), IngestQueue::Push::kOk);
  }
  EXPECT_EQ(q.try_push(make_record(4, 0)), IngestQueue::Push::kShed);
  EXPECT_EQ(q.try_push(make_record(5, 0)), IngestQueue::Push::kShed);
  EXPECT_EQ(q.shed_total(), 2u);
  EXPECT_EQ(q.depth(), 4u);
  EXPECT_EQ(q.peak_depth(), 4u);

  std::vector<wire::TelemetryRecord> out;
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(0)), 4u);
  // The four oldest survived; the shed ones are gone, not reordered.
  EXPECT_EQ(out.front().packet_id, 1u);
  EXPECT_EQ(out.back().packet_id, 4u);
}

TEST(IngestQueue, CloseDrainsAndRefusesNewRecords) {
  IngestQueue q(8);
  ASSERT_EQ(q.try_push(make_record(0, 0)), IngestQueue::Push::kOk);
  q.close();
  EXPECT_EQ(q.try_push(make_record(1, 0)), IngestQueue::Push::kClosed);
  EXPECT_EQ(q.push_wait(make_record(2, 0)), IngestQueue::Push::kClosed);
  EXPECT_FALSE(q.drained());

  std::vector<wire::TelemetryRecord> out;
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(0)), 1u);
  EXPECT_TRUE(q.drained());
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(0)), 0u);
}

TEST(IngestQueue, BackpressureBlocksProducerUntilConsumerMakesRoom) {
  IngestQueue q(2);
  ASSERT_EQ(q.push_wait(make_record(0, 0)), IngestQueue::Push::kOk);
  ASSERT_EQ(q.push_wait(make_record(1, 0)), IngestQueue::Push::kOk);

  std::atomic<bool> third_in{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push_wait(make_record(2, 0)), IngestQueue::Push::kOk);
    third_in.store(true);
  });
  // The producer must be parked: nothing shed, nothing admitted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_in.load());
  EXPECT_EQ(q.shed_total(), 0u);

  std::vector<wire::TelemetryRecord> out;
  EXPECT_EQ(q.pop_batch(out, 1, std::chrono::milliseconds(100)), 1u);
  producer.join();
  EXPECT_TRUE(third_in.load());
  EXPECT_EQ(q.depth(), 2u);
}

TEST(ShardSupervisor, BackpressureAbsorbsEverythingExactly) {
  core::ShardedPipeline pipeline(small_pipeline());
  pipeline.enable_port(5);
  pipeline.enable_port(9);
  control::ShardedAnalysis analysis(pipeline, control::AnalysisConfig{},
                                    nullptr);

  SupervisorOptions opts;
  opts.batch = 32;
  opts.queue_capacity = 64;  // small enough to exercise the stall path
  opts.overload = OverloadPolicy::kBackpressure;
  ShardSupervisor sup(pipeline, analysis, nullptr, opts);
  sup.start();

  constexpr std::uint64_t kPerPort = 20000;
  for (std::uint64_t i = 0; i < kPerPort; ++i) {
    ASSERT_EQ(sup.submit(make_record(i, 5)), Submit::kOk);
    ASSERT_EQ(sup.submit(make_record(i, 9)), Submit::kOk);
  }
  EXPECT_EQ(sup.submit(make_record(0, 77)), Submit::kUnknownPort);

  sup.drain_and_join();
  EXPECT_EQ(sup.records_submitted(), 2 * kPerPort);
  EXPECT_EQ(sup.records_absorbed(), 2 * kPerPort);
  EXPECT_EQ(sup.shed_total(), 0u);
  EXPECT_EQ(sup.rejected_port_total(), 1u);
  EXPECT_LE(sup.queue_peak_depth(), opts.queue_capacity);
  EXPECT_EQ(sup.queue_depth(), 0u);
}

TEST(ShardSupervisor, ShedNewestAccountsEveryRecordUnderFirehose) {
  core::ShardedPipeline pipeline(small_pipeline());
  pipeline.enable_port(3);
  control::ShardedAnalysis analysis(pipeline, control::AnalysisConfig{},
                                    nullptr);

  SupervisorOptions opts;
  opts.batch = 16;
  opts.queue_capacity = 32;
  opts.overload = OverloadPolicy::kShedNewest;
  ShardSupervisor sup(pipeline, analysis, nullptr, opts);
  sup.start();

  const std::uint64_t rss_before_kb = peak_rss_kb();

  constexpr std::uint64_t kTotal = 300000;
  std::uint64_t accepted = 0;
  std::uint64_t shed = 0;
  for (std::uint64_t i = 0; i < kTotal; ++i) {
    switch (sup.submit(make_record(i, 3))) {
      case Submit::kOk:
        ++accepted;
        break;
      case Submit::kShed:
        ++shed;
        break;
      default:
        FAIL() << "unexpected submit result";
    }
  }
  sup.drain_and_join();

  // Exact conservation: every record is accounted for, exactly once.
  EXPECT_EQ(accepted + shed, kTotal);
  EXPECT_EQ(sup.records_submitted(), accepted);
  EXPECT_EQ(sup.records_absorbed(), accepted);
  EXPECT_EQ(sup.shed_total(), shed);
  EXPECT_LE(sup.queue_peak_depth(), opts.queue_capacity);

  // The memory contract: a 300k-record firehose through a 32-slot queue
  // must not balloon the process. The bound is deliberately generous (the
  // pipeline itself owns registers); what it catches is an unbounded queue.
  // peak_rss_kb() reads 0 where /proc is unavailable.
  const std::uint64_t rss_after_kb = peak_rss_kb();
  if (rss_before_kb > 0 && rss_after_kb > 0) {
    EXPECT_LT(rss_after_kb - rss_before_kb, 256u * 1024u)
        << "peak RSS grew by " << (rss_after_kb - rss_before_kb) << " kB";
  }
}

TEST(ShardSupervisor, QueriesAnsweredWhileOverloaded) {
  core::ShardedPipeline pipeline(small_pipeline());
  pipeline.enable_port(4);
  control::ShardedAnalysis analysis(pipeline, control::AnalysisConfig{},
                                    nullptr);

  SupervisorOptions opts;
  opts.batch = 8;
  opts.queue_capacity = 16;
  opts.overload = OverloadPolicy::kShedNewest;
  ShardSupervisor sup(pipeline, analysis, nullptr, opts);
  QueryRouter router(pipeline, analysis, &sup);
  sup.start();

  std::atomic<bool> stop{false};
  std::thread firehose([&] {
    std::uint64_t i = 0;
    while (!stop.load()) sup.submit(make_record(i++, 4));
  });

  // Live queries must produce well-formed, verifiable responses the whole
  // time the producer is saturating the queue.
  std::uint32_t answered = 0;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    control::QueryRequest req;
    req.type = control::QueryType::kTimeWindows;
    req.request_id = id;
    req.port_prefix = 4;
    req.t1 = 0;
    req.t2 = 1'000'000;
    const auto resp_bytes = router.handle(control::encode_request(req));
    const control::QueryResponse resp = control::decode_response(resp_bytes);
    ASSERT_EQ(resp.request_id, id);
    ASSERT_TRUE(resp.status == control::QueryStatus::kOk ||
                resp.status == control::QueryStatus::kPartial);
    ++answered;
  }
  stop.store(true);
  firehose.join();
  sup.drain_and_join();

  EXPECT_EQ(answered, 200u);
  EXPECT_EQ(router.stats().served_live, 200u);
  EXPECT_EQ(sup.records_submitted(),
            sup.records_absorbed());  // drain left nothing queued
}

TEST(ShardSupervisor, WatchdogSeesNoStallOnHealthyShards) {
  core::ShardedPipeline pipeline(small_pipeline());
  pipeline.enable_port(1);
  control::ShardedAnalysis analysis(pipeline, control::AnalysisConfig{},
                                    nullptr);

  ShardSupervisor sup(pipeline, analysis, nullptr, SupervisorOptions{});
  sup.start();
  for (std::uint64_t i = 0; i < 5000; ++i) {
    ASSERT_EQ(sup.submit(make_record(i, 1)), Submit::kOk);
  }
  sup.drain_and_join();
  // After a drain there is no queued work, so a watchdog pass finds
  // nothing stuck.
  EXPECT_EQ(sup.check_watchdog(), 0u);
  EXPECT_EQ(sup.watchdog_stalls_total(), 0u);
}

}  // namespace
}  // namespace pq::serve
