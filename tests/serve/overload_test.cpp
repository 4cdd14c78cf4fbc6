// Overload behaviour of the pq_serve ingest path: the bounded IngestQueue
// and the ShardSupervisor's two explicit degradation policies. The
// invariants under test are the daemon's memory contract — a full queue
// either stalls the producer or sheds with EXACT accounting (submitted ==
// absorbed + shed, always), never grows without bound — and that live
// queries keep being answered while the firehose is on, without waiting
// for the shard lock, each equal to the archive's answer as of a
// checkpoint.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "common/cli_args.h"
#include "control/query_service.h"
#include "control/register_records.h"
#include "serve/ingest_queue.h"
#include "serve/query_router.h"
#include "serve/supervisor.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "wire/telemetry.h"
#include "../integration/sharded_harness.h"

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

std::vector<std::uint8_t> ask_windows(QueryRouter& router, std::uint64_t id,
                                      Timestamp t1, Timestamp t2) {
  control::QueryRequest req;
  req.type = control::QueryType::kTimeWindows;
  req.request_id = id;
  req.port_prefix = 4;
  req.t1 = t1;
  req.t2 = t2;
  return router.handle(control::encode_request(req));
}

/// Stops a producer thread and joins it on every exit path.
struct StopOnExit {
  std::atomic<bool>& stop;
  std::thread& thread;
  ~StopOnExit() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

/// Forwards every event to the archive writer, then publishes the time of
/// the newest window checkpoint: once `horizon` reads T, checkpoint T is in
/// the program's history, so a query may rely on it.
class HorizonProbe final : public control::TelemetrySink {
 public:
  explicit HorizonProbe(control::TelemetrySink& next) : next_(next) {}
  void on_window_snapshot(std::uint32_t port,
                          const control::WindowSnapshot& snap) override {
    next_.on_window_snapshot(port, snap);
    horizon.store(snap.taken_at);
  }
  void on_monitor_snapshot(std::uint32_t partition,
                           const control::MonitorSnapshot& snap) override {
    next_.on_monitor_snapshot(partition, snap);
  }
  void on_dq_capture(std::uint32_t port,
                     const control::DqCapture& cap) override {
    next_.on_dq_capture(port, cap);
  }
  void on_calibration(const control::CalibrationRecord& cal) override {
    next_.on_calibration(cal);
  }

  std::atomic<Timestamp> horizon{0};

 private:
  control::TelemetrySink& next_;
};

/// A live time-window answer taken during ingest, kept for the archive
/// comparison after the run.
struct LiveAnswer {
  std::uint64_t id = 0;
  Timestamp t1 = 0;
  Timestamp t2 = 0;
  std::vector<std::uint8_t> bytes;
};

/// The response bytes the router would send for `q` from an archive bundle.
std::vector<std::uint8_t> archive_answer(const control::RegisterRecords& as_of,
                                         const LiveAnswer& q) {
  auto answer = control::offline_query_time_windows(as_of, 0, q.t1, q.t2);
  control::QueryResponse resp;
  resp.type = control::QueryType::kTimeWindows;
  resp.request_id = q.id;
  resp.counts = std::move(answer.counts);
  resp.confidence = answer.coverage;
  resp.status = control::status_for(resp.confidence);
  return control::encode_response(resp);
}

TEST(ShardSupervisor, QueriesAnsweredWhileOverloaded) {
  const harness::TempDir dir;
  core::PipelineConfig cfg = small_pipeline();
  // Every checkpoint lands in memory and in the archive: a shallow monitor
  // keeps both small (the records' depth stays below 100 cells).
  cfg.monitor.max_depth_cells = 256;
  core::ShardedPipeline pipeline(cfg);
  pipeline.enable_port(4);
  control::ShardedAnalysis analysis(pipeline, control::AnalysisConfig{},
                                    nullptr);
  const std::uint32_t prefix = *pipeline.port_prefix(4);
  const core::PrintQueuePipeline& shard = pipeline.shard(prefix).pipeline();
  const auto t_set =
      static_cast<std::int64_t>(shard.windows().layout().set_period_ns());
  store::ArchiveOptions ao;
  ao.dir = dir.path();
  store::Archive archive(ao);
  HorizonProbe probe(archive.writer(prefix, shard.windows().params(),
                                    shard.monitor().params().levels()));
  analysis.program(prefix).set_sink(&probe);

  SupervisorOptions opts;
  opts.batch = 8;
  opts.queue_capacity = 16;
  opts.overload = OverloadPolicy::kShedNewest;
  ShardSupervisor sup(pipeline, analysis, nullptr, opts);
  QueryRouter router(pipeline, analysis, &sup);
  sup.start();

  std::atomic<bool> stop{false};
  std::thread firehose([&] {
    // Dequeue gaps of 1.1-2.1 us, above the 1024 ns cell period, keep z0
    // (2^m0 / gap) below 1 and moving from poll to poll. Yield after a
    // shed: a producer spinning on the full queue's lock would starve the
    // worker, and ingest would publish no checkpoints.
    std::uint64_t i = 0;
    Timestamp enq = 0;
    while (!stop.load()) {
      wire::TelemetryRecord rec = make_record(i, 4);
      enq += 1100 + (i++ * 2654435761u) % 1000;
      rec.enq_timestamp = enq;
      if (sup.submit(rec) == Submit::kShed) std::this_thread::yield();
    }
  });
  const StopOnExit stop_firehose{stop, firehose};  // a failed ASSERT too

  // Live answers read only published checkpoints, with the z0 of the
  // newest one. Each span is t_set long, so it draws on windows >= 1, where
  // z0 matters, and ends at the newest checkpoint T the probe has seen
  // published, or a quarter or half a set before it: the walk rests on T
  // unless a newer checkpoint came meanwhile.
  std::vector<LiveAnswer> live;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (live.size() < 400 && std::chrono::steady_clock::now() < deadline) {
    const auto published = static_cast<std::int64_t>(probe.horizon.load());
    if (published < 2 * t_set) {
      std::this_thread::yield();
      continue;
    }
    LiveAnswer q;
    q.id = 1000 + live.size();
    q.t2 = static_cast<Timestamp>(published - t_set / 4 * (live.size() % 3));
    q.t1 = q.t2 - static_cast<Timestamp>(t_set);
    q.bytes = ask_windows(router, q.id, q.t1, q.t2);
    ASSERT_EQ(control::decode_response(q.bytes).request_id, q.id);
    live.push_back(std::move(q));
    // A back-to-back query stream would keep the history lock busy enough
    // to hold the worker at its next poll; pause so ingest moves on.
    std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  ASSERT_EQ(live.size(), 400u) << "ingest published too few checkpoints";

  // Live queries must produce well-formed, verifiable responses the whole
  // time the producer is saturating the queue.
  std::uint32_t answered = 0;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const control::QueryResponse resp =
        control::decode_response(ask_windows(router, id, 0, 1'000'000));
    ASSERT_EQ(resp.request_id, id);
    ASSERT_TRUE(resp.status == control::QueryStatus::kOk ||
                resp.status == control::QueryStatus::kPartial);
    ++answered;
  }

  // A live query does not wait for the shard lock, which the worker holds
  // across each batch: one issued while this thread holds it returns.
  std::future<std::vector<std::uint8_t>> unlocked;
  {
    const std::unique_lock<std::mutex> held = sup.lock_shard(prefix);
    unlocked = std::async(std::launch::async,
                          [&] { return ask_windows(router, 7, 0, 1'000'000); });
    const bool returned = unlocked.wait_for(std::chrono::seconds(5)) ==
                          std::future_status::ready;
    EXPECT_TRUE(returned) << "a live query waited for the shard lock";
  }
  EXPECT_EQ(control::decode_response(unlocked.get()).request_id, 7u);

  stop.store(true);
  firehose.join();
  sup.drain_and_join();
  archive.close();

  EXPECT_EQ(answered, 200u);
  EXPECT_EQ(router.stats().served_live, live.size() + 200u + 1u);
  EXPECT_EQ(sup.records_submitted(),
            sup.records_absorbed());  // drain left nothing queued

  // Each answer equals, byte for byte, the archive's answer as of a
  // checkpoint h >= t2, and h never moves backwards from one answer to the
  // next. Greedy: every answer takes the earliest checkpoint that fits.
  const store::ArchiveReader reader(dir.path());
  const control::RegisterRecords whole = reader.to_records(prefix);
  std::vector<Timestamp> checkpoints;
  for (const auto& snap : whole.window_snapshots.at(0)) {
    checkpoints.push_back(snap.taken_at);
  }
  checkpoints.erase(std::unique(checkpoints.begin(), checkpoints.end()),
                    checkpoints.end());
  std::size_t next = 0;
  for (const Timestamp h : checkpoints) {
    if (next == live.size()) break;
    if (h < live[next].t2) continue;
    const control::RegisterRecords as_of = reader.to_records(prefix, h);
    while (next < live.size() && h >= live[next].t2 &&
           archive_answer(as_of, live[next]) == live[next].bytes) {
      ++next;
    }
  }
  ASSERT_EQ(next, live.size())
      << "live answer " << next << " over [" << live[next].t1 << ", "
      << live[next].t2 << ") matches no archive checkpoint at or after "
      << "both t2 and the previous answer's";
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
