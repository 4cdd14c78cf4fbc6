// In-process lifecycle coverage for serve::Daemon: graceful drains lose
// nothing, restarts answer recovered queries byte-equal to the offline
// path, archive output is a deterministic function of the feed (so chaos
// runs are seed-reproducible), retention prunes history, and the fault
// plan loader rejects typos instead of silently neutering a chaos test.
#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "control/register_records.h"
#include "serve/fault_config.h"
#include "store/archive_reader.h"
#include "wire/trace_io.h"
#include "../integration/sharded_harness.h"
#include "../store/archive_test_util.h"

namespace pq::serve {
namespace {

namespace fs = std::filesystem;
using harness::TempDir;

std::vector<wire::TelemetryRecord> feed_records(std::size_t n,
                                                std::uint32_t port) {
  std::vector<wire::TelemetryRecord> recs;
  recs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    wire::TelemetryRecord r;
    r.flow = make_flow(static_cast<std::uint32_t>(1 + i % 40));
    r.egress_port = port;
    r.size_bytes = 120 + static_cast<std::uint32_t>(i % 900);
    r.enq_timestamp = 700 * (i + 1);
    r.deq_timedelta = 350;
    r.enq_qdepth = static_cast<std::uint32_t>(i % 300);
    r.packet_id = i + 1;
    recs.push_back(r);
  }
  return recs;
}

DaemonConfig base_config(const std::string& feed, const std::string& arch) {
  DaemonConfig dc;
  dc.ports = {6};
  dc.pipeline.windows.m0 = 10;
  dc.pipeline.windows.alpha = 1;
  dc.pipeline.windows.k = 6;
  dc.pipeline.windows.num_windows = 3;
  dc.pipeline.monitor.max_depth_cells = 25000;
  dc.feed_path = feed;
  dc.follow = false;  // one pass, then drain — the unit-test lifecycle
  dc.archive_dir = arch;
  dc.watchdog_ms = 0;
  return dc;
}

/// Every regular file under `dir`, keyed by relative path.
std::map<std::string, std::vector<char>> dir_contents(const std::string& dir) {
  std::map<std::string, std::vector<char>> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    out[fs::relative(entry.path(), dir).string()] = std::move(bytes);
  }
  return out;
}

TEST(DaemonLifecycle, GracefulDrainAbsorbsEveryFedRecord) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const auto recs = feed_records(30000, 6);
  wire::write_stream_file(feed, recs);

  std::atomic<bool> stop{false};
  Daemon daemon(base_config(feed, dir.path() + "/arch"));
  EXPECT_EQ(daemon.run(stop), 0);

  EXPECT_EQ(daemon.supervisor().records_absorbed(), recs.size());
  EXPECT_EQ(daemon.supervisor().shed_total(), 0u);
  EXPECT_EQ(daemon.decode_stats().frames_ok, recs.size());
  EXPECT_EQ(daemon.decode_stats().frames_rejected, 0u);

  // The drain closed the archive cleanly: a trust-nothing scan finds a
  // footer on every segment and truncates nothing.
  store::ArchiveReader reader(dir.path() + "/arch");
  EXPECT_EQ(reader.stats().recoveries, 0u);
  EXPECT_EQ(reader.stats().bytes_truncated, 0u);
  EXPECT_GT(reader.stats().blocks_recovered, 0u);
}

TEST(DaemonLifecycle, StopFlagDrainsInsteadOfDropping) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const auto recs = feed_records(20000, 6);
  wire::write_stream_file(feed, recs);

  auto dc = base_config(feed, "");
  dc.follow = true;  // would tail forever; the stop flag must end it
  Daemon daemon(std::move(dc));

  std::atomic<bool> stop{false};
  std::thread runner([&] { EXPECT_EQ(daemon.run(stop), 0); });
  // Let it ingest the whole file, then ask for a graceful stop.
  while (daemon.supervisor().records_submitted() < recs.size()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  runner.join();

  // Everything submitted before the stop was absorbed, not dropped.
  EXPECT_EQ(daemon.supervisor().records_absorbed(), recs.size());
  EXPECT_EQ(daemon.supervisor().queue_depth(), 0u);
}

/// Restarts a query-only daemon serving `ports` over `arch` (nothing new to
/// ingest), hands it to `inspect` once it is built, and sends each request
/// through its unix socket, one connection apiece.
std::vector<control::QueryResponse> ask_restarted_daemon(
    const std::string& dir, const std::string& arch,
    const std::vector<control::QueryRequest>& requests,
    const std::vector<std::uint32_t>& ports = {6},
    const std::function<void(Daemon&)>& inspect = nullptr) {
  auto dc = base_config(dir + "/none.pqsm", arch);
  dc.ports = ports;
  dc.follow = true;
  dc.query_socket = dir + "/q.sock";
  Daemon daemon(std::move(dc));
  EXPECT_TRUE(daemon.recovery().scanned);
  if (inspect) inspect(daemon);

  std::atomic<bool> stop{false};
  std::thread runner([&] { EXPECT_EQ(daemon.run(stop), 0); });
  std::vector<control::QueryResponse> responses;
  for (const auto& req : requests) {
    int fd = -1;
    for (int tries = 0; tries < 200 && fd < 0; ++tries) {
      fd = connect_unix(dir + "/q.sock");
      if (fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    std::vector<std::uint8_t> resp_bytes;
    EXPECT_GE(fd, 0);
    EXPECT_TRUE(fd >= 0 && send_frame(fd, control::encode_request(req)) &&
                recv_frame(fd, resp_bytes));
    if (fd >= 0) ::close(fd);
    responses.push_back(control::decode_response(resp_bytes));
  }
  stop.store(true);
  runner.join();
  return responses;
}

control::QueryRequest windows_request(std::uint64_t id, Timestamp t1,
                                      Timestamp t2) {
  control::QueryRequest req;
  req.type = control::QueryType::kTimeWindows;
  req.request_id = id;
  req.port_prefix = 6;  // the egress port, mapped onto archive prefix 0
  req.t1 = t1;
  req.t2 = t2;
  return req;
}

/// The newest window checkpoint of the recovered records.
Timestamp window_horizon(const control::RegisterRecords& records) {
  Timestamp horizon = 0;
  for (const auto& part : records.window_snapshots) {
    for (const auto& snap : part) horizon = std::max(horizon, snap.taken_at);
  }
  return horizon;
}

/// The share of [t1, t2) that partition 0's window checkpoints back,
/// computed from their taken_at values alone rather than by the walk: the
/// sort-and-merge union of every [taken_at - t_set, taken_at), clipped to
/// the span.
double covered_fraction(const control::RegisterRecords& records,
                        Duration t_set, Timestamp t1, Timestamp t2) {
  std::vector<std::pair<Timestamp, Timestamp>> pieces;
  for (const auto& snap : records.window_snapshots.at(0)) {
    const Timestamp lo = std::max(
        t1, snap.taken_at > t_set ? snap.taken_at - t_set : Timestamp{0});
    const Timestamp hi = std::min(t2, snap.taken_at);
    if (lo < hi) pieces.emplace_back(lo, hi);
  }
  std::sort(pieces.begin(), pieces.end());
  Duration covered = 0;
  Timestamp reach = t1;
  for (const auto& [lo, hi] : pieces) {
    const Timestamp from = std::max(lo, reach);
    if (hi > from) covered += hi - from;
    reach = std::max(reach, hi);
  }
  return static_cast<double>(covered) / static_cast<double>(t2 - t1);
}

TEST(DaemonLifecycle, RestartAnswersRecoveredQueriesOverTheSocket) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const std::string arch = dir.path() + "/arch";
  const auto recs = feed_records(30000, 6);
  wire::write_stream_file(feed, recs);

  auto dc = base_config(feed, arch);
  const Duration t_set =
      core::TtsLayout(dc.pipeline.windows).set_period_ns();
  {
    std::atomic<bool> stop{false};
    Daemon first(std::move(dc));
    ASSERT_EQ(first.run(stop), 0);
  }

  // The offline oracle over the archive the first run left behind.
  store::ArchiveReader reader(arch);
  const auto oracle_records = reader.to_records(0);
  const Timestamp horizon = window_horizon(oracle_records);
  ASSERT_GT(horizon, 0u);
  const auto expected =
      control::offline_query_time_windows(oracle_records, 0, 0, horizon);

  // Restart over the same archive and query the recovered span through the
  // daemon's unix socket: the oracle's counts. Polls land up to one packet
  // gap after their grid point, so consecutive checkpoints leave slivers of
  // the span unbacked: the answer is kPartial, with the checkpoints' union
  // as confidence, just below 1.
  const auto responses =
      ask_restarted_daemon(dir.path(), arch, {windows_request(11, 0, horizon)});
  ASSERT_EQ(responses.size(), 1u);
  const control::QueryResponse& resp = responses[0];
  EXPECT_EQ(resp.status, control::QueryStatus::kPartial);
  EXPECT_EQ(resp.request_id, 11u);
  EXPECT_GT(resp.confidence, 0.999);
  EXPECT_DOUBLE_EQ(resp.confidence,
                   covered_fraction(oracle_records, t_set, 0, horizon));
  EXPECT_EQ(resp.counts, expected.counts);
}

TEST(DaemonLifecycle, RecoveredAnswersReportCoverageAfterRetention) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const std::string arch = dir.path() + "/kept";
  wire::write_stream_file(feed, feed_records(30000, 6));

  auto dc = base_config(feed, arch);
  dc.archive_segment_bytes = 64 * 1024;
  dc.retain_segments = 2;
  const Duration t_set =
      core::TtsLayout(dc.pipeline.windows).set_period_ns();
  {
    std::atomic<bool> stop{false};
    Daemon d(std::move(dc));
    ASSERT_EQ(d.run(stop), 0);
  }
  store::ArchiveReader reader(arch);
  const auto records = reader.to_records(0);
  const Timestamp horizon = window_horizon(records);
  ASSERT_GT(horizon, t_set);

  // [0, horizon) reaches back past the checkpoints retention deleted; the
  // newest checkpoint alone backs the last half t_set.
  const auto responses = ask_restarted_daemon(
      dir.path(), arch,
      {windows_request(21, 0, horizon),
       windows_request(22, horizon - t_set / 2, horizon)});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status, control::QueryStatus::kPartial);
  EXPECT_GT(responses[0].confidence, 0.0);
  EXPECT_LT(responses[0].confidence, 1.0);
  EXPECT_DOUBLE_EQ(responses[0].confidence,
                   covered_fraction(records, t_set, 0, horizon));
  EXPECT_EQ(responses[0].counts,
            control::offline_query_time_windows(records, 0, 0, horizon)
                .counts);

  EXPECT_EQ(responses[1].status, control::QueryStatus::kOk);
  EXPECT_DOUBLE_EQ(responses[1].confidence, 1.0);
  EXPECT_EQ(responses[1].counts,
            control::offline_query_time_windows(records, 0,
                                                horizon - t_set / 2, horizon)
                .counts);
}

TEST(DaemonLifecycle, RestartRepairsADamagedMultiPortArchiveFromItsScan) {
  // Port 6 (archive prefix 0) writes three or more segments; then its
  // middle one loses the end of a frame, so the ones after it are
  // unreachable, and port 7's directory (prefix 1) gets one file with a
  // bad header.
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const std::string arch = dir.path() + "/arch";
  wire::write_stream_file(feed, feed_records(30000, 6));
  auto dc = base_config(feed, arch);
  dc.ports = {6, 7};
  dc.archive_segment_bytes = 64 * 1024;
  {
    std::atomic<bool> stop{false};
    Daemon first(std::move(dc));
    ASSERT_EQ(first.run(stop), 0);
  }
  const std::string seg1 = store::segment_path(arch, 0, 1);
  const std::string seg2 = store::segment_path(arch, 0, 2);
  const std::string bad = store::segment_path(arch, 1, 0);
  ASSERT_TRUE(fs::exists(seg2));
  const auto scan = store::scan_segment_bytes(harness::read_bytes(seg1), 0);
  ASSERT_GE(scan.entries.size(), 2u);
  fs::resize_file(seg1, scan.entries[scan.entries.size() / 2].offset + 5);
  fs::create_directories(store::port_dir(arch, 1));
  harness::write_bytes(bad, std::vector<std::uint8_t>(64, 0xAB));

  // The oracle: a scan of a copy taken before the restart.
  fs::copy(arch, dir.path() + "/copy", fs::copy_options::recursive);
  const store::ArchiveReader oracle(dir.path() + "/copy");
  ASSERT_EQ(oracle.ports(), std::vector<std::uint32_t>{0});
  ASSERT_EQ(oracle.stats().recoveries, 2u);
  const Timestamp horizon =
      oracle.recovered().at(0)->index.windows.at(0).back().t_hi;
  const auto want = oracle.query_time_windows_detail(0, 0, horizon);
  const auto want_culprits = oracle.query_queue_monitor(0, horizon / 2);

  control::QueryRequest monitor = windows_request(32, horizon / 2, 0);
  monitor.type = control::QueryType::kQueueMonitor;
  const auto responses = ask_restarted_daemon(
      dir.path(), arch, {windows_request(31, 0, horizon), monitor}, {6, 7},
      [&](Daemon& d) {
        const store::ReaderStats& got = d.recovery().stats;
        const store::ReaderStats& ref = oracle.stats();
        EXPECT_EQ(d.recovery().ports, oracle.ports());
        EXPECT_EQ(got.segments_opened, ref.segments_opened);
        EXPECT_EQ(got.footer_hits, ref.footer_hits);
        EXPECT_EQ(got.recoveries, ref.recoveries);
        EXPECT_EQ(got.blocks_recovered, ref.blocks_recovered);
        EXPECT_EQ(got.bytes_truncated, ref.bytes_truncated);
        EXPECT_EQ(got.decode_errors, ref.decode_errors);
        EXPECT_EQ(d.collect_metrics().counter_value(
                      "pq_store_tail_repairs_total"),
                  2u);
      });
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].counts, want.counts);
  EXPECT_DOUBLE_EQ(responses[0].confidence, want.coverage);
  ASSERT_EQ(responses[1].culprits.size(), want_culprits.size());
  for (std::size_t i = 0; i < want_culprits.size(); ++i) {
    EXPECT_EQ(responses[1].culprits[i].flow, want_culprits[i].flow);
    EXPECT_EQ(responses[1].culprits[i].level, want_culprits[i].level);
    EXPECT_EQ(responses[1].culprits[i].seq, want_culprits[i].seq);
  }

  // The end file is sealed; the unreachable file and the bad one are gone.
  EXPECT_TRUE(
      store::scan_segment_bytes(harness::read_bytes(seg1), 0).footer_ok);
  EXPECT_FALSE(fs::exists(seg2));
  EXPECT_FALSE(fs::exists(bad));
  const store::ArchiveReader after(arch);
  EXPECT_EQ(after.stats().recoveries, 0u);
  EXPECT_EQ(after.logical_content(), oracle.logical_content());
}

TEST(DaemonLifecycle, ArchiveBytesAreADeterministicFunctionOfTheFeed) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const auto recs = feed_records(25000, 6);
  wire::write_stream_file(feed, recs);

  // Two independent daemon processes over the same feed — worker batch
  // boundaries differ with scheduling, but absorb_batch split-invariance
  // makes the archives byte-identical anyway.
  for (const char* sub : {"/a", "/b"}) {
    std::atomic<bool> stop{false};
    Daemon d(base_config(feed, dir.path() + sub));
    ASSERT_EQ(d.run(stop), 0);
  }
  const auto a = dir_contents(dir.path() + "/a");
  const auto b = dir_contents(dir.path() + "/b");
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(DaemonLifecycle, FaultPlanRunsAreSeedReproducible) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const auto recs = feed_records(25000, 6);
  wire::write_stream_file(feed, recs);

  faults::FaultPlanConfig fcfg;
  std::string error;
  ASSERT_TRUE(parse_fault_config(R"({
    "seed": 11,
    "feed_channel.corrupt_rate": 0.01,
    "feed_channel.garbage_rate": 0.01,
    "trigger_storm.probability": 0.002,
    "trigger_storm.forced_depth_cells": 800,
    "clock_skew.max_abs_skew_ns": 3000
  })",
                                 fcfg, error))
      << error;

  auto run = [&](const char* sub, std::uint64_t seed) {
    auto dc = base_config(feed, dir.path() + sub);
    dc.faults = fcfg;
    dc.faults->seed = seed;
    std::atomic<bool> stop{false};
    Daemon d(std::move(dc));
    EXPECT_EQ(d.run(stop), 0);
    return dir_contents(dir.path() + sub);
  };

  const auto first = run("/s11a", 11);
  const auto second = run("/s11b", 11);
  const auto other = run("/s12", 12);
  ASSERT_FALSE(first.empty());
  // Same plan, same seed -> the same damage, the same archive bytes.
  EXPECT_EQ(first, second);
  // A different seed draws a different schedule somewhere in a 25k-record
  // run with three active injectors.
  EXPECT_NE(first, other);
}

TEST(DaemonLifecycle, RetentionBoundsSegmentCount) {
  const TempDir dir;
  const std::string feed = dir.path() + "/feed.pqsm";
  const auto recs = feed_records(30000, 6);
  wire::write_stream_file(feed, recs);

  auto count_segments = [](const std::string& arch) {
    std::size_t n = 0;
    for (const auto& e : fs::recursive_directory_iterator(arch)) {
      if (e.is_regular_file()) ++n;
    }
    return n;
  };

  auto dc = base_config(feed, dir.path() + "/all");
  dc.archive_segment_bytes = 64 * 1024;  // force frequent rollover
  {
    std::atomic<bool> stop{false};
    Daemon d(std::move(dc));
    ASSERT_EQ(d.run(stop), 0);
  }
  const std::size_t unbounded = count_segments(dir.path() + "/all");
  ASSERT_GT(unbounded, 2u) << "fixture too small to exercise retention";

  auto dc2 = base_config(feed, dir.path() + "/kept");
  dc2.archive_segment_bytes = 64 * 1024;
  dc2.retain_segments = 2;
  {
    std::atomic<bool> stop{false};
    Daemon d(std::move(dc2));
    ASSERT_EQ(d.run(stop), 0);
  }
  const std::size_t kept = count_segments(dir.path() + "/kept");
  EXPECT_LT(kept, unbounded);
  // retain_segments bounds finished segments; the active one rides along.
  EXPECT_LE(kept, 3u);

  // The pruned archive still scans clean and answers queries.
  store::ArchiveReader reader(dir.path() + "/kept");
  EXPECT_GT(reader.stats().blocks_recovered, 0u);
}

TEST(FaultConfig, RejectsTyposAndGarbage) {
  faults::FaultPlanConfig cfg;
  std::string error;

  EXPECT_TRUE(parse_fault_config(R"({"seed": 3})", cfg, error)) << error;
  EXPECT_EQ(cfg.seed, 3u);

  // An unknown key is an error, not a silently-defaulted knob.
  EXPECT_FALSE(
      parse_fault_config(R"({"feed_channel.corupt_rate": 0.5})", cfg, error));
  EXPECT_NE(error.find("corupt_rate"), std::string::npos);

  EXPECT_FALSE(parse_fault_config(R"({"seed": "lots"})", cfg, error));
  EXPECT_FALSE(parse_fault_config(R"({"seed": 1} trailing)", cfg, error));
  EXPECT_FALSE(parse_fault_config("not json at all", cfg, error));

  // Missing file: a clear error, no throw.
  EXPECT_FALSE(load_fault_config("/nonexistent/plan.json", cfg, error));
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace pq::serve
