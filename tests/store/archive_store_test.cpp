// pq::store writer/reader unit coverage: clean roundtrips, segment rolling,
// a segment that cannot be sealed, fsync policies, footer verification and
// the byte-match with the one-shot records path. The crash/corruption
// behaviour has its own suite (archive_recovery_property_test.cpp).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>

#include "control/register_records.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "archive_test_util.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

using harness::TempDir;

core::TimeWindowParams test_params() {
  core::TimeWindowParams p;
  p.m0 = 10;
  p.alpha = 1;
  p.k = 4;
  p.num_windows = 3;
  p.num_ports = 1;
  return p;
}

control::WindowSnapshot make_window_snapshot(Timestamp taken_at,
                                             std::uint32_t seed) {
  const auto p = test_params();
  control::WindowSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.resize(p.num_windows);
  for (std::uint32_t w = 0; w < p.num_windows; ++w) {
    snap.state[w].resize(1u << p.k);
    for (std::uint32_t c = 0; c < (1u << p.k); c += 3) {
      auto& cell = snap.state[w][c];
      cell.occupied = true;
      cell.flow.src_ip = seed * 1000 + w * 100 + c;
      cell.flow.dst_ip = 7;
      cell.cycle_id = seed + w;
    }
  }
  return snap;
}

control::MonitorSnapshot make_monitor_snapshot(Timestamp taken_at,
                                               std::uint32_t seed) {
  control::MonitorSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.top = seed % 5;
  snap.state.entries.resize(8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto& e = snap.state.entries[i];
    e.inc.valid = true;
    e.inc.flow.src_ip = seed * 10 + i;
    e.inc.seq = seed + i;
  }
  return snap;
}

control::CalibrationRecord make_calibration(Timestamp taken_at, double z0) {
  control::CalibrationRecord cal;
  cal.taken_at = taken_at;
  cal.window_params = test_params();
  cal.monitor_levels = 8;
  cal.z0 = z0;
  return cal;
}

TEST(ArchiveStore, SegmentHeaderWithUnusableLayoutIsRefused) {
  // A CRC-valid header whose layout core::TtsLayout refuses decodes as a
  // bad header, like a torn one, so no reader builds a layout from it.
  store::SegmentHeader header;
  header.port = 3;
  header.segment_index = 7;
  std::vector<std::uint8_t> buf;
  store::encode_segment_header(buf, header);
  store::SegmentHeader back;
  std::size_t consumed = 0;
  ASSERT_TRUE(store::decode_segment_header(buf, back, consumed));
  EXPECT_EQ(consumed, buf.size());
  EXPECT_EQ(back.segment_index, 7u);

  header.window_params.k = 0;
  buf.clear();
  store::encode_segment_header(buf, header);
  EXPECT_FALSE(store::decode_segment_header(buf, back, consumed));
  EXPECT_FALSE(store::scan_segment_bytes(buf, 3).header_ok);
}

TEST(ArchiveStore, CleanRoundtripPreservesEveryBlock) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  {
    store::ArchiveWriter w(3, test_params(), 8, opts);
    for (std::uint32_t i = 0; i < 5; ++i) {
      const Timestamp t = 100'000 * (i + 1);
      w.on_window_snapshot(0, make_window_snapshot(t, i + 1));
      w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1));
      w.on_calibration(make_calibration(t, 0.5 + 0.01 * i));
    }
    w.close();
    EXPECT_EQ(w.stats().blocks_appended, 15u);
    EXPECT_EQ(w.stats().segments_opened, 1u);
    EXPECT_EQ(w.stats().segments_closed, 1u);
  }

  store::ArchiveReader r(dir.path());
  ASSERT_TRUE(r.has_port(3));
  EXPECT_EQ(r.ports(), (std::vector<std::uint32_t>{3}));
  EXPECT_EQ(r.stats().footer_hits, 1u);
  EXPECT_EQ(r.stats().recoveries, 0u);
  EXPECT_EQ(r.stats().blocks_recovered, 15u);
  EXPECT_EQ(r.stats().bytes_truncated, 0u);

  const auto records = r.to_records(3);
  ASSERT_EQ(records.window_snapshots.size(), 1u);
  ASSERT_EQ(records.window_snapshots[0].size(), 5u);
  ASSERT_EQ(records.monitor_snapshots[0].size(), 5u);
  // The newest calibration wins.
  EXPECT_DOUBLE_EQ(records.z0, 0.5 + 0.01 * 4);
  // Snapshots decode byte-identically: re-encoding what the reader parsed
  // must match the writer's input encoding.
  for (std::uint32_t i = 0; i < 5; ++i) {
    std::vector<std::uint8_t> want, got;
    control::put_window_snapshot(want,
                                 make_window_snapshot(100'000 * (i + 1), i + 1));
    control::put_window_snapshot(got, records.window_snapshots[0][i]);
    EXPECT_EQ(want, got) << "snapshot " << i;
  }
}

TEST(ArchiveStore, DqCapturesRoundtrip) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  control::DqCapture cap;
  cap.notification.port_prefix = 0;
  cap.notification.victim_flow.src_ip = 0xC0A80001;
  cap.notification.victim_flow.proto = 6;
  cap.notification.enq_timestamp = 1000;
  cap.notification.deq_timestamp = 5000;
  cap.notification.enq_qdepth = 412;
  cap.notification.window_bank = 2;
  cap.notification.monitor_bank = 3;
  cap.windows = make_window_snapshot(5000, 9).state;
  cap.monitor = make_monitor_snapshot(5000, 9).state;
  {
    store::ArchiveWriter w(0, test_params(), 8, opts);
    w.on_dq_capture(0, cap);
    w.close();
  }
  store::ArchiveReader r(dir.path());
  const auto caps = r.dq_captures(0);
  ASSERT_EQ(caps.size(), 1u);
  EXPECT_EQ(caps[0].notification.victim_flow, cap.notification.victim_flow);
  EXPECT_EQ(caps[0].notification.enq_timestamp, 1000u);
  EXPECT_EQ(caps[0].notification.deq_timestamp, 5000u);
  EXPECT_EQ(caps[0].notification.enq_qdepth, 412u);
  // Register states carry no operator==; compare their canonical encodings.
  std::vector<std::uint8_t> want, got;
  control::put_window_snapshot(want, {5000, 0, cap.windows});
  control::put_window_snapshot(got, {5000, 0, caps[0].windows});
  EXPECT_EQ(want, got);
  want.clear();
  got.clear();
  control::put_monitor_snapshot(want, {5000, 0, cap.monitor});
  control::put_monitor_snapshot(got, {5000, 0, caps[0].monitor});
  EXPECT_EQ(want, got);
}

TEST(ArchiveStore, SegmentsRollAtCapacityAndAllCarryFooters) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 4 * 1024;  // force several rolls
  opts.fsync = store::FsyncPolicy::kPerSegment;
  std::uint64_t appended = 0;
  {
    store::ArchiveWriter w(1, test_params(), 8, opts);
    for (std::uint32_t i = 0; i < 40; ++i) {
      w.on_window_snapshot(0, make_window_snapshot(10'000 * (i + 1), i + 1));
    }
    w.close();
    appended = w.stats().blocks_appended;
    EXPECT_GT(w.stats().segments_opened, 2u);
    EXPECT_EQ(w.stats().segments_opened, w.stats().segments_closed);
    EXPECT_GE(w.stats().fsyncs, w.stats().segments_closed);
  }
  store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().footer_hits, r.stats().segments_opened);
  EXPECT_EQ(r.stats().recoveries, 0u);
  EXPECT_EQ(r.stats().blocks_recovered, appended);
  EXPECT_EQ(r.to_records(1).window_snapshots[0].size(), 40u);
}

TEST(ArchiveStore, V2SegmentsRollWithPerSegmentKeyframes) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 4 * 1024;
  opts.fsync = store::FsyncPolicy::kPerSegment;
  std::uint64_t appended = 0;
  std::uint64_t raw_blocks = 0;
  {
    store::ArchiveWriter w(1, test_params(), 8, opts);
    for (std::uint32_t i = 0; i < 40; ++i) {
      w.on_window_snapshot(0, make_window_snapshot(10'000 * (i + 1), i + 1));
    }
    w.close();
    appended = w.stats().blocks_appended;
    raw_blocks = w.stats().blocks_raw;
    EXPECT_GT(w.stats().segments_opened, 2u);
    EXPECT_EQ(w.stats().segments_opened, w.stats().segments_closed);
    // Compression must actually engage...
    EXPECT_GT(w.stats().blocks_delta, 0u);
    EXPECT_GT(w.stats().logical_bytes, w.stats().bytes_appended);
    // ...and every segment must re-key: one raw block per segment minimum,
    // or a torn cold segment could never decode on its own.
    EXPECT_GE(raw_blocks, w.stats().segments_opened);
  }
  store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().footer_hits, r.stats().segments_opened);
  EXPECT_EQ(r.stats().recoveries, 0u);
  EXPECT_EQ(r.stats().decode_errors, 0u);
  EXPECT_EQ(r.stats().blocks_recovered, appended);
  EXPECT_EQ(r.to_records(1).window_snapshots[0].size(), 40u);
  // Every segment advertises the v2 format and a sparse time index.
  for (const auto& seg : r.recovered().at(1)->segments) {
    EXPECT_EQ(seg.version, store::kFormatVersionV2);
    EXPECT_TRUE(seg.footer_ok);
    EXPECT_GE(seg.index_samples, 1u);
  }
}

TEST(ArchiveStore, SegmentThatCannotBeSealedStopsTheWriter) {
  // The file-size limit lets the first segment's blocks reach the file but
  // cuts its footer. The roll must report it, and no segment may open past
  // the cut one: a reader would never reach it, so every block the writer
  // counts must be one a reader recovers.
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 4 * 1024;
  store::ArchiveWriter w(1, test_params(), 8, opts);
  {
    const harness::FileSizeLimit limit(4300);
    EXPECT_THROW(
        {
          for (std::uint32_t i = 0; i < 60; ++i) {
            w.on_window_snapshot(0,
                                 make_window_snapshot(10'000 * (i + 1), i + 1));
          }
        },
        std::runtime_error);
  }
  EXPECT_TRUE(w.dead());
  w.on_window_snapshot(0, make_window_snapshot(1'000'000, 99));  // discarded
  w.close();
  EXPECT_GT(w.stats().blocks_appended, 0u);
  EXPECT_EQ(w.stats().segments_opened, 1u);
  EXPECT_EQ(w.stats().segments_closed, 0u);
  const store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().blocks_recovered, w.stats().blocks_appended);
  EXPECT_EQ(r.stats().footer_hits, 0u);
  EXPECT_TRUE(std::filesystem::exists(store::segment_path(dir.path(), 1, 0)));
  EXPECT_FALSE(std::filesystem::exists(store::segment_path(dir.path(), 1, 1)));
}

TEST(ArchiveStore, PerBlockFsyncMakesEveryBlockRecoverableAtOnce) {
  // kPerBlock makes each block durable when its event arrives: a reader
  // opened after every event, with no flush and no close, recovers every
  // block emitted so far, small calibration blocks included.
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.fsync = store::FsyncPolicy::kPerBlock;
  store::ArchiveWriter w(0, test_params(), 8, opts);
  for (std::uint32_t i = 0; i < 10; ++i) {
    const Timestamp t = 10'000 * (i + 1);
    switch (i % 3) {
      case 0: w.on_window_snapshot(0, make_window_snapshot(t, i + 1)); break;
      case 1: w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1)); break;
      default: w.on_calibration(make_calibration(t, 0.5)); break;
    }
    EXPECT_EQ(w.stats().blocks_appended, i + 1);
    EXPECT_GE(w.stats().fsyncs, i + 1);
    const store::ArchiveReader r(dir.path());
    EXPECT_EQ(r.stats().blocks_recovered, i + 1) << "after event " << i;
  }
  w.close();
  const store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().blocks_recovered, 10u);
  EXPECT_EQ(r.stats().recoveries, 0u);
}

TEST(ArchiveStore, MissingDirectoryThrowsButEmptyDirReadsEmpty) {
  EXPECT_THROW(store::ArchiveReader("/nonexistent/pq-archive"),
               std::runtime_error);
  const TempDir dir;
  store::ArchiveReader r(dir.path());
  EXPECT_TRUE(r.ports().empty());
  EXPECT_EQ(r.stats().segments_opened, 0u);
}

TEST(ArchiveStore, ArchivedRunMatchesOneShotRecordsBundle) {
  // End to end through a real sharded run: the archive's reconstruction of
  // each shard's records must answer queries identically to the live
  // analysis path that pq_replay --save-records snapshots.
  const auto packets = harness::workload();
  control::ShardedSystem sys(harness::system_config(false));
  const TempDir dir;
  store::Archive archive(harness::harness_archive_options(dir.path()));
  archive.attach(sys.pipeline(), sys.analysis());
  sys.run(packets, 2, 64);
  archive.close();
  ASSERT_GT(archive.stats().blocks_appended, 0u);
  ASSERT_GE(archive.stats().segments_opened,
            static_cast<std::uint64_t>(harness::kPorts));

  store::ArchiveReader reader(dir.path());
  EXPECT_EQ(reader.stats().recoveries, 0u);
  for (std::uint32_t s = 0; s < sys.pipeline().num_shards(); ++s) {
    ASSERT_TRUE(reader.has_port(s)) << "port " << s;
    const auto live = sys.analysis().query_time_windows(s, 2'000'000,
                                                        4'000'000);
    const auto archived = reader.query_time_windows(s, 2'000'000, 4'000'000);
    ASSERT_EQ(live.size(), archived.size()) << "port " << s;
    for (const auto& [flow, n] : live) {
      auto it = archived.find(flow);
      ASSERT_NE(it, archived.end());
      EXPECT_DOUBLE_EQ(n, it->second);
    }
    const auto live_mon = sys.analysis().query_queue_monitor(s, 3'000'000);
    const auto archived_mon = reader.query_queue_monitor(s, 3'000'000);
    ASSERT_EQ(live_mon.size(), archived_mon.size()) << "port " << s;
    for (std::size_t i = 0; i < live_mon.size(); ++i) {
      EXPECT_EQ(live_mon[i].flow, archived_mon[i].flow);
      EXPECT_EQ(live_mon[i].seq, archived_mon[i].seq);
    }
  }
}

}  // namespace
}  // namespace pq
