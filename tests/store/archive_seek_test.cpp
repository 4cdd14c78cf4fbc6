// Differential proof for indexed archive queries: a reader that plans over
// its checkpoint index and parses only the blocks an answer reads must
// answer byte-identically (counts, bitwise coverage, culprits) to a reader
// forced onto the full-materialization oracle (every block up to the
// horizon parsed into a records bundle). For dozens of `as_of` horizons —
// before the first block, past the last, exactly on block boundaries, one
// tick either side of them, and uniformly random — each horizon asks a
// randomized set of spans (empty and reversed, before the first checkpoint,
// on a taken_at and one tick off it, across a segment boundary, ending past
// the horizon) and monitor instants, on both partitions of a two-partition
// stream, and a partition never written must throw as it does for the
// oracle. The on-disk format is a test parameter (v1 chains, rewritten from
// the v2 writer's output; the mixed chain a resumed writer makes of a v1
// archive; a resumed writer whose times restart below the archive's last,
// so neither t_hi nor taken_at is sorted), and the writer deliberately
// emits duplicate and clustered timestamps. A second test pins the cost: a
// fixed-span query parses the same number of blocks on a 4x-longer archive.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
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

/// Round i's calibration. m0 alternates from one to the next, so t_set —
/// and with it every walk — depends on which calibration an answer uses.
control::CalibrationRecord make_calibration(Timestamp taken_at,
                                            std::uint32_t i) {
  control::CalibrationRecord cal;
  cal.taken_at = taken_at;
  cal.window_params = test_params();
  cal.window_params.m0 += i / 10 % 2;
  cal.monitor_levels = 8;
  cal.z0 = 0.4 + 0.001 * i;
  return cal;
}

/// The chain a resumed writer makes of a v1 archive: a v1 head (the first
/// half of the stream, rewritten as v1) continued in v2.
constexpr int kMixed = 0;
/// A v2 chain whose resumed writer's times restart below the archive's
/// last: the second half replays the times of rounds 9.. again, so
/// same-partition monitor snapshots with other content share a taken_at.
constexpr int kRestart = 3;

/// Param: the on-disk format, 1 or 2 throughout, kMixed or kRestart.
class ArchiveSeek : public ::testing::TestWithParam<int> {
 protected:
  std::uint16_t format() const {
    return static_cast<std::uint16_t>(GetParam());
  }
};

/// Appends rounds [from, to) of the stream whose snapshots are taken at
/// `times` and closes the writer. Partition 0 gets a window checkpoint
/// every round and a monitor snapshot every third; partition 1 a window
/// checkpoint every second round and a monitor snapshot every fourth; a
/// calibration comes every tenth round, and an unusable one every 30th.
store::WriterStats write_rounds(const store::ArchiveOptions& opts,
                                const std::vector<Timestamp>& times,
                                std::uint32_t from, std::uint32_t to) {
  store::ArchiveWriter w(0, test_params(), 8, opts);
  for (std::uint32_t i = from; i < to; ++i) {
    const Timestamp t = times[i];
    w.on_window_snapshot(0, make_window_snapshot(t, i + 1));
    if (i % 2 == 1) w.on_window_snapshot(1, make_window_snapshot(t, i + 501));
    if (i % 3 == 0) w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1));
    if (i % 4 == 2) {
      w.on_monitor_snapshot(1, make_monitor_snapshot(t, i + 501));
    }
    if (i % 10 == 0) w.on_calibration(make_calibration(t, i));
    if (i % 30 == 25) {  // a layout TtsLayout refuses: answers skip it
      control::CalibrationRecord unusable = make_calibration(t, i);
      unusable.window_params.num_windows = 0;
      w.on_calibration(unusable);
    }
  }
  w.close();
  return w.stats();
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

Timestamp saturating_add(Timestamp t, Duration d) {
  return t > std::numeric_limits<Timestamp>::max() - d
             ? std::numeric_limits<Timestamp>::max()
             : t + d;
}

void expect_same_culprits(const std::vector<core::OriginalCulprit>& a,
                          const std::vector<core::OriginalCulprit>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].flow, b[k].flow);
    EXPECT_EQ(a[k].level, b[k].level);
    EXPECT_EQ(a[k].seq, b[k].seq);
  }
}

TEST_P(ArchiveSeek, IndexedSeekMatchesFullScanEverywhere) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 8 * 1024;  // many segments

  // Clustered, occasionally-repeating timestamps: ~1 in 4 rounds reuses
  // the previous instant, so adjacent blocks share t_hi and taken_at and
  // the pick's tie-breaking is actually exercised.
  Rng rng(515 + GetParam());
  constexpr std::uint32_t kRounds = 90;
  std::vector<Timestamp> times;
  for (Timestamp t = 50'000; times.size() < kRounds;) {
    if (rng.uniform_below(4) != 0) t += 1'000 + rng.uniform_below(40'000);
    times.push_back(t);
  }
  if (GetParam() == kRestart) {
    for (std::uint32_t i = kRounds / 2; i < kRounds; ++i) {
      times[i] = times[i - 36];
    }
  }
  if (GetParam() == kMixed || GetParam() == kRestart) {
    write_rounds(opts, times, 0, kRounds / 2);
    if (GetParam() == kMixed) harness::rewrite_as_v1(dir.path());
    store::ArchiveOptions resumed = opts;
    resumed.resume = true;
    EXPECT_EQ(write_rounds(resumed, times, kRounds / 2, kRounds).tail_repairs,
              0u);
  } else {
    // The stream must span multiple segment boundaries.
    ASSERT_GT(write_rounds(opts, times, 0, kRounds).segments_opened, 2u);
    if (format() == store::kFormatVersionV1) {
      harness::rewrite_as_v1(dir.path());
    }
  }

  const store::ArchiveReader indexed(dir.path());
  store::ReaderOptions scan_opts;
  scan_opts.use_seek_index = false;
  const store::ArchiveReader scan(dir.path(), scan_opts);
  ASSERT_EQ(indexed.stats().recoveries, 0u);
  ASSERT_EQ(indexed.stats().blocks_recovered, scan.stats().blocks_recovered);
  ASSERT_EQ(indexed.logical_content(), scan.logical_content());
  const auto& segments = indexed.recovered().at(0)->segments;
  if (GetParam() == kMixed) {
    // A v1 head, then a v2 tail, each more than one segment long.
    std::vector<std::uint16_t> versions;
    for (const auto& seg : segments) versions.push_back(seg.version);
    ASSERT_TRUE(std::is_sorted(versions.begin(), versions.end()));
    ASSERT_GE(std::count(versions.begin(), versions.end(),
                         store::kFormatVersionV1),
              2);
    ASSERT_GE(std::count(versions.begin(), versions.end(),
                         store::kFormatVersionV2),
              2);
    // Resume adds segments, never content: the chain holds what one v2
    // writer's run over the whole stream holds.
    const TempDir whole;
    store::ArchiveOptions whole_opts = opts;
    whole_opts.dir = whole.path();
    write_rounds(whole_opts, times, 0, kRounds);
    ASSERT_EQ(indexed.logical_content(),
              store::ArchiveReader(whole.path()).logical_content());
  } else if (GetParam() == kRestart) {
    ASSERT_FALSE(std::is_sorted(times.begin(), times.end()));
    for (const auto& seg : segments) {
      ASSERT_EQ(seg.version, store::kFormatVersionV2);
    }
  } else {
    for (const auto& seg : segments) ASSERT_EQ(seg.version, format());
  }
  ASSERT_GE(segments.size(), 3u);

  const Timestamp t_set = core::TtsLayout(test_params()).set_period_ns();
  const Timestamp first = *std::min_element(times.begin(), times.end());
  const Timestamp last = *std::max_element(times.begin(), times.end());
  std::vector<Timestamp> horizons = {0, first - 1, first, last, last + 1,
                                     last * 10,
                                     std::numeric_limits<Timestamp>::max()};
  for (int i = 0; i < 50; ++i) {
    const Timestamp b = times[rng.uniform_below(times.size())];
    switch (rng.uniform_below(3)) {
      case 0: horizons.push_back(b); break;             // exactly on a t_hi
      case 1: horizons.push_back(b - 1); break;         // one tick before
      default:                                          // anywhere at all
        horizons.push_back(rng.uniform_below(last + last / 4));
    }
  }

  const auto some_time = [&] { return times[rng.uniform_below(kRounds)]; };
  const auto some_len = [&] { return 1 + rng.uniform_below(3 * t_set); };
  std::uint64_t answered = 0;
  for (const Timestamp as_of : horizons) {
    SCOPED_TRACE("as_of=" + std::to_string(as_of));
    std::vector<std::pair<Timestamp, Timestamp>> spans = {
        {0, last + 1},                   // the whole stream
        {first / 4, first / 2},          // before the first checkpoint
        {as_of / 2, as_of / 2},          // empty
        {as_of / 2 + 5, as_of / 2},      // reversed
    };
    for (int k = 0; k < 3; ++k) {
      const Timestamp t = some_time();  // ending on a taken_at, or a tick off
      const Duration len = some_len();
      spans.push_back({t - len, t});
      spans.push_back({t - len, t + 1});
      spans.push_back({t - len - 1, t - 1});
      spans.push_back({t, t + len});
    }
    for (std::size_t k = 0; k + 1 < segments.size(); ++k) {
      if (segments[k].blocks == 0 || segments[k + 1].blocks == 0) continue;
      spans.push_back({segments[k].t_hi_max - some_len(),  // across a roll
                       segments[k + 1].t_lo_min + some_len()});
    }
    const Duration len = some_len();  // ending past the horizon
    spans.push_back(
        {as_of > len ? as_of - len : 0, saturating_add(as_of, len)});

    std::vector<Timestamp> instants = {as_of / 2, first - 1, first, last,
                                       last + 1, as_of};
    for (int k = 0; k < 3; ++k) {
      const Timestamp t = some_time();
      instants.insert(instants.end(), {t - 1, t, t + 1});
      const Timestamp u = some_time();  // halfway: two equally close
      instants.push_back(std::midpoint(t, u));
    }

    for (std::uint32_t part = 0; part < 2; ++part) {
      for (const auto& [t1, t2] : spans) {
        SCOPED_TRACE("partition " + std::to_string(part) + " span [" +
                     std::to_string(t1) + ", " + std::to_string(t2) + ")");
        const auto a =
            indexed.query_time_windows_detail(0, t1, t2, part, as_of);
        const auto b = scan.query_time_windows_detail(0, t1, t2, part, as_of);
        EXPECT_EQ(a.counts, b.counts);
        EXPECT_EQ(bits(a.coverage), bits(b.coverage));
        answered += a.counts.empty() ? 0 : 1;
      }
      for (const Timestamp t : instants) {
        SCOPED_TRACE("partition " + std::to_string(part) + " instant " +
                     std::to_string(t));
        expect_same_culprits(indexed.query_queue_monitor(0, t, part, as_of),
                             scan.query_queue_monitor(0, t, part, as_of));
      }
    }
    // A partition the port never wrote throws on both paths.
    EXPECT_THROW(indexed.query_time_windows(0, 0, last, 2, as_of),
                 std::out_of_range);
    EXPECT_THROW(scan.query_time_windows(0, 0, last, 2, as_of),
                 std::out_of_range);
    EXPECT_THROW(indexed.query_queue_monitor(0, last, 2, as_of),
                 std::out_of_range);
    EXPECT_THROW(scan.query_queue_monitor(0, last, 2, as_of),
                 std::out_of_range);
  }
  // The spans were not all empty answers.
  EXPECT_GT(answered, horizons.size());

  // The indexed reader planned every query and parsed a fraction of what
  // the oracle parsed; the oracle never planned.
  const store::SeekStats& is = indexed.seek_stats();
  const store::SeekStats& ss = scan.seek_stats();
  EXPECT_GT(is.seeks, 0u);
  EXPECT_GT(is.probes, 0u);
  EXPECT_GT(is.blocks_bypassed, 0u);
  EXPECT_LT(is.blocks_decoded * 4, ss.blocks_decoded);
  EXPECT_EQ(ss.seeks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, ArchiveSeek,
                         ::testing::Values(1, 2, kMixed, kRestart),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "mixed";
                           if (param_info.param == kRestart) {
                             name = "restart";
                           } else if (param_info.param != kMixed) {
                             name = "v";
                             name += std::to_string(param_info.param);
                           }
                           return name;
                         });

/// Rounds [0, rounds) polled every `period` ns into a fresh archive.
void write_polls(const std::string& dir, std::uint32_t rounds,
                 Duration period) {
  std::vector<Timestamp> times;
  for (std::uint32_t i = 0; i < rounds; ++i) {
    times.push_back(50'000 + i * period);
  }
  store::ArchiveOptions opts;
  opts.dir = dir;
  opts.segment_bytes = 8 * 1024;
  write_rounds(opts, times, 0, rounds);
}

TEST(ArchiveQueryCost, FixedSpanDecodesTheSameBlocksOnALongerArchive) {
  // A query's cost follows the interval asked, not the archive's length:
  // a window query over the last two poll periods and a monitor query at
  // the last checkpoint parse the same blocks — the one window checkpoint
  // the walk credits and the calibration, then the one monitor snapshot
  // the pick chooses — whether the archive holds 30 polls or 120.
  constexpr Duration kPeriod = 2'000;
  std::vector<std::uint64_t> window_cost, monitor_cost, oracle_cost;
  for (const std::uint32_t rounds : {30u, 120u}) {
    const TempDir dir;
    write_polls(dir.path(), rounds, kPeriod);
    const Timestamp last = 50'000 + (rounds - 1) * kPeriod;
    const store::ArchiveReader reader(dir.path());
    ASSERT_GT(reader.recovered().at(0)->segments.size(), rounds / 30);

    const auto answer =
        reader.query_time_windows_detail(0, last - 2 * kPeriod, last);
    EXPECT_DOUBLE_EQ(answer.coverage, 1.0);
    window_cost.push_back(reader.seek_stats().blocks_decoded);
    EXPECT_FALSE(reader.query_queue_monitor(0, last).empty());
    monitor_cost.push_back(reader.seek_stats().blocks_decoded -
                           window_cost.back());

    store::ReaderOptions scan_opts;
    scan_opts.use_seek_index = false;
    const store::ArchiveReader scan(dir.path(), scan_opts);
    EXPECT_EQ(scan.query_time_windows(0, last - 2 * kPeriod, last),
              answer.counts);
    oracle_cost.push_back(scan.seek_stats().blocks_decoded);
  }
  EXPECT_EQ(window_cost[0], 2u);
  EXPECT_EQ(window_cost[1], window_cost[0]);
  EXPECT_EQ(monitor_cost[0], 1u);
  EXPECT_EQ(monitor_cost[1], monitor_cost[0]);
  // The oracle parses the whole history, so its cost grows with it.
  EXPECT_GE(oracle_cost[1], 3 * oracle_cost[0]);
}

}  // namespace
}  // namespace pq
