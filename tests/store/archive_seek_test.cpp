// Differential proof for the sparse time index: for dozens of `as_of`
// horizons — before the first block, past the last, exactly on block
// boundaries, one tick either side of them, and uniformly random — a
// reader cutting with the index must answer byte-identically to a reader
// forced onto the linear every-block path. The on-disk format is a test
// parameter (v1 chains, rewritten from the v2 writer's output, get the same
// in-memory index as v2; the mixed chain is the one a resumed writer makes
// of a v1 archive), and the writer deliberately emits duplicate and
// clustered timestamps so the binary search has ties to get wrong.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
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

control::CalibrationRecord make_calibration(Timestamp taken_at, double z0) {
  control::CalibrationRecord cal;
  cal.taken_at = taken_at;
  cal.window_params = test_params();
  cal.monitor_levels = 8;
  cal.z0 = z0;
  return cal;
}

std::string records_bytes(const store::ArchiveReader& r, Timestamp as_of) {
  std::ostringstream os;
  control::write_records(os, r.to_records(0, as_of));
  return os.str();
}

/// The chain a resumed writer makes of a v1 archive: a v1 head (the first
/// half of the stream, rewritten as v1) continued in v2.
constexpr int kMixed = 0;

/// Param: the on-disk format, 1 or 2 throughout, or kMixed.
class ArchiveSeek : public ::testing::TestWithParam<int> {
 protected:
  std::uint16_t format() const {
    return static_cast<std::uint16_t>(GetParam());
  }
};

/// Appends rounds [from, to) of the stream whose window snapshots are
/// taken at `times` and closes the writer.
store::WriterStats write_rounds(const store::ArchiveOptions& opts,
                                const std::vector<Timestamp>& times,
                                std::uint32_t from, std::uint32_t to) {
  store::ArchiveWriter w(0, test_params(), 8, opts);
  for (std::uint32_t i = from; i < to; ++i) {
    const Timestamp t = times[i];
    w.on_window_snapshot(0, make_window_snapshot(t, i + 1));
    if (i % 3 == 0) w.on_monitor_snapshot(0, make_monitor_snapshot(t, i + 1));
    if (i % 10 == 0) w.on_calibration(make_calibration(t, 0.4 + 0.001 * i));
  }
  w.close();
  return w.stats();
}

TEST_P(ArchiveSeek, IndexedSeekMatchesFullScanEverywhere) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 8 * 1024;  // many segments, many index keyframes

  // Clustered, occasionally-repeating timestamps: ~1 in 4 rounds reuses
  // the previous instant, so adjacent blocks share t_hi and the cut's
  // tie-breaking is actually exercised.
  Rng rng(515 + GetParam());
  constexpr std::uint32_t kRounds = 90;
  std::vector<Timestamp> boundaries;
  for (Timestamp t = 50'000; boundaries.size() < kRounds;) {
    if (rng.uniform_below(4) != 0) t += 1'000 + rng.uniform_below(40'000);
    boundaries.push_back(t);
  }
  if (GetParam() == kMixed) {
    write_rounds(opts, boundaries, 0, kRounds / 2);
    harness::rewrite_as_v1(dir.path());
    store::ArchiveOptions resumed = opts;
    resumed.resume = true;
    EXPECT_EQ(write_rounds(resumed, boundaries, kRounds / 2, kRounds)
                  .tail_repairs,
              0u);
  } else {
    // The index must span multiple segment boundaries.
    ASSERT_GT(write_rounds(opts, boundaries, 0, kRounds).segments_opened, 2u);
    if (format() == store::kFormatVersionV1) {
      harness::rewrite_as_v1(dir.path());
    }
  }

  store::ReaderOptions indexed_opts;
  indexed_opts.seek_index_stride = 4;  // dense samples on a small archive
  store::ArchiveReader indexed(dir.path(), indexed_opts);
  store::ReaderOptions scan_opts;
  scan_opts.use_seek_index = false;
  store::ArchiveReader scan(dir.path(), scan_opts);
  ASSERT_EQ(indexed.stats().recoveries, 0u);
  ASSERT_EQ(indexed.stats().blocks_recovered, scan.stats().blocks_recovered);
  ASSERT_EQ(indexed.logical_content(), scan.logical_content());
  const auto& segments = indexed.recovered().at(0).segments;
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
    write_rounds(whole_opts, boundaries, 0, kRounds);
    ASSERT_EQ(indexed.logical_content(),
              store::ArchiveReader(whole.path()).logical_content());
  } else {
    for (const auto& seg : segments) ASSERT_EQ(seg.version, format());
  }

  const Timestamp first = boundaries.front();
  const Timestamp last = boundaries.back();
  std::vector<Timestamp> horizons = {0, first - 1, first, last, last + 1,
                                     last * 10,
                                     std::numeric_limits<Timestamp>::max()};
  for (int i = 0; i < 50; ++i) {
    const Timestamp b = boundaries[rng.uniform_below(boundaries.size())];
    switch (rng.uniform_below(3)) {
      case 0: horizons.push_back(b); break;             // exactly on a t_hi
      case 1: horizons.push_back(b - 1); break;         // one tick before
      default:                                          // anywhere at all
        horizons.push_back(rng.uniform_below(last + last / 4));
    }
  }

  for (const Timestamp as_of : horizons) {
    SCOPED_TRACE("as_of=" + std::to_string(as_of));
    // The whole records bundle (snapshot streams, layout, effective z0)
    // must serialize to the same bytes...
    EXPECT_EQ(records_bytes(indexed, as_of), records_bytes(scan, as_of));
    // ...and so must the query answers computed over it.
    EXPECT_EQ(indexed.query_time_windows(0, 0, last + 1, 0, as_of),
              scan.query_time_windows(0, 0, last + 1, 0, as_of));
    const auto ci = indexed.query_queue_monitor(0, as_of / 2, 0, as_of);
    const auto cs = scan.query_queue_monitor(0, as_of / 2, 0, as_of);
    ASSERT_EQ(ci.size(), cs.size());
    for (std::size_t k = 0; k < ci.size(); ++k) {
      EXPECT_EQ(ci[k].flow, cs[k].flow);
      EXPECT_EQ(ci[k].level, cs[k].level);
      EXPECT_EQ(ci[k].seq, cs[k].seq);
    }
  }

  // The indexed reader really took the indexed path, and it skipped
  // per-block tests the oracle had to run; the oracle never touched it.
  EXPECT_GT(indexed.seek_stats().seeks, 0u);
  EXPECT_GT(indexed.seek_stats().probes, 0u);
  EXPECT_GT(indexed.seek_stats().blocks_bypassed, 0u);
  EXPECT_EQ(scan.seek_stats().seeks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Formats, ArchiveSeek,
                         ::testing::Values(1, 2, kMixed),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           std::string name = "mixed";
                           if (param_info.param != kMixed) {
                             name = "v";
                             name += std::to_string(param_info.param);
                           }
                           return name;
                         });

}  // namespace
}  // namespace pq
