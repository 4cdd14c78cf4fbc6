// The segment-chain rule (store/segment_chain.h) as the reader and the
// writer's resume repair both apply it: numeric index order past six
// digits, only canonical names (resume and retention, the only code that
// deletes segment files, never touch a look-alike), and one end point — a
// CRC-valid block that fails to decode ends the chain for resume exactly as
// it does for recovery, and a repair that cannot be sealed keeps the file.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "store/archive.h"
#include "store/archive_reader.h"
#include "store/block_codec_v2.h"
#include "archive_test_util.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

namespace fs = std::filesystem;
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

Timestamp time_of(std::uint32_t i) { return 100'000 * (i + 1); }

/// Appends window snapshots `first` .. `first + n - 1` to port 0, each
/// followed by a calibration (and, with `monitors`, preceded by a monitor
/// snapshot), and closes the writer.
store::WriterStats append_snapshots(const store::ArchiveOptions& opts,
                                    std::uint32_t first, std::uint32_t n,
                                    bool monitors = false) {
  const auto p = test_params();
  store::ArchiveWriter w(0, p, 8, opts);
  for (std::uint32_t i = first; i < first + n; ++i) {
    if (monitors) {
      control::MonitorSnapshot mon;
      mon.taken_at = time_of(i);
      mon.epoch = i;
      mon.state.top = i % 4;
      mon.state.entries.resize(4);
      mon.state.entries[i % 4].inc.valid = true;
      mon.state.entries[i % 4].inc.flow = make_flow(i);
      mon.state.entries[i % 4].inc.seq = i + 1;
      w.on_monitor_snapshot(0, mon);
    }
    control::WindowSnapshot snap;
    snap.taken_at = time_of(i);
    snap.epoch = i;
    snap.state.resize(p.num_windows);
    for (std::uint32_t win = 0; win < p.num_windows; ++win) {
      snap.state[win].resize(1u << p.k);
      for (std::uint32_t c = i % 3; c < (1u << p.k); c += 3) {
        auto& cell = snap.state[win][c];
        cell.occupied = true;
        cell.flow = make_flow(i * 100 + win * 16 + c);
        cell.cycle_id = i + win;
      }
    }
    w.on_window_snapshot(0, snap);
    control::CalibrationRecord cal;
    cal.taken_at = time_of(i);
    cal.window_params = p;
    cal.monitor_levels = 8;
    cal.z0 = 0.5 + 0.001 * i;
    w.on_calibration(cal);
  }
  w.close();
  return w.stats();
}

std::vector<std::uint32_t> segment_indices(const store::ArchiveReader& r) {
  std::vector<std::uint32_t> out;
  for (const auto& seg : r.recovered().at(0)->segments) {
    out.push_back(seg.index);
  }
  return out;
}

std::vector<Timestamp> window_times(const store::ArchiveReader& r) {
  std::vector<Timestamp> out;
  for (const auto& b : r.recovered().at(0)->blocks) {
    if (b.kind == store::BlockKind::kWindowSnapshot) out.push_back(b.t_hi);
  }
  return out;
}

TEST(SegmentChain, SevenDigitIndicesFollowSixDigitOnes) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  append_snapshots(opts, 0, 5);

  // Re-file the one segment as index 999999: new name, header re-stamped
  // (same size, fresh CRC).
  const std::string first = store::segment_path(dir.path(), 0, 0);
  std::vector<std::uint8_t> bytes = harness::read_bytes(first);
  store::SegmentHeader header;
  std::size_t header_bytes = 0;
  ASSERT_TRUE(store::decode_segment_header(bytes, header, header_bytes));
  header.segment_index = 999999;
  std::vector<std::uint8_t> stamped;
  store::encode_segment_header(stamped, header);
  ASSERT_EQ(stamped.size(), header_bytes);
  std::copy(stamped.begin(), stamped.end(), bytes.begin());
  harness::write_bytes(store::segment_path(dir.path(), 0, 999999), bytes);
  fs::remove(first);

  // A restart continues in seg-1000000.pqs, which sorts before
  // seg-999999.pqs as a string.
  opts.resume = true;
  EXPECT_EQ(append_snapshots(opts, 5, 3).tail_repairs, 0u);
  store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().recoveries, 0u);
  EXPECT_EQ(r.stats().bytes_truncated, 0u);
  EXPECT_EQ(segment_indices(r), (std::vector<std::uint32_t>{999999, 1000000}));
  std::vector<Timestamp> want;
  for (std::uint32_t i = 0; i < 8; ++i) want.push_back(time_of(i));
  EXPECT_EQ(window_times(r), want);

  // The next restart continues after the whole chain.
  EXPECT_EQ(append_snapshots(opts, 8, 1).tail_repairs, 0u);
  const store::ArchiveReader again(dir.path());
  EXPECT_EQ(again.stats().recoveries, 0u);
  EXPECT_EQ(segment_indices(again),
            (std::vector<std::uint32_t>{999999, 1000000, 1000001}));
}

TEST(SegmentChain, LookAlikeNamesAreNotPartOfTheArchive) {
  // Two byte-identical archives; one gains a backup copy of its port
  // directory (minus the newest segment) and a file-manager copy of a
  // segment. Neither may change what any walk sees, and neither may be
  // deleted by the code that deletes segment files: resume and retention.
  const TempDir plain;
  const TempDir dir;
  for (const auto* d : {&plain, &dir}) {
    store::ArchiveOptions opts;
    opts.dir = d->path();
    opts.segment_bytes = 2 * 1024;
    append_snapshots(opts, 0, 12);
  }
  const std::string port0 = store::port_dir(dir.path(), 0);
  const std::string backup = port0 + ".bak";
  fs::copy(port0, backup, fs::copy_options::recursive);
  std::vector<std::string> backup_files;
  for (const auto& e : fs::directory_iterator(backup)) {
    backup_files.push_back(e.path().string());
  }
  std::sort(backup_files.begin(), backup_files.end());
  ASSERT_GE(backup_files.size(), 3u);
  fs::remove(backup_files.back());
  backup_files.pop_back();
  const std::string copy = port0 + "/seg-000001 (copy).pqs";
  fs::copy_file(store::segment_path(dir.path(), 0, 1), copy);

  const store::ArchiveReader want(plain.path());
  const store::ArchiveReader got(dir.path());
  ASSERT_EQ(want.stats().recoveries, 0u);
  EXPECT_EQ(got.ports(), want.ports());
  EXPECT_EQ(got.logical_content(), want.logical_content());
  EXPECT_EQ(got.stats().segments_opened, want.stats().segments_opened);
  EXPECT_EQ(got.stats().footer_hits, want.stats().footer_hits);
  EXPECT_EQ(got.stats().recoveries, 0u);
  EXPECT_EQ(got.stats().bytes_truncated, 0u);

  std::vector<std::vector<std::uint8_t>> untouched;
  for (const auto& f : backup_files) untouched.push_back(harness::read_bytes(f));
  untouched.push_back(harness::read_bytes(copy));
  // Resume both under a retention cap and append enough to roll and retire
  // segments, seg-000001 (the original of the copy) among them.
  std::vector<store::WriterStats> resumed;
  for (const auto* d : {&plain, &dir}) {
    store::ArchiveOptions opts;
    opts.dir = d->path();
    opts.segment_bytes = 2 * 1024;
    opts.resume = true;
    opts.retain_segments = 2;
    resumed.push_back(append_snapshots(opts, 12, 12));
  }
  ASSERT_GT(resumed[0].segments_retired, 0u);
  EXPECT_EQ(resumed[1].segments_retired, resumed[0].segments_retired);
  EXPECT_EQ(resumed[1].tail_repairs, 0u);
  EXPECT_FALSE(fs::exists(store::segment_path(dir.path(), 0, 1)));
  for (std::size_t i = 0; i < backup_files.size(); ++i) {
    EXPECT_EQ(harness::read_bytes(backup_files[i]), untouched[i])
        << backup_files[i];
  }
  EXPECT_EQ(harness::read_bytes(copy), untouched.back());
  EXPECT_EQ(store::ArchiveReader(dir.path()).logical_content(),
            store::ArchiveReader(plain.path()).logical_content());
}

TEST(SegmentChain, ResumeEndsTheChainAtAnUndecodableBlock) {
  const TempDir dir;
  store::ArchiveOptions opts;
  opts.dir = dir.path();
  opts.segment_bytes = 3 * 1024;
  append_snapshots(opts, 0, 12);
  ASSERT_TRUE(fs::exists(store::segment_path(dir.path(), 0, 1)));
  harness::poison_encoding_tag(store::segment_path(dir.path(), 0, 0), 0, 1);
  {
    const store::ArchiveReader r(dir.path());
    ASSERT_EQ(r.recovered().at(0)->blocks.size(), 1u);
    ASSERT_EQ(r.recovered().at(0)->decode_error.status,
              store::BlockDecodeStatus::kBadEncodingTag);
  }

  // The restart repairs the file the chain ends on and drops the
  // unreachable rest, so what it appends next is reachable.
  opts.resume = true;
  EXPECT_EQ(append_snapshots(opts, 100, 4).tail_repairs, 1u);
  const store::ArchiveReader r(dir.path());
  EXPECT_EQ(r.stats().recoveries, 0u);
  EXPECT_EQ(r.stats().decode_errors, 0u);
  EXPECT_EQ(segment_indices(r), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(window_times(r),
            (std::vector<Timestamp>{time_of(0), time_of(100), time_of(101),
                                    time_of(102), time_of(103)}));
}

TEST(SegmentChain, ResumeEndsTheChainAtAnUnparseableRawRecord) {
  // A CRC-valid raw payload (a v2 keyframe, or any v1 payload) that does
  // not parse as exactly one record of its kind ends the chain right before
  // it, typed kMalformedRecord, for recovery as for resume. Offsets into a
  // snapshot record: taken_at u64, epoch u64, then the window count (or the
  // monitor top and entry count), then the first row's flag byte at 24.
  using Edit = std::function<void(std::vector<std::uint8_t>&)>;
  struct Case {
    const char* name;
    store::BlockKind kind;
    Edit edit;
  };
  const std::vector<Case> cases = {
      {"window count past the payload", store::BlockKind::kWindowSnapshot,
       [](auto& rec) { rec.at(17) = rec.at(18) = rec.at(19) = 0xFF; }},
      {"window cell occupied byte 2", store::BlockKind::kWindowSnapshot,
       [](auto& rec) { rec.at(24) = 2; }},
      {"window with a trailing byte", store::BlockKind::kWindowSnapshot,
       [](auto& rec) { rec.push_back(0); }},
      {"monitor entry flag bits above 3", store::BlockKind::kMonitorSnapshot,
       [](auto& rec) { rec.at(24) = 4; }},
      {"calibration one byte short", store::BlockKind::kCalibration,
       [](auto& rec) { rec.pop_back(); }},
  };
  for (const std::uint16_t format :
       {store::kFormatVersionV1, store::kFormatVersionV2}) {
    for (const auto& c : cases) {
      SCOPED_TRACE(std::string(c.name) + " in v" + std::to_string(format));
      const TempDir dir;
      store::ArchiveOptions opts;
      opts.dir = dir.path();
      opts.segment_bytes = 2 * 1024;
      append_snapshots(opts, 0, 12, /*monitors=*/true);
      if (format == store::kFormatVersionV1) harness::rewrite_as_v1(dir.path());
      const store::ArchiveReader clean(dir.path());
      ASSERT_GE(clean.recovered().at(0)->segments.size(), 3u);

      // The victim: the first block of its kind in segment 1, a keyframe.
      const std::string seg1 = store::segment_path(dir.path(), 0, 1);
      const auto scan =
          store::scan_segment_bytes(harness::read_bytes(seg1), 0);
      std::size_t ordinal = 0;
      while (scan.entries.at(ordinal).kind != c.kind) ++ordinal;
      const std::size_t tag_bytes = format == store::kFormatVersionV2 ? 1 : 0;
      harness::reseal_block(
          seg1, 0, ordinal,
          [&](std::uint32_t&, std::vector<std::uint8_t>& payload) {
            if (tag_bytes > 0) {
              ASSERT_EQ(payload.at(0), store::kEncodingRaw);
            }
            std::vector<std::uint8_t> rec(payload.begin() + tag_bytes,
                                          payload.end());
            c.edit(rec);
            payload.resize(tag_bytes);
            payload.insert(payload.end(), rec.begin(), rec.end());
          });

      const std::size_t kept =
          clean.recovered().at(0)->segments[0].blocks + ordinal;
      const store::ArchiveReader damaged(dir.path());
      const auto& rec = *damaged.recovered().at(0);
      EXPECT_EQ(rec.decode_error.status,
                store::BlockDecodeStatus::kMalformedRecord);
      EXPECT_EQ(rec.decode_error.segment_index, 1u);
      EXPECT_EQ(rec.decode_error.block_ordinal, kept);
      EXPECT_EQ(damaged.stats().decode_errors, 1u);
      ASSERT_EQ(rec.blocks.size(), kept);
      for (std::size_t i = 0; i < kept; ++i) {
        EXPECT_TRUE(rec.blocks[i].payload ==
                    clean.recovered().at(0)->blocks[i].payload);
      }

      // Resume repairs the archive to exactly that prefix.
      opts.resume = true;
      EXPECT_EQ(append_snapshots(opts, 0, 0).tail_repairs, 1u);
      const store::ArchiveReader repaired(dir.path());
      EXPECT_EQ(repaired.stats().recoveries, 0u);
      EXPECT_EQ(repaired.stats().decode_errors, 0u);
      EXPECT_EQ(repaired.logical_content(), damaged.logical_content());
    }
  }
}

TEST(SegmentChain, ResumeThatCannotSealTheTornTailKeepsItsValidPrefix) {
  // A torn one-segment archive, and a file-size limit that lets the repair
  // truncate the tail but not write its footer. Resume must report the
  // failed seal, and must not delete the file: its valid prefix is what a
  // reader recovers. Small footers fail only when stdio flushes them at
  // fclose; a footer larger than stdio's buffer fails in fwrite itself.
  for (const std::uint32_t rounds : {5u, 80u}) {
    SCOPED_TRACE(std::to_string(rounds) + " rounds");
    const TempDir dir;
    store::ArchiveOptions opts;
    opts.dir = dir.path();
    append_snapshots(opts, 0, rounds);
    const std::string seg0 = store::segment_path(dir.path(), 0, 0);
    const auto scan = store::scan_segment_bytes(harness::read_bytes(seg0), 0);
    ASSERT_TRUE(scan.footer_ok);
    fs::resize_file(seg0, scan.entries.back().offset + 5);
    const store::ArchiveReader torn(dir.path());
    ASSERT_EQ(torn.stats().blocks_recovered, 2 * rounds - 1);

    opts.resume = true;
    {
      const harness::FileSizeLimit limit(fs::file_size(seg0));
      EXPECT_THROW(store::ArchiveWriter(0, test_params(), 8, opts),
                   std::runtime_error);
    }
    ASSERT_TRUE(fs::exists(seg0));
    const store::ArchiveReader after(dir.path());
    EXPECT_EQ(after.stats().blocks_recovered, 2 * rounds - 1);
    EXPECT_EQ(after.logical_content(), torn.logical_content());
  }
}

}  // namespace
}  // namespace pq
