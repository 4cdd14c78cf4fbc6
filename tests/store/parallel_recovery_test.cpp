// Determinism proof for the parallel recovery scan: whatever the worker
// count, ArchiveReader must produce byte-identical logical content,
// identical counters, and identical typed decode-error reporting — over a
// many-port archive written under an active torn-write fault plan, and
// over a chain holding a hand-crafted CRC-valid-but-undecodable v2 block
// (the case where "damage" is only visible after the CRC passes).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "faults/fault_plan.h"
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

control::WindowSnapshot synth_snapshot(Timestamp taken_at,
                                       std::uint32_t seed) {
  const auto p = test_params();
  control::WindowSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.resize(p.num_windows);
  for (std::uint32_t w = 0; w < p.num_windows; ++w) {
    snap.state[w].resize(1u << p.k);
    for (std::uint32_t c = seed % 4; c < (1u << p.k); c += 3) {
      auto& cell = snap.state[w][c];
      cell.occupied = true;
      cell.flow = make_flow(seed * 500 + w * 64 + c);
      cell.cycle_id = seed + w + 1;
    }
  }
  return snap;
}

/// Writes a 6-port archive, each port several segments, with the
/// torn-write injector live on half the ports (so some chains end mid
/// frame and some close cleanly — the merge has both shapes to get wrong).
void write_archive(const std::string& dir, faults::FaultLog& log) {
  faults::TornWriteConfig torn;
  torn.probability = 0.04;
  for (std::uint32_t port = 0; port < 6; ++port) {
    faults::TornWriteInjector injector(torn, 31 + port * 7, &log);
    store::ArchiveOptions opts;
    opts.dir = dir;
    opts.segment_bytes = 4 * 1024;
    opts.format_version = store::kFormatVersionV2;
    store::ArchiveWriter w(port, test_params(), 8, opts,
                           port % 2 == 0 ? &injector : nullptr);
    for (std::uint32_t i = 0; i < 25; ++i) {
      const Timestamp t = 40'000 * (i + 1) + port;
      w.on_window_snapshot(0, synth_snapshot(t, port * 100 + i + 1));
      if (i % 5 == 0) {
        control::CalibrationRecord cal;
        cal.taken_at = t;
        cal.window_params = test_params();
        cal.monitor_levels = 8;
        cal.z0 = 0.3 + 0.002 * i;
        w.on_calibration(cal);
      }
    }
    w.close();
  }
}

/// Everything a scan reports, flattened for equality across worker counts.
struct ScanReport {
  std::vector<std::uint8_t> content;
  store::ReaderStats stats;
  std::vector<std::tuple<std::uint32_t, std::uint8_t, std::uint32_t,
                         std::uint64_t>> decode_errors;  // port, status, seg, ord

  explicit ScanReport(const store::ArchiveReader& r)
      : content(r.logical_content()), stats(r.stats()) {
    for (const auto& [port, rec] : r.recovered()) {
      if (rec->decode_error.status != store::BlockDecodeStatus::kOk) {
        decode_errors.emplace_back(
            port, static_cast<std::uint8_t>(rec->decode_error.status),
            rec->decode_error.segment_index, rec->decode_error.block_ordinal);
      }
    }
  }
};

void expect_identical(const ScanReport& a, const ScanReport& b,
                      const char* what) {
  EXPECT_EQ(a.content, b.content) << what;
  EXPECT_EQ(a.stats.segments_opened, b.stats.segments_opened) << what;
  EXPECT_EQ(a.stats.footer_hits, b.stats.footer_hits) << what;
  EXPECT_EQ(a.stats.recoveries, b.stats.recoveries) << what;
  EXPECT_EQ(a.stats.blocks_recovered, b.stats.blocks_recovered) << what;
  EXPECT_EQ(a.stats.bytes_truncated, b.stats.bytes_truncated) << what;
  EXPECT_EQ(a.stats.decode_errors, b.stats.decode_errors) << what;
  EXPECT_EQ(a.decode_errors, b.decode_errors) << what;
}

std::vector<ScanReport> scan_at_widths(const std::string& dir) {
  std::vector<ScanReport> out;
  for (const unsigned threads : {1u, 2u, 8u}) {
    store::ReaderOptions opts;
    opts.threads = threads;
    out.emplace_back(store::ArchiveReader(dir, opts));
  }
  return out;
}

TEST(ParallelRecovery, WorkerCountNeverChangesTheScanOfATornArchive) {
  const TempDir dir;
  faults::FaultLog log;
  write_archive(dir.path(), log);
  ASSERT_FALSE(log.events().empty()) << "fault plan never fired";

  const auto reports = scan_at_widths(dir.path());
  ASSERT_GT(reports[0].stats.recoveries, 0u) << "no chain was actually torn";
  ASSERT_GT(reports[0].stats.blocks_recovered, 50u);
  expect_identical(reports[0], reports[1], "1 vs 2 workers");
  expect_identical(reports[0], reports[2], "1 vs 8 workers");
}

TEST(ParallelRecovery, TypedDecodeErrorsReportIdenticallyAtEveryWidth) {
  const TempDir dir;
  faults::FaultLog unused;
  write_archive(dir.path(), unused);

  // Hand-craft a CRC-valid-but-undecodable block: pick a cleanly written
  // port, overwrite the SECOND block's v2 encoding tag with garbage and
  // re-seal the frame CRC. Every scan must now end that port's prefix at
  // ordinal 1 with kBadEncodingTag — physical integrity says "fine",
  // logical decoding says "no".
  harness::poison_encoding_tag(store::segment_path(dir.path(), 1, 0), 1, 1);

  const auto reports = scan_at_widths(dir.path());
  expect_identical(reports[0], reports[1], "1 vs 2 workers");
  expect_identical(reports[0], reports[2], "1 vs 8 workers");
  for (const auto& rep : reports) {
    EXPECT_GE(rep.stats.decode_errors, 1u);
    bool found = false;
    for (const auto& [port, status, seg_idx, ordinal] : rep.decode_errors) {
      if (port != 1) continue;
      found = true;
      EXPECT_EQ(status, static_cast<std::uint8_t>(
                            store::BlockDecodeStatus::kBadEncodingTag));
      EXPECT_EQ(seg_idx, 0u);
      EXPECT_EQ(ordinal, 1u);
    }
    EXPECT_TRUE(found) << "port 1's typed decode error went unreported";
  }

  // The poisoned port kept exactly the one block before the bad frame.
  store::ArchiveReader r(dir.path());
  ASSERT_TRUE(r.has_port(1));
  EXPECT_EQ(r.recovered().at(1)->blocks.size(), 1u);
}

}  // namespace
}  // namespace pq
