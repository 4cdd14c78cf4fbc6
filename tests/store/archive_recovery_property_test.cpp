// Crash-recovery property suite for pq::store: whatever happens to the
// bytes — truncation at an arbitrary offset, a flipped bit, or an injected
// torn write (the faults-layer crash model) — the reader must never crash
// or fabricate, must recover exactly a prefix of the intact stream, and
// must account for the damage in its recovery counters, and a writer
// resumed on the damaged archive must repair it to exactly what the reader
// recovered. Every
// property runs against both on-disk formats: raw v1 (rewritten from a
// v2-written chain, archive_test_util.h) and delta-coded v2 (where a
// single flipped bit can invalidate a whole delta chain — but only ever by
// SHRINKING the recovered prefix).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <limits>
#include <tuple>

#include "common/rng.h"
#include "core/tts_layout.h"
#include "faults/fault_plan.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "archive_test_util.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

namespace fs = std::filesystem;
using harness::TempDir;

core::TimeWindowParams small_params() {
  core::TimeWindowParams p;
  p.m0 = 10;
  p.alpha = 1;
  p.k = 4;
  p.num_windows = 3;
  p.num_ports = 1;
  return p;
}

/// A checkpoint whose occupied cells are all live at `taken_at`: each
/// window's cells carry the cycle IDs the stale-cell filter keeps, so
/// windows 1 and 2, whose counts z0 scales, answer as well as window 0.
control::WindowSnapshot synth_snapshot(Timestamp taken_at,
                                       std::uint32_t seed) {
  const auto p = small_params();
  const core::TtsLayout layout(p);
  control::WindowSnapshot snap;
  snap.taken_at = taken_at;
  snap.epoch = seed;
  snap.state.resize(p.num_windows);
  // The newest cell of window 0, then the newest cell each older window
  // can hold (one window period back, compressed by alpha).
  std::uint64_t tts = layout.tts0(taken_at);
  for (std::uint32_t w = 0; w < p.num_windows; ++w) {
    const std::uint64_t idx = layout.index_of(tts);
    const std::uint64_t cycle = layout.cycle_of(tts);
    snap.state[w].resize(1u << p.k);
    for (std::uint32_t c = 0; c < (1u << p.k); ++c) {
      const bool newest = w == 0 && c == idx;
      if (((c + seed) % 2 != 0 && !newest) || (c > idx && cycle == 0)) {
        continue;
      }
      auto& cell = snap.state[w][c];
      cell.occupied = true;
      cell.flow = make_flow(seed * 1000 + w * 64 + c);
      cell.cycle_id = c <= idx ? cycle : cycle - 1;
    }
    tts = (tts - (1u << p.k)) >> p.alpha;
  }
  return snap;
}

/// Writes a deterministic single-port archive in `format`: several segments
/// of window + monitor + calibration blocks. The injector, when set, tears
/// the v2 writer's appends or, for v1, the rewrite's frames.
void write_intact_archive(const std::string& dir, std::uint16_t format,
                          faults::TornWriteInjector* injector = nullptr) {
  const bool v1 = format == store::kFormatVersionV1;
  store::ArchiveOptions opts;
  opts.dir = dir;
  opts.segment_bytes = 4 * 1024;  // several segments
  store::ArchiveWriter w(0, small_params(), 8, opts, v1 ? nullptr : injector);
  for (std::uint32_t i = 0; i < 30; ++i) {
    const Timestamp t = 50'000 * (i + 1);
    w.on_window_snapshot(0, synth_snapshot(t, i + 1));
    control::MonitorSnapshot mon;
    mon.taken_at = t;
    mon.epoch = i;
    mon.state.entries.resize(4);
    mon.state.entries[i % 4].inc.valid = true;
    mon.state.entries[i % 4].inc.flow = make_flow(i);
    mon.state.entries[i % 4].inc.seq = i + 1;
    w.on_monitor_snapshot(0, mon);
    control::CalibrationRecord cal;
    cal.taken_at = t;
    cal.window_params = small_params();
    cal.monitor_levels = 8;
    cal.z0 = 0.25 + 0.001 * i;
    w.on_calibration(cal);
  }
  w.close();
  if (v1) harness::rewrite_as_v1(dir, injector);
}

/// A writer resumed on the damaged archive and closed without appending
/// must leave what `damaged` recovered unchanged, and the next read clean.
void expect_resume_repairs_in_place(const std::string& dir,
                                    const store::ArchiveReader& damaged,
                                    int trial) {
  {
    store::ArchiveOptions opts;
    opts.dir = dir;
    opts.resume = true;
    store::ArchiveWriter w(0, small_params(), 8, opts);
    w.close();
  }
  store::ArchiveReader repaired(dir);
  EXPECT_EQ(repaired.logical_content(), damaged.logical_content())
      << "trial " << trial;
  EXPECT_EQ(repaired.stats().recoveries, 0u) << "trial " << trial;
}

/// True if `prefix` is a leading subsequence of `full` at the block level:
/// the recovered ports/blocks must appear in `full` in the same order with
/// identical LOGICAL bytes, with nothing extra. RecoveredBlock::payload is
/// format-independent, so this also proves v2 decoding fabricates nothing.
using RecoveredPorts =
    std::map<std::uint32_t, std::shared_ptr<const store::RecoveredPort>>;

bool blocks_are_prefix(const RecoveredPorts& a, const RecoveredPorts& b) {
  for (const auto& [port, rec] : a) {
    const auto it = b.find(port);
    if (it == b.end()) return false;
    if (rec->blocks.size() > it->second->blocks.size()) return false;
    for (std::size_t i = 0; i < rec->blocks.size(); ++i) {
      const auto& x = rec->blocks[i];
      const auto& y = it->second->blocks[i];
      if (x.kind != y.kind || x.partition != y.partition ||
          x.t_lo != y.t_lo || x.t_hi != y.t_hi || x.payload != y.payload) {
        return false;
      }
    }
  }
  return true;
}

std::vector<std::string> segment_files(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& port : fs::directory_iterator(dir)) {
    for (const auto& seg : fs::directory_iterator(port.path())) {
      out.push_back(seg.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Param: (rng seed, on-disk format version).
class ArchiveRecoveryProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {
 protected:
  int seed() const { return std::get<0>(GetParam()); }
  std::uint16_t format() const {
    return static_cast<std::uint16_t>(std::get<1>(GetParam()));
  }
};

TEST_P(ArchiveRecoveryProperty, TruncationAlwaysRecoversAValidPrefix) {
  const TempDir intact_dir;
  write_intact_archive(intact_dir.path(), format());
  store::ArchiveReader intact(intact_dir.path());
  ASSERT_EQ(intact.stats().recoveries, 0u);
  const std::uint64_t total_blocks = intact.stats().blocks_recovered;
  ASSERT_GT(total_blocks, 50u);
  for (const auto& seg : intact.recovered().at(0)->segments) {
    ASSERT_EQ(seg.version, format());
  }
  const auto files = segment_files(intact_dir.path());
  ASSERT_GT(files.size(), 3u);

  Rng rng(2026 + seed());
  for (int trial = 0; trial < 12; ++trial) {
    const TempDir dir;
    write_intact_archive(dir.path(), format());
    const auto victims = segment_files(dir.path());
    const std::string& victim =
        victims[rng.uniform_below(victims.size())];
    const auto size = fs::file_size(victim);
    const auto cut = rng.uniform_below(size + 1);
    fs::resize_file(victim, cut);

    store::ArchiveReader r(dir.path());  // must not throw
    EXPECT_TRUE(blocks_are_prefix(r.recovered(), intact.recovered()))
        << "trial " << trial << " cut " << victim << " at " << cut;
    EXPECT_LE(r.stats().blocks_recovered, total_blocks);
    if (cut < size) {
      EXPECT_GE(r.stats().recoveries, 1u) << "trial " << trial;
    }
    // Whatever survived still answers queries without throwing.
    if (r.has_port(0)) {
      (void)r.query_time_windows(0, 0, 2'000'000);
      (void)r.query_queue_monitor(0, 500'000);
    }
    expect_resume_repairs_in_place(dir.path(), r, trial);
  }
}

TEST_P(ArchiveRecoveryProperty, BitFlipsNeverEscapeTheScan) {
  const TempDir intact_dir;
  write_intact_archive(intact_dir.path(), format());
  store::ArchiveReader intact(intact_dir.path());

  Rng rng(4093 + seed());
  for (int trial = 0; trial < 12; ++trial) {
    const TempDir dir;
    write_intact_archive(dir.path(), format());
    const auto victims = segment_files(dir.path());
    const std::string& victim =
        victims[rng.uniform_below(victims.size())];
    // Flip one random bit in place.
    std::fstream f(victim,
                   std::ios::binary | std::ios::in | std::ios::out);
    const auto size = fs::file_size(victim);
    const auto pos = rng.uniform_below(size);
    f.seekg(static_cast<std::streamoff>(pos));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ (1 << rng.uniform_below(8)));
    f.seekp(static_cast<std::streamoff>(pos));
    f.write(&byte, 1);
    f.close();

    store::ArchiveReader r(dir.path());  // must not throw
    // A flipped bit can only shrink the recovered stream, never change it:
    // either the damaged block (and everything after it in that port) is
    // dropped, or the flip hit the footer/trailer and the segment merely
    // loses its clean-close marker.
    EXPECT_TRUE(blocks_are_prefix(r.recovered(), intact.recovered()))
        << "trial " << trial << " flipped " << victim << " byte " << pos;
    EXPECT_LE(r.stats().blocks_recovered, intact.stats().blocks_recovered);
    if (r.has_port(0)) {
      (void)r.query_time_windows(0, 0, 2'000'000);
    }
    expect_resume_repairs_in_place(dir.path(), r, trial);
  }
}

TEST_P(ArchiveRecoveryProperty, TornWriteInjectorDiesIntoARecoverablePrefix) {
  const TempDir intact_dir;
  write_intact_archive(intact_dir.path(), format());
  store::ArchiveReader intact(intact_dir.path());
  const auto& intact_blocks = intact.recovered().at(0)->blocks;

  // High tear probability: the writer dies somewhere early in every trial.
  faults::FaultLog log;
  int nonempty_windows = 0;
  int nonempty_older_windows = 0;
  int nonempty_monitors = 0;
  for (int trial = 0; trial < 8; ++trial) {
    faults::TornWriteConfig cfg;
    cfg.probability = 0.05;
    faults::TornWriteInjector injector(cfg, 9000 + 31 * seed() + trial,
                                       &log);
    const TempDir dir;
    write_intact_archive(dir.path(), format(), &injector);
    if (injector.tears_injected() == 0) continue;  // clean run, nothing to do

    store::ArchiveReader r(dir.path());
    EXPECT_TRUE(blocks_are_prefix(r.recovered(), intact.recovered()))
        << "trial " << trial;
    EXPECT_LT(r.stats().blocks_recovered, intact.stats().blocks_recovered)
        << "trial " << trial;
    EXPECT_GE(r.stats().recoveries, 1u) << "trial " << trial;
    if (!r.has_port(0)) continue;

    // The surviving prefix answers exactly what the intact archive does as
    // of H, one tick before the earliest t_hi among the blocks the tear
    // lost: every intact block with t_hi <= H is in the prefix, so both
    // readers bounded to H see the same blocks.
    const std::size_t kept = r.recovered().at(0)->blocks.size();
    ASSERT_LT(kept, intact_blocks.size()) << "trial " << trial;
    Timestamp horizon = std::numeric_limits<Timestamp>::max();
    for (std::size_t i = kept; i < intact_blocks.size(); ++i) {
      horizon = std::min(horizon, intact_blocks[i].t_hi);
    }
    ASSERT_GT(horizon, 0u) << "trial " << trial;
    --horizon;
    const auto windows = r.query_time_windows(0, 0, 2'000'000, 0, horizon);
    EXPECT_EQ(windows,
              intact.query_time_windows(0, 0, 2'000'000, 0, horizon))
        << "trial " << trial << " as of " << horizon;
    nonempty_windows += windows.empty() ? 0 : 1;
    // Window 1 of the checkpoint at t answers (t - 45 us, t - 20 us]: its
    // counts are scaled by z0, so this pins the calibration the prefix
    // resolves (z0 = 0.25 + 0.001 i), not just the snapshots.
    for (Timestamp t = 50'000; t <= horizon; t += 50'000) {
      const auto older = r.query_time_windows(0, t - 45'000, t - 20'000, 0,
                                              horizon);
      EXPECT_EQ(older, intact.query_time_windows(0, t - 45'000, t - 20'000,
                                                 0, horizon))
          << "trial " << trial << " t " << t << " as of " << horizon;
      nonempty_older_windows += older.empty() ? 0 : 1;
    }
    // Every 50 us snapshot instant the horizon still covers.
    for (Timestamp t = 50'000; t <= horizon; t += 50'000) {
      const auto got = r.query_queue_monitor(0, t, 0, horizon);
      const auto want = intact.query_queue_monitor(0, t, 0, horizon);
      ASSERT_EQ(got.size(), want.size())
          << "trial " << trial << " t " << t << " as of " << horizon;
      for (std::size_t k = 0; k < got.size(); ++k) {
        EXPECT_EQ(got[k].flow, want[k].flow) << "trial " << trial;
        EXPECT_EQ(got[k].level, want[k].level) << "trial " << trial;
        EXPECT_EQ(got[k].seq, want[k].seq) << "trial " << trial;
      }
      nonempty_monitors += got.empty() ? 0 : 1;
    }
  }
  EXPECT_FALSE(log.events().empty());
  // Non-empty answers somewhere, so the comparisons above cannot pass
  // vacuously.
  EXPECT_GT(nonempty_windows, 0);
  EXPECT_GT(nonempty_older_windows, 0);
  EXPECT_GT(nonempty_monitors, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ArchiveRecoveryProperty,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& param_info) {
      std::string name = "seed";
      name += std::to_string(std::get<0>(param_info.param));
      name += "v";
      name += std::to_string(std::get<1>(param_info.param));
      return name;
    });

}  // namespace
}  // namespace pq
