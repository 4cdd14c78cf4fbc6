// The v2 payload codec through the public writer and reader. Whatever
// sequence of window, monitor, calibration and DQ records an ArchiveWriter
// is handed (vacated and refilled cells, identical consecutive snapshots, a
// register layout that changes mid-segment, any z0), ArchiveReader must
// recover every block as exactly the control/register_records bytes of its
// record. A CRC-valid delta frame whose body is damaged, or whose base is
// missing, must end the port's prefix with its typed status.
#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "control/register_records.h"
#include "store/archive.h"
#include "store/archive_reader.h"
#include "store/block_codec_v2.h"
#include "archive_test_util.h"
#include "../integration/sharded_harness.h"

namespace pq {
namespace {

namespace fs = std::filesystem;
using harness::TempDir;

core::TimeWindowParams base_params() {
  core::TimeWindowParams p;
  p.m0 = 10;
  p.alpha = 1;
  p.k = 4;
  p.num_windows = 3;
  p.num_ports = 1;
  return p;
}

/// One block the writer was handed, as the reader must give it back.
struct Expected {
  store::BlockKind kind = store::BlockKind::kWindowSnapshot;
  std::uint32_t partition = 0;
  std::vector<std::uint8_t> payload;
};

/// Drives one writer with a seeded random record stream and remembers the
/// register_records bytes of every record it hands over.
class RecordFeed {
 public:
  explicit RecordFeed(std::uint64_t seed) : rng_(seed) {
    for (auto& w : windows_) reshape(w, 3, 16);
    for (auto& m : monitors_) m.state.entries.resize(8);
    cal_.window_params = base_params();
    cal_.monitor_levels = 8;
  }

  /// Ordinals of blocks whose structure differs from their base (the v2
  /// encoder must fall back to raw) and of exact repeats of their base.
  std::set<std::size_t> reshaped;
  std::set<std::size_t> repeated;
  std::vector<Expected> expected;

  void step(store::ArchiveWriter& w) {
    now_ += 1 + rng_.uniform_below(60'000);
    const auto part = static_cast<std::uint32_t>(rng_.uniform_below(2));
    switch (rng_.uniform_below(7)) {
      case 0:
      case 1:
      case 2: window(w, part); break;
      case 3:
      case 4: monitor(w, part); break;
      case 5: calibration(w); break;
      default:
        if (rng_.chance(0.3)) {
          capture(w, part);
        } else {
          window(w, part);
        }
        break;
    }
  }

 private:
  static void reshape(control::WindowSnapshot& s, std::size_t windows,
                      std::size_t cells) {
    s.state.resize(windows);
    for (auto& window : s.state) window.resize(cells);
  }

  FlowId random_flow() {
    FlowId f;
    // Mostly small identifiers (short deltas), sometimes full-width ones
    // whose deltas wrap.
    const bool wide = rng_.chance(0.2);
    f.src_ip = static_cast<std::uint32_t>(wide ? rng_() : rng_.uniform_below(64));
    f.dst_ip = static_cast<std::uint32_t>(wide ? rng_() : 7);
    f.src_port = static_cast<std::uint16_t>(rng_.uniform_below(65536));
    f.dst_port = static_cast<std::uint16_t>(rng_.uniform_below(4));
    f.proto = static_cast<std::uint8_t>(rng_.chance(0.9) ? 6 : 17);
    return f;
  }

  void window(store::ArchiveWriter& w, std::uint32_t part) {
    control::WindowSnapshot& s = windows_[part];
    const bool repeat = rng_.chance(0.1);
    if (!repeat) {
      s.taken_at = now_;
      s.epoch += rng_.uniform_below(3);
      if (rng_.chance(0.06)) {
        // A register layout change: one more window, or twice the cells.
        const bool wider = rng_.chance(0.5);
        reshape(s, s.state.size() == 3 && !wider ? 4 : 3,
                s.state[0].size() == 16 && wider ? 32 : 16);
        reshaped.insert(expected.size());
      }
      for (auto& window : s.state) {
        for (auto& cell : window) {
          const double u = rng_.uniform();
          if (u < 0.1) {
            cell.occupied = false;  // vacated: the stale flow stays behind
          } else if (u < 0.25) {
            cell.occupied = true;  // filled or refilled
            cell.flow = random_flow();
            cell.cycle_id = rng_.uniform_below(1000);
          } else if (u < 0.35 && cell.occupied) {
            cell.cycle_id = rng_.chance(0.8) ? cell.cycle_id + 1
                                              : rng_.uniform_below(1000);
          }
        }
      }
    } else if (seen_window_[part]) {
      repeated.insert(expected.size());
    }
    seen_window_[part] = true;
    w.on_window_snapshot(part, s);
    add(store::BlockKind::kWindowSnapshot, part,
        [&](auto& buf) { control::put_window_snapshot(buf, s); });
  }

  void monitor(store::ArchiveWriter& w, std::uint32_t part) {
    control::MonitorSnapshot& s = monitors_[part];
    if (rng_.chance(0.06)) {
      s.state.entries.resize(s.state.entries.size() == 8 ? 12 : 8);
      reshaped.insert(expected.size());
    }
    s.taken_at = now_;
    s.epoch += rng_.uniform_below(3);
    s.state.top = static_cast<std::uint32_t>(
        rng_.uniform_below(s.state.entries.size()));
    for (auto& e : s.state.entries) {
      for (core::MonitorHalf* half : {&e.inc, &e.dec}) {
        const double u = rng_.uniform();
        if (u < 0.1) {
          half->valid = false;  // vacated: the stale flow stays behind
        } else if (u < 0.3) {
          half->valid = true;
          half->flow = random_flow();
          half->seq = rng_.uniform_below(1u << 20);
        }
      }
    }
    w.on_monitor_snapshot(part, s);
    add(store::BlockKind::kMonitorSnapshot, part,
        [&](auto& buf) { control::put_monitor_snapshot(buf, s); });
  }

  void calibration(store::ArchiveWriter& w) {
    cal_.taken_at = now_;
    if (rng_.chance(0.7)) cal_.z0 = rng_.uniform() * 1.5 - 0.25;
    if (rng_.chance(0.1)) {
      cal_.window_params.num_windows = 3 + static_cast<std::uint32_t>(
                                               rng_.uniform_below(3));
      cal_.window_params.k = 4 + static_cast<std::uint32_t>(rng_.uniform_below(2));
      cal_.window_params.wrap32 = rng_.chance(0.5);
      cal_.monitor_levels = 8 + static_cast<std::uint32_t>(rng_.uniform_below(5));
    }
    w.on_calibration(cal_);
    add(store::BlockKind::kCalibration, 0,
        [&](auto& buf) { control::put_calibration(buf, cal_); });
  }

  void capture(store::ArchiveWriter& w, std::uint32_t part) {
    control::DqCapture cap;
    cap.notification.port_prefix = part;
    cap.notification.victim_flow = random_flow();
    cap.notification.enq_timestamp = now_ - 1;
    cap.notification.deq_timestamp = now_;
    cap.notification.enq_qdepth = static_cast<std::uint32_t>(rng_.uniform_below(500));
    cap.windows = windows_[part].state;
    cap.monitor = monitors_[part].state;
    w.on_dq_capture(part, cap);
    add(store::BlockKind::kDqCapture, part,
        [&](auto& buf) { control::put_dq_capture(buf, cap); });
  }

  template <class Put>
  void add(store::BlockKind kind, std::uint32_t part, Put put) {
    Expected e{kind, part, {}};
    put(e.payload);
    expected.push_back(std::move(e));
  }

  Rng rng_;
  Timestamp now_ = 0;
  control::WindowSnapshot windows_[2];
  control::MonitorSnapshot monitors_[2];
  bool seen_window_[2] = {false, false};
  control::CalibrationRecord cal_;
};

/// The v2 encoding tag of every recovered block of `port`, in order.
std::vector<std::uint8_t> encoding_tags(const std::string& dir,
                                        const store::ArchiveReader& r,
                                        std::uint32_t port) {
  std::vector<std::uint8_t> tags;
  for (const auto& seg : r.recovered().at(port)->segments) {
    const auto bytes =
        harness::read_bytes(store::segment_path(dir, port, seg.index));
    const auto scan = store::scan_segment_bytes(bytes, port);
    for (std::size_t i = 0; i < seg.blocks; ++i) {
      tags.push_back(
          bytes[scan.entries[i].offset + store::kBlockOverheadBytes - 4]);
    }
  }
  return tags;
}

/// Writes `feed` steps of a feed seeded `seed` to port 0 of `dir`.
RecordFeed write_feed(const std::string& dir, std::uint64_t seed, int steps,
                      std::uint64_t segment_bytes,
                      store::WriterStats* stats = nullptr) {
  store::ArchiveOptions opts;
  opts.dir = dir;
  opts.segment_bytes = segment_bytes;
  RecordFeed feed(seed);
  store::ArchiveWriter w(0, base_params(), 8, opts);
  for (int i = 0; i < steps; ++i) feed.step(w);
  w.close();
  if (stats != nullptr) *stats = w.stats();
  return feed;
}

TEST(ArchiveCodec, RandomRecordStreamsReadBackAsTheirRecordBytes) {
  for (const std::uint64_t segment_bytes : {std::uint64_t{1} << 20,
                                            std::uint64_t{6} * 1024}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", segments of " +
                   std::to_string(segment_bytes) + " bytes");
      const TempDir dir;
      store::WriterStats ws;
      const RecordFeed feed = write_feed(dir.path(), seed, 400, segment_bytes,
                                         &ws);
      const store::ArchiveReader r(dir.path());
      EXPECT_EQ(r.stats().recoveries, 0u);
      EXPECT_EQ(r.stats().decode_errors, 0u);
      const auto& blocks = r.recovered().at(0)->blocks;
      ASSERT_EQ(blocks.size(), feed.expected.size());
      // The writer counts each block's logical size without serializing
      // it; the count must equal the v1 frames of the bytes read back.
      std::uint64_t logical_bytes = 0;
      for (const auto& e : feed.expected) {
        logical_bytes += store::kBlockOverheadBytes + e.payload.size();
      }
      EXPECT_EQ(ws.logical_bytes, logical_bytes);
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        EXPECT_EQ(blocks[i].kind, feed.expected[i].kind) << "block " << i;
        EXPECT_EQ(blocks[i].partition, feed.expected[i].partition)
            << "block " << i;
        EXPECT_TRUE(blocks[i].payload == feed.expected[i].payload)
            << "block " << i;
      }

      // Both encodings occur, and the structural cases take the branch the
      // format prescribes.
      const auto tags = encoding_tags(dir.path(), r, 0);
      ASSERT_EQ(tags.size(), blocks.size());
      std::uint64_t deltas = 0;
      for (const auto tag : tags) deltas += tag == store::kEncodingDelta;
      EXPECT_EQ(deltas, ws.blocks_delta);
      EXPECT_GT(ws.blocks_delta, 0u);
      EXPECT_GT(ws.blocks_raw, 0u);
      EXPECT_FALSE(feed.reshaped.empty());
      EXPECT_FALSE(feed.repeated.empty());
      for (const auto i : feed.reshaped) {
        EXPECT_EQ(tags[i], store::kEncodingRaw) << "reshaped block " << i;
      }
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        if (blocks[i].kind == store::BlockKind::kDqCapture) {
          EXPECT_EQ(tags[i], store::kEncodingRaw) << "capture " << i;
        }
      }
      // A repeat deltas to a header and one run, unless it keyframes a
      // segment.
      std::size_t repeats_as_delta = 0;
      for (const auto i : feed.repeated) {
        repeats_as_delta += tags[i] == store::kEncodingDelta;
      }
      EXPECT_GT(repeats_as_delta, feed.repeated.size() / 2);
    }
  }
}

/// A clean single-segment archive of the feed, and the ordinal of a
/// delta-coded block of `kind` in it (the third such block).
struct DeltaVictim {
  std::vector<std::uint8_t> clean_content;
  std::vector<Expected> expected;
  std::size_t ordinal = 0;
};

DeltaVictim find_delta_victim(const std::string& dir, store::BlockKind kind) {
  const RecordFeed feed = write_feed(dir, 77, 120, std::uint64_t{1} << 20);
  const store::ArchiveReader r(dir);
  const auto tags = encoding_tags(dir, r, 0);
  DeltaVictim v;
  v.clean_content = r.logical_content();
  v.expected = feed.expected;
  int seen = 0;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if (feed.expected[i].kind == kind && tags[i] == store::kEncodingDelta &&
        ++seen == 3) {
      v.ordinal = i;
      return v;
    }
  }
  ADD_FAILURE() << "no third delta block of kind " << to_string(kind);
  return v;
}

/// Copies the clean archive, damages block `v.ordinal` through `edit` and
/// checks the prefix ends right before it with `want`.
void expect_prefix_ends_at(
    const std::string& clean_dir, const DeltaVictim& v,
    store::BlockDecodeStatus want,
    const std::function<void(std::uint32_t&, std::vector<std::uint8_t>&)>&
        edit) {
  const TempDir dir;
  fs::copy(clean_dir, dir.path(), fs::copy_options::recursive);
  harness::reseal_block(store::segment_path(dir.path(), 0, 0), 0, v.ordinal,
                        edit);
  const store::ArchiveReader r(dir.path());
  const auto& rec = *r.recovered().at(0);
  EXPECT_EQ(rec.decode_error.status, want);
  EXPECT_EQ(rec.decode_error.segment_index, 0u);
  EXPECT_EQ(rec.decode_error.block_ordinal, v.ordinal);
  EXPECT_EQ(r.stats().decode_errors, 1u);
  ASSERT_EQ(rec.blocks.size(), v.ordinal);
  for (std::size_t i = 0; i < rec.blocks.size(); ++i) {
    EXPECT_TRUE(rec.blocks[i].payload == v.expected[i].payload)
        << "block " << i;
  }
}

TEST(ArchiveCodec, DamagedDeltaBodyEndsThePrefixAsCorruptDelta) {
  using Edit =
      std::function<void(std::uint32_t&, std::vector<std::uint8_t>&)>;
  // Each edit leaves a body no decoder may accept: a field or run count cut
  // short, a final varint that runs off the end, one byte too many.
  const Edit drop_last = [](std::uint32_t&, std::vector<std::uint8_t>& p) {
    p.pop_back();
  };
  const Edit unterminate_last =
      [](std::uint32_t&, std::vector<std::uint8_t>& p) { p.back() |= 0x80; };
  const Edit append_byte = [](std::uint32_t&, std::vector<std::uint8_t>& p) {
    p.push_back(0);
  };
  for (const auto kind :
       {store::BlockKind::kWindowSnapshot, store::BlockKind::kMonitorSnapshot,
        store::BlockKind::kCalibration}) {
    SCOPED_TRACE(to_string(kind));
    const TempDir clean;
    const DeltaVictim v = find_delta_victim(clean.path(), kind);
    ASSERT_GT(v.ordinal, 0u);
    expect_prefix_ends_at(clean.path(), v,
                          store::BlockDecodeStatus::kCorruptDelta, drop_last);
    expect_prefix_ends_at(clean.path(), v,
                          store::BlockDecodeStatus::kCorruptDelta, append_byte);
    // A calibration delta ends in z0's verbatim IEEE bits, not a varint.
    if (kind != store::BlockKind::kCalibration) {
      expect_prefix_ends_at(clean.path(), v,
                            store::BlockDecodeStatus::kCorruptDelta,
                            unterminate_last);
    }
  }
}

TEST(ArchiveCodec, DeltaWithoutABaseEndsThePrefixAsMissingDeltaBase) {
  for (const auto kind :
       {store::BlockKind::kWindowSnapshot, store::BlockKind::kMonitorSnapshot,
        store::BlockKind::kCalibration}) {
    SCOPED_TRACE(to_string(kind));
    const TempDir clean;
    const DeltaVictim v = find_delta_victim(clean.path(), kind);
    ASSERT_GT(v.ordinal, 0u);
    // Re-filed under a partition no earlier block of the segment has.
    expect_prefix_ends_at(clean.path(), v,
                          store::BlockDecodeStatus::kMissingDeltaBase,
                          [](std::uint32_t& partition,
                             std::vector<std::uint8_t>&) { partition = 9; });
  }
}

}  // namespace
}  // namespace pq
