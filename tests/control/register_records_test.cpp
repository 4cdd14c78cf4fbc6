#include "control/register_records.h"

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "sim/egress_port.h"
#include "traffic/trace_gen.h"
#include "wire/bytes.h"

namespace pq::control {
namespace {

struct Rig {
  Rig() {
    core::PipelineConfig cfg;
    cfg.windows.m0 = 6;
    cfg.windows.alpha = 1;
    cfg.windows.k = 8;
    cfg.windows.num_windows = 3;
    cfg.monitor.max_depth_cells = 25000;
    pipeline = std::make_unique<core::PrintQueuePipeline>(cfg);
    pipeline->enable_port(0);
    analysis = std::make_unique<AnalysisProgram>(*pipeline,
                                                 AnalysisConfig{});
    sim::PortConfig port_cfg;
    port = std::make_unique<sim::EgressPort>(port_cfg);
    port->add_hook(pipeline.get());
    traffic::PacketTraceConfig tcfg;
    tcfg.duration_ns = 3'000'000;
    tcfg.seed = 5;
    port->run(traffic::generate_uw_trace(tcfg));
    analysis->finalize(port->stats().last_departure + 1);
  }
  std::unique_ptr<core::PrintQueuePipeline> pipeline;
  std::unique_ptr<AnalysisProgram> analysis;
  std::unique_ptr<sim::EgressPort> port;
};

TEST(RegisterRecords, RoundTripsThroughStream) {
  Rig rig;
  const auto records = collect_records(*rig.pipeline, *rig.analysis);
  std::stringstream ss;
  write_records(ss, records);
  const auto back = read_records(ss);
  EXPECT_EQ(back.window_params.m0, records.window_params.m0);
  EXPECT_EQ(back.window_params.k, records.window_params.k);
  EXPECT_EQ(back.monitor_levels, records.monitor_levels);
  EXPECT_DOUBLE_EQ(back.z0, records.z0);
  ASSERT_EQ(back.window_snapshots.size(), records.window_snapshots.size());
  ASSERT_EQ(back.window_snapshots[0].size(),
            records.window_snapshots[0].size());
  // Spot-check full state equality of the last snapshot.
  const auto& a = records.window_snapshots[0].back().state;
  const auto& b = back.window_snapshots[0].back().state;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    ASSERT_EQ(a[w].size(), b[w].size());
    for (std::size_t j = 0; j < a[w].size(); ++j) {
      EXPECT_EQ(a[w][j].occupied, b[w][j].occupied);
      if (a[w][j].occupied) {
        EXPECT_EQ(a[w][j].flow, b[w][j].flow);
        EXPECT_EQ(a[w][j].cycle_id, b[w][j].cycle_id);
      }
    }
  }
}

TEST(RegisterRecords, OfflineQueriesMatchLiveAnalysisProgram) {
  Rig rig;
  const auto records = collect_records(*rig.pipeline, *rig.analysis);

  // Every live interval query must reproduce exactly offline.
  const auto& recs = rig.port->records();
  for (std::size_t i = 100; i < recs.size(); i += recs.size() / 7) {
    const Timestamp t1 = recs[i].enq_timestamp;
    const Timestamp t2 = recs[i].deq_timestamp();
    if (t2 <= t1) continue;
    const auto live = rig.analysis->query_time_windows(0, t1, t2);
    const auto offline = offline_query_time_windows(records, 0, t1, t2).counts;
    ASSERT_EQ(live.size(), offline.size()) << "victim " << i;
    for (const auto& [flow, n] : live) {
      ASSERT_TRUE(offline.contains(flow));
      EXPECT_NEAR(offline.at(flow), n, 1e-9);
    }
  }

  const Timestamp mid = rig.port->stats().last_departure / 2;
  const auto live_mon = rig.analysis->query_queue_monitor(0, mid);
  const auto off_mon = offline_query_queue_monitor(records, 0, mid);
  ASSERT_EQ(live_mon.size(), off_mon.size());
  for (std::size_t i = 0; i < live_mon.size(); ++i) {
    EXPECT_EQ(live_mon[i].flow, off_mon[i].flow);
    EXPECT_EQ(live_mon[i].level, off_mon[i].level);
  }
}

TEST(RegisterRecords, FileRoundTrip) {
  Rig rig;
  const auto records = collect_records(*rig.pipeline, *rig.analysis);
  const std::string path = testing::TempDir() + "/pq_records_test.bin";
  write_records_file(path, records);
  const auto back = read_records_file(path);
  EXPECT_EQ(back.window_snapshots[0].size(),
            records.window_snapshots[0].size());
}

TEST(RegisterRecords, DetectsCorruption) {
  Rig rig;
  std::stringstream ss;
  write_records(ss, collect_records(*rig.pipeline, *rig.analysis));
  std::string data = ss.str();
  data[data.size() / 2] ^= 0x40;
  std::stringstream bad(data);
  EXPECT_THROW(read_records(bad), std::runtime_error);
}

TEST(RegisterRecords, DetectsTruncation) {
  Rig rig;
  std::stringstream ss;
  write_records(ss, collect_records(*rig.pipeline, *rig.analysis));
  std::string data = ss.str();
  std::stringstream bad(data.substr(0, data.size() / 3));
  EXPECT_THROW(read_records(bad), std::runtime_error);
}

// --- Typed error codes ---------------------------------------------------
// Each read-path failure mode maps to exactly one RecordsErrorCode, so
// callers can branch on code() instead of string-matching what(). These
// tests hand-craft byte streams around a minimal (empty) bundle; the
// checksum is recomputed so each case isolates its own failure.

/// A minimal valid bundle's bytes, checksum stripped.
std::vector<std::uint8_t> minimal_payload() {
  std::stringstream ss;
  write_records(ss, RegisterRecords{});
  const std::string s = ss.str();
  return {s.begin(), s.end() - 8};
}

/// Re-checksums `payload`, decodes it, and returns the typed error (or
/// nullopt if the decode succeeded).
std::optional<RecordsErrorCode> decode_error(
    std::vector<std::uint8_t> payload) {
  wire::put_u64(payload, fnv1a(payload.data(), payload.size()));
  std::stringstream in(std::string(payload.begin(), payload.end()));
  try {
    read_records(in);
  } catch (const RecordsError& e) {
    return e.code();
  }
  return std::nullopt;
}

// Byte offset of the first count field (window port count): magic + the
// fixed header (m0, alpha, k, T, ports: 5×u32, wrap32 u8, levels u32,
// z0 f64).
constexpr std::size_t kHeaderBytes = 4 + 5 * 4 + 1 + 4 + 8;

TEST(RegisterRecordsErrors, MinimalBundleDecodes) {
  EXPECT_EQ(decode_error(minimal_payload()), std::nullopt);
}

TEST(RegisterRecordsErrors, ChecksumMismatch) {
  // A flipped payload byte with the stale checksum left in place.
  std::stringstream ss;
  write_records(ss, RegisterRecords{});
  std::string data = ss.str();
  data[kHeaderBytes / 2] ^= 0x10;
  std::stringstream in(data);
  try {
    read_records(in);
    FAIL() << "decode accepted a corrupt bundle";
  } catch (const RecordsError& e) {
    EXPECT_EQ(e.code(), RecordsErrorCode::kChecksumMismatch);
  }
}

TEST(RegisterRecordsErrors, BadMagic) {
  auto payload = minimal_payload();
  payload[0] ^= 0xFF;
  EXPECT_EQ(decode_error(std::move(payload)), RecordsErrorCode::kBadMagic);
}

TEST(RegisterRecordsErrors, TruncatedMidHeader) {
  auto payload = minimal_payload();
  payload.resize(kHeaderBytes / 2);
  EXPECT_EQ(decode_error(std::move(payload)), RecordsErrorCode::kTruncated);
}

TEST(RegisterRecordsErrors, OversizedCountRejectedBeforeAllocation) {
  // A port count promising far more elements than the stream holds must be
  // rejected up front, not discovered after a giant resize.
  auto payload = minimal_payload();
  payload.resize(kHeaderBytes);
  wire::put_u32(payload, 0x00FFFFFF);
  EXPECT_EQ(decode_error(std::move(payload)),
            RecordsErrorCode::kOversizedField);
}

TEST(RegisterRecordsErrors, TrailingBytesRejected) {
  // A well-formed bundle followed by unconsumed (but checksummed) bytes.
  auto payload = minimal_payload();
  payload.insert(payload.end(), {0xDE, 0xAD, 0xBE, 0xEF});
  EXPECT_EQ(decode_error(std::move(payload)),
            RecordsErrorCode::kTrailingBytes);
}

TEST(RegisterRecordsErrors, UnusableLayoutRejected) {
  // Checksummed bundles whose layout core::TtsLayout refuses are refused at
  // decode, so no query ever builds a layout from them. Header fields after
  // the magic: m0, alpha, k, T, ports (u32 each), then wrap32 (u8).
  auto zero_alpha = minimal_payload();
  zero_alpha[11] = 0;  // low byte of alpha (default 1)
  EXPECT_EQ(decode_error(std::move(zero_alpha)),
            RecordsErrorCode::kBadLayout);

  auto wide_wrap = minimal_payload();
  wide_wrap[7] = 20;  // m0 20 is in range, but with k 12 it needs 32 bits
  wide_wrap[24] = 1;  // wrap32
  EXPECT_EQ(decode_error(std::move(wide_wrap)),
            RecordsErrorCode::kBadLayout);
}

TEST(RegisterRecordsErrors, UndefinedFlagBitsRejected) {
  // An occupied byte above 1 or monitor flag bits above 3 are nothing put_*
  // writes: the getters refuse them rather than read them as set, so every
  // snapshot they accept re-encodes to its own bytes.
  const auto code_of = [](auto get, const std::vector<std::uint8_t>& buf) {
    wire::ByteReader r(buf);
    try {
      get(r);
    } catch (const RecordsError& e) {
      return std::optional<RecordsErrorCode>(e.code());
    }
    return std::optional<RecordsErrorCode>();
  };
  WindowSnapshot window;
  window.state = {{core::WindowCell{}}};
  std::vector<std::uint8_t> buf;
  put_window_snapshot(buf, window);
  EXPECT_EQ(code_of(get_window_snapshot, buf), std::nullopt);
  buf.back() = 2;  // the one cell's occupied byte
  EXPECT_EQ(code_of(get_window_snapshot, buf), RecordsErrorCode::kBadFlags);

  MonitorSnapshot monitor;
  monitor.state.entries.resize(1);
  buf.clear();
  put_monitor_snapshot(buf, monitor);
  EXPECT_EQ(code_of(get_monitor_snapshot, buf), std::nullopt);
  buf.back() = 4;  // the one entry's validity flags
  EXPECT_EQ(code_of(get_monitor_snapshot, buf), RecordsErrorCode::kBadFlags);
}

TEST(RegisterRecords, CalibrationWithUnusableLayoutIsRefused) {
  CalibrationRecord cal;
  cal.taken_at = 5000;
  cal.monitor_levels = 9;
  cal.z0 = 0.25;
  std::vector<std::uint8_t> buf;
  put_calibration(buf, cal);
  CalibrationRecord back;
  wire::ByteReader r(buf);
  ASSERT_TRUE(get_calibration(r, back));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.taken_at, 5000u);
  EXPECT_EQ(back.window_params.k, cal.window_params.k);
  EXPECT_EQ(back.monitor_levels, 9u);
  EXPECT_EQ(back.z0, 0.25);

  cal.window_params.num_windows = 0;
  buf.clear();
  put_calibration(buf, cal);
  wire::ByteReader bad(buf);
  EXPECT_FALSE(get_calibration(bad, back));

  wire::ByteReader short_payload(std::span<const std::uint8_t>(buf).first(10));
  EXPECT_FALSE(get_calibration(short_payload, back));
}

// A DQ capture with empty, occupied and one-sided cells and entries.
DqCapture hand_built_capture() {
  DqCapture cap;
  auto& n = cap.notification;
  n.port_prefix = 3;
  n.victim_flow = {0x0a000001, 0x0a000002, 4242, 80, 6};
  n.enq_timestamp = 1'000'000;
  n.deq_timestamp = 1'250'000;
  n.enq_qdepth = 777;
  n.window_bank = 1;
  n.monitor_bank = 0;
  cap.windows.resize(2);
  cap.windows[0].resize(2);
  cap.windows[0][1].occupied = true;
  cap.windows[0][1].flow = {1, 2, 3, 4, 17};
  cap.windows[0][1].cycle_id = 0x0102030405060708ull;
  cap.windows[1].resize(1);
  cap.monitor.top = 2;
  cap.monitor.entries.resize(3);
  cap.monitor.entries[0].inc = {{5, 6, 7, 8, 6}, 9, true};
  cap.monitor.entries[1].dec = {{9, 10, 11, 12, 17}, 13, true};
  cap.monitor.entries[2].inc = {{14, 15, 16, 17, 6}, 18, true};
  cap.monitor.entries[2].dec = {{19, 20, 21, 22, 6}, 23, true};
  return cap;
}

// The archive's DQ-capture block payload, byte for byte as the archive
// writer emits it (the v1 golden archive holds no DQ blocks, so nothing
// else pins it).
TEST(RegisterRecords, DqCapturePayloadBytesArePinned) {
  const std::vector<std::uint8_t> pinned = {
      0x00, 0x00, 0x00, 0x03, 0x0a, 0x00, 0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
      0x10, 0x92, 0x00, 0x50, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0x42,
      0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x12, 0xd0, 0x00, 0x00, 0x03,
      0x09, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x13, 0x12, 0xd0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x11,
      0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x00, 0x00, 0x00, 0x01,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x13, 0x12, 0xd0, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
      0x03, 0x01, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x06, 0x00, 0x07,
      0x00, 0x08, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x02,
      0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x0a, 0x00, 0x0b, 0x00, 0x0c,
      0x11, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0x03, 0x00, 0x00,
      0x00, 0x0e, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x10, 0x00, 0x11, 0x06, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0x00, 0x13, 0x00,
      0x00, 0x00, 0x14, 0x00, 0x15, 0x00, 0x16, 0x06, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x17};
  const DqCapture cap = hand_built_capture();
  std::vector<std::uint8_t> buf;
  put_dq_capture(buf, cap);
  EXPECT_EQ(buf, pinned);

  wire::ByteReader r(pinned);
  const DqCapture back = get_dq_capture(r);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(back.notification.victim_flow, cap.notification.victim_flow);
  EXPECT_EQ(back.notification.deq_timestamp, cap.notification.deq_timestamp);
  EXPECT_EQ(back.notification.enq_qdepth, cap.notification.enq_qdepth);
  ASSERT_EQ(back.windows.size(), 2u);
  EXPECT_EQ(back.windows[0][1].cycle_id, cap.windows[0][1].cycle_id);
  EXPECT_EQ(back.monitor.top, cap.monitor.top);
  EXPECT_EQ(back.monitor.entries[2].dec.seq, 23u);
}

// --- Logical sizes --------------------------------------------------------
// Each *_bytes function must return exactly the byte count its put_*
// appends: the archive writer counts logical bytes with them and weighs
// every delta against them, without serializing the record.

FlowId random_flow(Rng& rng) {
  return {static_cast<std::uint32_t>(rng()), static_cast<std::uint32_t>(rng()),
          static_cast<std::uint16_t>(rng()), static_cast<std::uint16_t>(rng()),
          static_cast<std::uint8_t>(rng())};
}

/// A window state whose cells are occupied with probability `fill`. Every
/// cell holds a flow and cycle id, so an empty one still carries a stale
/// flow, as the data plane leaves it.
core::WindowState random_window_state(Rng& rng, double fill) {
  core::WindowState state(rng.uniform_below(5));
  for (auto& window : state) {
    window.resize(rng.uniform_below(40));
    for (auto& cell : window) {
      cell.flow = random_flow(rng);
      cell.cycle_id = rng();
      cell.occupied = rng.uniform() < fill;
    }
  }
  return state;
}

/// A monitor state whose halves are valid with probability `valid`; an
/// invalid half keeps its stale flow and seq.
core::MonitorState random_monitor_state(Rng& rng, double valid) {
  core::MonitorState state;
  state.top = static_cast<std::uint32_t>(rng());
  state.entries.resize(rng.uniform_below(40));
  for (auto& e : state.entries) {
    for (core::MonitorHalf* half : {&e.inc, &e.dec}) {
      half->flow = random_flow(rng);
      half->seq = rng();
      half->valid = rng.uniform() < valid;
    }
  }
  return state;
}

template <class Record, class Put>
std::size_t put_size(Put put, const Record& rec) {
  std::vector<std::uint8_t> buf;
  put(buf, rec);
  return buf.size();
}

TEST(RecordSizes, WindowSnapshotBytesCountWhatPutWrites) {
  Rng rng(11);
  for (const double fill : {0.0, 1.0, 0.5, 0.1, 0.9}) {
    for (int trial = 0; trial < 50; ++trial) {
      WindowSnapshot snap;
      snap.taken_at = rng();
      snap.epoch = rng();
      snap.state = random_window_state(rng, fill);
      ASSERT_EQ(window_snapshot_bytes(snap),
                put_size(put_window_snapshot, snap))
          << "fill " << fill << ", trial " << trial;
    }
  }
  // No windows at all, and windows without cells.
  WindowSnapshot empty;
  EXPECT_EQ(window_snapshot_bytes(empty), put_size(put_window_snapshot, empty));
  empty.state.resize(3);
  EXPECT_EQ(window_snapshot_bytes(empty), put_size(put_window_snapshot, empty));
}

TEST(RecordSizes, MonitorSnapshotBytesCountWhatPutWrites) {
  // Every mix of valid and invalid halves, with stale flows behind the
  // invalid ones.
  MonitorSnapshot mix;
  mix.state.top = 3;
  mix.state.entries.resize(4);
  for (std::size_t i = 0; i < 4; ++i) {
    auto& e = mix.state.entries[i];
    e.inc = {{1, 2, 3, 4, 6}, 5, (i & 1) != 0};
    e.dec = {{7, 8, 9, 10, 17}, 11, (i & 2) != 0};
  }
  EXPECT_EQ(monitor_snapshot_bytes(mix), put_size(put_monitor_snapshot, mix));

  Rng rng(12);
  for (const double valid : {0.0, 1.0, 0.5, 0.2}) {
    for (int trial = 0; trial < 50; ++trial) {
      MonitorSnapshot snap;
      snap.taken_at = rng();
      snap.epoch = rng();
      snap.state = random_monitor_state(rng, valid);
      ASSERT_EQ(monitor_snapshot_bytes(snap),
                put_size(put_monitor_snapshot, snap))
          << "valid " << valid << ", trial " << trial;
    }
  }
}

TEST(RecordSizes, DqCaptureBytesCountWhatPutWrites) {
  const DqCapture hand = hand_built_capture();
  EXPECT_EQ(dq_capture_bytes(hand), put_size(put_dq_capture, hand));
  const DqCapture empty;
  EXPECT_EQ(dq_capture_bytes(empty), put_size(put_dq_capture, empty));

  Rng rng(13);
  for (int trial = 0; trial < 100; ++trial) {
    DqCapture cap;
    cap.notification.victim_flow = random_flow(rng);
    cap.notification.deq_timestamp = rng();
    cap.windows = random_window_state(rng, rng.uniform());
    cap.monitor = random_monitor_state(rng, rng.uniform());
    ASSERT_EQ(dq_capture_bytes(cap), put_size(put_dq_capture, cap))
        << "trial " << trial;
  }
}

TEST(RecordSizes, CalibrationBytesCountWhatPutWrites) {
  CalibrationRecord cal;
  EXPECT_EQ(calibration_bytes(cal), put_size(put_calibration, cal));
  cal.taken_at = 5000;
  cal.monitor_levels = 9;
  cal.z0 = 0.25;
  cal.window_params.wrap32 = true;
  EXPECT_EQ(calibration_bytes(cal), put_size(put_calibration, cal));
  cal.window_params.num_windows = 0;  // a layout core::TtsLayout refuses
  ASSERT_NE(cal.window_params.range_error(), nullptr);
  EXPECT_EQ(calibration_bytes(cal), put_size(put_calibration, cal));
}

TEST(RegisterRecordsErrors, FileIoErrorsAreTyped) {
  try {
    read_records_file("/nonexistent/pq-records.pqr");
    FAIL() << "read of a missing file succeeded";
  } catch (const RecordsError& e) {
    EXPECT_EQ(e.code(), RecordsErrorCode::kIoError);
  }
  try {
    write_records_file("/nonexistent/pq-records.pqr", RegisterRecords{});
    FAIL() << "write into a missing directory succeeded";
  } catch (const RecordsError& e) {
    EXPECT_EQ(e.code(), RecordsErrorCode::kIoError);
  }
}

}  // namespace
}  // namespace pq::control
