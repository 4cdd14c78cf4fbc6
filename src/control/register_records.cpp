#include "control/register_records.h"

#include <fstream>
#include <istream>
#include <ostream>

#include "common/hash.h"

namespace pq::control {

namespace {

// Minimum encoded footprint of each variable-count element, used to reject
// counts a truncated or corrupted stream cannot possibly back before any
// allocation happens. Every element's real encoding is at least this large.
constexpr std::size_t kMinCellBytes = 1;      // occupied flag
constexpr std::size_t kMinWindowBytes = 4;    // cell count
constexpr std::size_t kMinEntryBytes = 1;     // validity flags
constexpr std::size_t kMinSnapshotBytes = 8 + 8 + 4;  // taken_at, epoch, count
constexpr std::size_t kMinPortListBytes = 4;  // per-port snapshot count

// Exact encoded sizes of the fixed-width fields the *_bytes functions count.
constexpr std::size_t kFlowBytes = 13;               // wire::put_flow
constexpr std::size_t kStampedFlowBytes = kFlowBytes + 8;  // + cycle_id/seq
constexpr std::size_t kSnapshotHeaderBytes = 8 + 8;  // taken_at, epoch
constexpr std::size_t kLayoutBytes = 5 * 4 + 1 + 4;  // put_register_layout

/// Rejects a count field that promises more elements than the remaining
/// stream could encode even at minimal size — the oversized-record guard.
std::uint32_t checked_count(wire::ByteReader& r, std::size_t min_elem_bytes,
                            const char* what) {
  const std::uint32_t n = r.u32();
  if (!r.ok()) {
    throw RecordsError(RecordsErrorCode::kTruncated,
                       std::string("records truncated reading ") + what +
                           " count");
  }
  if (static_cast<std::uint64_t>(n) * min_elem_bytes > r.remaining()) {
    throw RecordsError(RecordsErrorCode::kOversizedField,
                       std::string(what) + " count " + std::to_string(n) +
                           " exceeds remaining stream bytes");
  }
  return n;
}

/// Rejects a flag byte with bits no put_* ever sets.
[[noreturn]] void bad_flags(const char* what, std::uint8_t value) {
  throw RecordsError(RecordsErrorCode::kBadFlags,
                     std::string(what) + " flags " + std::to_string(value) +
                         " set undefined bits");
}

void require_ok(const wire::ByteReader& r, const char* what) {
  if (!r.ok()) {
    throw RecordsError(RecordsErrorCode::kTruncated,
                       std::string("records truncated reading ") + what);
  }
}

void put_window_state(std::vector<std::uint8_t>& buf,
                      const core::WindowState& state) {
  wire::put_u32(buf, static_cast<std::uint32_t>(state.size()));
  for (const auto& window : state) {
    wire::put_u32(buf, static_cast<std::uint32_t>(window.size()));
    for (const auto& cell : window) {
      wire::put_u8(buf, cell.occupied ? 1 : 0);
      if (cell.occupied) {
        wire::put_flow(buf, cell.flow);
        wire::put_u64(buf, cell.cycle_id);
      }
    }
  }
}

std::size_t window_state_bytes(const core::WindowState& state) {
  std::size_t n = 4;
  for (const auto& window : state) {
    std::size_t occupied = 0;
    for (const auto& cell : window) occupied += cell.occupied ? 1 : 0;
    n += 4 + window.size() + occupied * kStampedFlowBytes;
  }
  return n;
}

core::WindowState get_window_state(wire::ByteReader& r) {
  core::WindowState state(checked_count(r, kMinWindowBytes, "window"));
  for (auto& window : state) {
    window.resize(checked_count(r, kMinCellBytes, "window cell"));
    for (auto& cell : window) {
      const std::uint8_t occupied = r.u8();
      if (occupied > 1) bad_flags("window cell", occupied);
      cell.occupied = occupied != 0;
      if (cell.occupied) {
        cell.flow = wire::get_flow(r);
        cell.cycle_id = r.u64();
      }
    }
    require_ok(r, "window cells");
  }
  return state;
}

void put_monitor_state(std::vector<std::uint8_t>& buf,
                       const core::MonitorState& state) {
  wire::put_u32(buf, state.top);
  wire::put_u32(buf, static_cast<std::uint32_t>(state.entries.size()));
  for (const auto& e : state.entries) {
    const std::uint8_t flags = static_cast<std::uint8_t>(
        (e.inc.valid ? 1 : 0) | (e.dec.valid ? 2 : 0));
    wire::put_u8(buf, flags);
    if (e.inc.valid) {
      wire::put_flow(buf, e.inc.flow);
      wire::put_u64(buf, e.inc.seq);
    }
    if (e.dec.valid) {
      wire::put_flow(buf, e.dec.flow);
      wire::put_u64(buf, e.dec.seq);
    }
  }
}

std::size_t monitor_state_bytes(const core::MonitorState& state) {
  std::size_t valid = 0;
  for (const auto& e : state.entries) {
    valid += (e.inc.valid ? 1 : 0) + (e.dec.valid ? 1 : 0);
  }
  return 4 + 4 + state.entries.size() + valid * kStampedFlowBytes;
}

core::MonitorState get_monitor_state(wire::ByteReader& r) {
  core::MonitorState state;
  state.top = r.u32();
  require_ok(r, "monitor top");
  state.entries.resize(checked_count(r, kMinEntryBytes, "monitor entry"));
  for (auto& e : state.entries) {
    const std::uint8_t flags = r.u8();
    if ((flags & ~3u) != 0) bad_flags("monitor entry", flags);
    if (flags & 1) {
      e.inc.valid = true;
      e.inc.flow = wire::get_flow(r);
      e.inc.seq = r.u64();
    }
    if (flags & 2) {
      e.dec.valid = true;
      e.dec.flow = wire::get_flow(r);
      e.dec.seq = r.u64();
    }
  }
  require_ok(r, "monitor entries");
  return state;
}

}  // namespace

const char* to_string(RecordsErrorCode code) {
  switch (code) {
    case RecordsErrorCode::kIoError: return "io-error";
    case RecordsErrorCode::kTruncated: return "truncated";
    case RecordsErrorCode::kBadMagic: return "bad-magic";
    case RecordsErrorCode::kChecksumMismatch: return "checksum-mismatch";
    case RecordsErrorCode::kOversizedField: return "oversized-field";
    case RecordsErrorCode::kTrailingBytes: return "trailing-bytes";
    case RecordsErrorCode::kBadLayout: return "bad-layout";
    case RecordsErrorCode::kBadFlags: return "bad-flags";
  }
  return "unknown";
}

void put_window_snapshot(std::vector<std::uint8_t>& buf,
                         const WindowSnapshot& snap) {
  wire::put_u64(buf, snap.taken_at);
  wire::put_u64(buf, snap.epoch);
  put_window_state(buf, snap.state);
}

void put_monitor_snapshot(std::vector<std::uint8_t>& buf,
                          const MonitorSnapshot& snap) {
  wire::put_u64(buf, snap.taken_at);
  wire::put_u64(buf, snap.epoch);
  put_monitor_state(buf, snap.state);
}

std::size_t window_snapshot_bytes(const WindowSnapshot& snap) {
  return kSnapshotHeaderBytes + window_state_bytes(snap.state);
}

std::size_t monitor_snapshot_bytes(const MonitorSnapshot& snap) {
  return kSnapshotHeaderBytes + monitor_state_bytes(snap.state);
}

WindowSnapshot get_window_snapshot(wire::ByteReader& r) {
  WindowSnapshot snap;
  snap.taken_at = r.u64();
  snap.epoch = r.u64();
  require_ok(r, "window snapshot header");
  snap.state = get_window_state(r);
  return snap;
}

MonitorSnapshot get_monitor_snapshot(wire::ByteReader& r) {
  MonitorSnapshot snap;
  snap.taken_at = r.u64();
  snap.epoch = r.u64();
  require_ok(r, "monitor snapshot header");
  snap.state = get_monitor_state(r);
  return snap;
}

void put_register_layout(std::vector<std::uint8_t>& buf,
                         const core::TimeWindowParams& params,
                         std::uint32_t monitor_levels) {
  wire::put_u32(buf, params.m0);
  wire::put_u32(buf, params.alpha);
  wire::put_u32(buf, params.k);
  wire::put_u32(buf, params.num_windows);
  wire::put_u32(buf, params.num_ports);
  wire::put_u8(buf, params.wrap32 ? 1 : 0);
  wire::put_u32(buf, monitor_levels);
}

bool get_register_layout(wire::ByteReader& r, core::TimeWindowParams& params,
                         std::uint32_t& monitor_levels) {
  params.m0 = r.u32();
  params.alpha = r.u32();
  params.k = r.u32();
  params.num_windows = r.u32();
  params.num_ports = r.u32();
  params.wrap32 = r.u8() != 0;
  monitor_levels = r.u32();
  return r.ok() && params.range_error() == nullptr;
}

void put_calibration(std::vector<std::uint8_t>& buf,
                     const CalibrationRecord& cal) {
  wire::put_u64(buf, cal.taken_at);
  put_register_layout(buf, cal.window_params, cal.monitor_levels);
  wire::put_f64(buf, cal.z0);
}

std::size_t calibration_bytes(const CalibrationRecord&) {
  return 8 + kLayoutBytes + 8;
}

bool get_calibration(wire::ByteReader& r, CalibrationRecord& cal) {
  cal.taken_at = r.u64();
  const bool layout_ok =
      get_register_layout(r, cal.window_params, cal.monitor_levels);
  cal.z0 = wire::get_f64(r);
  return layout_ok && r.ok();
}

void put_dq_capture(std::vector<std::uint8_t>& buf, const DqCapture& cap) {
  const auto& n = cap.notification;
  wire::put_u32(buf, n.port_prefix);
  wire::put_flow(buf, n.victim_flow);
  wire::put_u64(buf, n.enq_timestamp);
  wire::put_u64(buf, n.deq_timestamp);
  wire::put_u32(buf, n.enq_qdepth);
  wire::put_u32(buf, n.window_bank);
  wire::put_u32(buf, n.monitor_bank);
  // Each frozen bank in snapshot form: taken_at = capture time, epoch 0 (a
  // capture freezes the banks, there is no rotation race).
  wire::put_u64(buf, n.deq_timestamp);
  wire::put_u64(buf, 0);
  put_window_state(buf, cap.windows);
  wire::put_u64(buf, n.deq_timestamp);
  wire::put_u64(buf, 0);
  put_monitor_state(buf, cap.monitor);
}

std::size_t dq_capture_bytes(const DqCapture& cap) {
  return 4 + kFlowBytes + 8 + 8 + 4 + 4 + 4 + kSnapshotHeaderBytes +
         window_state_bytes(cap.windows) + kSnapshotHeaderBytes +
         monitor_state_bytes(cap.monitor);
}

DqCapture get_dq_capture(wire::ByteReader& r) {
  DqCapture cap;
  auto& n = cap.notification;
  n.port_prefix = r.u32();
  n.victim_flow = wire::get_flow(r);
  n.enq_timestamp = r.u64();
  n.deq_timestamp = r.u64();
  n.enq_qdepth = r.u32();
  n.window_bank = r.u32();
  n.monitor_bank = r.u32();
  cap.windows = get_window_snapshot(r).state;
  cap.monitor = get_monitor_snapshot(r).state;
  return cap;
}

RegisterRecords collect_records(const core::PrintQueuePipeline& pipeline,
                                const AnalysisProgram& analysis) {
  RegisterRecords out;
  out.window_params = pipeline.windows().params();
  out.monitor_levels = pipeline.monitor().params().levels();
  const std::uint32_t wports = pipeline.windows().port_partitions();
  const std::uint32_t mports = pipeline.monitor().port_partitions();
  for (std::uint32_t p = 0; p < wports; ++p) {
    out.window_snapshots.push_back(analysis.window_snapshots(p));
  }
  for (std::uint32_t p = 0; p < mports; ++p) {
    out.monitor_snapshots.push_back(analysis.monitor_snapshots(p));
  }
  const auto coeffs = analysis.coefficients(0);
  out.z0 = coeffs.z(0);
  return out;
}

void write_records(std::ostream& out, const RegisterRecords& records) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, kRecordsMagic);
  put_register_layout(buf, records.window_params, records.monitor_levels);
  wire::put_f64(buf, records.z0);

  wire::put_u32(buf, static_cast<std::uint32_t>(
                         records.window_snapshots.size()));
  for (const auto& per_port : records.window_snapshots) {
    wire::put_u32(buf, static_cast<std::uint32_t>(per_port.size()));
    for (const auto& snap : per_port) {
      put_window_snapshot(buf, snap);
    }
  }
  wire::put_u32(buf, static_cast<std::uint32_t>(
                         records.monitor_snapshots.size()));
  for (const auto& per_port : records.monitor_snapshots) {
    wire::put_u32(buf, static_cast<std::uint32_t>(per_port.size()));
    for (const auto& snap : per_port) {
      put_monitor_snapshot(buf, snap);
    }
  }
  wire::put_u64(buf, fnv1a(buf.data(), buf.size()));
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) {
    throw RecordsError(RecordsErrorCode::kIoError,
                       "register records write failed");
  }
}

RegisterRecords read_records(std::istream& in) {
  std::vector<std::uint8_t> buf(std::istreambuf_iterator<char>(in), {});
  if (buf.size() < 12) {
    throw RecordsError(RecordsErrorCode::kTruncated, "records truncated");
  }
  {
    wire::ByteReader tail(
        std::span<const std::uint8_t>(buf).subspan(buf.size() - 8));
    if (fnv1a(buf.data(), buf.size() - 8) != tail.u64()) {
      throw RecordsError(RecordsErrorCode::kChecksumMismatch,
                         "records checksum mismatch");
    }
  }
  wire::ByteReader r(std::span<const std::uint8_t>(buf.data(),
                                                   buf.size() - 8));
  if (r.u32() != kRecordsMagic) {
    throw RecordsError(RecordsErrorCode::kBadMagic, "bad records magic");
  }
  RegisterRecords out;
  const bool layout_ok =
      get_register_layout(r, out.window_params, out.monitor_levels);
  out.z0 = wire::get_f64(r);
  require_ok(r, "records header");
  if (!layout_ok) {
    throw RecordsError(RecordsErrorCode::kBadLayout,
                       std::string("records carry an unusable layout: ") +
                           out.window_params.range_error());
  }

  out.window_snapshots.resize(
      checked_count(r, kMinPortListBytes, "window port"));
  for (auto& per_port : out.window_snapshots) {
    per_port.resize(checked_count(r, kMinSnapshotBytes, "window snapshot"));
    for (auto& snap : per_port) {
      snap = get_window_snapshot(r);
    }
  }
  out.monitor_snapshots.resize(
      checked_count(r, kMinPortListBytes, "monitor port"));
  for (auto& per_port : out.monitor_snapshots) {
    per_port.resize(checked_count(r, kMinSnapshotBytes, "monitor snapshot"));
    for (auto& snap : per_port) {
      snap = get_monitor_snapshot(r);
    }
  }
  require_ok(r, "records body");
  if (r.remaining() != 0) {
    throw RecordsError(RecordsErrorCode::kTrailingBytes,
                       "records carry " + std::to_string(r.remaining()) +
                           " unconsumed bytes before the checksum");
  }
  return out;
}

void write_records_file(const std::string& path,
                        const RegisterRecords& records) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw RecordsError(RecordsErrorCode::kIoError, "cannot open " + path);
  }
  write_records(out, records);
}

RegisterRecords read_records_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw RecordsError(RecordsErrorCode::kIoError, "cannot open " + path);
  }
  return read_records(in);
}

IntervalAnswer offline_query_time_windows(const RegisterRecords& records,
                                          std::uint32_t port_prefix,
                                          Timestamp t1, Timestamp t2) {
  const auto& p = records.window_params;
  return walk_checkpoints(
      records.window_snapshots.at(port_prefix), core::TtsLayout(p),
      core::CoefficientTable::compute(records.z0, p.alpha, p.num_windows),
      /*salvage_stale_cells=*/false, t1, t2);
}

std::vector<core::OriginalCulprit> offline_query_queue_monitor(
    const RegisterRecords& records, std::uint32_t port_prefix, Timestamp t) {
  const auto& snaps = records.monitor_snapshots.at(port_prefix);
  const auto pick =
      nearest_snapshot(SnapshotSpan<MonitorSnapshot>{snaps}, t);
  if (!pick.has_value()) return {};
  return core::original_culprits(snaps[*pick].state);
}

}  // namespace pq::control
