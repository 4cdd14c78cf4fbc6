// On-disk persistence for checkpointed register state — the paper
// artifact's "register records". The analysis program's snapshots (time
// windows and queue monitor, per port, with timestamps) serialize to a
// single binary blob with a trailing checksum, so collection and analysis
// can run as separate processes (or machines).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "control/analysis_program.h"
#include "control/snapshots.h"
#include "control/telemetry_sink.h"
#include "wire/bytes.h"

namespace pq::control {

inline constexpr std::uint32_t kRecordsMagic = 0x50515252;  // "PQRR"

/// What went wrong while decoding a records bundle (or an archived snapshot
/// block). Every read-path failure maps to exactly one code, so callers can
/// distinguish "file cut short" from "file lies about its own sizes" without
/// string-matching what().
enum class RecordsErrorCode : std::uint8_t {
  kIoError,           ///< the stream/file could not be read or written
  kTruncated,         ///< ran out of bytes mid-field
  kBadMagic,          ///< leading magic mismatch
  kChecksumMismatch,  ///< trailing checksum does not cover the payload
  kOversizedField,    ///< a count/length field exceeds the remaining bytes
  kTrailingBytes,     ///< well-formed payload followed by unconsumed bytes
  kBadLayout,         ///< layout parameters core::TtsLayout rejects
  kBadFlags,          ///< a flag byte holds bits the format does not define
};

const char* to_string(RecordsErrorCode code);

/// Typed decode/encode error. Derives from std::runtime_error so existing
/// catch sites keep working; new callers can switch on code().
class RecordsError : public std::runtime_error {
 public:
  RecordsError(RecordsErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  RecordsErrorCode code() const { return code_; }

 private:
  RecordsErrorCode code_;
};

// --- Record codec ---------------------------------------------------------
// The byte encoding of every checkpointed record, shared between the
// one-shot records bundle below and pq::store's segmented archive (segment
// headers and block payloads); the store frames and indexes these bytes
// but never encodes a record field itself, so the same record serializes
// identically everywhere — the basis of the cross-tool byte-match
// contracts. Snapshot decoders bounds-check every count against the
// reader's remaining bytes and throw RecordsError (kOversizedField /
// kTruncated / kBadFlags) on malformed input — never allocate from an
// unvalidated length, never return silent garbage — so every snapshot they
// accept re-encodes to exactly the bytes it was read from.
//
// Each *_bytes function returns exactly how many bytes its put_* appends,
// without writing them: the archive writer counts a record's logical size
// this way and serializes only the records it stores raw.

void put_window_snapshot(std::vector<std::uint8_t>& buf,
                         const WindowSnapshot& snap);
void put_monitor_snapshot(std::vector<std::uint8_t>& buf,
                          const MonitorSnapshot& snap);
std::size_t window_snapshot_bytes(const WindowSnapshot& snap);
std::size_t monitor_snapshot_bytes(const MonitorSnapshot& snap);
WindowSnapshot get_window_snapshot(wire::ByteReader& r);
MonitorSnapshot get_monitor_snapshot(wire::ByteReader& r);

/// The register layout (TimeWindowParams + monitor levels, 25 bytes). The
/// getter returns false when the bytes run out or core::TtsLayout would
/// reject the parameters, so every reader (.pqr header, segment header,
/// calibration block) refuses a bad layout where it enters the program.
void put_register_layout(std::vector<std::uint8_t>& buf,
                         const core::TimeWindowParams& params,
                         std::uint32_t monitor_levels);
bool get_register_layout(wire::ByteReader& r, core::TimeWindowParams& params,
                         std::uint32_t& monitor_levels);

/// A per-poll calibration: taken_at, layout, z0 bits. The getter returns
/// false on a short payload or a layout get_register_layout refuses.
void put_calibration(std::vector<std::uint8_t>& buf,
                     const CalibrationRecord& cal);
std::size_t calibration_bytes(const CalibrationRecord& cal);
bool get_calibration(wire::ByteReader& r, CalibrationRecord& cal);

/// A data-plane-query capture: the notification, then both frozen banks in
/// snapshot form (taken_at = the capture's dequeue time, epoch 0).
void put_dq_capture(std::vector<std::uint8_t>& buf, const DqCapture& cap);
std::size_t dq_capture_bytes(const DqCapture& cap);
DqCapture get_dq_capture(wire::ByteReader& r);

/// Everything needed to answer queries offline: the layout parameters and
/// the per-port snapshot sequences.
struct RegisterRecords {
  core::TimeWindowParams window_params;
  std::uint32_t monitor_levels = 0;
  std::vector<std::vector<WindowSnapshot>> window_snapshots;    // [port]
  std::vector<std::vector<MonitorSnapshot>> monitor_snapshots;  // [port]
  double z0 = 1.0;  ///< calibration captured at save time
};

/// Collects the current state of an analysis program into a RegisterRecords
/// bundle (copies; the program keeps running).
RegisterRecords collect_records(const core::PrintQueuePipeline& pipeline,
                                const AnalysisProgram& analysis);

/// Serialization. Throws RecordsError (a std::runtime_error) on I/O
/// failure, truncation, oversized counts, magic or checksum mismatch, or an
/// unusable layout.
void write_records(std::ostream& out, const RegisterRecords& records);
RegisterRecords read_records(std::istream& in);
void write_records_file(const std::string& path,
                        const RegisterRecords& records);
RegisterRecords read_records_file(const std::string& path);

/// Offline query execution against a loaded bundle: the analysis program's
/// own checkpoint walk and nearest-snapshot pick, over the bundle's
/// snapshots and calibration, without a live pipeline (stale-cell salvage
/// off). The time-window answer carries the walk's coverage.
IntervalAnswer offline_query_time_windows(const RegisterRecords& records,
                                          std::uint32_t port_prefix,
                                          Timestamp t1, Timestamp t2);
std::vector<core::OriginalCulprit> offline_query_queue_monitor(
    const RegisterRecords& records, std::uint32_t port_prefix, Timestamp t);

}  // namespace pq::control
