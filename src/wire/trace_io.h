// Binary trace file format for TelemetryRecord vectors: a fixed magic, a
// record count, the records, and an FNV-1a trailer checksum. The analog of
// the paper artifact's on-disk telemetry logs.
//
// Alongside the one-shot trace format (count upfront, trailer checksum —
// not appendable) this header defines the *stream* framing pq_serve tails:
// a self-delimiting frame per record, so a producer can append forever and
// a consumer can decode from any byte position. Decoding distinguishes
// kIncomplete (a consistent prefix — the producer is mid-append, retry once
// more bytes land) from kCorrupt (the bytes can never become a valid frame
// — skip `consumed` bytes to the next plausible frame start).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "wire/telemetry.h"

namespace pq::wire {

inline constexpr std::uint32_t kTraceMagic = 0x50515452;  // "PQTR"

// ---------------------------------------------------------------------------
// Stream framing (the pq_serve feed format)
// ---------------------------------------------------------------------------

inline constexpr std::uint32_t kFrameMagic = 0x50514652;  // "PQFR"

/// Encoded size of one TelemetryRecord (the frame payload).
inline constexpr std::size_t kRecordPayloadBytes = 49;

/// Full frame: magic u32 | payload_len u32 | payload | crc32 u32 (the CRC
/// covers magic through payload, so a frame is verifiable in isolation).
inline constexpr std::size_t kRecordFrameBytes = 4 + 4 + kRecordPayloadBytes + 4;

enum class FrameStatus : std::uint8_t {
  kOk = 0,          ///< `record` is valid; advance by `consumed`.
  kIncomplete = 1,  ///< consistent prefix of a frame; retry with more bytes.
  kCorrupt = 2,     ///< unfixable bytes; skip `consumed` to resync.
};

struct FrameDecode {
  FrameStatus status = FrameStatus::kIncomplete;
  TelemetryRecord record{};
  /// Bytes to consume from the front of the buffer. kOk: the whole frame.
  /// kCorrupt: the garbage span up to the next plausible magic (≥ 1).
  /// kIncomplete: always 0 — keep the bytes and wait.
  std::size_t consumed = 0;
};

/// Appends one length-framed, CRC-protected record to `buf`.
void append_record_frame(std::vector<std::uint8_t>& buf,
                         const TelemetryRecord& rec);

/// Decodes the frame at the front of `buf`. Never throws, never reads past
/// the span; a payload length other than kRecordPayloadBytes is rejected as
/// kCorrupt *before* any allocation, so oversized length prefixes cannot
/// drive memory growth.
FrameDecode decode_record_frame(std::span<const std::uint8_t> buf);

/// Frames every record into a file (the pq_serve feed input format).
void write_stream_file(const std::string& path,
                       const std::vector<TelemetryRecord>& recs);

/// Serializes records to a stream. Throws std::runtime_error on I/O failure.
void write_trace(std::ostream& out, const std::vector<TelemetryRecord>& recs);

/// Deserializes a trace. Throws std::runtime_error on truncation, magic
/// mismatch, or checksum mismatch.
std::vector<TelemetryRecord> read_trace(std::istream& in);

/// File-path conveniences.
void write_trace_file(const std::string& path,
                      const std::vector<TelemetryRecord>& recs);
std::vector<TelemetryRecord> read_trace_file(const std::string& path);

}  // namespace pq::wire
