// Delta + varint payload codec for v2 archive segments.
//
// A v2 block frame is identical to v1 on the outside (same CRC-framed
// overhead, archive_format.h) but its payload starts with one encoding tag
// byte:
//
//   [kEncodingRaw]   the v1 logical payload verbatim
//   [kEncodingDelta] a row-delta against the previous record of the same
//                    (kind, partition) *within the same segment*
//
// A delta body stores the record's header fields as zig-zag varint
// differences, then walks the cell/entry rows of both records in lockstep:
// runs of unchanged rows collapse into one varint skip count, changed rows
// re-encode as zig-zag varint field deltas against the row at the same
// position in the previous record (zero baseline when the previous row was
// empty). Register snapshots are near-identical from poll to poll, so the
// common block shrinks to a few bytes per changed cell.
//
// The codec works on the records themselves (control/snapshots.h,
// control/telemetry_sink.h), never on their bytes: the encoder diffs the
// record the writer holds against the previous one, weighs the delta
// against the record's logical size (control/register_records' *_bytes)
// and serializes the record with its put_* only when it stores it raw; the
// decoder applies a delta in place to the previous decoded record and
// serializes the result with the same put_*. A raw payload is parsed with its
// get_*, completely and strictly, so control/register_records stays the one
// reader and writer of the record layout.
//
// Delta bases reset at every segment boundary (the first block of each
// (kind, partition) in a segment is written raw), which keeps segments
// self-contained: retention can drop old segments, and resume can seal a
// torn one, without ever stranding a delta chain.
// Structure changes (a calibration resizing the register file) and
// dq-captures fall back to raw — the encoder refuses, it never guesses.
//
// The decoder is a total function over untrusted bytes: it bounds-checks
// every varint and count and reports any malformation, so a CRC-valid but
// undecodable block surfaces as a typed recovery error instead of garbage
// snapshots.
//
// SegmentPayloadCodec is the one place that applies the tag and base rules;
// ArchiveWriter encodes through it and the segment-chain walk
// (segment_chain.h) decodes through it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "control/snapshots.h"
#include "control/telemetry_sink.h"
#include "store/archive_format.h"

namespace pq::store {

/// First payload byte of every block in a v2 segment.
inline constexpr std::uint8_t kEncodingRaw = 0;
inline constexpr std::uint8_t kEncodingDelta = 1;

/// The v2 payload coder of one segment, in both directions. It keeps one
/// delta base per (kind, partition): the previous record of that kind and
/// partition in the segment. A block is written as a delta against its base
/// only when the delta is smaller than the raw payload; a DQ capture never
/// becomes a base; reset() at every segment boundary forgets every base, so
/// each segment decodes on its own.
class SegmentPayloadCodec {
 public:
  /// Sets `out` to the v2 payload of `rec`, a WindowSnapshot,
  /// MonitorSnapshot, CalibrationRecord or DqCapture whose logical payload
  /// (its control/register_records encoding) is `logical_size` bytes long,
  /// and returns true if it is a delta. Only a raw payload serializes the
  /// record, straight into `out`. Leaves the bases alone: the caller
  /// commits the record with advance() once it knows the block is written
  /// in this segment.
  template <class Record>
  bool encode(std::uint32_t partition, const Record& rec,
              std::size_t logical_size, std::vector<std::uint8_t>& out) const;

  /// Makes `rec` the base of its kind and partition for the next block.
  template <class Record>
  void advance(std::uint32_t partition, const Record& rec);

  /// Sets `logical` to the logical payload of `payload`, one block of a
  /// segment in format `version` (a v1 payload is a raw body without the
  /// tag), and on success advances the base. On failure `logical` and the
  /// bases are unspecified: the segment's chain ends at this block.
  BlockDecodeStatus decode(std::uint16_t version, BlockKind kind,
                           std::uint32_t partition,
                           std::span<const std::uint8_t> payload,
                           std::vector<std::uint8_t>& logical);

  /// Starts a new segment.
  void reset() { bases_ = {}; }

 private:
  template <class Record>
  using Bases = std::map<std::uint32_t, Record>;

  std::tuple<Bases<control::WindowSnapshot>, Bases<control::MonitorSnapshot>,
             Bases<control::CalibrationRecord>>
      bases_;
};

}  // namespace pq::store
