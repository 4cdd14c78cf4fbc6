// Delta + varint payload codec for v2 archive segments.
//
// A v2 block frame is identical to v1 on the outside (same CRC-framed
// overhead, archive_format.h) but its payload starts with one encoding tag
// byte:
//
//   [kEncodingRaw]   the v1 logical payload verbatim
//   [kEncodingDelta] a row-delta against the previous block of the same
//                    (kind, partition) *within the same segment*
//
// A delta body stores the snapshot header fields as zig-zag varint
// differences, then walks the cell/entry rows of both snapshots in
// lockstep: runs of unchanged rows collapse into one varint skip count,
// changed rows re-encode as zig-zag varint field deltas against the row at
// the same position in the previous snapshot (zero baseline when the
// previous row was empty). Register snapshots are near-identical from poll
// to poll, so the common block shrinks to a few bytes per changed cell.
//
// Delta bases reset at every segment boundary (the first block of each
// (kind, partition) in a segment is written raw), which keeps segments
// self-contained: retention can drop old segments and the compactor can
// rewrite one segment in isolation without ever stranding a delta chain.
// Structure changes (a calibration resizing the register file) and
// dq-captures fall back to raw — the encoder refuses, it never guesses.
//
// Both directions are total functions over untrusted bytes: the decoder
// bounds-checks every varint and count and returns false on any
// malformation, so a CRC-valid but undecodable block surfaces as a typed
// recovery error instead of garbage snapshots.
//
// SegmentPayloadCodec is the one place that applies the tag and base rules;
// ArchiveWriter and the compactor encode through it and the segment-chain
// walk (segment_chain.h) decodes through it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "store/archive_format.h"

namespace pq::store {

/// First payload byte of every block in a v2 segment.
inline constexpr std::uint8_t kEncodingRaw = 0;
inline constexpr std::uint8_t kEncodingDelta = 1;

/// The v2 payload coder of one segment, in both directions. It keeps one
/// delta base per (kind, partition): the previous logical payload of that
/// kind and partition in the segment. A block is written as a delta against
/// its base only when the delta is smaller than the raw payload; a DQ
/// capture never becomes a base; reset() at every segment boundary forgets
/// every base, so each segment decodes on its own.
class SegmentPayloadCodec {
 public:
  /// Sets `out` to the v2 payload of the logical payload `logical` and
  /// returns true if it is a delta. Leaves the bases alone: the caller
  /// commits the block with advance() once it knows the block is written
  /// in this segment.
  bool encode(BlockKind kind, std::uint32_t partition,
              std::span<const std::uint8_t> logical,
              std::vector<std::uint8_t>& out) const;

  /// Makes `logical` the base of its (kind, partition) for the next block.
  void advance(BlockKind kind, std::uint32_t partition,
               std::span<const std::uint8_t> logical);

  /// Sets `logical` to the logical payload of the v2 `payload` and, on
  /// success, advances the base. On failure `logical` is unspecified.
  BlockDecodeStatus decode(BlockKind kind, std::uint32_t partition,
                           std::span<const std::uint8_t> payload,
                           std::vector<std::uint8_t>& logical);

  /// Starts a new segment.
  void reset() { bases_.clear(); }

 private:
  std::map<std::pair<std::uint8_t, std::uint32_t>, std::vector<std::uint8_t>>
      bases_;
};

}  // namespace pq::store
