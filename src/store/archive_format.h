// On-disk format of the pq::store telemetry archive.
//
// An archive directory holds one subdirectory per port (`port-<P>/`), each
// a sequence of fixed-capacity segment files (`seg-000000.pqs`, ...). A
// segment is:
//
//   [header]  magic, version, port, segment index, register layout, crc32
//   [blocks]  append-only CRC32-framed telemetry blocks
//   [footer]  block index keyed by (kind, partition, time range), crc32 —
//             written only on clean close; its absence marks a crash
//
// Every block frame is independently verifiable: a reader that scans frames
// sequentially and stops at the first CRC mismatch recovers exactly the
// longest valid prefix the writer persisted before a crash. Block payloads
// and the header's register layout come from the control-plane record
// codec (control/register_records.h), so an archived snapshot is
// byte-identical to the same snapshot in a one-shot records bundle — the
// basis of the pq_query / pq_offline byte-match contract. All integers are
// big-endian (wire/bytes.h).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/tts_layout.h"

namespace pq::store {

inline constexpr std::uint32_t kSegmentMagic = 0x50515341;  // "PQSA"
inline constexpr std::uint32_t kBlockMagic = 0x50514231;    // "PQB1"
inline constexpr std::uint32_t kFooterMagic = 0x50514654;   // "PQFT"
inline constexpr std::uint32_t kEndMagic = 0x50514531;      // "PQE1"
/// v1: payloads are the logical snapshot bytes verbatim. v2: payloads carry
/// an encoding tag + delta/varint compression (block_codec_v2.h) and the
/// footer grows a sparse time index. Only v2 is written; v1 is frozen and
/// read only, and no program rewrites a finished segment, so a v1 segment
/// stays v1 on disk. Readers dispatch per segment, so the mixed chain a
/// resumed writer makes of a v1 archive (a v1 head continued in v2) reads
/// seamlessly.
inline constexpr std::uint16_t kFormatVersionV1 = 1;
inline constexpr std::uint16_t kFormatVersionV2 = 2;
/// Sampling stride of the v2 footer's sparse time index (one sample every
/// N blocks): a format the writer emits and the reader cross-checks.
/// Queries plan over the reader's checkpoint index instead
/// (archive_reader.h).
inline constexpr std::uint32_t kSeekIndexStride = 32;

/// What one block carries. Values are stable on-disk identifiers.
enum class BlockKind : std::uint8_t {
  kWindowSnapshot = 1,   ///< one verified periodic window checkpoint
  kMonitorSnapshot = 2,  ///< one verified periodic monitor checkpoint
  kDqCapture = 3,        ///< one data-plane-query capture (frozen banks)
  kCalibration = 4,      ///< per-poll layout + z0 calibration record
};

const char* to_string(BlockKind kind);
bool is_valid(BlockKind kind);

/// Fixed bytes around a block payload: magic u32, kind u8, partition u32,
/// t_lo u64, t_hi u64, payload_len u32, payload, crc32 u32 (over everything
/// from the magic through the payload).
inline constexpr std::size_t kBlockOverheadBytes = 4 + 1 + 4 + 8 + 8 + 4 + 4;

/// One block's index entry, as written into the segment footer.
struct IndexEntry {
  BlockKind kind = BlockKind::kWindowSnapshot;
  std::uint32_t partition = 0;
  /// Time span the block's data covers: [t_lo, t_hi]. Window checkpoints
  /// cover (taken_at - t_set, taken_at]; point records use t_lo == t_hi.
  std::uint64_t t_lo = 0;
  std::uint64_t t_hi = 0;
  std::uint64_t offset = 0;  ///< file offset of the frame's first byte
  std::uint32_t length = 0;  ///< full frame length including overhead
};

struct SegmentHeader {
  std::uint32_t port = 0;
  std::uint32_t segment_index = 0;
  core::TimeWindowParams window_params;
  std::uint32_t monitor_levels = 0;
  std::uint16_t version = kFormatVersionV1;
};

/// One sample of the sparse time index: at block ordinal `ordinal` (within
/// the indexed span, in append order), the running max of t_hi over
/// [0, ordinal] and the running min of t_hi over [ordinal, n). Both are
/// monotone across samples, so a reader can binary-search them to
/// bulk-include the prefix that is entirely <= T and bulk-exclude the
/// suffix that is entirely > T, without assuming t_hi itself is sorted.
struct TimeIndexSample {
  std::uint64_t ordinal = 0;
  std::uint64_t prefix_max_t_hi = 0;
  std::uint64_t suffix_min_t_hi = 0;
};

/// Builds the sparse index over `entries` (samples at ordinals 0, stride,
/// 2*stride, ...). Deterministic; shared by the writer's footer and the
/// reader's footer cross-check.
std::vector<TimeIndexSample> build_time_index(
    const std::vector<IndexEntry>& entries, std::uint32_t stride);

/// Why a CRC-valid block failed to decode back to its logical payload.
/// Reported per port by the reader; identical across recovery worker
/// counts (the parallel-recovery determinism contract).
enum class BlockDecodeStatus : std::uint8_t {
  kOk = 0,
  kBadEncodingTag,   ///< first payload byte is neither raw nor delta
  kMissingDeltaBase, ///< delta block with no prior same-(kind,partition) block
  kCorruptDelta,     ///< delta body malformed (truncated varint, bad counts)
  /// A raw (or v1) window, monitor or calibration payload that does not
  /// parse completely as one record of its kind.
  kMalformedRecord,
};

const char* to_string(BlockDecodeStatus status);

/// Header/frame/footer codecs shared by ArchiveWriter and ArchiveReader.
void encode_segment_header(std::vector<std::uint8_t>& buf,
                           const SegmentHeader& header);
/// Returns false (leaving `out` unspecified) on bad magic, version, crc or
/// truncation. `consumed` receives the encoded header size on success.
bool decode_segment_header(std::span<const std::uint8_t> data,
                           SegmentHeader& out, std::size_t& consumed);

/// Builds one complete block frame around `payload`.
std::vector<std::uint8_t> encode_block(BlockKind kind, std::uint32_t partition,
                                       std::uint64_t t_lo, std::uint64_t t_hi,
                                       std::span<const std::uint8_t> payload);

/// Segment footer written on clean close: magic, blocks_bytes u64 (bytes of
/// block frames between header and footer), entry count u64, entries,
/// [v2: index stride u32, sample count u64, sparse time index samples],
/// crc32, footer length u32, end magic. The trailing length + end magic make
/// the footer locatable from EOF; readers cross-check it against their own
/// sequential scan.
std::vector<std::uint8_t> encode_footer(std::uint64_t blocks_bytes,
                                        const std::vector<IndexEntry>& index,
                                        std::uint16_t version);

/// How durable each append is. kNone relies on the OS page cache (fastest;
/// crash-consistency of *completed* writes is still guaranteed by the CRC
/// framing, only recently appended blocks can be lost).
enum class FsyncPolicy : std::uint8_t {
  kNone = 0,
  kPerSegment = 1,  ///< fsync when a segment is closed
  kPerBlock = 2,    ///< fsync after every appended block
};

struct ArchiveOptions {
  std::string dir;
  /// Target segment capacity; a segment rolls when the next block would
  /// push it past this (a single oversized block is still written whole).
  std::uint64_t segment_bytes = 1ull << 20;
  FsyncPolicy fsync = FsyncPolicy::kNone;
  /// Keep at most this many segment files per port, deleting the oldest
  /// after every segment close (0 = unlimited). The surviving chain stays
  /// contiguous, it just no longer starts at index 0.
  std::uint32_t retain_segments = 0;
  /// Reopen an existing archive directory. Archive runs the recovery scan
  /// of `dir`, when it is a directory, before it creates any writer; each
  /// writer then applies its port's ChainEnd (segment_chain.h), reading no
  /// segment file: it truncates the file the chain ends on to its valid
  /// prefix and writes the missing footer (a file with no surviving block
  /// is deleted instead), deletes the unreachable later segments, and
  /// continues appending in a fresh segment after the highest surviving
  /// index, so restart never changes what queries can see. A scan that
  /// cannot read the archive throws before any file is touched. A footer
  /// that cannot be written makes the writer's constructor throw, and the
  /// file keeps its valid prefix, which a reader still recovers.
  bool resume = false;
  /// On-disk format of new segments. Only kFormatVersionV2 is accepted;
  /// the writer throws for any other value.
  std::uint16_t format_version = kFormatVersionV2;
};

/// Writer-side counters, summed across per-port writers by Archive::stats.
struct WriterStats {
  std::uint64_t blocks_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t segments_opened = 0;
  std::uint64_t segments_closed = 0;
  std::uint64_t fsyncs = 0;
  std::uint64_t torn_writes = 0;        ///< injected crashes (faults/)
  std::uint64_t segments_retired = 0;   ///< deleted by the retention policy
  std::uint64_t tail_repairs = 0;       ///< torn tails repaired on resume
  /// What the same stream would have occupied uncompressed (v1 frame
  /// bytes). logical_bytes / bytes_appended is the compression ratio
  /// bench/ratio_canary gates as archive_bytes_ratio_x.
  std::uint64_t logical_bytes = 0;
  std::uint64_t blocks_delta = 0;  ///< blocks that delta-compressed
  std::uint64_t blocks_raw = 0;    ///< keyframes + raw fallbacks
};

/// Reader-side counters from the recovery scan.
struct ReaderStats {
  std::uint64_t segments_opened = 0;
  std::uint64_t footer_hits = 0;   ///< segments whose footer checked out
  std::uint64_t recoveries = 0;    ///< segments that needed tail truncation
  std::uint64_t blocks_recovered = 0;
  std::uint64_t bytes_truncated = 0;  ///< torn/corrupt bytes discarded
  /// CRC-valid blocks whose payload failed to decode back to logical
  /// bytes (typed per-port detail in RecoveredPort::decode_error).
  std::uint64_t decode_errors = 0;
};

/// One segment file's trust-nothing CRC scan, as the recovery scan takes
/// it for every file of a chain it opens (segment_chain.h).
struct SegmentScan {
  bool header_ok = false;
  SegmentHeader header;
  std::uint64_t header_bytes = 0;
  /// CRC-valid block frames in append order, offsets into the file.
  std::vector<IndexEntry> entries;
  std::uint64_t blocks_bytes = 0;  ///< bytes of valid frames after the header
  bool footer_ok = false;          ///< clean close confirmed against the scan
};

/// Scans one segment's bytes sequentially, verifying every CRC. Never
/// throws; damage only shortens `entries`. Pass `expected_port` to reject a
/// segment filed under the wrong directory.
SegmentScan scan_segment_bytes(std::span<const std::uint8_t> data,
                               std::uint32_t expected_port);

/// Filesystem layout: the canonical names, the only ones the chain rule
/// (segment_chain.h) accepts.
std::string port_dir(const std::string& archive_dir, std::uint32_t port);
std::string segment_path(const std::string& archive_dir, std::uint32_t port,
                         std::uint32_t segment_index);

}  // namespace pq::store
