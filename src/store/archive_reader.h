// Recovery scan and retroactive query engine over a pq::store archive.
//
// The reader trusts nothing but the CRCs: on open it reads each port's
// chain through the segment-chain walk (segment_chain.h, the rule it shares
// with the writer's resume repair), keeps exactly the longest valid prefix of
// each port's stream and truncates everything after the first torn or
// corrupt byte (the footer, when present and consistent with the scan,
// only confirms a clean close — it is never used to skip verification). v2
// segment payloads are decoded back to their logical (v1) bytes during the
// walk, so RecoveredBlock::payload — and everything downstream of it:
// logical_content(), the pq_query `blocks` listing, the pq_offline
// byte-match contract — is independent of the on-disk format. The walk
// parses every window, monitor and calibration payload it keeps, so
// to_records() never meets one that does not parse; DQ captures are parsed
// only by dq_captures(). A CRC-valid block that fails to decode surfaces as
// a typed per-port error and ends that port's prefix, exactly like
// physical damage.
//
// Ports can be scanned in parallel (ReaderOptions::threads): each worker
// owns whole port chains and the results are merged in ascending port
// order, so the outcome is byte-identical to the sequential scan. Queries
// then run through the same offline execution path as a one-shot records
// bundle (control/register_records.h); `--as-of` seeks use the sparse time
// index (O(log n) probes + one stride of per-block checks) unless
// ReaderOptions::use_seek_index forces the linear path — both paths select
// exactly the blocks with t_hi <= as_of.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "control/register_records.h"
#include "obs/metrics.h"
#include "store/archive_format.h"
#include "store/segment_chain.h"

namespace pq::store {

/// Per-segment detail surfaced by `pq_query info`.
struct SegmentInfo {
  std::uint32_t index = 0;
  std::uint16_t version = kFormatVersionV1;
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;  ///< valid bytes kept (header + surviving frames)
  bool footer_ok = false;
  std::uint64_t index_samples = 0;  ///< sparse time-index samples
  std::uint64_t t_lo_min = 0;
  std::uint64_t t_hi_max = 0;
};

/// Typed decode failure: which block of which segment ended the port's
/// prefix, and why. Identical whatever the recovery worker count.
struct DecodeErrorInfo {
  BlockDecodeStatus status = BlockDecodeStatus::kOk;
  std::uint32_t segment_index = 0;
  std::uint64_t block_ordinal = 0;  ///< index into RecoveredPort::blocks
};

/// One port's surviving stream: the first segment's header (the register
/// layout of last resort) plus every recovered block. With retention the
/// chain may start above segment index 0; `header.segment_index` and
/// `last_index` bound the surviving on-disk chain.
struct RecoveredPort {
  SegmentHeader header;
  std::uint32_t last_index = 0;  ///< newest successfully scanned segment
  std::vector<RecoveredBlock> blocks;
  std::vector<SegmentInfo> segments;
  DecodeErrorInfo decode_error;
  /// Partition counts over ALL recovered blocks (as_of-independent, so
  /// to_records never needs the full-stream pass the seek index bypasses).
  std::uint32_t window_parts = 1;
  std::uint32_t monitor_parts = 1;
  /// Port-wide sparse time index over `blocks` (archive_format.h).
  std::vector<TimeIndexSample> seek_index;
};

struct ReaderOptions {
  /// Worker threads for the recovery scan; each worker scans whole port
  /// chains. 0 or 1 = sequential. The result is byte-identical either way.
  unsigned threads = 1;
  /// When false, `--as-of` queries linearly test every block instead of
  /// cutting with the sparse time index (the differential-test oracle).
  bool use_seek_index = true;
  /// Sampling stride for the in-memory per-port index (0 = default).
  std::uint32_t seek_index_stride = kSeekIndexStride;
};

/// Seek-path counters (per reader, across queries).
struct SeekStats {
  std::uint64_t seeks = 0;            ///< indexed as-of cuts performed
  std::uint64_t probes = 0;           ///< binary-search sample comparisons
  std::uint64_t blocks_bypassed = 0;  ///< blocks never tested per-block
};

class ArchiveReader {
 public:
  /// Opens `dir` and recovers every port. Never throws on torn or corrupt
  /// data — damage only shrinks the recovered prefix and is counted in
  /// stats(). Throws std::runtime_error only if `dir` is not a directory.
  explicit ArchiveReader(const std::string& dir);
  ArchiveReader(const std::string& dir, ReaderOptions opts);

  /// Recovered ports in ascending order.
  std::vector<std::uint32_t> ports() const;
  bool has_port(std::uint32_t port) const {
    return ports_.find(port) != ports_.end();
  }
  const std::map<std::uint32_t, RecoveredPort>& recovered() const {
    return ports_;
  }

  /// Rebuilds a RegisterRecords bundle from the port's surviving blocks:
  /// snapshots in append order, layout and z0 from the newest recovered
  /// calibration (falling back to the segment header and z0 = 1.0 — the
  /// torn tail can cost calibration freshness, never correctness).
  /// `as_of` restricts the bundle to blocks with t_hi <= as_of: "answer as
  /// the archive stood at time T". Because later calibrations rescale
  /// earlier spans (newest-wins, matching the live program), bounding BOTH
  /// of two archives to a common horizon is what makes their answers
  /// comparable — the kill-and-recover proof relies on this.
  control::RegisterRecords to_records(
      std::uint32_t port,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const;

  /// The retroactive queries, same semantics (and bytes) as pq_offline
  /// against the reconstructed records. `partition` is the shard-local
  /// window/monitor partition (0 unless multi-queue).
  core::FlowCounts query_time_windows(
      std::uint32_t port, Timestamp t1, Timestamp t2,
      std::uint32_t partition = 0,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const;
  std::vector<core::OriginalCulprit> query_queue_monitor(
      std::uint32_t port, Timestamp t, std::uint32_t partition = 0,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const;

  /// Recovered data-plane captures for a port, in firing order. Throws
  /// control::RecordsError on a capture whose payload does not parse.
  std::vector<control::DqCapture> dq_captures(std::uint32_t port) const;

  /// Canonical byte encoding of everything recovered (ports ascending,
  /// blocks in append order, logical payload bytes). This is the archive's
  /// determinism surface: byte-identical across thread counts, batch
  /// sizes, segment sizes, on-disk format versions and recovery worker
  /// counts.
  std::vector<std::uint8_t> logical_content() const;

  const ReaderStats& stats() const { return stats_; }
  /// Query-side counters. The reader is not thread-safe for concurrent
  /// queries (counters are plain; recovered data itself is immutable).
  const SeekStats& seek_stats() const { return seek_stats_; }

 private:
  /// Computes [bulk_end, stop): blocks [0, bulk_end) are all <= as_of,
  /// blocks [stop, n) are all > as_of, the middle needs per-block checks.
  void seek_cut(const RecoveredPort& rec, Timestamp as_of,
                std::size_t& bulk_end, std::size_t& stop) const;

  ReaderOptions opts_;
  std::map<std::uint32_t, RecoveredPort> ports_;
  ReaderStats stats_;
  mutable SeekStats seek_stats_;
};

/// Flattens reader counters into a registry (pq_store_reader_* namespace).
void export_reader_metrics(obs::MetricsRegistry& reg, const ReaderStats& s);

}  // namespace pq::store
