// Recovery scan and retroactive query engine over a pq::store archive.
//
// The reader trusts nothing but the CRCs: on open it walks each port's
// chain once (segment_chain.h; no other code reads segment files), keeps
// exactly the longest valid prefix of each port's stream and truncates
// everything after the first torn or corrupt byte (the footer, when present
// and consistent with the scan, only confirms a clean close — it is never
// used to skip verification), and records where each chain ends
// (ChainEnd), which resume applies. A file it cannot list, open or read in
// full throws: unreadable is not damaged. v2 segment payloads are decoded
// back to their logical (v1) bytes during the walk, so
// RecoveredBlock::payload — and everything downstream of it:
// logical_content(), the pq_query `blocks` listing, the pq_offline
// byte-match contract — is independent of the on-disk format. The walk
// parses every window, monitor and calibration payload it keeps, so no
// query ever meets one that does not parse; DQ captures are parsed only by
// dq_captures(). A CRC-valid block that fails to decode surfaces as a
// typed per-port error and ends that port's prefix, exactly like physical
// damage.
//
// Ports can be scanned in parallel (ReaderOptions::threads): each worker
// owns whole port chains and the results are merged in ascending port
// order, so the outcome is byte-identical to the sequential scan. The scan
// also fills each port's checkpoint index (CheckpointIndex) from block
// metadata. A query plans over that index — the as-of filter on t_hi, the
// checkpoint walk and the nearest-snapshot pick on taken_at — and parses
// only the blocks its answer reads: the window checkpoints the walk
// credits, the one monitor snapshot the pick chooses, the newest usable
// calibration at or before `as_of`. Its cost follows the interval asked,
// not the length of the archive. ReaderOptions::use_seek_index = false
// answers instead over to_records(), every block up to `as_of` parsed: the
// full-materialization oracle the indexed answers must byte-match.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
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

/// One checkpoint of a port's index: the block's t_hi (the as-of filter),
/// the record's own taken_at (the leading u64 of its logical payload, which
/// the walk and the pick read) and where its block sits. Neither time is
/// assumed sorted: a resumed writer can append earlier times, and idle
/// catch-up polls repeat one.
struct CheckpointEntry {
  std::uint64_t t_hi = 0;
  Timestamp taken_at = 0;
  std::uint64_t ordinal = 0;  ///< index into RecoveredPort::blocks
};

/// A port's window and monitor checkpoints per partition, and its usable
/// calibrations (those control::get_calibration accepts), each in append
/// order. There is at least one partition of each kind; a partition at or
/// past the end was never written, and asking for it throws
/// std::out_of_range.
struct CheckpointIndex {
  using Entries = std::vector<CheckpointEntry>;
  std::vector<Entries> windows = std::vector<Entries>(1);   ///< [partition]
  std::vector<Entries> monitors = std::vector<Entries>(1);  ///< [partition]
  Entries calibrations;
};

/// One port's surviving stream: the first segment's header (the register
/// layout of last resort) plus every recovered block. With retention the
/// chain may start above segment index 0 (`header.segment_index`).
struct RecoveredPort {
  SegmentHeader header;
  std::vector<RecoveredBlock> blocks;
  std::vector<SegmentInfo> segments;
  DecodeErrorInfo decode_error;
  CheckpointIndex index;
};

struct ReaderOptions {
  /// Worker threads for the recovery scan; each worker scans whole port
  /// chains. 0 or 1 = sequential. The result is byte-identical either way.
  unsigned threads = 1;
  /// When false, queries parse every block up to `as_of` into a records
  /// bundle (to_records) and answer over it instead of planning over the
  /// checkpoint index: the differential-test oracle.
  bool use_seek_index = true;
};

/// Query-side counters (per reader, across queries).
struct SeekStats {
  std::uint64_t seeks = 0;   ///< queries planned over the checkpoint index
  std::uint64_t probes = 0;  ///< index entries those plans read
  std::uint64_t blocks_bypassed = 0;  ///< port blocks a plan did not parse
  std::uint64_t blocks_decoded = 0;   ///< blocks parsed to answer queries
};

/// Layout and z0 a port's answers as of `as_of` use: the newest usable
/// calibration with t_hi <= as_of (newest in append order, matching the
/// live program), else the first segment header's layout and z0 = 1.0 —
/// the torn tail can cost calibration freshness, never correctness.
control::CalibrationRecord effective_calibration(
    const RecoveredPort& rec,
    Timestamp as_of = std::numeric_limits<Timestamp>::max());

/// The retroactive queries over one recovered port, planned over its
/// checkpoint index: same answers (counts, bitwise coverage, culprits) as
/// control::offline_query_* over the port's to_records(as_of) bundle.
/// Safe to call concurrently on a shared port when `stats` is null.
control::IntervalAnswer query_time_windows_detail(
    const RecoveredPort& rec, Timestamp t1, Timestamp t2,
    std::uint32_t partition = 0,
    Timestamp as_of = std::numeric_limits<Timestamp>::max(),
    SeekStats* stats = nullptr);
std::vector<core::OriginalCulprit> query_queue_monitor(
    const RecoveredPort& rec, Timestamp t, std::uint32_t partition = 0,
    Timestamp as_of = std::numeric_limits<Timestamp>::max(),
    SeekStats* stats = nullptr);

class ArchiveReader {
 public:
  /// Opens `dir` and recovers every port. Never throws on torn or corrupt
  /// data — damage only shrinks the recovered prefix and is counted in
  /// stats(). Throws std::runtime_error if `dir` is not a directory, or if
  /// a directory under it cannot be listed or a segment file cannot be
  /// opened or read in full (whichever worker met it).
  explicit ArchiveReader(const std::string& dir);
  ArchiveReader(const std::string& dir, ReaderOptions opts);

  /// Recovered ports in ascending order.
  std::vector<std::uint32_t> ports() const;
  bool has_port(std::uint32_t port) const {
    return ports_.find(port) != ports_.end();
  }
  /// The recovered ports. Each is immutable and shared, so a holder (the
  /// pq_serve query router) can keep answering from it after the reader is
  /// gone.
  const std::map<std::uint32_t, std::shared_ptr<const RecoveredPort>>&
  recovered() const {
    return ports_;
  }
  /// Where the port's chain ends, for every port directory the scan listed,
  /// recovered or not; empty for one it did not list.
  ChainEnd chain_end(std::uint32_t port) const {
    const auto it = chain_ends_.find(port);
    return it == chain_ends_.end() ? ChainEnd{} : it->second;
  }

  /// Rebuilds a RegisterRecords bundle from the port's surviving blocks,
  /// parsing every one: snapshots in append order, layout and z0 from
  /// effective_calibration(). `as_of` restricts the bundle to blocks with
  /// t_hi <= as_of: "answer as the archive stood at time T". Because later
  /// calibrations rescale earlier spans (newest-wins, matching the live
  /// program), bounding BOTH of two archives to a common horizon is what
  /// makes their answers comparable — the kill-and-recover proof relies on
  /// this.
  control::RegisterRecords to_records(
      std::uint32_t port,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const;

  /// The retroactive queries, same semantics (and bytes) as pq_offline
  /// against the reconstructed records. `partition` is the shard-local
  /// window/monitor partition (0 unless multi-queue).
  control::IntervalAnswer query_time_windows_detail(
      std::uint32_t port, Timestamp t1, Timestamp t2,
      std::uint32_t partition = 0,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const;
  core::FlowCounts query_time_windows(
      std::uint32_t port, Timestamp t1, Timestamp t2,
      std::uint32_t partition = 0,
      Timestamp as_of = std::numeric_limits<Timestamp>::max()) const {
    return query_time_windows_detail(port, t1, t2, partition, as_of).counts;
  }
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
  ReaderOptions opts_;
  std::map<std::uint32_t, std::shared_ptr<const RecoveredPort>> ports_;
  std::map<std::uint32_t, ChainEnd> chain_ends_;
  ReaderStats stats_;
  mutable SeekStats seek_stats_;
};

/// The recovery scan of one port's chain, for a writer resumed on its own
/// (ArchiveWriter without an Archive's scan of the whole directory).
ChainEnd scan_chain_end(const std::string& dir, std::uint32_t port);

/// Flattens reader counters into a registry (pq_store_reader_* namespace).
void export_reader_metrics(obs::MetricsRegistry& reg, const ReaderStats& s);

}  // namespace pq::store
