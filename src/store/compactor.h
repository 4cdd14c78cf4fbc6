// Segment compaction: rewrites cold, footer-clean segments in place —
// delta-recoding their blocks to the v2 format (v1 segments included) and
// dropping superseded calibration records — without ever changing what
// queries can answer at the full horizon.
//
// Invariants the rewrite preserves, in order of importance:
//
//   1. Chain-index contract: a segment is rewritten under its own index
//      (same `seg-%06u.pqs` name), so the contiguous-chain walk recovery
//      relies on is untouched. Compaction never renumbers, merges or
//      deletes segments — retention owns deletion.
//   2. Crash safety: the replacement is built as `<name>.tmp` (not a
//      canonical segment name, so the chain walk never lists it),
//      fsynced, then atomically renamed over the original. A kill at any
//      byte leaves either the old or the new file, both valid.
//   3. Damage never heals: the compactor reads the chain through the same
//      walk as recovery (segment_chain.h) and rewrites only the clean
//      segments it returns, stopping at the file the chain ends on —
//      compacting a damaged chain can shrink cold storage before the
//      damage but never extends the recovered horizon past it.
//   4. Answer identity: all snapshot and dq-capture blocks survive.
//      Dropping all-but-the-last calibration of a segment keeps the
//      newest-wins calibration any full-horizon query resolves (earlier
//      calibrations only matter for as-of horizons inside the compacted
//      span, which trade exact replay of stale calibrations for space —
//      the retention policy's explicit call).
//
// The live writer's open segment is protected by `keep_newest_segments`
// (and the daemon runs compaction under the same shard locks that
// serialize appends).
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "store/archive_format.h"

namespace pq::faults {
class TornWriteInjector;
}  // namespace pq::faults

namespace pq::store {

struct CompactionPolicy {
  /// Never touch the newest N segment files of a chain (>= 1 keeps a live
  /// writer's open segment safe; the daemon enforces that minimum).
  std::uint32_t keep_newest_segments = 1;
  /// Drop every calibration block of a compacted segment except its last.
  bool drop_superseded_calibrations = true;
  /// Skip the rewrite unless it saves at least this many bytes (a rewrite
  /// that drops blocks always proceeds).
  std::uint64_t min_bytes_saved = 1;
};

struct CompactionStats {
  std::uint64_t segments_examined = 0;
  std::uint64_t segments_rewritten = 0;
  std::uint64_t segments_skipped = 0;  ///< eligible but not worth rewriting
  std::uint64_t segments_skipped_damaged = 0;
  std::uint64_t calibrations_dropped = 0;
  std::uint64_t bytes_before = 0;  ///< original size of rewritten segments
  std::uint64_t bytes_after = 0;
  std::uint64_t torn_compactions = 0;  ///< injected kills mid-rewrite
};

/// Compacts one port's chain, oldest segment first. `write_faults`, when
/// set, interposes on every tmp-file write and may tear it — modelling a
/// kill mid-compaction: the rewrite aborts, the stale `.tmp` lingers
/// harmlessly (a later run cleans it) and the original segment is intact.
CompactionStats compact_port_chain(const std::string& archive_dir,
                                   std::uint32_t port,
                                   const CompactionPolicy& policy,
                                   faults::TornWriteInjector* write_faults =
                                       nullptr);

/// Compacts every port directory under `archive_dir` (ports ascending).
CompactionStats compact_archive(const std::string& archive_dir,
                                const CompactionPolicy& policy,
                                faults::TornWriteInjector* write_faults =
                                    nullptr);

/// Flattens compaction counters into a registry (pq_store_compact_*).
void export_compaction_metrics(obs::MetricsRegistry& reg,
                               const CompactionStats& s);

}  // namespace pq::store
