#include "store/compactor.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <utility>
#include <vector>

#include "faults/fault_plan.h"
#include "store/block_codec_v2.h"
#include "store/segment_chain.h"

namespace pq::store {

namespace fs = std::filesystem;

namespace {

/// Re-encodes a segment from logical blocks as v2, with fresh delta bases
/// (the compacted segment must stand alone, like any other).
std::vector<std::uint8_t> encode_segment(SegmentHeader header,
                                         const std::vector<RecoveredBlock>&
                                             blocks) {
  header.version = kFormatVersionV2;
  std::vector<std::uint8_t> bytes;
  encode_segment_header(bytes, header);
  const std::uint64_t header_bytes = bytes.size();

  SegmentPayloadCodec codec;
  std::vector<IndexEntry> index;
  index.reserve(blocks.size());
  std::vector<std::uint8_t> payload;
  for (const auto& b : blocks) {
    codec.encode_logical(b.kind, b.partition, b.payload, payload);
    const auto frame =
        encode_block(b.kind, b.partition, b.t_lo, b.t_hi, payload);
    index.push_back({b.kind, b.partition, b.t_lo, b.t_hi, bytes.size(),
                     static_cast<std::uint32_t>(frame.size())});
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  const auto footer =
      encode_footer(bytes.size() - header_bytes, index, kFormatVersionV2);
  bytes.insert(bytes.end(), footer.begin(), footer.end());
  return bytes;
}

/// Writes `bytes` to `path` through the optional torn-write injector.
/// Returns false on a tear (the simulated kill): the partial file stays,
/// the caller must abort the whole compaction run.
bool write_whole_file(const std::string& path, std::vector<std::uint8_t> bytes,
                      faults::TornWriteInjector* write_faults) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t persisted =
      write_faults != nullptr
          ? write_faults->on_append(
                std::span<std::uint8_t>(bytes.data(), bytes.size()))
          : bytes.size();
  bool ok = persisted == 0 ||
            std::fwrite(bytes.data(), 1, persisted, f) == persisted;
  ok = ok && persisted == bytes.size();
  std::fflush(f);
  // The tmp file is the only copy of the rewrite: make it durable before
  // the rename, whatever the archive's fsync policy says about appends.
  ::fsync(::fileno(f));
  std::fclose(f);
  return ok;
}

}  // namespace

CompactionStats compact_port_chain(const std::string& archive_dir,
                                   std::uint32_t port,
                                   const CompactionPolicy& policy,
                                   faults::TornWriteInjector* write_faults) {
  CompactionStats stats;
  const std::string dir = port_dir(archive_dir, port);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".tmp") {
      fs::remove(entry.path(), ec);  // stale rewrite from a killed run
    }
  }
  const std::vector<SegmentFile> files = list_segment_files(archive_dir, port);
  if (files.size() <= policy.keep_newest_segments) return stats;
  const std::span<const SegmentFile> eligible(
      files.data(), files.size() - policy.keep_newest_segments);

  walk_segment_chain(port, eligible, [&](ChainSegment& seg) {
    ++stats.segments_examined;
    if (!seg.clean()) {
      // Damage (or a chain gap): recovery stops here, so everything after
      // is unreachable — never rewrite it, never extend the horizon.
      ++stats.segments_skipped_damaged;
      return false;
    }
    std::vector<RecoveredBlock>& blocks = seg.blocks;
    std::uint64_t dropped = 0;
    if (policy.drop_superseded_calibrations) {
      std::size_t last_cal = blocks.size();
      for (std::size_t j = 0; j < blocks.size(); ++j) {
        if (blocks[j].kind == BlockKind::kCalibration) last_cal = j;
      }
      std::vector<RecoveredBlock> kept;
      kept.reserve(blocks.size());
      for (std::size_t j = 0; j < blocks.size(); ++j) {
        if (blocks[j].kind == BlockKind::kCalibration && j != last_cal) {
          ++dropped;
          continue;
        }
        kept.push_back(std::move(blocks[j]));
      }
      blocks = std::move(kept);
    }

    const auto rewritten = encode_segment(seg.scan.header, blocks);
    if (dropped == 0 &&
        seg.file_bytes < rewritten.size() + policy.min_bytes_saved) {
      ++stats.segments_skipped;
      return true;
    }

    const std::string& path = seg.file->path;
    const std::string tmp = path + ".tmp";
    if (!write_whole_file(tmp, rewritten, write_faults)) {
      // Injected kill mid-rewrite: the original segment is untouched, the
      // partial tmp is invisible to every reader. Stop like a dead process.
      ++stats.torn_compactions;
      return false;
    }
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      ++stats.segments_skipped;
      return true;
    }
    // Persist the rename itself.
    const int dirfd = ::open(dir.c_str(), O_RDONLY);
    if (dirfd >= 0) {
      ::fsync(dirfd);
      ::close(dirfd);
    }
    stats.calibrations_dropped += dropped;
    stats.bytes_before += seg.file_bytes;
    stats.bytes_after += rewritten.size();
    ++stats.segments_rewritten;
    return true;
  });
  return stats;
}

CompactionStats compact_archive(const std::string& archive_dir,
                                const CompactionPolicy& policy,
                                faults::TornWriteInjector* write_faults) {
  CompactionStats sum;
  for (const std::uint32_t port : list_ports(archive_dir)) {
    const CompactionStats s =
        compact_port_chain(archive_dir, port, policy, write_faults);
    sum.segments_examined += s.segments_examined;
    sum.segments_rewritten += s.segments_rewritten;
    sum.segments_skipped += s.segments_skipped;
    sum.segments_skipped_damaged += s.segments_skipped_damaged;
    sum.calibrations_dropped += s.calibrations_dropped;
    sum.bytes_before += s.bytes_before;
    sum.bytes_after += s.bytes_after;
    sum.torn_compactions += s.torn_compactions;
    if (s.torn_compactions > 0) break;  // the simulated process died
  }
  return sum;
}

void export_compaction_metrics(obs::MetricsRegistry& reg,
                               const CompactionStats& s) {
  reg.counter("pq_store_compact_segments_examined_total",
              "cold segments considered for compaction")
      .inc(s.segments_examined);
  reg.counter("pq_store_compact_segments_rewritten_total",
              "segments rewritten (recoded and/or slimmed) in place")
      .inc(s.segments_rewritten);
  reg.counter("pq_store_compact_segments_skipped_total",
              "eligible segments left alone (no byte savings)")
      .inc(s.segments_skipped);
  reg.counter("pq_store_compact_segments_damaged_total",
              "segments refused because the chain is damaged there")
      .inc(s.segments_skipped_damaged);
  reg.counter("pq_store_compact_calibrations_dropped_total",
              "superseded calibration blocks dropped by rewrites")
      .inc(s.calibrations_dropped);
  reg.counter("pq_store_compact_bytes_before_total",
              "original bytes of rewritten segments")
      .inc(s.bytes_before);
  reg.counter("pq_store_compact_bytes_after_total",
              "rewritten bytes of compacted segments")
      .inc(s.bytes_after);
  reg.counter("pq_store_compact_torn_total",
              "injected kills mid-compaction (faults layer)")
      .inc(s.torn_compactions);
}

}  // namespace pq::store
