#include "store/archive_reader.h"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <utility>

#include "wire/bytes.h"

namespace pq::store {

namespace fs = std::filesystem;

namespace {

/// One port's complete scan outcome; workers fill these independently and
/// the constructor merges them in ascending port order, so the parallel
/// scan is byte-identical to the sequential one.
struct PortScanResult {
  RecoveredPort rec;
  ReaderStats stats;
  bool keep = false;
};

PortScanResult scan_port(const std::string& dir, std::uint32_t port,
                         std::uint32_t stride) {
  PortScanResult out;
  const auto unreachable =
      walk_segment_chain(dir, port, [&](ChainSegment& seg) {
        ++out.stats.segments_opened;
        out.stats.bytes_truncated += seg.file_bytes - seg.valid_bytes;
        if (!seg.clean()) ++out.stats.recoveries;
        if (!seg.scan.header_ok) return;
        const SegmentScan& scan = seg.scan;
        // The first file's header is the register layout of last resort.
        if (out.rec.segments.empty()) out.rec.header = scan.header;
        out.rec.last_index = scan.header.segment_index;

        SegmentInfo info;
        info.index = scan.header.segment_index;
        info.version = scan.header.version;
        info.blocks = seg.blocks.size();
        info.bytes = seg.valid_bytes;
        info.footer_ok = scan.footer_ok;
        info.index_samples = build_time_index(scan.entries, stride).size();
        if (!scan.entries.empty()) {
          info.t_lo_min = std::numeric_limits<std::uint64_t>::max();
          for (const auto& e : scan.entries) {
            info.t_lo_min = std::min(info.t_lo_min, e.t_lo);
            info.t_hi_max = std::max(info.t_hi_max, e.t_hi);
          }
        }
        out.rec.segments.push_back(info);

        if (seg.decode_status != BlockDecodeStatus::kOk) {
          // A typed report instead of a silent hole.
          out.rec.decode_error = {seg.decode_status, info.index,
                                  out.rec.blocks.size() + seg.blocks.size()};
          ++out.stats.decode_errors;
        }
        if (seg.clean()) ++out.stats.footer_hits;
        out.stats.blocks_recovered += seg.blocks.size();
        std::move(seg.blocks.begin(), seg.blocks.end(),
                  std::back_inserter(out.rec.blocks));
      });
  for (const auto& file : unreachable) {
    std::error_code ec;
    const auto size = fs::file_size(file.path, ec);
    if (!ec) out.stats.bytes_truncated += size;
  }

  // A port reads as one once its first segment is clean or a block
  // survives.
  out.keep = out.stats.footer_hits > 0 || !out.rec.blocks.empty();
  if (out.keep) {
    for (const auto& b : out.rec.blocks) {
      if (b.kind == BlockKind::kWindowSnapshot) {
        out.rec.window_parts = std::max(out.rec.window_parts, b.partition + 1);
      } else if (b.kind == BlockKind::kMonitorSnapshot) {
        out.rec.monitor_parts =
            std::max(out.rec.monitor_parts, b.partition + 1);
      }
    }
    std::vector<IndexEntry> entries(out.rec.blocks.size());
    for (std::size_t i = 0; i < out.rec.blocks.size(); ++i) {
      entries[i].t_hi = out.rec.blocks[i].t_hi;
    }
    out.rec.seek_index = build_time_index(entries, stride);
  }
  return out;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& dir)
    : ArchiveReader(dir, ReaderOptions{}) {}

ArchiveReader::ArchiveReader(const std::string& dir, ReaderOptions opts)
    : opts_(opts) {
  if (opts_.seek_index_stride == 0) opts_.seek_index_stride = kSeekIndexStride;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("pq::store: not an archive directory: " + dir);
  }
  const std::vector<std::uint32_t> ports = list_ports(dir);
  std::vector<PortScanResult> results(ports.size());
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, opts_.threads), ports.size());
  if (workers <= 1) {
    for (std::size_t i = 0; i < ports.size(); ++i) {
      results[i] = scan_port(dir, ports[i], opts_.seek_index_stride);
    }
  } else {
    // Whole-port work stealing: a port's chain is one job, so each result
    // slot is written by exactly one worker and merge order is fixed.
    std::atomic<std::size_t> next{0};
    const auto work = [&] {
      for (std::size_t i; (i = next.fetch_add(1)) < ports.size();) {
        results[i] = scan_port(dir, ports[i], opts_.seek_index_stride);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t w = 0; w + 1 < workers; ++w) pool.emplace_back(work);
    work();
    for (auto& t : pool) t.join();
  }
  for (std::size_t i = 0; i < ports.size(); ++i) {
    auto& r = results[i];
    stats_.segments_opened += r.stats.segments_opened;
    stats_.footer_hits += r.stats.footer_hits;
    stats_.recoveries += r.stats.recoveries;
    stats_.blocks_recovered += r.stats.blocks_recovered;
    stats_.bytes_truncated += r.stats.bytes_truncated;
    stats_.decode_errors += r.stats.decode_errors;
    if (r.keep) ports_.emplace(ports[i], std::move(r.rec));
  }
}

std::vector<std::uint32_t> ArchiveReader::ports() const {
  std::vector<std::uint32_t> out;
  out.reserve(ports_.size());
  for (const auto& [port, rec] : ports_) out.push_back(port);
  return out;
}

void ArchiveReader::seek_cut(const RecoveredPort& rec, Timestamp as_of,
                             std::size_t& bulk_end, std::size_t& stop) const {
  const auto& s = rec.seek_index;
  ++seek_stats_.seeks;
  // Last sample whose prefix max is <= as_of: everything up to its ordinal
  // is included without a per-block test.
  std::size_t lo = 0, hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++seek_stats_.probes;
    if (s[mid].prefix_max_t_hi <= as_of) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  bulk_end = lo == 0 ? 0 : static_cast<std::size_t>(s[lo - 1].ordinal) + 1;
  // First sample whose suffix min is > as_of: everything from its ordinal
  // on is excluded without a per-block test.
  lo = 0;
  hi = s.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    ++seek_stats_.probes;
    if (s[mid].suffix_min_t_hi > as_of) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  stop = lo == s.size() ? rec.blocks.size()
                        : static_cast<std::size_t>(s[lo].ordinal);
  if (bulk_end > stop) bulk_end = stop;
  seek_stats_.blocks_bypassed += bulk_end + (rec.blocks.size() - stop);
}

control::RegisterRecords ArchiveReader::to_records(std::uint32_t port,
                                                   Timestamp as_of) const {
  const RecoveredPort& rec = ports_.at(port);
  control::RegisterRecords records;
  records.window_params = rec.header.window_params;
  records.monitor_levels = rec.header.monitor_levels;
  records.z0 = 1.0;
  records.window_snapshots.resize(rec.window_parts);
  records.monitor_snapshots.resize(rec.monitor_parts);

  std::size_t bulk_end = 0;
  std::size_t stop = rec.blocks.size();
  if (opts_.use_seek_index && !rec.seek_index.empty()) {
    seek_cut(rec, as_of, bulk_end, stop);
  }

  for (std::size_t i = 0; i < stop; ++i) {
    const auto& b = rec.blocks[i];
    if (i >= bulk_end && b.t_hi > as_of) continue;
    wire::ByteReader r(b.payload);
    switch (b.kind) {
      case BlockKind::kWindowSnapshot:
        records.window_snapshots[b.partition].push_back(
            control::get_window_snapshot(r));
        break;
      case BlockKind::kMonitorSnapshot:
        records.monitor_snapshots[b.partition].push_back(
            control::get_monitor_snapshot(r));
        break;
      case BlockKind::kCalibration: {
        // The newest surviving calibration wins — exactly what the live
        // program would have used at the last recovered checkpoint. One
        // whose layout is unusable is skipped; the segment header's stays.
        control::CalibrationRecord cal;
        if (!control::get_calibration(r, cal)) break;
        records.window_params = cal.window_params;
        records.monitor_levels = cal.monitor_levels;
        records.z0 = cal.z0;
        break;
      }
      case BlockKind::kDqCapture:
        break;  // not part of the records bundle; see dq_captures()
    }
  }
  return records;
}

core::FlowCounts ArchiveReader::query_time_windows(std::uint32_t port,
                                                   Timestamp t1, Timestamp t2,
                                                   std::uint32_t partition,
                                                   Timestamp as_of) const {
  return control::offline_query_time_windows(to_records(port, as_of),
                                             partition, t1, t2)
      .counts;
}

std::vector<core::OriginalCulprit> ArchiveReader::query_queue_monitor(
    std::uint32_t port, Timestamp t, std::uint32_t partition,
    Timestamp as_of) const {
  return control::offline_query_queue_monitor(to_records(port, as_of),
                                              partition, t);
}

std::vector<control::DqCapture> ArchiveReader::dq_captures(
    std::uint32_t port) const {
  std::vector<control::DqCapture> out;
  for (const auto& b : ports_.at(port).blocks) {
    if (b.kind != BlockKind::kDqCapture) continue;
    wire::ByteReader r(b.payload);
    out.push_back(control::get_dq_capture(r));
  }
  return out;
}

std::vector<std::uint8_t> ArchiveReader::logical_content() const {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, static_cast<std::uint32_t>(ports_.size()));
  for (const auto& [port, rec] : ports_) {
    wire::put_u32(buf, port);
    wire::put_u64(buf, rec.blocks.size());
    for (const auto& b : rec.blocks) {
      wire::put_u8(buf, static_cast<std::uint8_t>(b.kind));
      wire::put_u32(buf, b.partition);
      wire::put_u64(buf, b.t_lo);
      wire::put_u64(buf, b.t_hi);
      wire::put_u32(buf, static_cast<std::uint32_t>(b.payload.size()));
      buf.insert(buf.end(), b.payload.begin(), b.payload.end());
    }
  }
  return buf;
}

void export_reader_metrics(obs::MetricsRegistry& reg, const ReaderStats& s) {
  reg.counter("pq_store_reader_segments_total",
              "segment files scanned during recovery")
      .inc(s.segments_opened);
  reg.counter("pq_store_reader_footer_hits_total",
              "segments whose clean-close footer matched the scan")
      .inc(s.footer_hits);
  reg.counter("pq_store_reader_recoveries_total",
              "segments recovered by truncating a torn or corrupt tail")
      .inc(s.recoveries);
  reg.counter("pq_store_reader_blocks_total",
              "CRC-verified blocks recovered")
      .inc(s.blocks_recovered);
  reg.counter("pq_store_reader_bytes_truncated_total",
              "torn or corrupt bytes discarded during recovery")
      .inc(s.bytes_truncated);
  reg.counter("pq_store_reader_decode_errors_total",
              "CRC-valid blocks whose payload failed to decode")
      .inc(s.decode_errors);
}

}  // namespace pq::store
