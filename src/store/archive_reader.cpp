#include "store/archive_reader.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <type_traits>
#include <utility>

#include "store/block_codec_v2.h"
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
  ChainEnd end;
  bool keep = false;
};

/// The checkpoint index over `blocks`, from block metadata and the
/// leading u64 of each snapshot's logical payload (its taken_at). Only a
/// calibration is parsed, to keep the ones whose layout is usable.
CheckpointIndex index_checkpoints(const std::vector<RecoveredBlock>& blocks) {
  CheckpointIndex index;
  const auto add = [](std::vector<CheckpointIndex::Entries>& parts,
                      const RecoveredBlock& b, std::uint64_t ordinal) {
    if (b.partition >= parts.size()) parts.resize(std::size_t{b.partition} + 1);
    wire::ByteReader r(b.payload);
    parts[b.partition].push_back({b.t_hi, r.u64(), ordinal});
  };
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const RecoveredBlock& b = blocks[i];
    switch (b.kind) {
      case BlockKind::kWindowSnapshot:
        add(index.windows, b, i);
        break;
      case BlockKind::kMonitorSnapshot:
        add(index.monitors, b, i);
        break;
      case BlockKind::kCalibration: {
        wire::ByteReader r(b.payload);
        control::CalibrationRecord cal;
        if (control::get_calibration(r, cal)) {
          index.calibrations.push_back({b.t_hi, cal.taken_at, i});
        }
        break;
      }
      case BlockKind::kDqCapture:
        break;
    }
  }
  return index;
}

/// The whole of one listed segment file. A file that cannot be opened or
/// read in full is an I/O error, not damage: it throws, naming the file.
std::vector<std::uint8_t> read_segment_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  struct stat st {};
  int err = f == nullptr || ::fstat(::fileno(f), &st) != 0 ? errno : 0;
  std::vector<std::uint8_t> data(
      err == 0 ? static_cast<std::size_t>(st.st_size) : 0);
  if (err == 0 && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    err = std::ferror(f) != 0 ? errno : EIO;
  }
  if (f != nullptr) std::fclose(f);
  if (err != 0) {
    throw std::runtime_error("pq::store: cannot read " + path + ": " +
                             std::generic_category().message(err));
  }
  return data;
}

/// The one walk over a port's chain (segment_chain.h): each file read once,
/// one at a time, in index order; records where the chain ends for resume.
PortScanResult scan_port(const std::string& dir, std::uint32_t port) {
  PortScanResult out;
  ChainEnd& end = out.end;
  const std::vector<SegmentFile> files = list_segment_files(dir, port);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::vector<std::uint8_t> data = read_segment_file(files[i].path);
    SegmentScan scan = scan_segment_bytes(data, port);
    if (scan.header.segment_index != files[i].index ||
        (i > 0 && files[i].index != files[i - 1].index + 1)) {
      scan = SegmentScan{};  // out of sequence: nothing of it is kept
    }
    // The chain keeps all of a clean file, else its header and the frames
    // before the first torn, corrupt or undecodable one.
    std::uint64_t valid_bytes =
        scan.footer_ok ? data.size() : scan.header_bytes + scan.blocks_bytes;
    auto status = BlockDecodeStatus::kOk;
    std::size_t kept = 0;
    SegmentPayloadCodec codec;
    for (const auto& e : scan.entries) {
      RecoveredBlock block{e.kind, e.partition, e.t_lo, e.t_hi, {}};
      status = codec.decode(scan.header.version, e.kind, e.partition,
                            std::span(data).subspan(
                                e.offset + kBlockOverheadBytes - 4,
                                e.length - kBlockOverheadBytes),
                            block.payload);
      if (status != BlockDecodeStatus::kOk) {
        valid_bytes = e.offset;
        break;
      }
      out.rec.blocks.push_back(std::move(block));
      ++kept;
    }
    const bool clean = scan.footer_ok && status == BlockDecodeStatus::kOk;
    ++out.stats.segments_opened;
    out.stats.bytes_truncated += data.size() - valid_bytes;
    if (!clean) ++out.stats.recoveries;

    if (scan.header_ok) {
      // The first file's header is the register layout of last resort.
      if (out.rec.segments.empty()) out.rec.header = scan.header;

      SegmentInfo info;
      info.index = scan.header.segment_index;
      info.version = scan.header.version;
      info.blocks = kept;
      info.bytes = valid_bytes;
      info.footer_ok = scan.footer_ok;
      info.index_samples =
          build_time_index(scan.entries, kSeekIndexStride).size();
      if (!scan.entries.empty()) {
        info.t_lo_min = std::numeric_limits<std::uint64_t>::max();
        for (const auto& e : scan.entries) {
          info.t_lo_min = std::min(info.t_lo_min, e.t_lo);
          info.t_hi_max = std::max(info.t_hi_max, e.t_hi);
        }
      }
      out.rec.segments.push_back(info);

      if (status != BlockDecodeStatus::kOk) {
        // A typed report instead of a silent hole.
        out.rec.decode_error = {status, info.index, out.rec.blocks.size()};
        ++out.stats.decode_errors;
      }
      if (clean) ++out.stats.footer_hits;
      out.stats.blocks_recovered += kept;
    }
    if (clean || kept > 0) end.live.push_back(files[i].index);
    if (clean) continue;

    // The chain ends here. A file with no surviving block is deleted like
    // the unreachable ones: sealing it adds nothing, and a sealed empty
    // first segment would show a port the reader did not report.
    if (kept == 0) {
      end.discard.push_back(files[i].index);
    } else {
      scan.entries.resize(kept);
      end.seal = {files[i].index, scan.header.version, scan.header_bytes,
                  valid_bytes, std::move(scan.entries)};
    }
    for (std::size_t j = i + 1; j < files.size(); ++j) {
      end.discard.push_back(files[j].index);
      std::error_code ec;
      const auto size = fs::file_size(files[j].path, ec);
      if (!ec) out.stats.bytes_truncated += size;
    }
    break;
  }

  // A port reads as one once its first segment is clean or a block
  // survives.
  out.keep = out.stats.footer_hits > 0 || !out.rec.blocks.empty();
  if (out.keep) out.rec.index = index_checkpoints(out.rec.blocks);
  return out;
}

/// Blocks one planned query parsed, and index entries it read.
struct QueryCost {
  std::uint64_t decoded = 0;
  std::uint64_t probes = 0;

  void report(const RecoveredPort& rec, SeekStats* stats) const {
    if (stats == nullptr) return;
    ++stats->seeks;
    stats->probes += probes;
    stats->blocks_decoded += decoded;
    stats->blocks_bypassed += rec.blocks.size() - decoded;
  }
};

/// One partition's checkpoints as the archive stood at `as_of`, as the
/// walk and the pick read them (control::WindowCheckpoints): times from
/// the index, and each snapshot parsed from its block only when asked for.
template <class Snapshot>
class IndexedCheckpoints {
 public:
  IndexedCheckpoints(const RecoveredPort& rec,
                     const CheckpointIndex::Entries& entries, Timestamp as_of,
                     QueryCost& cost)
      : rec_(rec), cost_(cost) {
    cost_.probes += entries.size();
    visible_.reserve(entries.size());
    for (const CheckpointEntry& e : entries) {
      if (e.t_hi <= as_of) visible_.push_back(&e);
    }
  }

  std::size_t size() const { return visible_.size(); }
  Timestamp taken_at(std::size_t i) const { return visible_[i]->taken_at; }
  Snapshot snapshot(std::size_t i) const {
    ++cost_.decoded;
    wire::ByteReader r(rec_.blocks[visible_[i]->ordinal].payload);
    if constexpr (std::is_same_v<Snapshot, control::WindowSnapshot>) {
      return control::get_window_snapshot(r);
    } else {
      return control::get_monitor_snapshot(r);
    }
  }

 private:
  const RecoveredPort& rec_;
  QueryCost& cost_;
  std::vector<const CheckpointEntry*> visible_;
};

control::CalibrationRecord effective_calibration(const RecoveredPort& rec,
                                                 Timestamp as_of,
                                                 QueryCost& cost) {
  const auto& cals = rec.index.calibrations;
  for (auto it = cals.rbegin(); it != cals.rend(); ++it) {
    ++cost.probes;
    if (it->t_hi > as_of) continue;
    ++cost.decoded;
    wire::ByteReader r(rec.blocks[it->ordinal].payload);
    control::CalibrationRecord cal;
    control::get_calibration(r, cal);  // accepted when it was indexed
    return cal;
  }
  control::CalibrationRecord cal;
  cal.window_params = rec.header.window_params;
  cal.monitor_levels = rec.header.monitor_levels;
  return cal;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& dir)
    : ArchiveReader(dir, ReaderOptions{}) {}

ArchiveReader::ArchiveReader(const std::string& dir, ReaderOptions opts)
    : opts_(opts) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    throw std::runtime_error("pq::store: not an archive directory: " + dir);
  }
  const std::vector<std::uint32_t> ports = list_ports(dir);
  std::vector<PortScanResult> results(ports.size());
  // Whole-port work stealing: a port's chain is one job, so each result
  // slot is written by exactly one worker and merge order is fixed. A
  // worker keeps a port's error in that port's slot, so the one rethrown
  // here, the lowest port's, is the same at any width.
  std::vector<std::exception_ptr> errors(ports.size());
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < ports.size();) {
      try {
        results[i] = scan_port(dir, ports[i]);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  const std::size_t workers = std::min<std::size_t>(
      std::max(1u, opts_.threads), ports.size());
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w + 1 < workers; ++w) pool.emplace_back(work);
  work();
  for (auto& t : pool) t.join();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  for (std::size_t i = 0; i < ports.size(); ++i) {
    auto& r = results[i];
    stats_.segments_opened += r.stats.segments_opened;
    stats_.footer_hits += r.stats.footer_hits;
    stats_.recoveries += r.stats.recoveries;
    stats_.blocks_recovered += r.stats.blocks_recovered;
    stats_.bytes_truncated += r.stats.bytes_truncated;
    stats_.decode_errors += r.stats.decode_errors;
    chain_ends_.emplace(ports[i], std::move(r.end));
    if (r.keep) {
      ports_.emplace(ports[i],
                     std::make_shared<const RecoveredPort>(std::move(r.rec)));
    }
  }
}

ChainEnd scan_chain_end(const std::string& dir, std::uint32_t port) {
  return scan_port(dir, port).end;
}

std::vector<std::uint32_t> ArchiveReader::ports() const {
  std::vector<std::uint32_t> out;
  out.reserve(ports_.size());
  for (const auto& [port, rec] : ports_) out.push_back(port);
  return out;
}

control::CalibrationRecord effective_calibration(const RecoveredPort& rec,
                                                 Timestamp as_of) {
  QueryCost cost;
  return effective_calibration(rec, as_of, cost);
}

control::IntervalAnswer query_time_windows_detail(const RecoveredPort& rec,
                                                  Timestamp t1, Timestamp t2,
                                                  std::uint32_t partition,
                                                  Timestamp as_of,
                                                  SeekStats* stats) {
  QueryCost cost;
  const IndexedCheckpoints<control::WindowSnapshot> cps(
      rec, rec.index.windows.at(partition), as_of, cost);
  const control::CalibrationRecord cal =
      effective_calibration(rec, as_of, cost);
  const auto& p = cal.window_params;
  auto answer = control::walk_checkpoints(
      cps, core::TtsLayout(p),
      core::CoefficientTable::compute(cal.z0, p.alpha, p.num_windows),
      /*salvage_stale_cells=*/false, t1, t2);
  cost.report(rec, stats);
  return answer;
}

std::vector<core::OriginalCulprit> query_queue_monitor(
    const RecoveredPort& rec, Timestamp t, std::uint32_t partition,
    Timestamp as_of, SeekStats* stats) {
  QueryCost cost;
  const IndexedCheckpoints<control::MonitorSnapshot> cps(
      rec, rec.index.monitors.at(partition), as_of, cost);
  std::vector<core::OriginalCulprit> culprits;
  if (const auto pick = control::nearest_snapshot(cps, t)) {
    culprits = core::original_culprits(cps.snapshot(*pick).state);
  }
  cost.report(rec, stats);
  return culprits;
}

control::RegisterRecords ArchiveReader::to_records(std::uint32_t port,
                                                   Timestamp as_of) const {
  const RecoveredPort& rec = *ports_.at(port);
  control::RegisterRecords records;
  records.window_params = rec.header.window_params;
  records.monitor_levels = rec.header.monitor_levels;
  records.z0 = 1.0;
  records.window_snapshots.resize(rec.index.windows.size());
  records.monitor_snapshots.resize(rec.index.monitors.size());

  for (const auto& b : rec.blocks) {
    if (b.t_hi > as_of || b.kind == BlockKind::kDqCapture) continue;
    ++seek_stats_.blocks_decoded;
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

control::IntervalAnswer ArchiveReader::query_time_windows_detail(
    std::uint32_t port, Timestamp t1, Timestamp t2, std::uint32_t partition,
    Timestamp as_of) const {
  if (!opts_.use_seek_index) {
    return control::offline_query_time_windows(to_records(port, as_of),
                                               partition, t1, t2);
  }
  return store::query_time_windows_detail(*ports_.at(port), t1, t2, partition,
                                          as_of, &seek_stats_);
}

std::vector<core::OriginalCulprit> ArchiveReader::query_queue_monitor(
    std::uint32_t port, Timestamp t, std::uint32_t partition,
    Timestamp as_of) const {
  if (!opts_.use_seek_index) {
    return control::offline_query_queue_monitor(to_records(port, as_of),
                                                partition, t);
  }
  return store::query_queue_monitor(*ports_.at(port), t, partition, as_of,
                                    &seek_stats_);
}

std::vector<control::DqCapture> ArchiveReader::dq_captures(
    std::uint32_t port) const {
  std::vector<control::DqCapture> out;
  for (const auto& b : ports_.at(port)->blocks) {
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
    wire::put_u64(buf, rec->blocks.size());
    for (const auto& b : rec->blocks) {
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
