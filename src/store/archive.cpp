#include "store/archive.h"

#include <unistd.h>

#include <algorithm>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/hash.h"
#include "control/register_records.h"
#include "control/sharded_analysis.h"
#include "core/port_pipeline.h"
#include "faults/sharded_faults.h"
#include "store/archive_reader.h"
#include "wire/bytes.h"

namespace pq::store {

const char* to_string(BlockKind kind) {
  switch (kind) {
    case BlockKind::kWindowSnapshot: return "window-snapshot";
    case BlockKind::kMonitorSnapshot: return "monitor-snapshot";
    case BlockKind::kDqCapture: return "dq-capture";
    case BlockKind::kCalibration: return "calibration";
  }
  return "unknown";
}

bool is_valid(BlockKind kind) {
  switch (kind) {
    case BlockKind::kWindowSnapshot:
    case BlockKind::kMonitorSnapshot:
    case BlockKind::kDqCapture:
    case BlockKind::kCalibration:
      return true;
  }
  return false;
}

const char* to_string(BlockDecodeStatus status) {
  switch (status) {
    case BlockDecodeStatus::kOk: return "ok";
    case BlockDecodeStatus::kBadEncodingTag: return "bad-encoding-tag";
    case BlockDecodeStatus::kMissingDeltaBase: return "missing-delta-base";
    case BlockDecodeStatus::kCorruptDelta: return "corrupt-delta";
    case BlockDecodeStatus::kMalformedRecord: return "malformed-record";
  }
  return "unknown";
}

void encode_segment_header(std::vector<std::uint8_t>& buf,
                           const SegmentHeader& header) {
  wire::put_u32(buf, kSegmentMagic);
  wire::put_u16(buf, header.version);
  wire::put_u16(buf, 0);  // reserved
  wire::put_u32(buf, header.port);
  wire::put_u32(buf, header.segment_index);
  control::put_register_layout(buf, header.window_params,
                               header.monitor_levels);
  wire::put_u32(buf, crc32(buf.data(), buf.size()));
}

bool decode_segment_header(std::span<const std::uint8_t> data,
                           SegmentHeader& out, std::size_t& consumed) {
  wire::ByteReader r(data);
  if (r.u32() != kSegmentMagic) return false;
  const std::uint16_t version = r.u16();
  if (version != kFormatVersionV1 && version != kFormatVersionV2) return false;
  out.version = version;
  r.u16();  // reserved
  out.port = r.u32();
  out.segment_index = r.u32();
  if (!control::get_register_layout(r, out.window_params,
                                    out.monitor_levels)) {
    return false;
  }
  const std::size_t crc_off = r.offset();
  const std::uint32_t stored = r.u32();
  if (!r.ok()) return false;
  if (crc32(data.data(), crc_off) != stored) return false;
  consumed = r.offset();
  return true;
}

std::vector<std::uint8_t> encode_block(BlockKind kind, std::uint32_t partition,
                                       std::uint64_t t_lo, std::uint64_t t_hi,
                                       std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> buf;
  buf.reserve(kBlockOverheadBytes + payload.size());
  wire::put_u32(buf, kBlockMagic);
  wire::put_u8(buf, static_cast<std::uint8_t>(kind));
  wire::put_u32(buf, partition);
  wire::put_u64(buf, t_lo);
  wire::put_u64(buf, t_hi);
  wire::put_u32(buf, static_cast<std::uint32_t>(payload.size()));
  buf.insert(buf.end(), payload.begin(), payload.end());
  wire::put_u32(buf, crc32(buf.data(), buf.size()));
  return buf;
}

std::vector<TimeIndexSample> build_time_index(
    const std::vector<IndexEntry>& entries, std::uint32_t stride) {
  std::vector<TimeIndexSample> samples;
  if (entries.empty() || stride == 0) return samples;
  const std::size_t n = entries.size();
  // suffix minima first, sampled positions only.
  std::vector<std::uint64_t> suffix_min(n);
  std::uint64_t running = entries[n - 1].t_hi;
  for (std::size_t i = n; i-- > 0;) {
    running = std::min(running, entries[i].t_hi);
    suffix_min[i] = running;
  }
  std::uint64_t prefix_max = 0;
  std::size_t next_sample = 0;
  for (std::size_t i = 0; i < n; ++i) {
    prefix_max = std::max(prefix_max, entries[i].t_hi);
    if (i == next_sample) {
      samples.push_back({i, prefix_max, suffix_min[i]});
      next_sample += stride;
    }
  }
  return samples;
}

std::vector<std::uint8_t> encode_footer(std::uint64_t blocks_bytes,
                                        const std::vector<IndexEntry>& index,
                                        std::uint16_t version) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, kFooterMagic);
  wire::put_u64(buf, blocks_bytes);
  wire::put_u64(buf, index.size());
  for (const auto& e : index) {
    wire::put_u8(buf, static_cast<std::uint8_t>(e.kind));
    wire::put_u32(buf, e.partition);
    wire::put_u64(buf, e.t_lo);
    wire::put_u64(buf, e.t_hi);
    wire::put_u64(buf, e.offset);
    wire::put_u32(buf, e.length);
  }
  if (version >= kFormatVersionV2) {
    const auto samples = build_time_index(index, kSeekIndexStride);
    wire::put_u32(buf, kSeekIndexStride);
    wire::put_u64(buf, samples.size());
    for (const auto& s : samples) {
      wire::put_u64(buf, s.ordinal);
      wire::put_u64(buf, s.prefix_max_t_hi);
      wire::put_u64(buf, s.suffix_min_t_hi);
    }
  }
  wire::put_u32(buf, crc32(buf.data(), buf.size()));
  // Trailer: footer length (magic through crc) + end magic, so the footer
  // is locatable from EOF without scanning.
  wire::put_u32(buf, static_cast<std::uint32_t>(buf.size()));
  wire::put_u32(buf, kEndMagic);
  return buf;
}

SegmentScan scan_segment_bytes(std::span<const std::uint8_t> data,
                               std::uint32_t expected_port) {
  SegmentScan scan;
  std::size_t offset = 0;
  if (!decode_segment_header(data, scan.header, offset) ||
      scan.header.port != expected_port) {
    return scan;
  }
  scan.header_ok = true;
  scan.header_bytes = offset;

  // Sequential scan: every frame re-verified, stop at the first bad byte.
  while (offset < data.size()) {
    wire::ByteReader r(data.subspan(offset));
    if (r.u32() != kBlockMagic) break;
    const auto kind = static_cast<BlockKind>(r.u8());
    const std::uint32_t partition = r.u32();
    const std::uint64_t t_lo = r.u64();
    const std::uint64_t t_hi = r.u64();
    const std::uint32_t payload_len = r.u32();
    if (!r.ok() || !is_valid(kind)) break;
    if (payload_len + 4ull > r.remaining()) break;  // frame overruns EOF
    const std::size_t frame_len = kBlockOverheadBytes + payload_len;
    const std::uint32_t computed = crc32(data.data() + offset, frame_len - 4);
    wire::ByteReader crc_r(data.subspan(offset + frame_len - 4));
    if (computed != crc_r.u32()) break;

    scan.entries.push_back({kind, partition, t_lo, t_hi, offset,
                            static_cast<std::uint32_t>(frame_len)});
    offset += frame_len;
  }
  scan.blocks_bytes = offset - scan.header_bytes;

  // Footer check: must run exactly to EOF, pass its CRC, and agree with the
  // sequential scan (it only ever *confirms* a clean close).
  const auto footer_checks_out = [&]() -> bool {
    if (data.size() < offset + 8) return false;
    wire::ByteReader trailer(data.subspan(data.size() - 8));
    const std::uint32_t footer_len = trailer.u32();
    if (trailer.u32() != kEndMagic) return false;
    if (footer_len + 8ull != data.size() - offset) return false;
    const auto footer = data.subspan(offset, footer_len);
    wire::ByteReader r(footer);
    if (r.u32() != kFooterMagic) return false;
    const std::uint64_t blocks_bytes = r.u64();
    const std::uint64_t count = r.u64();
    if (blocks_bytes != scan.blocks_bytes || count != scan.entries.size()) {
      return false;
    }
    r.skip(count * 33);  // index entries: 1+4+8+8+8+4 bytes each
    if (scan.header.version >= kFormatVersionV2) {
      // The sparse time index must match what this scan would build — the
      // footer only ever *confirms*, it is never trusted over the scan.
      const std::uint32_t stride = r.u32();
      std::uint64_t sample_count = 0;
      if (!r.ok() || stride == 0) return false;
      sample_count = r.u64();
      const auto expected = build_time_index(scan.entries, stride);
      if (!r.ok() || sample_count != expected.size()) return false;
      for (const auto& s : expected) {
        if (r.u64() != s.ordinal || r.u64() != s.prefix_max_t_hi ||
            r.u64() != s.suffix_min_t_hi) {
          return false;
        }
      }
    }
    const std::size_t crc_off = r.offset();
    const std::uint32_t stored = r.u32();
    if (!r.ok() || r.offset() != footer.size()) return false;
    return crc32(footer.data(), crc_off) == stored;
  };
  scan.footer_ok = footer_checks_out();
  return scan;
}

std::string port_dir(const std::string& archive_dir, std::uint32_t port) {
  return archive_dir + "/port-" + std::to_string(port);
}

std::string segment_path(const std::string& archive_dir, std::uint32_t port,
                         std::uint32_t segment_index) {
  char name[32];
  std::snprintf(name, sizeof name, "seg-%06u.pqs", segment_index);
  return port_dir(archive_dir, port) + "/" + name;
}

// --- ArchiveWriter --------------------------------------------------------

namespace {

/// Truncates the file a chain ends on to its valid prefix and appends the
/// footer a clean close would have written, in the segment's own version.
/// The sealed segment holds exactly the blocks ArchiveReader recovers from
/// the damaged file, so the repair is content-neutral. Throws when the
/// footer may not have reached the file, which still holds its valid
/// prefix.
void seal_valid_prefix(const std::string& path, const ChainEnd::Seal& seal,
                       FsyncPolicy policy) {
  std::error_code ec;
  std::filesystem::resize_file(path, seal.valid_bytes, ec);
  std::FILE* f = ec ? nullptr : std::fopen(path.c_str(), "ab");
  if (f == nullptr) throw std::runtime_error("pq::store: cannot seal " + path);
  const auto footer = encode_footer(seal.valid_bytes - seal.header_bytes,
                                    seal.kept, seal.version);
  bool ok = std::fwrite(footer.data(), 1, footer.size(), f) == footer.size();
  if (ok && policy != FsyncPolicy::kNone) {
    ok = std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  }
  ok = std::fclose(f) == 0 && ok;
  if (!ok) throw std::runtime_error("pq::store: cannot seal " + path);
}

}  // namespace

ArchiveWriter::ArchiveWriter(std::uint32_t port,
                             const core::TimeWindowParams& params,
                             std::uint32_t monitor_levels, ArchiveOptions opts,
                             faults::TornWriteInjector* write_faults,
                             const ChainEnd* chain_end)
    : port_(port),
      params_(params),
      monitor_levels_(monitor_levels),
      opts_(std::move(opts)),
      write_faults_(write_faults),
      t_set_(core::TtsLayout(params).set_period_ns()) {
  if (opts_.format_version != kFormatVersionV2) {
    throw std::runtime_error("pq::store: unsupported archive format version " +
                             std::to_string(opts_.format_version) +
                             " (the writer writes v2 only)");
  }
  if (!opts_.resume) return;
  // Resume applies the recovery scan's record of where the chain ends.
  const ChainEnd end =
      chain_end != nullptr ? *chain_end : scan_chain_end(opts_.dir, port_);
  if (end.seal || !end.discard.empty()) ++stats_.tail_repairs;
  if (end.seal) {
    seal_valid_prefix(segment_path(opts_.dir, port_, end.seal->index),
                      *end.seal, opts_.fsync);
  }
  std::error_code ec;
  for (const std::uint32_t index : end.discard) {
    std::filesystem::remove(segment_path(opts_.dir, port_, index), ec);
  }
  live_segments_ = end.live;
  next_segment_index_ =
      live_segments_.empty() ? 0 : live_segments_.back() + 1;
}

ArchiveWriter::~ArchiveWriter() {
  try {
    close();
  } catch (...) {
    // Destructor path: losing the footer degrades to the crash-recovery
    // case, which is always safe to read.
  }
}

void ArchiveWriter::on_window_snapshot(std::uint32_t port,
                                       const control::WindowSnapshot& snap) {
  const std::uint64_t t_lo =
      snap.taken_at > static_cast<Timestamp>(t_set_)
          ? snap.taken_at - static_cast<Timestamp>(t_set_)
          : 0;
  append(BlockKind::kWindowSnapshot, port, t_lo, snap.taken_at, snap,
         control::window_snapshot_bytes(snap));
}

void ArchiveWriter::on_monitor_snapshot(std::uint32_t partition,
                                        const control::MonitorSnapshot& snap) {
  append(BlockKind::kMonitorSnapshot, partition, snap.taken_at,
         snap.taken_at, snap, control::monitor_snapshot_bytes(snap));
}

void ArchiveWriter::on_dq_capture(std::uint32_t port,
                                  const control::DqCapture& cap) {
  append(BlockKind::kDqCapture, port, cap.notification.enq_timestamp,
         cap.notification.deq_timestamp, cap, control::dq_capture_bytes(cap));
}

void ArchiveWriter::on_calibration(const control::CalibrationRecord& cal) {
  append(BlockKind::kCalibration, 0, cal.taken_at, cal.taken_at, cal,
         control::calibration_bytes(cal));
}

template <class Record>
void ArchiveWriter::append(BlockKind kind, std::uint32_t partition,
                           std::uint64_t t_lo, std::uint64_t t_hi,
                           const Record& rec, std::size_t logical_size) {
  if (dead_ || closed_) return;
  std::vector<std::uint8_t> payload;
  bool is_delta = codec_.encode(partition, rec, logical_size, payload);
  std::vector<std::uint8_t> frame =
      encode_block(kind, partition, t_lo, t_hi, payload);
  // A segment rolls when this frame would push it past capacity (a lone
  // oversized frame is still written whole). The block that opens a
  // segment is its keyframe: delta bases never cross a segment boundary.
  if (file_ == nullptr ||
      (segment_block_bytes_ > 0 &&
       header_bytes_ + segment_block_bytes_ + frame.size() >
           opts_.segment_bytes)) {
    close_segment();
    open_segment();
    if (is_delta) {
      is_delta = codec_.encode(partition, rec, logical_size, payload);
      frame = encode_block(kind, partition, t_lo, t_hi, payload);
    }
  }
  codec_.advance(partition, rec);

  const std::size_t persisted =
      write_faults_ != nullptr ? write_faults_->on_append(frame)
                               : frame.size();
  if (persisted > 0 &&
      std::fwrite(frame.data(), 1, persisted, file_) != persisted) {
    fail_segment("cannot append to");
  }
  if (persisted < frame.size()) {
    // Injected crash: the prefix reaches disk, then the process is gone.
    // No footer, no further appends — recovery is the reader's job.
    ++stats_.torn_writes;
    std::fflush(file_);
    std::fclose(file_);
    file_ = nullptr;
    dead_ = true;
    return;
  }

  segment_index_.push_back({kind, partition, t_lo, t_hi,
                            header_bytes_ + segment_block_bytes_,
                            static_cast<std::uint32_t>(frame.size())});
  segment_block_bytes_ += frame.size();
  ++stats_.blocks_appended;
  stats_.bytes_appended += frame.size();
  stats_.logical_bytes += kBlockOverheadBytes + logical_size;
  if (is_delta) {
    ++stats_.blocks_delta;
  } else {
    ++stats_.blocks_raw;
  }
  if (opts_.fsync == FsyncPolicy::kPerBlock) sync_file();
}

void ArchiveWriter::flush() {
  if (file_ != nullptr && std::fflush(file_) != 0) {
    fail_segment("cannot flush");
  }
}

void ArchiveWriter::apply_retention() {
  if (opts_.retain_segments == 0) return;
  std::error_code ec;
  while (live_segments_.size() > opts_.retain_segments) {
    std::filesystem::remove(
        segment_path(opts_.dir, port_, live_segments_.front()), ec);
    live_segments_.erase(live_segments_.begin());
    ++stats_.segments_retired;
  }
}

void ArchiveWriter::open_segment() {
  std::error_code ec;
  std::filesystem::create_directories(port_dir(opts_.dir, port_), ec);
  if (ec) {
    throw std::runtime_error("pq::store: cannot create " +
                             port_dir(opts_.dir, port_) + ": " + ec.message());
  }
  const std::string path =
      segment_path(opts_.dir, port_, next_segment_index_);
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("pq::store: cannot open " + path);
  }
  std::vector<std::uint8_t> header;
  encode_segment_header(header, {port_, next_segment_index_, params_,
                                 monitor_levels_, kFormatVersionV2});
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size()) {
    throw std::runtime_error("pq::store: segment header write failed");
  }
  header_bytes_ = header.size();
  segment_block_bytes_ = 0;
  segment_index_.clear();
  codec_.reset();
  live_segments_.push_back(next_segment_index_);
  ++next_segment_index_;
  ++stats_.segments_opened;
}

void ArchiveWriter::close_segment() {
  if (file_ == nullptr) return;
  const auto footer =
      encode_footer(segment_block_bytes_, segment_index_, kFormatVersionV2);
  if (std::fwrite(footer.data(), 1, footer.size(), file_) != footer.size()) {
    fail_segment("cannot seal");
  }
  if (opts_.fsync != FsyncPolicy::kNone) sync_file();
  if (std::fclose(std::exchange(file_, nullptr)) != 0) {
    fail_segment("cannot seal");
  }
  segment_index_.clear();
  ++stats_.segments_closed;
  apply_retention();
}

void ArchiveWriter::sync_file() {
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    fail_segment("cannot sync");
  }
  ++stats_.fsyncs;
}

void ArchiveWriter::fail_segment(const char* what) {
  if (file_ != nullptr) std::fclose(file_);
  file_ = nullptr;
  dead_ = true;
  throw std::runtime_error(
      std::string("pq::store: ") + what + " " +
      segment_path(opts_.dir, port_, next_segment_index_ - 1));
}

void ArchiveWriter::close() {
  if (closed_) return;
  if (!dead_) close_segment();
  closed_ = true;
}

// --- Archive --------------------------------------------------------------

Archive::Archive(ArchiveOptions opts) : opts_(std::move(opts)) {
  std::error_code ec;
  if (opts_.resume && std::filesystem::is_directory(opts_.dir, ec)) {
    ReaderOptions ropts;
    ropts.threads = std::max(1u, std::thread::hardware_concurrency());
    recovery_ = std::make_unique<const ArchiveReader>(opts_.dir, ropts);
  }
}

Archive::~Archive() {
  try {
    close();
  } catch (...) {
  }
}

ArchiveWriter& Archive::writer(std::uint32_t port,
                               const core::TimeWindowParams& params,
                               std::uint32_t monitor_levels,
                               faults::TornWriteInjector* write_faults) {
  auto it = writers_.find(port);
  if (it == writers_.end()) {
    // Without a scan there is no chain to resume: the writer starts fresh.
    const ChainEnd end = recovery_ ? recovery_->chain_end(port) : ChainEnd{};
    it = writers_
             .emplace(port, std::make_unique<ArchiveWriter>(
                                port, params, monitor_levels, opts_,
                                write_faults, &end))
             .first;
  }
  return *it->second;
}

void Archive::attach(core::ShardedPipeline& pipeline,
                     control::ShardedAnalysis& analysis,
                     faults::ShardedFaultPlan* faults) {
  for (std::uint32_t prefix = 0;
       prefix < static_cast<std::uint32_t>(pipeline.num_shards()); ++prefix) {
    auto& pipe = pipeline.shard(prefix).pipeline();
    faults::TornWriteInjector* injector =
        faults != nullptr ? &faults->plan_for(prefix).torn_writes() : nullptr;
    auto& w = writer(prefix, pipe.windows().params(),
                     pipe.monitor().params().levels(), injector);
    analysis.program(prefix).set_sink(&w);
  }
}

void Archive::close() {
  std::exception_ptr first;
  for (auto& [port, w] : writers_) {
    try {
      w->close();
    } catch (...) {
      if (!first) first = std::current_exception();
    }
  }
  if (first) std::rethrow_exception(first);
}

void Archive::flush_all() {
  for (auto& [port, w] : writers_) w->flush();
}

WriterStats Archive::stats() const {
  WriterStats sum;
  for (const auto& [port, w] : writers_) {
    const WriterStats& s = w->stats();
    sum.blocks_appended += s.blocks_appended;
    sum.bytes_appended += s.bytes_appended;
    sum.segments_opened += s.segments_opened;
    sum.segments_closed += s.segments_closed;
    sum.fsyncs += s.fsyncs;
    sum.torn_writes += s.torn_writes;
    sum.segments_retired += s.segments_retired;
    sum.tail_repairs += s.tail_repairs;
    sum.logical_bytes += s.logical_bytes;
    sum.blocks_delta += s.blocks_delta;
    sum.blocks_raw += s.blocks_raw;
  }
  return sum;
}

void export_writer_metrics(obs::MetricsRegistry& reg, const WriterStats& s) {
  reg.counter("pq_store_blocks_appended_total",
              "telemetry blocks appended to archive segments")
      .inc(s.blocks_appended);
  reg.counter("pq_store_bytes_appended_total",
              "bytes appended to archive segments (frames incl. overhead)")
      .inc(s.bytes_appended);
  reg.counter("pq_store_segments_opened_total", "segment files created")
      .inc(s.segments_opened);
  reg.counter("pq_store_segments_closed_total",
              "segment files closed cleanly (footer written)")
      .inc(s.segments_closed);
  reg.counter("pq_store_fsyncs_total", "fsync calls per the durability policy")
      .inc(s.fsyncs);
  reg.counter("pq_store_torn_writes_total",
              "injected mid-append crashes (faults layer)")
      .inc(s.torn_writes);
  reg.counter("pq_store_segments_retired_total",
              "segment files deleted by the retention policy")
      .inc(s.segments_retired);
  reg.counter("pq_store_tail_repairs_total",
              "torn segment tails repaired (or discarded) on resume")
      .inc(s.tail_repairs);
  reg.counter("pq_store_logical_bytes_total",
              "uncompressed (v1-frame) bytes of the appended stream")
      .inc(s.logical_bytes);
  reg.counter("pq_store_blocks_delta_total",
              "v2 blocks written delta-compressed")
      .inc(s.blocks_delta);
  reg.counter("pq_store_blocks_raw_total",
              "v2 blocks written raw (keyframes and fallbacks)")
      .inc(s.blocks_raw);
  if (s.bytes_appended > 0) {
    reg.gauge("pq_store_compression_ratio_milli", obs::GaugeMode::kMax,
              "logical/physical archive byte ratio x1000")
        .set_max(s.logical_bytes * 1000 / s.bytes_appended);
  }
}

}  // namespace pq::store
