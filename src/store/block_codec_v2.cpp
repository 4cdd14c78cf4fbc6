#include "store/block_codec_v2.h"

#include <cstdint>

#include "store/varint.h"
#include "wire/bytes.h"

namespace pq::store {

namespace {

// Parsed rows, zero-initialized so an absent row deltas against zeros.
struct CellRow {
  bool occupied = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;
  std::uint64_t cycle_id = 0;

  bool operator==(const CellRow&) const = default;
};

struct MonitorHalfRow {
  bool valid = false;
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = 0;
  std::uint64_t seq = 0;

  bool operator==(const MonitorHalfRow&) const = default;
};

struct MonitorRow {
  MonitorHalfRow inc;
  MonitorHalfRow dec;

  bool operator==(const MonitorRow&) const = default;
};

std::int64_t diff(std::uint64_t cur, std::uint64_t prev) {
  return static_cast<std::int64_t>(cur - prev);
}

std::uint64_t apply(std::uint64_t prev, std::int64_t d) {
  return prev + static_cast<std::uint64_t>(d);
}

bool read_cell(wire::ByteReader& r, CellRow& cell) {
  const std::uint8_t occupied = r.u8();
  if (!r.ok() || occupied > 1) return false;
  cell = CellRow{};
  cell.occupied = occupied != 0;
  if (cell.occupied) {
    cell.src_ip = r.u32();
    cell.dst_ip = r.u32();
    cell.src_port = r.u16();
    cell.dst_port = r.u16();
    cell.proto = r.u8();
    cell.cycle_id = r.u64();
  }
  return r.ok();
}

void write_cell(std::vector<std::uint8_t>& buf, const CellRow& cell) {
  wire::put_u8(buf, cell.occupied ? 1 : 0);
  if (cell.occupied) {
    wire::put_u32(buf, cell.src_ip);
    wire::put_u32(buf, cell.dst_ip);
    wire::put_u16(buf, cell.src_port);
    wire::put_u16(buf, cell.dst_port);
    wire::put_u8(buf, cell.proto);
    wire::put_u64(buf, cell.cycle_id);
  }
}

void put_cell_delta(std::vector<std::uint8_t>& buf, const CellRow& prev,
                    const CellRow& cur) {
  wire::put_u8(buf, cur.occupied ? 1 : 0);
  if (!cur.occupied) return;
  put_svarint(buf, diff(cur.src_ip, prev.src_ip));
  put_svarint(buf, diff(cur.dst_ip, prev.dst_ip));
  put_svarint(buf, diff(cur.src_port, prev.src_port));
  put_svarint(buf, diff(cur.dst_port, prev.dst_port));
  put_svarint(buf, diff(cur.proto, prev.proto));
  put_svarint(buf, diff(cur.cycle_id, prev.cycle_id));
}

bool get_cell_delta(wire::ByteReader& r, const CellRow& prev, CellRow& cur) {
  const std::uint8_t occupied = r.u8();
  if (!r.ok() || occupied > 1) return false;
  cur = CellRow{};
  cur.occupied = occupied != 0;
  if (!cur.occupied) return true;
  std::int64_t d[6];
  for (auto& v : d) {
    if (!get_svarint(r, v)) return false;
  }
  cur.src_ip = static_cast<std::uint32_t>(apply(prev.src_ip, d[0]));
  cur.dst_ip = static_cast<std::uint32_t>(apply(prev.dst_ip, d[1]));
  cur.src_port = static_cast<std::uint16_t>(apply(prev.src_port, d[2]));
  cur.dst_port = static_cast<std::uint16_t>(apply(prev.dst_port, d[3]));
  cur.proto = static_cast<std::uint8_t>(apply(prev.proto, d[4]));
  cur.cycle_id = apply(prev.cycle_id, d[5]);
  return true;
}

bool read_monitor_half(wire::ByteReader& r, bool valid, MonitorHalfRow& half) {
  half = MonitorHalfRow{};
  half.valid = valid;
  if (valid) {
    half.src_ip = r.u32();
    half.dst_ip = r.u32();
    half.src_port = r.u16();
    half.dst_port = r.u16();
    half.proto = r.u8();
    half.seq = r.u64();
  }
  return r.ok();
}

bool read_monitor_row(wire::ByteReader& r, MonitorRow& row) {
  const std::uint8_t flags = r.u8();
  if (!r.ok() || (flags & ~3u) != 0) return false;
  return read_monitor_half(r, (flags & 1) != 0, row.inc) &&
         read_monitor_half(r, (flags & 2) != 0, row.dec);
}

void write_monitor_half(std::vector<std::uint8_t>& buf,
                        const MonitorHalfRow& half) {
  if (!half.valid) return;
  wire::put_u32(buf, half.src_ip);
  wire::put_u32(buf, half.dst_ip);
  wire::put_u16(buf, half.src_port);
  wire::put_u16(buf, half.dst_port);
  wire::put_u8(buf, half.proto);
  wire::put_u64(buf, half.seq);
}

void write_monitor_row(std::vector<std::uint8_t>& buf, const MonitorRow& row) {
  const std::uint8_t flags = static_cast<std::uint8_t>(
      (row.inc.valid ? 1 : 0) | (row.dec.valid ? 2 : 0));
  wire::put_u8(buf, flags);
  write_monitor_half(buf, row.inc);
  write_monitor_half(buf, row.dec);
}

void put_half_delta(std::vector<std::uint8_t>& buf, const MonitorHalfRow& prev,
                    const MonitorHalfRow& cur) {
  if (!cur.valid) return;
  put_svarint(buf, diff(cur.src_ip, prev.src_ip));
  put_svarint(buf, diff(cur.dst_ip, prev.dst_ip));
  put_svarint(buf, diff(cur.src_port, prev.src_port));
  put_svarint(buf, diff(cur.dst_port, prev.dst_port));
  put_svarint(buf, diff(cur.proto, prev.proto));
  put_svarint(buf, diff(cur.seq, prev.seq));
}

bool get_half_delta(wire::ByteReader& r, const MonitorHalfRow& prev,
                    bool valid, MonitorHalfRow& cur) {
  cur = MonitorHalfRow{};
  cur.valid = valid;
  if (!valid) return true;
  std::int64_t d[6];
  for (auto& v : d) {
    if (!get_svarint(r, v)) return false;
  }
  cur.src_ip = static_cast<std::uint32_t>(apply(prev.src_ip, d[0]));
  cur.dst_ip = static_cast<std::uint32_t>(apply(prev.dst_ip, d[1]));
  cur.src_port = static_cast<std::uint16_t>(apply(prev.src_port, d[2]));
  cur.dst_port = static_cast<std::uint16_t>(apply(prev.dst_port, d[3]));
  cur.proto = static_cast<std::uint8_t>(apply(prev.proto, d[4]));
  cur.seq = apply(prev.seq, d[5]);
  return true;
}

// Emits one skip-run token followed by a changed row, or a trailing run.
// The decoder mirrors this: per row position, a pending skip copies the
// previous snapshot's row; a zero skip introduces a changed-row record.
class RunEncoder {
 public:
  explicit RunEncoder(std::vector<std::uint8_t>& out) : out_(out) {}

  void unchanged() { ++run_; }

  void changed() {
    put_varint(out_, run_);
    run_ = 0;
  }

  void finish() {
    if (run_ > 0) put_varint(out_, run_);
  }

 private:
  std::vector<std::uint8_t>& out_;
  std::uint64_t run_ = 0;
};

class RunDecoder {
 public:
  explicit RunDecoder(wire::ByteReader& r) : r_(r) {}

  /// True when the row at the current position is unchanged (copy from
  /// prev); false when a changed-row record follows; nullopt-style failure
  /// via the `ok` out-param on a malformed token. A token of k means "k
  /// copies, then one changed record" — except the trailing token, which
  /// the row loop exhausts before the implied record is demanded.
  bool next_is_copy(bool& ok) {
    ok = true;
    if (copies_ > 0) {
      --copies_;
      return true;
    }
    if (changed_next_) {
      changed_next_ = false;
      return false;
    }
    std::uint64_t skip = 0;
    if (!get_varint(r_, skip)) {
      ok = false;
      return false;
    }
    if (skip == 0) return false;
    copies_ = skip - 1;
    changed_next_ = true;
    return true;
  }

  /// All promised copies consumed (a dangling changed_next_ is legal: it
  /// is how a trailing pure-skip run ends).
  bool drained() const { return copies_ == 0; }

 private:
  wire::ByteReader& r_;
  std::uint64_t copies_ = 0;
  bool changed_next_ = false;
};

// --- window snapshots -----------------------------------------------------

bool encode_window_delta(std::span<const std::uint8_t> prev,
                         std::span<const std::uint8_t> cur,
                         std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader cr(cur);
  const std::uint64_t p_taken = pr.u64(), p_epoch = pr.u64();
  const std::uint64_t c_taken = cr.u64(), c_epoch = cr.u64();
  const std::uint32_t p_windows = pr.u32(), c_windows = cr.u32();
  if (!pr.ok() || !cr.ok() || p_windows != c_windows) return false;
  put_svarint(out, diff(c_taken, p_taken));
  put_svarint(out, diff(c_epoch, p_epoch));
  RunEncoder runs(out);
  for (std::uint32_t w = 0; w < c_windows; ++w) {
    const std::uint32_t p_cells = pr.u32(), c_cells = cr.u32();
    if (!pr.ok() || !cr.ok() || p_cells != c_cells) return false;
    for (std::uint32_t c = 0; c < c_cells; ++c) {
      CellRow p, q;
      if (!read_cell(pr, p) || !read_cell(cr, q)) return false;
      if (p == q) {
        runs.unchanged();
      } else {
        runs.changed();
        put_cell_delta(out, p, q);
      }
    }
  }
  if (pr.remaining() != 0 || cr.remaining() != 0) return false;
  runs.finish();
  return true;
}

bool decode_window_delta(std::span<const std::uint8_t> prev,
                         std::span<const std::uint8_t> body,
                         std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader br(body);
  const std::uint64_t p_taken = pr.u64(), p_epoch = pr.u64();
  const std::uint32_t windows = pr.u32();
  std::int64_t d_taken = 0, d_epoch = 0;
  if (!pr.ok() || !get_svarint(br, d_taken) || !get_svarint(br, d_epoch)) {
    return false;
  }
  wire::put_u64(out, apply(p_taken, d_taken));
  wire::put_u64(out, apply(p_epoch, d_epoch));
  wire::put_u32(out, windows);
  RunDecoder runs(br);
  for (std::uint32_t w = 0; w < windows; ++w) {
    const std::uint32_t cells = pr.u32();
    if (!pr.ok()) return false;
    wire::put_u32(out, cells);
    for (std::uint32_t c = 0; c < cells; ++c) {
      CellRow p;
      if (!read_cell(pr, p)) return false;
      bool ok = false;
      if (runs.next_is_copy(ok)) {
        write_cell(out, p);
      } else if (ok) {
        CellRow q;
        if (!get_cell_delta(br, p, q)) return false;
        write_cell(out, q);
      } else {
        return false;
      }
    }
  }
  return pr.remaining() == 0 && br.remaining() == 0 && runs.drained();
}

// --- monitor snapshots ----------------------------------------------------

bool encode_monitor_delta(std::span<const std::uint8_t> prev,
                          std::span<const std::uint8_t> cur,
                          std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader cr(cur);
  const std::uint64_t p_taken = pr.u64(), p_epoch = pr.u64();
  const std::uint64_t c_taken = cr.u64(), c_epoch = cr.u64();
  const std::uint32_t p_top = pr.u32(), c_top = cr.u32();
  const std::uint32_t p_entries = pr.u32(), c_entries = cr.u32();
  if (!pr.ok() || !cr.ok() || p_entries != c_entries) return false;
  put_svarint(out, diff(c_taken, p_taken));
  put_svarint(out, diff(c_epoch, p_epoch));
  put_svarint(out, diff(c_top, p_top));
  RunEncoder runs(out);
  for (std::uint32_t i = 0; i < c_entries; ++i) {
    MonitorRow p, q;
    if (!read_monitor_row(pr, p) || !read_monitor_row(cr, q)) return false;
    if (p == q) {
      runs.unchanged();
    } else {
      runs.changed();
      const std::uint8_t flags = static_cast<std::uint8_t>(
          (q.inc.valid ? 1 : 0) | (q.dec.valid ? 2 : 0));
      wire::put_u8(out, flags);
      put_half_delta(out, p.inc, q.inc);
      put_half_delta(out, p.dec, q.dec);
    }
  }
  if (pr.remaining() != 0 || cr.remaining() != 0) return false;
  runs.finish();
  return true;
}

bool decode_monitor_delta(std::span<const std::uint8_t> prev,
                          std::span<const std::uint8_t> body,
                          std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader br(body);
  const std::uint64_t p_taken = pr.u64(), p_epoch = pr.u64();
  const std::uint32_t p_top = pr.u32();
  const std::uint32_t entries = pr.u32();
  std::int64_t d_taken = 0, d_epoch = 0, d_top = 0;
  if (!pr.ok() || !get_svarint(br, d_taken) || !get_svarint(br, d_epoch) ||
      !get_svarint(br, d_top)) {
    return false;
  }
  wire::put_u64(out, apply(p_taken, d_taken));
  wire::put_u64(out, apply(p_epoch, d_epoch));
  wire::put_u32(out, static_cast<std::uint32_t>(apply(p_top, d_top)));
  wire::put_u32(out, entries);
  RunDecoder runs(br);
  for (std::uint32_t i = 0; i < entries; ++i) {
    MonitorRow p;
    if (!read_monitor_row(pr, p)) return false;
    bool ok = false;
    if (runs.next_is_copy(ok)) {
      write_monitor_row(out, p);
    } else if (ok) {
      const std::uint8_t flags = br.u8();
      if (!br.ok() || (flags & ~3u) != 0) return false;
      MonitorRow q;
      if (!get_half_delta(br, p.inc, (flags & 1) != 0, q.inc) ||
          !get_half_delta(br, p.dec, (flags & 2) != 0, q.dec)) {
        return false;
      }
      write_monitor_row(out, q);
    } else {
      return false;
    }
  }
  return pr.remaining() == 0 && br.remaining() == 0 && runs.drained();
}

// --- calibration records --------------------------------------------------

bool encode_calibration_delta(std::span<const std::uint8_t> prev,
                              std::span<const std::uint8_t> cur,
                              std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader cr(cur);
  const std::uint64_t p_taken = pr.u64(), c_taken = cr.u64();
  std::uint32_t p_fields[5], c_fields[5];
  for (int i = 0; i < 5; ++i) {
    p_fields[i] = pr.u32();
    c_fields[i] = cr.u32();
  }
  const std::uint8_t p_wrap = pr.u8(), c_wrap = cr.u8();
  const std::uint32_t p_levels = pr.u32(), c_levels = cr.u32();
  const std::uint64_t z0_bits = cr.u64();
  pr.u64();  // prev z0
  if (!pr.ok() || !cr.ok() || pr.remaining() != 0 || cr.remaining() != 0) {
    return false;
  }
  (void)p_wrap;
  put_svarint(out, diff(c_taken, p_taken));
  for (int i = 0; i < 5; ++i) put_svarint(out, diff(c_fields[i], p_fields[i]));
  wire::put_u8(out, c_wrap);
  put_svarint(out, diff(c_levels, p_levels));
  wire::put_u64(out, z0_bits);  // FP bits: never deltaed, always verbatim
  return true;
}

bool decode_calibration_delta(std::span<const std::uint8_t> prev,
                              std::span<const std::uint8_t> body,
                              std::vector<std::uint8_t>& out) {
  wire::ByteReader pr(prev);
  wire::ByteReader br(body);
  const std::uint64_t p_taken = pr.u64();
  std::uint32_t p_fields[5];
  for (auto& f : p_fields) f = pr.u32();
  pr.u8();   // prev wrap32
  const std::uint32_t p_levels = pr.u32();
  pr.u64();  // prev z0
  if (!pr.ok() || pr.remaining() != 0) return false;
  std::int64_t d_taken = 0, d_fields[5], d_levels = 0;
  if (!get_svarint(br, d_taken)) return false;
  for (auto& d : d_fields) {
    if (!get_svarint(br, d)) return false;
  }
  const std::uint8_t wrap = br.u8();
  if (!br.ok() || wrap > 1 || !get_svarint(br, d_levels)) return false;
  const std::uint64_t z0_bits = br.u64();
  if (!br.ok() || br.remaining() != 0) return false;
  wire::put_u64(out, apply(p_taken, d_taken));
  for (int i = 0; i < 5; ++i) {
    wire::put_u32(out,
                  static_cast<std::uint32_t>(apply(p_fields[i], d_fields[i])));
  }
  wire::put_u8(out, wrap);
  wire::put_u32(out, static_cast<std::uint32_t>(apply(p_levels, d_levels)));
  wire::put_u64(out, z0_bits);
  return true;
}

/// Encodes `cur` as a delta body against `prev` (both logical payloads of
/// the same kind). Returns false, leaving `out` unspecified, when the kind
/// never deltas (DQ captures), the snapshots' structure differs, or either
/// payload fails to parse.
bool encode_delta_payload(BlockKind kind, std::span<const std::uint8_t> prev,
                          std::span<const std::uint8_t> cur,
                          std::vector<std::uint8_t>& out) {
  out.clear();
  switch (kind) {
    case BlockKind::kWindowSnapshot:
      return encode_window_delta(prev, cur, out);
    case BlockKind::kMonitorSnapshot:
      return encode_monitor_delta(prev, cur, out);
    case BlockKind::kCalibration:
      return encode_calibration_delta(prev, cur, out);
    case BlockKind::kDqCapture:
      return false;  // rare and irregular: always raw
  }
  return false;
}

/// Reconstructs the logical payload from a delta `body` and the previous
/// block's logical payload. Returns false on any malformed input.
bool decode_delta_payload(BlockKind kind, std::span<const std::uint8_t> prev,
                          std::span<const std::uint8_t> body,
                          std::vector<std::uint8_t>& out) {
  out.clear();
  switch (kind) {
    case BlockKind::kWindowSnapshot:
      return decode_window_delta(prev, body, out);
    case BlockKind::kMonitorSnapshot:
      return decode_monitor_delta(prev, body, out);
    case BlockKind::kCalibration:
      return decode_calibration_delta(prev, body, out);
    case BlockKind::kDqCapture:
      return false;
  }
  return false;
}

std::pair<std::uint8_t, std::uint32_t> base_key(BlockKind kind,
                                                std::uint32_t partition) {
  return {static_cast<std::uint8_t>(kind), partition};
}

}  // namespace

bool SegmentPayloadCodec::encode(BlockKind kind, std::uint32_t partition,
                                 std::span<const std::uint8_t> logical,
                                 std::vector<std::uint8_t>& out) const {
  out.clear();
  const auto base = bases_.find(base_key(kind, partition));
  std::vector<std::uint8_t> body;
  if (base != bases_.end() &&
      encode_delta_payload(kind, base->second, logical, body) &&
      body.size() < logical.size()) {
    out.reserve(body.size() + 1);
    out.push_back(kEncodingDelta);
    out.insert(out.end(), body.begin(), body.end());
    return true;
  }
  out.reserve(logical.size() + 1);
  out.push_back(kEncodingRaw);
  out.insert(out.end(), logical.begin(), logical.end());
  return false;
}

void SegmentPayloadCodec::advance(BlockKind kind, std::uint32_t partition,
                                  std::span<const std::uint8_t> logical) {
  if (kind == BlockKind::kDqCapture) return;
  bases_[base_key(kind, partition)].assign(logical.begin(), logical.end());
}

BlockDecodeStatus SegmentPayloadCodec::decode(
    BlockKind kind, std::uint32_t partition,
    std::span<const std::uint8_t> payload, std::vector<std::uint8_t>& logical) {
  if (payload.empty() ||
      (payload[0] != kEncodingRaw && payload[0] != kEncodingDelta)) {
    return BlockDecodeStatus::kBadEncodingTag;
  }
  const auto body = payload.subspan(1);
  if (payload[0] == kEncodingRaw) {
    logical.assign(body.begin(), body.end());
  } else {
    const auto base = bases_.find(base_key(kind, partition));
    if (base == bases_.end()) return BlockDecodeStatus::kMissingDeltaBase;
    if (!decode_delta_payload(kind, base->second, body, logical)) {
      return BlockDecodeStatus::kCorruptDelta;
    }
  }
  advance(kind, partition, logical);
  return BlockDecodeStatus::kOk;
}

}  // namespace pq::store
