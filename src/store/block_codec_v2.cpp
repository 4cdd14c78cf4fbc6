#include "store/block_codec_v2.h"

#include <cstdint>
#include <type_traits>

#include "control/register_records.h"
#include "store/varint.h"
#include "wire/bytes.h"

namespace pq::store {

namespace {

std::int64_t diff(std::uint64_t cur, std::uint64_t prev) {
  return static_cast<std::int64_t>(cur - prev);
}

/// Reads one zig-zag varint delta and applies it to `field` in place.
template <class Field>
bool get_delta(wire::ByteReader& r, Field& field) {
  std::int64_t d = 0;
  if (!get_svarint(r, d)) return false;
  field = static_cast<Field>(static_cast<std::uint64_t>(field) +
                             static_cast<std::uint64_t>(d));
  return true;
}

void put_flow_delta(std::vector<std::uint8_t>& buf, const FlowId& prev,
                    const FlowId& cur) {
  put_svarint(buf, diff(cur.src_ip, prev.src_ip));
  put_svarint(buf, diff(cur.dst_ip, prev.dst_ip));
  put_svarint(buf, diff(cur.src_port, prev.src_port));
  put_svarint(buf, diff(cur.dst_port, prev.dst_port));
  put_svarint(buf, diff(cur.proto, prev.proto));
}

bool get_flow_delta(wire::ByteReader& r, FlowId& f) {
  return get_delta(r, f.src_ip) && get_delta(r, f.dst_ip) &&
         get_delta(r, f.src_port) && get_delta(r, f.dst_port) &&
         get_delta(r, f.proto);
}

// Emits one skip-run token followed by a changed row, or a trailing run.
// The decoder mirrors this: per row position, a pending skip keeps the
// previous record's row; a zero skip introduces a changed-row record.
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

  /// True when the row at the current position is unchanged (keep the
  /// previous record's row); false when a changed-row record follows;
  /// nullopt-style failure via the `ok` out-param on a malformed token. A
  /// token of k means "k copies, then one changed record" — except the
  /// trailing token, which the row loop exhausts before the implied record
  /// is demanded.
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

// Rows as the logical payload sees them: an empty row carries no fields, so
// two empty rows are equal whatever stale flow they still hold, and a row
// deltas against zeros when its base row is empty. The decoder keeps the
// empty rows of its records zeroed (get_* and the deltas below both do), so
// there the base row is the row itself.

const core::WindowCell kEmptyCell{};
const core::MonitorHalf kEmptyHalf{};

// --- window snapshots -----------------------------------------------------

bool same_cell(const core::WindowCell& a, const core::WindowCell& b) {
  return a.occupied == b.occupied &&
         (!a.occupied || (a.flow == b.flow && a.cycle_id == b.cycle_id));
}

void put_cell_delta(std::vector<std::uint8_t>& buf,
                    const core::WindowCell& prev, const core::WindowCell& cur) {
  wire::put_u8(buf, cur.occupied ? 1 : 0);
  if (!cur.occupied) return;
  const core::WindowCell& base = prev.occupied ? prev : kEmptyCell;
  put_flow_delta(buf, base.flow, cur.flow);
  put_svarint(buf, diff(cur.cycle_id, base.cycle_id));
}

bool apply_cell_delta(wire::ByteReader& r, core::WindowCell& cell) {
  const std::uint8_t occupied = r.u8();
  if (!r.ok() || occupied > 1) return false;
  if (occupied == 0) {
    cell = kEmptyCell;
    return true;
  }
  cell.occupied = true;
  return get_flow_delta(r, cell.flow) && get_delta(r, cell.cycle_id);
}

bool encode_delta(const control::WindowSnapshot& prev,
                  const control::WindowSnapshot& cur,
                  std::vector<std::uint8_t>& out) {
  if (prev.state.size() != cur.state.size()) return false;
  put_svarint(out, diff(cur.taken_at, prev.taken_at));
  put_svarint(out, diff(cur.epoch, prev.epoch));
  RunEncoder runs(out);
  for (std::size_t w = 0; w < cur.state.size(); ++w) {
    const auto& p = prev.state[w];
    const auto& q = cur.state[w];
    if (p.size() != q.size()) return false;
    for (std::size_t c = 0; c < q.size(); ++c) {
      if (same_cell(p[c], q[c])) {
        runs.unchanged();
      } else {
        runs.changed();
        put_cell_delta(out, p[c], q[c]);
      }
    }
  }
  runs.finish();
  return true;
}

bool apply_delta(wire::ByteReader& body, control::WindowSnapshot& base) {
  if (!get_delta(body, base.taken_at) || !get_delta(body, base.epoch)) {
    return false;
  }
  RunDecoder runs(body);
  for (auto& window : base.state) {
    for (auto& cell : window) {
      bool ok = false;
      if (runs.next_is_copy(ok)) continue;
      if (!ok || !apply_cell_delta(body, cell)) return false;
    }
  }
  return body.remaining() == 0 && runs.drained();
}

// --- monitor snapshots ----------------------------------------------------

bool same_half(const core::MonitorHalf& a, const core::MonitorHalf& b) {
  return a.valid == b.valid &&
         (!a.valid || (a.flow == b.flow && a.seq == b.seq));
}

void put_half_delta(std::vector<std::uint8_t>& buf,
                    const core::MonitorHalf& prev,
                    const core::MonitorHalf& cur) {
  if (!cur.valid) return;
  const core::MonitorHalf& base = prev.valid ? prev : kEmptyHalf;
  put_flow_delta(buf, base.flow, cur.flow);
  put_svarint(buf, diff(cur.seq, base.seq));
}

bool apply_half_delta(wire::ByteReader& r, bool valid,
                      core::MonitorHalf& half) {
  if (!valid) {
    half = kEmptyHalf;
    return true;
  }
  half.valid = true;
  return get_flow_delta(r, half.flow) && get_delta(r, half.seq);
}

bool encode_delta(const control::MonitorSnapshot& prev,
                  const control::MonitorSnapshot& cur,
                  std::vector<std::uint8_t>& out) {
  const auto& p = prev.state.entries;
  const auto& q = cur.state.entries;
  if (p.size() != q.size()) return false;
  put_svarint(out, diff(cur.taken_at, prev.taken_at));
  put_svarint(out, diff(cur.epoch, prev.epoch));
  put_svarint(out, diff(cur.state.top, prev.state.top));
  RunEncoder runs(out);
  for (std::size_t i = 0; i < q.size(); ++i) {
    if (same_half(p[i].inc, q[i].inc) && same_half(p[i].dec, q[i].dec)) {
      runs.unchanged();
      continue;
    }
    runs.changed();
    wire::put_u8(out, static_cast<std::uint8_t>((q[i].inc.valid ? 1 : 0) |
                                                (q[i].dec.valid ? 2 : 0)));
    put_half_delta(out, p[i].inc, q[i].inc);
    put_half_delta(out, p[i].dec, q[i].dec);
  }
  runs.finish();
  return true;
}

bool apply_delta(wire::ByteReader& body, control::MonitorSnapshot& base) {
  if (!get_delta(body, base.taken_at) || !get_delta(body, base.epoch) ||
      !get_delta(body, base.state.top)) {
    return false;
  }
  RunDecoder runs(body);
  for (auto& e : base.state.entries) {
    bool ok = false;
    if (runs.next_is_copy(ok)) continue;
    if (!ok) return false;
    const std::uint8_t flags = body.u8();
    if (!body.ok() || (flags & ~3u) != 0 ||
        !apply_half_delta(body, (flags & 1) != 0, e.inc) ||
        !apply_half_delta(body, (flags & 2) != 0, e.dec)) {
      return false;
    }
  }
  return body.remaining() == 0 && runs.drained();
}

// --- calibration records --------------------------------------------------

bool encode_delta(const control::CalibrationRecord& prev,
                  const control::CalibrationRecord& cur,
                  std::vector<std::uint8_t>& out) {
  const core::TimeWindowParams& p = prev.window_params;
  const core::TimeWindowParams& q = cur.window_params;
  put_svarint(out, diff(cur.taken_at, prev.taken_at));
  put_svarint(out, diff(q.m0, p.m0));
  put_svarint(out, diff(q.alpha, p.alpha));
  put_svarint(out, diff(q.k, p.k));
  put_svarint(out, diff(q.num_windows, p.num_windows));
  put_svarint(out, diff(q.num_ports, p.num_ports));
  wire::put_u8(out, q.wrap32 ? 1 : 0);
  put_svarint(out, diff(cur.monitor_levels, prev.monitor_levels));
  wire::put_f64(out, cur.z0);  // FP bits: never deltaed, always verbatim
  return true;
}

bool apply_delta(wire::ByteReader& body, control::CalibrationRecord& base) {
  core::TimeWindowParams& p = base.window_params;
  if (!get_delta(body, base.taken_at) || !get_delta(body, p.m0) ||
      !get_delta(body, p.alpha) || !get_delta(body, p.k) ||
      !get_delta(body, p.num_windows) || !get_delta(body, p.num_ports)) {
    return false;
  }
  const std::uint8_t wrap = body.u8();
  if (!body.ok() || wrap > 1 || !get_delta(body, base.monitor_levels)) {
    return false;
  }
  p.wrap32 = wrap != 0;
  base.z0 = wire::get_f64(body);
  return body.ok() && body.remaining() == 0;
}

// --- raw payloads ---------------------------------------------------------

void put_record(std::vector<std::uint8_t>& buf,
                const control::WindowSnapshot& rec) {
  control::put_window_snapshot(buf, rec);
}
void put_record(std::vector<std::uint8_t>& buf,
                const control::MonitorSnapshot& rec) {
  control::put_monitor_snapshot(buf, rec);
}
void put_record(std::vector<std::uint8_t>& buf,
                const control::CalibrationRecord& rec) {
  control::put_calibration(buf, rec);
}
void put_record(std::vector<std::uint8_t>& buf,
                const control::DqCapture& rec) {
  control::put_dq_capture(buf, rec);
}

void get_record(wire::ByteReader& r, control::WindowSnapshot& rec) {
  rec = control::get_window_snapshot(r);
}
void get_record(wire::ByteReader& r, control::MonitorSnapshot& rec) {
  rec = control::get_monitor_snapshot(r);
}
/// A layout core::TtsLayout refuses still parses: ArchiveReader::to_records
/// skips such a calibration, the chain keeps it.
void get_record(wire::ByteReader& r, control::CalibrationRecord& rec) {
  control::get_calibration(r, rec);
}

/// Parses all of `bytes` as one record.
template <class Record>
bool parse(std::span<const std::uint8_t> bytes, Record& rec) {
  wire::ByteReader r(bytes);
  try {
    get_record(r, rec);
  } catch (const control::RecordsError&) {
    return false;
  }
  return r.ok() && r.remaining() == 0;
}

template <class Record>
BlockDecodeStatus decode_record(std::map<std::uint32_t, Record>& bases,
                                std::uint32_t partition, bool delta,
                                std::span<const std::uint8_t> body,
                                std::vector<std::uint8_t>& logical) {
  if (!delta) {
    if (!parse(body, bases[partition])) {
      return BlockDecodeStatus::kMalformedRecord;
    }
    logical.assign(body.begin(), body.end());
    return BlockDecodeStatus::kOk;
  }
  const auto base = bases.find(partition);
  if (base == bases.end()) return BlockDecodeStatus::kMissingDeltaBase;
  wire::ByteReader r(body);
  if (!apply_delta(r, base->second)) return BlockDecodeStatus::kCorruptDelta;
  logical.clear();
  put_record(logical, base->second);
  return BlockDecodeStatus::kOk;
}

}  // namespace

template <class Record>
bool SegmentPayloadCodec::encode(std::uint32_t partition, const Record& rec,
                                 std::size_t logical_size,
                                 std::vector<std::uint8_t>& out) const {
  out.clear();
  if constexpr (!std::is_same_v<Record, control::DqCapture>) {
    const auto& bases = std::get<Bases<Record>>(bases_);
    const auto base = bases.find(partition);
    if (base != bases.end()) {
      out.push_back(kEncodingDelta);
      if (encode_delta(base->second, rec, out) &&
          out.size() - 1 < logical_size) {
        return true;
      }
      out.clear();
    }
  }
  out.reserve(logical_size + 1);
  out.push_back(kEncodingRaw);
  put_record(out, rec);
  return false;
}

template <class Record>
void SegmentPayloadCodec::advance(std::uint32_t partition, const Record& rec) {
  if constexpr (!std::is_same_v<Record, control::DqCapture>) {
    std::get<Bases<Record>>(bases_)[partition] = rec;
  }
}

template bool SegmentPayloadCodec::encode(
    std::uint32_t, const control::WindowSnapshot&, std::size_t,
    std::vector<std::uint8_t>&) const;
template bool SegmentPayloadCodec::encode(
    std::uint32_t, const control::MonitorSnapshot&, std::size_t,
    std::vector<std::uint8_t>&) const;
template bool SegmentPayloadCodec::encode(
    std::uint32_t, const control::CalibrationRecord&, std::size_t,
    std::vector<std::uint8_t>&) const;
template bool SegmentPayloadCodec::encode(
    std::uint32_t, const control::DqCapture&, std::size_t,
    std::vector<std::uint8_t>&) const;
template void SegmentPayloadCodec::advance(std::uint32_t,
                                           const control::WindowSnapshot&);
template void SegmentPayloadCodec::advance(std::uint32_t,
                                           const control::MonitorSnapshot&);
template void SegmentPayloadCodec::advance(std::uint32_t,
                                           const control::CalibrationRecord&);
template void SegmentPayloadCodec::advance(std::uint32_t,
                                           const control::DqCapture&);

BlockDecodeStatus SegmentPayloadCodec::decode(
    std::uint16_t version, BlockKind kind, std::uint32_t partition,
    std::span<const std::uint8_t> payload, std::vector<std::uint8_t>& logical) {
  bool delta = false;
  if (version >= kFormatVersionV2) {
    if (payload.empty() ||
        (payload[0] != kEncodingRaw && payload[0] != kEncodingDelta)) {
      return BlockDecodeStatus::kBadEncodingTag;
    }
    delta = payload[0] == kEncodingDelta;
    payload = payload.subspan(1);
  }
  switch (kind) {
    case BlockKind::kWindowSnapshot:
      return decode_record(std::get<Bases<control::WindowSnapshot>>(bases_),
                           partition, delta, payload, logical);
    case BlockKind::kMonitorSnapshot:
      return decode_record(std::get<Bases<control::MonitorSnapshot>>(bases_),
                           partition, delta, payload, logical);
    case BlockKind::kCalibration:
      return decode_record(
          std::get<Bases<control::CalibrationRecord>>(bases_), partition,
          delta, payload, logical);
    case BlockKind::kDqCapture:
      break;
  }
  // A DQ capture is never a base, and its payload is parsed only on demand
  // (ArchiveReader::dq_captures).
  if (delta) return BlockDecodeStatus::kMissingDeltaBase;
  logical.assign(payload.begin(), payload.end());
  return BlockDecodeStatus::kOk;
}

}  // namespace pq::store
