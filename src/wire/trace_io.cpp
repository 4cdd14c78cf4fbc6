#include "wire/trace_io.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/hash.h"
#include "wire/bytes.h"

namespace pq::wire {

namespace {

void encode_record(std::vector<std::uint8_t>& buf, const TelemetryRecord& r) {
  put_flow(buf, r.flow);
  put_u32(buf, r.egress_port);
  put_u32(buf, r.size_bytes);
  put_u64(buf, r.enq_timestamp);
  put_u64(buf, r.deq_timedelta);
  put_u32(buf, r.enq_qdepth);
  put_u64(buf, r.packet_id);
}

TelemetryRecord decode_record(ByteReader& r) {
  TelemetryRecord rec;
  rec.flow = get_flow(r);
  rec.egress_port = r.u32();
  rec.size_bytes = r.u32();
  rec.enq_timestamp = r.u64();
  rec.deq_timedelta = r.u64();
  rec.enq_qdepth = r.u32();
  rec.packet_id = r.u64();
  return rec;
}

// Smallest offset >= 1 such that the bytes from there on are a prefix of
// the frame magic (in wire order) — i.e. the next position that could still
// turn into a valid frame once more bytes arrive. Falls back to buf.size()
// when no suffix qualifies, so corrupt spans are consumed in one step.
std::size_t resync_offset(std::span<const std::uint8_t> buf) {
  const std::uint8_t magic[4] = {
      static_cast<std::uint8_t>(kFrameMagic >> 24),
      static_cast<std::uint8_t>(kFrameMagic >> 16),
      static_cast<std::uint8_t>(kFrameMagic >> 8),
      static_cast<std::uint8_t>(kFrameMagic),
  };
  for (std::size_t i = 1; i < buf.size(); ++i) {
    const std::size_t n = std::min<std::size_t>(4, buf.size() - i);
    bool prefix = true;
    for (std::size_t j = 0; j < n; ++j) {
      if (buf[i + j] != magic[j]) {
        prefix = false;
        break;
      }
    }
    if (prefix) return i;
  }
  return buf.size();
}

}  // namespace

void append_record_frame(std::vector<std::uint8_t>& buf,
                         const TelemetryRecord& rec) {
  const std::size_t start = buf.size();
  put_u32(buf, kFrameMagic);
  put_u32(buf, static_cast<std::uint32_t>(kRecordPayloadBytes));
  encode_record(buf, rec);
  put_u32(buf, crc32(buf.data() + start, buf.size() - start));
}

FrameDecode decode_record_frame(std::span<const std::uint8_t> buf) {
  FrameDecode out;
  if (buf.empty()) return out;  // kIncomplete, consumed 0

  // Magic: a short buffer that is still a prefix of the magic is
  // kIncomplete; any mismatching byte makes the span kCorrupt.
  ByteReader head(buf);
  if (buf.size() < 4) {
    std::uint32_t want = kFrameMagic;
    for (std::size_t i = 0; i < buf.size(); ++i) {
      if (buf[i] != static_cast<std::uint8_t>(want >> (24 - 8 * i))) {
        out.status = FrameStatus::kCorrupt;
        out.consumed = resync_offset(buf);
        return out;
      }
    }
    return out;  // kIncomplete
  }
  if (head.u32() != kFrameMagic) {
    out.status = FrameStatus::kCorrupt;
    out.consumed = resync_offset(buf);
    return out;
  }

  if (buf.size() < 8) return out;  // kIncomplete: length not landed yet
  const std::uint32_t payload_len = head.u32();
  if (payload_len != kRecordPayloadBytes) {
    // Oversized or undersized length prefix: reject *now*, before waiting
    // for (or allocating) payload_len bytes that will never check out.
    out.status = FrameStatus::kCorrupt;
    out.consumed = resync_offset(buf);
    return out;
  }

  if (buf.size() < kRecordFrameBytes) return out;  // kIncomplete
  const std::uint32_t stored = [&] {
    ByteReader tail(buf.subspan(kRecordFrameBytes - 4, 4));
    return tail.u32();
  }();
  if (crc32(buf.data(), kRecordFrameBytes - 4) != stored) {
    out.status = FrameStatus::kCorrupt;
    out.consumed = resync_offset(buf);
    return out;
  }

  ByteReader body(buf.subspan(8, kRecordPayloadBytes));
  out.record = decode_record(body);
  out.status = FrameStatus::kOk;
  out.consumed = kRecordFrameBytes;
  return out;
}

void write_stream_file(const std::string& path,
                       const std::vector<TelemetryRecord>& recs) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  std::vector<std::uint8_t> buf;
  buf.reserve(recs.size() * kRecordFrameBytes);
  for (const auto& r : recs) append_record_frame(buf, r);
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("stream write failed");
}

void write_trace(std::ostream& out, const std::vector<TelemetryRecord>& recs) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, kTraceMagic);
  put_u64(buf, recs.size());
  for (const auto& r : recs) encode_record(buf, r);
  put_u64(buf, fnv1a(buf.data(), buf.size()));
  out.write(reinterpret_cast<const char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("trace write failed");
}

std::vector<TelemetryRecord> read_trace(std::istream& in) {
  std::vector<std::uint8_t> buf(std::istreambuf_iterator<char>(in), {});
  if (buf.size() < 4 + 8 + 8) throw std::runtime_error("trace truncated");
  const std::uint64_t stored = [&] {
    ByteReader tail(std::span<const std::uint8_t>(buf).subspan(buf.size() - 8));
    return tail.u64();
  }();
  if (fnv1a(buf.data(), buf.size() - 8) != stored) {
    throw std::runtime_error("trace checksum mismatch");
  }
  ByteReader r(std::span<const std::uint8_t>(buf.data(), buf.size() - 8));
  if (r.u32() != kTraceMagic) throw std::runtime_error("bad trace magic");
  const std::uint64_t n = r.u64();
  std::vector<TelemetryRecord> recs;
  recs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) recs.push_back(decode_record(r));
  if (!r.ok()) throw std::runtime_error("trace truncated");
  return recs;
}

void write_trace_file(const std::string& path,
                      const std::vector<TelemetryRecord>& recs) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  write_trace(out, recs);
}

std::vector<TelemetryRecord> read_trace_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  return read_trace(in);
}

}  // namespace pq::wire
