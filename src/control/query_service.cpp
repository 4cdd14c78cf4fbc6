#include "control/query_service.h"

#include <algorithm>

#include "common/hash.h"
#include "wire/bytes.h"

namespace pq::control {

namespace {

constexpr std::size_t kFlowBytes = 13;
constexpr std::size_t kRequestBytes = 4 + 1 + 4 + 8 + 8 + 8 + 4;
constexpr std::size_t kResponseHeaderBytes = 4 + 1 + 1 + 8 + 8 + 4;
constexpr std::size_t kCrcBytes = 4;

void append_crc(std::vector<std::uint8_t>& buf) {
  wire::put_u32(buf, crc32(buf.data(), buf.size()));
}

/// Verifies the CRC32 trailer and returns the protected payload, or an
/// empty span if the frame is too short or the checksum disagrees.
std::span<const std::uint8_t> checked_payload(
    std::span<const std::uint8_t> frame) {
  if (frame.size() < kCrcBytes) return {};
  const std::size_t body = frame.size() - kCrcBytes;
  wire::ByteReader tail(frame.subspan(body));
  if (crc32(frame.data(), body) != tail.u32()) return {};
  return frame.first(body);
}

}  // namespace

std::vector<std::uint8_t> encode_request(const QueryRequest& req) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, kQueryRequestMagic);
  wire::put_u8(buf, static_cast<std::uint8_t>(req.type));
  wire::put_u32(buf, req.port_prefix);
  wire::put_u64(buf, req.t1);
  wire::put_u64(buf, req.t2);
  wire::put_u64(buf, req.request_id);
  append_crc(buf);
  return buf;
}

std::vector<std::uint8_t> encode_response(const QueryResponse& resp) {
  std::vector<std::uint8_t> buf;
  wire::put_u32(buf, kQueryResponseMagic);
  wire::put_u8(buf, static_cast<std::uint8_t>(resp.type));
  wire::put_u8(buf, static_cast<std::uint8_t>(resp.status));
  wire::put_u64(buf, resp.request_id);
  wire::put_f64(buf, resp.confidence);
  if (resp.type == QueryType::kTimeWindows) {
    wire::put_u32(buf, static_cast<std::uint32_t>(resp.counts.size()));
    for (const auto& [flow, n] : resp.counts) {
      wire::put_flow(buf, flow);
      wire::put_f64(buf, n);
    }
  } else {
    wire::put_u32(buf, static_cast<std::uint32_t>(resp.culprits.size()));
    for (const auto& c : resp.culprits) {
      wire::put_flow(buf, c.flow);
      wire::put_u32(buf, c.level);
      wire::put_u64(buf, c.seq);
    }
  }
  append_crc(buf);
  return buf;
}

bool decode_request(std::span<const std::uint8_t> buf, QueryRequest& out) {
  const auto payload = checked_payload(buf);
  if (payload.empty() || payload.size() != kRequestBytes - kCrcBytes) {
    return false;
  }
  wire::ByteReader r(payload);
  if (r.u32() != kQueryRequestMagic) return false;
  out.type = static_cast<QueryType>(r.u8());
  out.port_prefix = r.u32();
  out.t1 = r.u64();
  out.t2 = r.u64();
  out.request_id = r.u64();
  return r.ok();
}

QueryResponse decode_response(std::span<const std::uint8_t> buf) {
  QueryResponse resp;
  resp.status = QueryStatus::kMalformed;
  resp.confidence = 0.0;

  const auto payload = checked_payload(buf);
  if (payload.empty()) return resp;

  wire::ByteReader r(payload);
  if (r.u32() != kQueryResponseMagic) return resp;
  const auto type = static_cast<QueryType>(r.u8());
  const auto status = static_cast<QueryStatus>(r.u8());
  const std::uint64_t request_id = r.u64();
  const double confidence = wire::get_f64(r);
  const std::uint32_t n = r.u32();
  if (!r.ok()) return resp;
  if (type != QueryType::kTimeWindows && type != QueryType::kQueueMonitor) {
    return resp;
  }
  if (status != QueryStatus::kOk && status != QueryStatus::kMalformed &&
      status != QueryStatus::kUnknownType &&
      status != QueryStatus::kPartial) {
    return resp;
  }

  // Bounds audit: a lying entry count must be rejected *before* any
  // entry storage is allocated — otherwise a hostile 32-bit n drives a
  // multi-gigabyte reserve from a 30-byte frame.
  const std::size_t entry_bytes =
      type == QueryType::kTimeWindows ? kFlowBytes + 8 : kFlowBytes + 4 + 8;
  if (static_cast<std::uint64_t>(n) * entry_bytes > r.remaining()) {
    return resp;
  }

  resp.type = type;
  resp.request_id = request_id;
  if (type == QueryType::kQueueMonitor) resp.culprits.reserve(n);
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    if (type == QueryType::kTimeWindows) {
      const FlowId flow = wire::get_flow(r);
      resp.counts[flow] = wire::get_f64(r);
    } else {
      core::OriginalCulprit c;
      c.flow = wire::get_flow(r);
      c.level = r.u32();
      c.seq = r.u64();
      resp.culprits.push_back(c);
    }
  }
  if (!r.ok() || r.remaining() != 0) {
    resp.counts.clear();
    resp.culprits.clear();
    resp.confidence = 0.0;
    resp.status = QueryStatus::kMalformed;
    return resp;
  }
  resp.status = status;
  resp.confidence = confidence;
  return resp;
}

std::vector<std::uint8_t> QueryService::handle(
    std::span<const std::uint8_t> request) {
  QueryResponse resp;

  const auto payload = checked_payload(request);
  if (payload.empty() || payload.size() != kRequestBytes - kCrcBytes) {
    // Distinguish integrity failures (a CRC trailer that disagrees) from
    // plain garbage for the health ledger; both reject identically.
    if (request.size() >= kRequestBytes) {
      ++health_.crc_rejected;
    } else {
      ++health_.malformed_rejected;
    }
    resp.status = QueryStatus::kMalformed;
    resp.confidence = 0.0;
    ++rejected_;
    return encode_response(resp);
  }

  wire::ByteReader r(payload);
  const std::uint32_t magic = r.u32();
  const auto type = static_cast<QueryType>(r.u8());
  const std::uint32_t port = r.u32();
  const Timestamp t1 = r.u64();
  const Timestamp t2 = r.u64();
  const std::uint64_t request_id = r.u64();

  if (!r.ok() || magic != kQueryRequestMagic) {
    ++health_.malformed_rejected;
    resp.status = QueryStatus::kMalformed;
    resp.confidence = 0.0;
    ++rejected_;
    return encode_response(resp);
  }

  // Idempotent replay: a retransmitted request ID gets the cached bytes,
  // so duplicated requests cannot double-execute or diverge.
  if (request_id != 0) {
    for (const auto& [id, bytes] : cache_) {
      if (id == request_id) {
        ++health_.duplicates_deduped;
        return bytes;
      }
    }
  }

  resp.type = type;
  resp.request_id = request_id;
  switch (type) {
    case QueryType::kTimeWindows: {
      auto answer = analysis_.query_time_windows_detail(port, t1, t2);
      resp.counts = std::move(answer.counts);
      resp.confidence = answer.coverage;
      break;
    }
    case QueryType::kQueueMonitor: {
      auto answer = analysis_.query_queue_monitor_detail(port, t1);
      resp.culprits = std::move(answer.culprits);
      resp.confidence = answer.confidence;
      break;
    }
    default:
      ++health_.malformed_rejected;
      // Encode the reject under a decodable type: the status is the
      // payload, the original (unknown) type byte is not echoable.
      resp.type = QueryType::kTimeWindows;
      resp.status = QueryStatus::kUnknownType;
      resp.confidence = 0.0;
      ++rejected_;
      return encode_response(resp);
  }
  resp.status = status_for(resp.confidence);
  if (resp.status == QueryStatus::kPartial) ++health_.partial_answers;
  ++served_;

  auto bytes = encode_response(resp);
  if (request_id != 0) {
    cache_.emplace_back(request_id, bytes);
    if (cache_.size() > kResponseCacheSize) cache_.pop_front();
  }
  return bytes;
}

}  // namespace pq::control
