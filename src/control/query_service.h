// The asynchronous remote-query interface of the paper's Fig. 3: "higher-
// layer applications query the culprits ... by sending a request to the
// analysis program". This module defines the compact binary request/
// response protocol and a dispatcher that executes requests against an
// AnalysisProgram.
//
// The protocol is hardened for lossy transports (see docs/FAULT_MODEL.md):
// every frame carries a CRC32 trailer, requests carry an idempotent request
// ID (duplicates are served from a bounded response cache), and responses
// carry a per-answer confidence plus a kPartial status when the answer is
// backed by incomplete history — degraded answers are flagged, fabricated
// ones are impossible.
//
// Wire format (all integers big-endian):
//   request:  magic 'PQRQ' | u8 type | u32 port | u64 t1 | u64 t2
//             | u64 request_id | u32 crc32(preceding bytes)
//     type 1 = time-window interval query  ([t1, t2) -> per-flow counts)
//     type 2 = queue-monitor point query   (t1 -> original culprits)
//   response: magic 'PQRS' | u8 type | u8 status | u64 request_id
//             | f64 confidence | u32 n | n entries | u32 crc32(preceding)
//     entry (type 1): FlowId (13 B) | f64 count
//     entry (type 2): FlowId (13 B) | u32 level | u64 seq
//   status: 0 = ok, 1 = malformed request, 2 = unknown type, 3 = partial
//           (valid but backed by incomplete history; see confidence)
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "control/analysis_program.h"
#include "control/health.h"

namespace pq::control {

inline constexpr std::uint32_t kQueryRequestMagic = 0x50515251;   // PQRQ
inline constexpr std::uint32_t kQueryResponseMagic = 0x50515253;  // PQRS

enum class QueryType : std::uint8_t {
  kTimeWindows = 1,
  kQueueMonitor = 2,
};

enum class QueryStatus : std::uint8_t {
  kOk = 0,
  kMalformed = 1,
  kUnknownType = 2,
  /// The answer is genuine but incomplete: part of the queried span had no
  /// consistent checkpoint behind it (slow polling, abandoned torn reads,
  /// span beyond the recorded horizon). Confidence carries the coverage.
  kPartial = 3,
};

/// Confidence at or above which an answer counts as fully backed (kOk);
/// anything below is kPartial.
inline constexpr double kFullConfidence = 1.0 - 1e-9;

/// The status of an answered query: the one rule every path that answers
/// one applies.
inline constexpr QueryStatus status_for(double confidence) {
  return confidence < kFullConfidence ? QueryStatus::kPartial
                                      : QueryStatus::kOk;
}

struct QueryRequest {
  QueryType type = QueryType::kTimeWindows;
  std::uint32_t port_prefix = 0;
  Timestamp t1 = 0;
  Timestamp t2 = 0;
  /// Idempotency token chosen by the client (0 = none). Retransmissions
  /// reuse the ID; the service replays the cached response instead of
  /// re-executing, and the client drops responses whose ID it no longer
  /// waits for.
  std::uint64_t request_id = 0;
};

struct QueryResponse {
  QueryType type = QueryType::kTimeWindows;
  QueryStatus status = QueryStatus::kOk;
  std::uint64_t request_id = 0;
  /// Answer provenance in [0, 1]: interval coverage for time-window
  /// queries, snapshot proximity for monitor queries. 1.0 for fully-backed
  /// answers; below 1 the status is kPartial.
  double confidence = 1.0;
  core::FlowCounts counts;                        ///< type 1
  std::vector<core::OriginalCulprit> culprits;    ///< type 2
};

/// Request codec (used by clients). Appends the CRC32 trailer.
std::vector<std::uint8_t> encode_request(const QueryRequest& req);

/// Verifies and parses a serialized request — the same checks handle()
/// applies before executing. Returns false on truncation, bad magic, or a
/// CRC trailer that disagrees; `out.type` may still be an unknown value
/// (the caller decides how to reject it). Routers that dispatch one
/// request across shards use this to pick a target before re-encoding.
bool decode_request(std::span<const std::uint8_t> buf, QueryRequest& out);

/// Response codec (used by clients; the service encodes internally).
/// decode_response never throws: a truncated, corrupted, or lying frame
/// (bad CRC, entry count exceeding the buffer) yields kMalformed with
/// empty results, and entry storage is never allocated before the count
/// has been validated against the actual payload size.
std::vector<std::uint8_t> encode_response(const QueryResponse& resp);
QueryResponse decode_response(std::span<const std::uint8_t> buf);

/// Executes serialized requests against an analysis program. One instance
/// per switch.
class QueryService {
 public:
  explicit QueryService(const AnalysisProgram& analysis)
      : analysis_(analysis) {}

  /// Parses, verifies, executes, and serializes in one step. Malformed or
  /// corrupted input yields a status-only response, never a crash and never
  /// kOk. Duplicate request IDs are answered from a bounded cache.
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> request);

  std::uint64_t requests_served() const { return served_; }
  std::uint64_t requests_rejected() const { return rejected_; }
  const HealthStats& health() const { return health_; }

  /// Response-cache capacity for idempotent replay (oldest evicted first).
  static constexpr std::size_t kResponseCacheSize = 64;

 private:
  const AnalysisProgram& analysis_;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
  HealthStats health_;
  std::deque<std::pair<std::uint64_t, std::vector<std::uint8_t>>> cache_;
};

}  // namespace pq::control
