// Routes live QueryService requests to the right answer source inside
// pq_serve: the recovered archive (history from before the last restart)
// or the owning shard's live analysis program.
//
// The routing rule is by time, not by freshness preference: a query whose
// span lies entirely at or before the recovered horizon of its port (the
// newest checkpoint that survived the crash) is answered offline from the
// recovered RegisterRecords — byte-identical to pq_query against the same
// archive. Anything later goes to the live shard's analysis program, which
// answers from the checkpoints it has published under its own short-held
// history lock (never the shard's absorb lock), with the calibration of its
// newest checkpoint: a live answer at checkpoint horizon h equals the
// archive's answer as of h. Both paths speak the same wire protocol as
// control::QueryService, including the malformed and unknown-type
// rejections, so existing clients (pq_ctl, QueryClient) work unchanged.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "control/query_service.h"
#include "control/register_records.h"
#include "control/sharded_analysis.h"
#include "core/port_pipeline.h"
#include "serve/supervisor.h"
#include "store/archive_reader.h"

namespace pq::serve {

struct RouterStats {
  std::uint64_t served_live = 0;
  std::uint64_t served_recovered = 0;
  std::uint64_t rejected_malformed = 0;
  std::uint64_t rejected_unknown_port = 0;
};

class QueryRouter {
 public:
  /// One QueryService per shard is created inside. `supervisor` is unused
  /// (live queries take no shard lock) and may be null.
  QueryRouter(core::ShardedPipeline& pipeline,
              control::ShardedAnalysis& analysis,
              ShardSupervisor* supervisor);

  /// Captures the reader's recovered history (records + per-port horizon).
  /// Archive directories are keyed by shard prefix (the pq::store
  /// convention), so `port_order` maps prefix -> egress port — the daemon's
  /// --ports list, which must match the run that wrote the archive. A
  /// prefix beyond the list keeps its numeric identity. Call before ingest
  /// starts; the reader itself need not outlive this.
  void load_recovered(const store::ArchiveReader& reader,
                      const std::vector<std::uint32_t>& port_order);

  /// Full request -> response bytes, mirroring QueryService::handle's
  /// rejection behavior for malformed frames and unknown types.
  std::vector<std::uint8_t> handle(std::span<const std::uint8_t> request);

  const RouterStats& stats() const { return stats_; }

 private:
  struct Recovered {
    control::RegisterRecords records;
    Timestamp window_horizon = 0;   ///< newest window checkpoint
    Timestamp monitor_horizon = 0;  ///< newest monitor checkpoint
  };

  std::vector<std::uint8_t> reject(control::QueryStatus status,
                                   std::uint64_t request_id,
                                   control::QueryType type);

  core::ShardedPipeline& pipeline_;
  control::ShardedAnalysis& analysis_;
  std::vector<std::unique_ptr<control::QueryService>> services_;  // [shard]
  std::map<std::uint32_t, Recovered> recovered_;  // [egress port]
  RouterStats stats_;
};

}  // namespace pq::serve
