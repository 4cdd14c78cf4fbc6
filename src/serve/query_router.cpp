#include "serve/query_router.h"

#include <algorithm>

namespace pq::serve {

QueryRouter::QueryRouter(core::ShardedPipeline& pipeline,
                         control::ShardedAnalysis& analysis,
                         ShardSupervisor* /*supervisor*/)
    : pipeline_(pipeline), analysis_(analysis) {
  services_.reserve(pipeline_.num_shards());
  for (std::uint32_t s = 0; s < pipeline_.num_shards(); ++s) {
    services_.push_back(
        std::make_unique<control::QueryService>(analysis_.program(s)));
  }
}

void QueryRouter::load_recovered(
    const store::ArchiveReader& reader,
    const std::vector<std::uint32_t>& port_order) {
  for (const auto& [prefix, unused] : reader.recovered()) {
    const std::uint32_t port =
        prefix < port_order.size() ? port_order[prefix] : prefix;
    Recovered rec;
    rec.records = reader.to_records(prefix);
    for (const auto& partition : rec.records.window_snapshots) {
      for (const auto& snap : partition) {
        rec.window_horizon = std::max(rec.window_horizon, snap.taken_at);
      }
    }
    for (const auto& partition : rec.records.monitor_snapshots) {
      for (const auto& snap : partition) {
        rec.monitor_horizon = std::max(rec.monitor_horizon, snap.taken_at);
      }
    }
    recovered_[port] = std::move(rec);
  }
}

std::vector<std::uint8_t> QueryRouter::reject(control::QueryStatus status,
                                              std::uint64_t request_id,
                                              control::QueryType type) {
  control::QueryResponse resp;
  resp.type = type;
  resp.status = status;
  resp.request_id = request_id;
  resp.confidence = 0.0;
  return control::encode_response(resp);
}

std::vector<std::uint8_t> QueryRouter::handle(
    std::span<const std::uint8_t> request) {
  control::QueryRequest req;
  if (!control::decode_request(request, req)) {
    ++stats_.rejected_malformed;
    return reject(control::QueryStatus::kMalformed, 0,
                  control::QueryType::kTimeWindows);
  }
  if (req.type != control::QueryType::kTimeWindows &&
      req.type != control::QueryType::kQueueMonitor) {
    ++stats_.rejected_malformed;
    // Same convention as QueryService: the reject is encoded under a
    // decodable type, the status carries the verdict.
    return reject(control::QueryStatus::kUnknownType, req.request_id,
                  control::QueryType::kTimeWindows);
  }

  // Recovered history first: a span that ends at or before the crash
  // horizon is answered from the archive, byte-identically to pq_query over
  // the same directory. A time-window answer carries the walk's coverage
  // (retention may have deleted the oldest checkpoints), with QueryService's
  // kPartial rule; a monitor answer stays at 1.0, since the archive does not
  // record the poll period its proximity rule needs.
  const auto it = recovered_.find(req.port_prefix);
  if (it != recovered_.end()) {
    const bool windows = req.type == control::QueryType::kTimeWindows;
    const Timestamp bound = windows ? req.t2 : req.t1;
    const Timestamp horizon =
        windows ? it->second.window_horizon : it->second.monitor_horizon;
    if (bound <= horizon) {
      control::QueryResponse resp;
      resp.type = req.type;
      resp.request_id = req.request_id;
      resp.confidence = 1.0;
      if (windows) {
        auto answer = control::offline_query_time_windows(
            it->second.records, 0, req.t1, req.t2);
        resp.counts = std::move(answer.counts);
        resp.confidence = answer.coverage;
      } else {
        resp.culprits = control::offline_query_queue_monitor(
            it->second.records, 0, req.t1);
      }
      resp.status = control::status_for(resp.confidence);
      ++stats_.served_recovered;
      return control::encode_response(resp);
    }
  }

  const auto prefix = pipeline_.port_prefix(req.port_prefix);
  if (!prefix.has_value()) {
    // A port this daemon neither serves nor recovered: an honest empty
    // partial, not an error — the client sees confidence 0 and moves on.
    ++stats_.rejected_unknown_port;
    control::QueryResponse resp;
    resp.type = req.type;
    resp.request_id = req.request_id;
    resp.status = control::QueryStatus::kPartial;
    resp.confidence = 0.0;
    return control::encode_response(resp);
  }

  // Live path: rewrite to the shard-local port (always 0 inside a shard).
  // The program answers from its published checkpoints under its own
  // history lock, so the query never waits for the worker's batch.
  control::QueryRequest local = req;
  local.port_prefix = 0;
  const auto bytes = control::encode_request(local);
  ++stats_.served_live;
  return services_[*prefix]->handle(bytes);
}

}  // namespace pq::serve
