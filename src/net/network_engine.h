// Network-wide PrintQueue: drives one per-switch sharded system per
// topology node, hop by hop, in global-virtual-time (GVT) epochs.
//
// Execution is two-pass (docs/NETWORK.md):
//
//   Pass 1 — transport. A conservative discrete-event loop over bare
//   EgressPorts (records off, one DepartureCollector per port) computes
//   every queueing decision in the fabric: the GVT horizon advances in
//   epochs no larger than the smallest link delay (the lookahead), each
//   epoch offers all pending arrivals <= h, advances every port to h, and
//   re-enqueues each collected departure at the next hop at
//   deq_timestamp + link delay. Because delay >= lookahead, an epoch's
//   departures can only generate arrivals strictly beyond h — no port ever
//   sees an arrival behind its clock, which is the whole correctness
//   argument. This pass also accumulates the per-packet IntHeader stack and
//   the per-switch *induced arrival trace*.
//
//   Pass 2 — telemetry. Each switch's full control::ShardedSystem replays
//   its induced trace through the standard run path (epoch handoff, fault
//   chains, analysis polls, archives — everything). Queue dynamics are a
//   pure function of the per-port arrival sequence and are independent of
//   hooks and fault injectors (those rewrite observations, never queueing),
//   so pass 2 reproduces pass 1's dequeues exactly, and every per-switch
//   result is byte-identical to running that switch standalone on the same
//   trace — the determinism contract tests/net/network_differential_test
//   enforces.
//
// The engine is single-shot: construct, optionally attach archives to
// node(i), run once, then query nodes/headers/stats.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "control/sharded_analysis.h"
#include "net/int_header.h"
#include "net/topology.h"

namespace pq::net {

/// Per-switch PrintQueue configuration, shared by every node so a network
/// run answers queries the same way at every hop. Port configs come from
/// the topology; everything else comes from here.
struct NodeConfig {
  core::PipelineConfig pipeline;
  control::AnalysisConfig analysis;
  /// Applied identically to every switch (each node builds its own
  /// ShardedFaultPlan from this seed, so per-switch schedules match what
  /// the same switch would produce standalone).
  std::optional<faults::FaultPlanConfig> faults;
  Duration epoch_ns = sim::kDefaultEpochNs;
  /// Depth-series collection on the telemetry ports (off by default:
  /// network runs multiply ports, and the series is a memory hog).
  bool collect_depth_series = false;
};

struct NetworkConfig {
  Topology topology;
  NodeConfig node;
  /// INT stack budget: hops recorded per packet before overflow.
  std::uint32_t int_max_hops = 8;
  /// Hop-count backstop against routing bugs (validation already rejects
  /// loops, so this should never fire on a loaded topology).
  std::uint32_t max_ttl = 64;
  /// Transport epoch size; 0 picks the largest safe value (the smallest
  /// link delay). Values above the smallest link delay are clamped down —
  /// the lookahead bound is not negotiable.
  Duration gvt_epoch_ns = 0;
};

/// Packets entering the fabric at one host. Arrival times are when the
/// packet reaches the host's edge switch. Packet ids are reassigned by the
/// engine (stable sort over all injections by arrival, then index — the
/// same rule traffic::merge_traces uses), so per-switch induced traces
/// carry dense, deterministic ids.
struct Injection {
  std::uint32_t host = 0;
  std::vector<Packet> packets;
};

struct NetRunStats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;        ///< tail drops, any hop
  std::uint64_t ttl_exceeded = 0;
  std::uint64_t unroutable = 0;     ///< dst_ip owned by no host
  std::uint64_t transport_epochs = 0;
  std::uint64_t total_hops = 0;     ///< switch traversals, all packets
  Timestamp last_event_ns = 0;      ///< latest delivery/drop in the run
};

class NetworkEngine {
 public:
  /// Validates the topology and eagerly constructs one ShardedSystem per
  /// switch (so callers can attach archives/sinks before run()).
  explicit NetworkEngine(NetworkConfig cfg);

  /// Runs both passes. `opts` governs pass 2's per-switch execution
  /// (threads/batch/epoch/pinning are pure scheduling knobs there; pass 1
  /// is sequential by construction). Throws if called twice.
  void run(std::vector<Injection> injections,
           const sim::ShardedEngine::RunOptions& opts);
  void run(std::vector<Injection> injections, unsigned threads = 1,
           std::uint32_t batch = 1);

  const Topology& topology() const { return cfg_.topology; }
  const NetworkConfig& config() const { return cfg_; }

  control::ShardedSystem& node(std::uint32_t sw) { return *nodes_.at(sw); }
  const control::ShardedSystem& node(std::uint32_t sw) const {
    return *nodes_.at(sw);
  }
  std::size_t num_nodes() const { return nodes_.size(); }

  /// The arrival trace pass 1 induced at one switch: initial injections
  /// plus re-enqueued departures, in arrival order, egress_hint set to the
  /// routed port. This is exactly what pass 2 replayed — feeding it to a
  /// standalone ShardedSystem with the same config reproduces node(sw)
  /// byte for byte.
  const std::vector<Packet>& induced_trace(std::uint32_t sw) const {
    return induced_.at(sw);
  }

  /// One IntHeader per injected packet, indexed by packet id - 1 (ids are
  /// 1-based, matching traffic::merge_traces).
  const std::vector<IntHeader>& headers() const { return headers_; }

  const NetRunStats& stats() const { return stats_; }

 private:
  NetworkConfig cfg_;
  std::vector<std::unique_ptr<control::ShardedSystem>> nodes_;
  std::vector<std::vector<Packet>> induced_;
  std::vector<IntHeader> headers_;
  NetRunStats stats_;
  bool ran_ = false;
};

}  // namespace pq::net
