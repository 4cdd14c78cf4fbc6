// Hop attribution over a finished network run (docs/NETWORK.md §5).
//
// The algorithm is the paper's single-switch diagnosis lifted to a fabric
// by the INT stacks: aggregate the victim flow's per-hop queuing delays
// from its accumulated headers, pick the hop that cost it the most, take
// the worst victim packet's [enq, deq) interval *at that hop*, and then
// interrogate that one switch with the existing PrintQueue queries — the
// time-window interval query names the flows that dequeued there while the
// victim waited (direct culprits), and the queue-monitor point query names
// the packets whose arrivals built the queue the victim joined (original
// culprits). Reports are scored against record-derived ground truth at the
// same hop, which is what tests/net/attribution_test.cpp asserts on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/queue_monitor.h"  // OriginalCulprit
#include "ground/metrics.h"
#include "net/network_engine.h"

namespace pq::net {

/// The victim flow's aggregate queuing cost at one (switch, port) hop.
struct HopDelay {
  std::uint32_t switch_id = 0;
  std::uint32_t egress_port = 0;
  std::uint64_t packets = 0;            ///< victim packets recorded here
  Duration total_queue_delay_ns = 0;
  Duration max_queue_delay_ns = 0;
};

struct AttributionReport {
  FlowId victim;
  std::uint64_t victim_packets = 0;   ///< victim headers examined
  bool int_overflow = false;  ///< some victim path outran the INT budget

  /// Per-hop aggregation, ordered by (switch, port).
  std::vector<HopDelay> hops;

  /// The attributed hop (largest total victim queuing delay) and the worst
  /// victim packet's queuing interval there.
  std::uint32_t culprit_switch = 0;
  std::uint32_t culprit_port = 0;
  Timestamp interval_lo = 0;
  Timestamp interval_hi = 0;

  /// Culprit flows named by the time-window query at the attributed hop,
  /// heaviest first, victim excluded; `coverage` is the interval answer's
  /// checkpoint coverage.
  std::vector<std::pair<FlowId, double>> culprits;
  double coverage = 0.0;

  /// Original culprits from the queue-monitor query at the victim's
  /// enqueue instant at the attributed hop.
  std::vector<core::OriginalCulprit> original_culprits;

  /// PrintQueue's interval answer scored against record-derived ground
  /// truth (direct culprits at the attributed hop), top-k restricted.
  ground::PrecisionRecall direct_accuracy;
};

class NetworkAnalysis {
 public:
  /// Binds to a finished run (NetworkEngine::run must have completed).
  explicit NetworkAnalysis(NetworkEngine& net) : net_(net) {}

  /// The delivered flow that suffered the largest single-packet total
  /// queuing delay across its recorded hops — the natural victim when the
  /// scenario does not designate one. Throws if nothing was delivered.
  FlowId pick_victim() const;

  /// Runs the attribution algorithm for one victim flow; `top_k` bounds
  /// the named culprits and the accuracy restriction. Throws if the victim
  /// has no recorded hops.
  AttributionReport attribute(const FlowId& victim, std::size_t top_k) const;

 private:
  NetworkEngine& net_;
};

/// Flat JSON rendering of a report (pq_net's output format).
std::string to_json(const AttributionReport& r, const NetRunStats& stats);

}  // namespace pq::net
