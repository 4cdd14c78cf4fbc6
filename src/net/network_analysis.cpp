#include "net/network_analysis.h"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/hash.h"

namespace pq::net {

FlowId NetworkAnalysis::pick_victim() const {
  bool found = false;
  FlowId victim;
  Duration worst = 0;
  std::uint64_t worst_sig = 0;
  for (const IntHeader& hdr : net_.headers()) {
    if (hdr.fate != PacketFate::kDelivered) continue;
    Duration path_delay = 0;
    for (const IntHop& hop : hdr.hops) path_delay += hop.queue_delay();
    const std::uint64_t sig = flow_signature(hdr.flow);
    if (!found || path_delay > worst ||
        (path_delay == worst && sig < worst_sig)) {
      found = true;
      victim = hdr.flow;
      worst = path_delay;
      worst_sig = sig;
    }
  }
  if (!found) {
    throw std::runtime_error("network analysis: no delivered packets");
  }
  return victim;
}

AttributionReport NetworkAnalysis::attribute(const FlowId& victim,
                                             std::size_t top_k) const {
  AttributionReport r;
  r.victim = victim;

  // Aggregate the victim's queuing delay per (switch, port), keeping each
  // hop's worst victim packet (ties: earliest enqueue) in the same scan;
  // the ordered map keeps the report and the argmax tie-break
  // deterministic.
  struct HopScan {
    HopDelay delay;
    const IntHop* worst = nullptr;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, HopScan> agg;
  for (const IntHeader& hdr : net_.headers()) {
    if (hdr.flow != victim) continue;
    ++r.victim_packets;
    r.int_overflow = r.int_overflow || hdr.overflow;
    for (const IntHop& hop : hdr.hops) {
      HopScan& s = agg[{hop.switch_id, hop.egress_port}];
      HopDelay& h = s.delay;
      h.switch_id = hop.switch_id;
      h.egress_port = hop.egress_port;
      ++h.packets;
      h.total_queue_delay_ns += hop.queue_delay();
      h.max_queue_delay_ns = std::max(h.max_queue_delay_ns, hop.queue_delay());
      if (s.worst == nullptr || hop.queue_delay() > s.worst->queue_delay() ||
          (hop.queue_delay() == s.worst->queue_delay() &&
           hop.enq_timestamp < s.worst->enq_timestamp)) {
        s.worst = &hop;
      }
    }
  }
  if (agg.empty()) {
    throw std::runtime_error(
        "network analysis: victim flow has no recorded hops");
  }
  const HopScan* worst = nullptr;
  r.hops.reserve(agg.size());
  for (const auto& [key, s] : agg) {
    r.hops.push_back(s.delay);
    if (worst == nullptr ||
        s.delay.total_queue_delay_ns > worst->delay.total_queue_delay_ns) {
      worst = &s;
    }
  }
  // The attributed hop and its worst victim packet's queuing interval.
  r.culprit_switch = worst->delay.switch_id;
  r.culprit_port = worst->delay.egress_port;
  r.interval_lo = worst->worst->enq_timestamp;
  r.interval_hi = worst->worst->deq_timestamp;

  // Interrogate the attributed switch with the standard per-switch queries.
  const control::ShardedAnalysis& analysis =
      net_.node(r.culprit_switch).analysis();
  const auto detail = analysis.query_time_windows_detail(
      r.culprit_port, r.interval_lo, r.interval_hi);
  r.coverage = detail.coverage;
  // Full sorted ranking (top_k truncates the report below, after the
  // victim itself is filtered out).
  for (auto& [flow, count] :
       core::top_k_flows(detail.counts, detail.counts.size())) {
    if (flow == victim) continue;
    r.culprits.emplace_back(flow, count);
    if (top_k != 0 && r.culprits.size() >= top_k) break;
  }
  r.original_culprits =
      analysis.query_queue_monitor(r.culprit_port, r.interval_lo);

  // Score the raw interval answer against record-derived truth at the hop:
  // the flows of the packets that dequeued there in [interval_lo,
  // interval_hi), counted in one pass over the port's records.
  core::FlowCounts truth;
  for (const wire::TelemetryRecord& rec :
       net_.node(r.culprit_switch).engine().port(r.culprit_port).records()) {
    const Timestamp deq = rec.deq_timestamp();
    if (deq >= r.interval_lo && deq < r.interval_hi) truth[rec.flow] += 1.0;
  }
  r.direct_accuracy = ground::top_k_accuracy(detail.counts, truth, top_k);
  return r;
}

std::string to_json(const AttributionReport& r, const NetRunStats& stats) {
  std::ostringstream out;
  out << "{\n";
  out << "  \"victim\": \"" << to_string(r.victim) << "\",\n";
  out << "  \"victim_packets\": " << r.victim_packets << ",\n";
  out << "  \"int_overflow\": " << (r.int_overflow ? "true" : "false")
      << ",\n";
  out << "  \"hops\": [";
  for (std::size_t i = 0; i < r.hops.size(); ++i) {
    const HopDelay& h = r.hops[i];
    out << (i ? ",\n    " : "\n    ") << "{\"switch\": " << h.switch_id
        << ", \"port\": " << h.egress_port << ", \"packets\": " << h.packets
        << ", \"total_queue_delay_ns\": " << h.total_queue_delay_ns
        << ", \"max_queue_delay_ns\": " << h.max_queue_delay_ns << "}";
  }
  out << "\n  ],\n";
  out << "  \"culprit_switch\": " << r.culprit_switch << ",\n";
  out << "  \"culprit_port\": " << r.culprit_port << ",\n";
  out << "  \"interval_lo\": " << r.interval_lo << ",\n";
  out << "  \"interval_hi\": " << r.interval_hi << ",\n";
  out << "  \"coverage\": " << r.coverage << ",\n";
  out << "  \"culprits\": [";
  for (std::size_t i = 0; i < r.culprits.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << "{\"flow\": \""
        << to_string(r.culprits[i].first) << "\", \"count\": "
        << r.culprits[i].second << "}";
  }
  out << "\n  ],\n";
  out << "  \"original_culprits\": [";
  for (std::size_t i = 0; i < r.original_culprits.size(); ++i) {
    out << (i ? ",\n    " : "\n    ") << "{\"flow\": \""
        << to_string(r.original_culprits[i].flow) << "\", \"level\": "
        << r.original_culprits[i].level << "}";
  }
  out << "\n  ],\n";
  out << "  \"precision\": " << r.direct_accuracy.precision << ",\n";
  out << "  \"recall\": " << r.direct_accuracy.recall << ",\n";
  out << "  \"injected\": " << stats.injected << ",\n";
  out << "  \"delivered\": " << stats.delivered << ",\n";
  out << "  \"dropped\": " << stats.dropped << ",\n";
  out << "  \"total_hops\": " << stats.total_hops << ",\n";
  out << "  \"transport_epochs\": " << stats.transport_epochs << "\n";
  out << "}\n";
  return out.str();
}

}  // namespace pq::net
