// Network-wide traffic scenarios: multi-host workloads over a net::Topology
// with a designated victim flow and a known ground-truth congested hop, so
// attribution results can be scored (tests/net, pq_net).
//
// Path placement uses the same ECMP hash the fabric routes with
// (common/hash.h ecmp_signature): flow_on_path searches source ports until
// a flow lands on the wanted equal-cost member, which is how the
// imbalance scenario steers aggressors onto one uplink.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "net/network_engine.h"
#include "net/topology.h"

namespace pq::traffic {

/// A generated scenario: what to inject, plus the ground truth the
/// generator engineered (who the victim is, where it will hurt, and who
/// did it).
struct NetScenario {
  std::vector<net::Injection> injections;
  FlowId victim;
  std::uint32_t expected_culprit_switch = 0;
  std::uint32_t expected_culprit_port = 0;
  std::vector<FlowId> culprit_flows;  ///< the engineered aggressors
};

/// A constant-rate flow from `start` for `duration_ns`: one packet of
/// `packet_bytes` every wire-time at `gbps` (the sender-NIC pacing model
/// the single-switch generators use).
std::vector<Packet> paced_flow(const FlowId& flow, Timestamp start,
                               Duration duration_ns, double gbps,
                               std::uint32_t packet_bytes);

/// Searches src_port values (from `base.src_port` upward, wrapping) until
/// the flow ECMP-hashes onto `want_port` within the equal-cost set at `sw`
/// for `dst_host`. Throws std::runtime_error if no port in [1, 65535]
/// lands there (cannot happen for equal-cost sets small enough to route).
FlowId flow_on_path(const net::Topology& topo, std::uint32_t sw,
                    std::uint32_t dst_host, FlowId base,
                    std::uint32_t want_port);

/// Cross-rack incast: `senders` aggressor hosts in other racks each pace
/// `sender_gbps` at the receiver, oversubscribing its downlink, plus one
/// low-rate cross-rack victim flow caught in the same queue. The
/// ground-truth congested hop is the receiver's attach (switch, port).
/// Defaults oversubscribe a 10G downlink by 1.2x for a bounded, drop-free
/// backlog.
struct CrossRackIncastConfig {
  std::uint32_t receiver_host = 0;
  std::uint32_t senders = 6;
  double sender_gbps = 2.0;
  std::uint32_t packet_bytes = kMtuBytes;
  double victim_gbps = 0.05;
  std::uint32_t victim_packet_bytes = 256;
  Timestamp start_ns = 100'000;
  Duration duration_ns = 4'000'000;
  std::uint64_t seed = 1;
};
NetScenario cross_rack_incast(const net::Topology& topo,
                              const CrossRackIncastConfig& cfg);

/// ECMP imbalance: many aggressor flows from one source host, all steered
/// (by source-port search) onto the SAME uplink of the sender's edge
/// switch, overloading it while sibling uplinks idle; the victim flow is
/// steered onto that uplink too. Destinations are spread across the whole
/// rack of `dst_host` so traffic fans out past the bottleneck — the loaded
/// uplink, not any single receiver downlink, is the ground-truth hop. For
/// that to hold the rack must be wide enough: fabric_gbps / hosts-in-rack
/// must stay below host_gbps (e.g. >= 8 hosts/leaf at 40G/10G). Aggregate
/// aggressor rate should exceed one fabric link; defaults overload a 40G
/// uplink by 1.125x, keeping the backlog drop-free in a 25k-cell buffer.
struct EcmpImbalanceConfig {
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;  ///< rack anchor; must be in another rack
  std::uint32_t flows = 10;
  double flow_gbps = 4.5;
  std::uint32_t packet_bytes = kMtuBytes;
  double victim_gbps = 0.05;
  std::uint32_t victim_packet_bytes = 256;
  Timestamp start_ns = 100'000;
  Duration duration_ns = 2'000'000;
  std::uint64_t seed = 1;
};
NetScenario ecmp_imbalance(const net::Topology& topo,
                           const EcmpImbalanceConfig& cfg);

}  // namespace pq::traffic
