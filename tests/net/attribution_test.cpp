// Attribution correctness on an engineered 3-hop incast with ground truth:
// the cross-rack incast oversubscribes exactly one hop (the receiver's
// downlink), so NetworkAnalysis must (1) see three hops on the victim's
// path, (2) attribute the congestion to that hop, and (3) name the
// engineered aggressors there with precision >= 0.8381 and recall
// >= 0.83215 against record-derived ground truth. The scenario is seeded,
// so its packet accounting is pinned exactly.
#include "net/network_analysis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "ground/ground_truth.h"
#include "net/network_engine.h"
#include "net/topology.h"
#include "traffic/net_scenarios.h"

namespace pq {
namespace {

net::NetworkConfig standard_config(net::Topology topo) {
  net::NetworkConfig cfg;
  cfg.topology = std::move(topo);
  cfg.node.pipeline.windows.m0 = 10;
  cfg.node.pipeline.windows.alpha = 1;
  cfg.node.pipeline.windows.k = 9;
  cfg.node.pipeline.windows.num_windows = 4;
  cfg.node.pipeline.monitor.max_depth_cells = 25000;
  cfg.node.pipeline.monitor.granularity_cells = 8;
  return cfg;
}

TEST(Attribution, ThreeHopIncastNamesTheCongestedHopAndCulprits) {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 1;
  lsp.hosts_per_leaf = 4;
  const net::Topology topo = net::make_leaf_spine(lsp);

  traffic::CrossRackIncastConfig icfg;
  icfg.receiver_host = 0;
  traffic::NetScenario sc = traffic::cross_rack_incast(topo, icfg);
  ASSERT_EQ(sc.culprit_flows.size(), icfg.senders);

  net::NetworkEngine engine(standard_config(topo));
  engine.run(std::move(sc.injections), /*threads=*/2, /*batch=*/16);

  // The incast is engineered drop-free: the backlog peaks around half the
  // buffer, so every packet delivers and the victim's whole path is in the
  // headers.
  EXPECT_EQ(engine.stats().injected, 4100u);
  EXPECT_EQ(engine.stats().delivered, 4100u);
  EXPECT_EQ(engine.stats().dropped, 0u);

  net::NetworkAnalysis analysis(engine);
  const net::AttributionReport r = analysis.attribute(sc.victim, 8);

  // Cross-rack path: sender leaf -> spine -> receiver leaf.
  EXPECT_EQ(r.hops.size(), 3u);
  EXPECT_GT(r.victim_packets, 0u);
  EXPECT_FALSE(r.int_overflow);

  // The congested hop is the receiver's downlink, and it dominates: the
  // victim's delay there dwarfs the uncongested fabric hops.
  EXPECT_EQ(r.culprit_switch, sc.expected_culprit_switch);
  EXPECT_EQ(r.culprit_port, sc.expected_culprit_port);
  const auto worst = std::max_element(
      r.hops.begin(), r.hops.end(), [](const auto& a, const auto& b) {
        return a.total_queue_delay_ns < b.total_queue_delay_ns;
      });
  EXPECT_EQ(worst->switch_id, sc.expected_culprit_switch);
  for (const auto& hop : r.hops) {
    if (hop.switch_id == r.culprit_switch &&
        hop.egress_port == r.culprit_port) {
      continue;
    }
    EXPECT_LT(hop.total_queue_delay_ns * 10, worst->total_queue_delay_ns)
        << "hop (" << hop.switch_id << "," << hop.egress_port
        << ") should be uncongested";
  }

  // The worst victim packet's queuing interval there is non-degenerate.
  EXPECT_LT(r.interval_lo, r.interval_hi);

  // The per-switch time-window query at that hop names the aggressors.
  ASSERT_FALSE(r.culprits.empty());
  EXPECT_GT(r.coverage, 0.0);
  std::set<std::uint64_t> engineered;
  for (const FlowId& f : sc.culprit_flows) {
    engineered.insert(flow_signature(f));
  }
  std::size_t named = 0;
  for (const auto& [flow, weight] : r.culprits) {
    EXPECT_NE(flow_signature(flow), flow_signature(sc.victim))
        << "the victim must not be named a culprit";
    EXPECT_GT(weight, 0.0);
    named += engineered.count(flow_signature(flow));
  }
  // Every named culprit is one of the engineered aggressors (the only
  // other flow at that hop is the victim, which is excluded).
  EXPECT_EQ(named, r.culprits.size());

  // The acceptance gates vs record ground truth at the hop: precision and
  // recall at most 15% below the 0.986 and 0.979 measured when the gates
  // were set; the precision floor is above the 0.8 acceptance bar.
  EXPECT_GE(r.direct_accuracy.precision, 0.8381);
  EXPECT_GE(r.direct_accuracy.recall, 0.83215);

  // The one-pass score is exactly the ground-truth oracle's: top-k
  // accuracy of the hop's interval answer against GroundTruth's direct
  // culprits over the same interval.
  const auto answer =
      engine.node(r.culprit_switch)
          .analysis()
          .query_time_windows_detail(r.culprit_port, r.interval_lo,
                                     r.interval_hi);
  const ground::GroundTruth truth(
      engine.node(r.culprit_switch).engine().port(r.culprit_port).records());
  const ground::PrecisionRecall oracle = ground::top_k_accuracy(
      answer.counts, truth.direct_culprits(r.interval_lo, r.interval_hi), 8);
  EXPECT_EQ(r.direct_accuracy.precision, oracle.precision);
  EXPECT_EQ(r.direct_accuracy.recall, oracle.recall);

  // Report renders to JSON with the gated fields present.
  const std::string json = net::to_json(r, engine.stats());
  EXPECT_NE(json.find("\"culprit_switch\""), std::string::npos);
  EXPECT_NE(json.find("\"precision\""), std::string::npos);
}

TEST(Attribution, PickVictimFindsTheSufferingFlow) {
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 1;
  lsp.hosts_per_leaf = 4;
  const net::Topology topo = net::make_leaf_spine(lsp);
  traffic::NetScenario sc = traffic::cross_rack_incast(topo, {});

  net::NetworkEngine engine(standard_config(topo));
  engine.run(std::move(sc.injections));

  // Every flow through the incast queue suffers; pick_victim must return
  // one of the delivered flows, and attributing it lands on the same hop.
  net::NetworkAnalysis analysis(engine);
  const FlowId victim = analysis.pick_victim();
  const net::AttributionReport r = analysis.attribute(victim, 4);
  EXPECT_EQ(r.culprit_switch, sc.expected_culprit_switch);
  EXPECT_EQ(r.culprit_port, sc.expected_culprit_port);
}

TEST(Attribution, EcmpImbalanceBlamesTheLoadedUplink) {
  // The rack must be wide enough that the 40G uplink spread over the
  // downlinks stays under 10G each — 8 hosts/leaf — or the receivers'
  // downlinks would out-congest the uplink the scenario engineers.
  net::LeafSpineParams lsp;
  lsp.leaves = 2;
  lsp.spines = 2;
  lsp.hosts_per_leaf = 8;
  const net::Topology topo = net::make_leaf_spine(lsp);

  traffic::EcmpImbalanceConfig ecfg;
  ecfg.src_host = 0;
  ecfg.dst_host = 8;  // anchors the other rack (hosts 8..15)
  traffic::NetScenario sc = traffic::ecmp_imbalance(topo, ecfg);

  net::NetworkEngine engine(standard_config(topo));
  engine.run(std::move(sc.injections), /*threads=*/2);

  net::NetworkAnalysis analysis(engine);
  const net::AttributionReport r = analysis.attribute(sc.victim, 8);
  EXPECT_EQ(r.culprit_switch, sc.expected_culprit_switch);
  EXPECT_EQ(r.culprit_port, sc.expected_culprit_port);
  EXPECT_GE(r.direct_accuracy.precision, 0.8);
}

TEST(Attribution, ThrowsWithoutVictimTraffic) {
  net::LeafSpineParams lsp;
  const net::Topology topo = net::make_leaf_spine(lsp);
  net::NetworkEngine engine(standard_config(topo));
  engine.run({});
  net::NetworkAnalysis analysis(engine);
  EXPECT_THROW(analysis.pick_victim(), std::runtime_error);
  FlowId ghost;
  ghost.src_ip = 1;
  EXPECT_THROW(analysis.attribute(ghost, 4), std::runtime_error);
}

}  // namespace
}  // namespace pq
