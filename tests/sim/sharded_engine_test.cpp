#include "sim/sharded_engine.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace pq::sim {
namespace {

Packet pkt(std::uint32_t flow, Timestamp t, std::uint32_t hint = 0) {
  Packet p;
  p.flow = make_flow(flow);
  p.size_bytes = 500;
  p.arrival_ns = t;
  p.egress_hint = hint;
  return p;
}

std::vector<PortConfig> ports(std::uint32_t n) {
  std::vector<PortConfig> cfgs(n);
  for (std::uint32_t i = 0; i < n; ++i) cfgs[i].port_id = i;
  return cfgs;
}

std::vector<Packet> workload(std::uint32_t n_ports, std::uint32_t n_pkts) {
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < n_pkts; ++i) {
    pkts.push_back(pkt(i, i * 120, i % n_ports));
  }
  return pkts;
}

TEST(ShardedEngine, RejectsZeroPorts) {
  EXPECT_THROW(ShardedEngine{std::vector<PortConfig>{}},
               std::invalid_argument);
}

TEST(ShardedEngine, PartitionPreservesPerPortArrivalOrder) {
  const auto pkts = workload(3, 300);
  const auto shards = ShardedEngine::partition(
      pkts, [](const Packet& p) { return p.egress_hint; }, 3);
  ASSERT_EQ(shards.size(), 3u);
  std::size_t total = 0;
  for (std::uint32_t s = 0; s < 3; ++s) {
    total += shards[s].size();
    EXPECT_TRUE(std::is_sorted(shards[s].begin(), shards[s].end(),
                               [](const Packet& a, const Packet& b) {
                                 return a.arrival_ns < b.arrival_ns;
                               }));
    for (const auto& p : shards[s]) EXPECT_EQ(p.egress_hint, s);
  }
  EXPECT_EQ(total, 300u);
}

// Drivers that partition externally get the same rejection run() gives.
TEST(ShardedEngine, PartitionInvalidForwardingThrows) {
  EXPECT_THROW(ShardedEngine::partition(
                   workload(2, 64), [](const Packet&) { return 99u; }, 2),
               std::out_of_range);
}

TEST(ShardedEngine, InvalidForwardingThrows) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet&) { return 99u; });
  EXPECT_THROW(eng.run({pkt(1, 0)}, 1), std::out_of_range);
  ShardedEngine eng2(ports(2));
  eng2.set_forwarding([](const Packet&) { return 99u; });
  EXPECT_THROW(eng2.run(workload(2, 64), 2), std::out_of_range);
}

TEST(ShardedEngine, UnsortedInputIsSorted) {
  ShardedEngine eng(ports(1));
  eng.set_forwarding([](const Packet&) { return 0u; });
  std::vector<Packet> pkts = {pkt(1, 5000), pkt(2, 0), pkt(3, 2500)};
  eng.run(std::move(pkts), 1);
  EXPECT_EQ(eng.port(0).records().size(), 3u);
  EXPECT_EQ(eng.port(0).records().front().flow, make_flow(2));
}

// Per-port outputs must not depend on the thread count: the records of a
// parallel run are byte-identical to the single-threaded run's.
TEST(ShardedEngine, ThreadCountInvariantRecords) {
  const auto pkts = workload(4, 2000);
  auto run_with = [&](unsigned threads) {
    ShardedEngine eng(ports(4));
    eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
    eng.run(pkts, threads);
    return eng.merged_records();
  };
  const auto base = run_with(1);
  ASSERT_EQ(base.size(), 2000u);
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto other = run_with(threads);
    ASSERT_EQ(other.size(), base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i].packet_id, other[i].packet_id);
      EXPECT_EQ(base[i].flow, other[i].flow);
      EXPECT_EQ(base[i].enq_timestamp, other[i].enq_timestamp);
      EXPECT_EQ(base[i].deq_timedelta, other[i].deq_timedelta);
      EXPECT_EQ(base[i].enq_qdepth, other[i].enq_qdepth);
      EXPECT_EQ(base[i].egress_port, other[i].egress_port);
    }
  }
}

TEST(ShardedEngine, MergedRecordsAreDequeueOrdered) {
  ShardedEngine eng(ports(3));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.run(workload(3, 900), 3);
  const auto merged = eng.merged_records();
  ASSERT_EQ(merged.size(), 900u);
  EXPECT_TRUE(std::is_sorted(
      merged.begin(), merged.end(),
      [](const wire::TelemetryRecord& a, const wire::TelemetryRecord& b) {
        return a.deq_timestamp() < b.deq_timestamp();
      }));
}

TEST(ShardedEngine, MoreThreadsThanPortsIsFine) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.run(workload(2, 100), 16);
  EXPECT_EQ(eng.port(0).records().size() + eng.port(1).records().size(),
            100u);
}

// Without set_forwarding() the engine hashes the destination IP, which is
// how the multi-port experiments (paper Fig. 15) spread traffic.
TEST(ShardedEngine, DefaultForwardingSpreadsFlows) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 400; ++i) pkts.push_back(pkt(i, i));
  eng.run(std::move(pkts), 2);
  EXPECT_GT(eng.port(0).records().size(), 100u);
  EXPECT_GT(eng.port(1).records().size(), 100u);
}

TEST(ShardedEngine, SameFlowAlwaysSamePort) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 50; ++i) pkts.push_back(pkt(7, i * 100));
  eng.run(std::move(pkts), 2);
  EXPECT_NE(eng.port(0).records().empty(), eng.port(1).records().empty());
}

TEST(ShardedEngine, ForwardsByFunction) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) {
    return p.flow.dst_port % 2 == 0 ? 0u : 1u;
  });
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 100; ++i) pkts.push_back(pkt(i, i * 10));
  eng.run(std::move(pkts), 2);
  EXPECT_EQ(eng.port(0).records().size() + eng.port(1).records().size(),
            100u);
  EXPECT_GT(eng.port(0).records().size(), 0u);
  EXPECT_GT(eng.port(1).records().size(), 0u);
  for (const auto& r : eng.port(0).records()) {
    EXPECT_EQ(r.flow.dst_port % 2, 0);
  }
}

TEST(ShardedEngine, PortIdsAppearInRecords) {
  ShardedEngine eng(ports(2));
  std::vector<Packet> pkts;
  for (std::uint32_t i = 0; i < 64; ++i) pkts.push_back(pkt(i, i * 3));
  eng.run(std::move(pkts), 2);
  for (std::uint32_t p = 0; p < 2; ++p) {
    EXPECT_FALSE(eng.port(p).records().empty()) << p;
    for (const auto& r : eng.port(p).records()) EXPECT_EQ(r.egress_port, p);
  }
}

// Runs are single-shot: the merged views describe exactly one run, so a
// second one (through either entry point) is refused and leaves the first
// run's results intact.
TEST(ShardedEngine, SecondRunThrows) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  eng.run(workload(2, 100), 2);
  EXPECT_THROW(eng.run(workload(2, 100), 2), std::logic_error);
  EXPECT_THROW(eng.run_partitioned({}, ShardedEngine::RunOptions{}),
               std::logic_error);
  EXPECT_EQ(eng.merged_records().size(), 100u);
}

// A zero epoch could never step past its first boundary. The rejection
// happens before the run starts, so the engine stays usable.
TEST(ShardedEngine, ZeroEpochThrows) {
  ShardedEngine eng(ports(2));
  eng.set_forwarding([](const Packet& p) { return p.egress_hint; });
  ShardedEngine::RunOptions opts;
  opts.epoch_ns = 0;
  EXPECT_THROW(eng.run(workload(2, 100), opts), std::invalid_argument);
  EXPECT_THROW(eng.run_partitioned({}, opts), std::invalid_argument);
  eng.run(workload(2, 100), 2);
  EXPECT_EQ(eng.merged_records().size(), 100u);
}

}  // namespace
}  // namespace pq::sim
