// The epoch-batched handoff (sim/epoch_handoff.h) at the engine level: for
// ANY epoch size — one that slices the run into thousands of chunks, an odd
// one that never aligns with packet times, one bigger than the whole run —
// and any thread/batch combination, the per-port record streams and the
// merged dequeue-order view must be byte-identical to an independent
// reference: each partitioned shard run through a standalone EgressPort,
// and one stable sort of all their records by dequeue time. The hook
// protocol is pinned separately: per-shard epochs arrive contiguously from
// 0 with exactly one final seal, the consumer sees epochs in order, and
// sidecars ride from seal to ready untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "sim/sharded_engine.h"
#include "traffic/distributions.h"
#include "traffic/trace_gen.h"

namespace pq::sim {
namespace {

constexpr std::uint32_t kPorts = 8;

std::vector<Packet> workload() {
  traffic::FlowTraceConfig tcfg;
  tcfg.flow_sizes = &traffic::web_search_flow_sizes();
  tcfg.duration_ns = 4'000'000;
  tcfg.seed = 424242;
  return traffic::generate_flow_trace(tcfg);
}

std::vector<PortConfig> port_configs() {
  std::vector<PortConfig> cfgs(kPorts);
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    cfgs[p].port_id = p;
    cfgs[p].collect_depth_series = false;
  }
  return cfgs;
}

ShardedEngine make_engine() { return ShardedEngine(port_configs()); }

/// Flattens a record stream to comparable words (TelemetryRecord has no
/// operator==; every field that can differ is encoded).
std::vector<std::uint64_t> encode(
    const std::vector<wire::TelemetryRecord>& recs) {
  std::vector<std::uint64_t> out;
  out.reserve(recs.size() * 6);
  for (const auto& r : recs) {
    out.push_back(r.packet_id);
    out.push_back(flow_signature(r.flow));
    out.push_back(r.egress_port);
    out.push_back(r.size_bytes);
    out.push_back(static_cast<std::uint64_t>(r.enq_timestamp));
    out.push_back((static_cast<std::uint64_t>(r.deq_timedelta) << 32) |
                  r.enq_qdepth);
  }
  return out;
}

struct EngineOutput {
  std::vector<std::uint64_t> merged;
  std::vector<std::vector<std::uint64_t>> per_port;
};

EngineOutput run_engine(const std::vector<Packet>& packets,
                        const ShardedEngine::RunOptions& opts) {
  auto eng = make_engine();
  eng.run(packets, opts);
  EngineOutput out;
  out.merged = encode(eng.merged_records());
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    out.per_port.push_back(encode(eng.port(p).records()));
  }
  return out;
}

/// The reference the engine must reproduce, built without it: each shard of
/// the engine's default partition drained by a standalone EgressPort, and
/// the merged view as one stable sort, by dequeue time, of those ports'
/// records appended in port order.
EngineOutput reference(const std::vector<Packet>& packets) {
  const auto cfgs = port_configs();
  auto shards =
      ShardedEngine::partition(packets, make_engine().forwarding(), kPorts);
  EngineOutput out;
  std::vector<wire::TelemetryRecord> all;
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    EgressPort port(cfgs[p]);
    port.run(std::move(shards[p]));
    out.per_port.push_back(encode(port.records()));
    all.insert(all.end(), port.records().begin(), port.records().end());
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const wire::TelemetryRecord& a,
                      const wire::TelemetryRecord& b) {
                     return a.deq_timestamp() < b.deq_timestamp();
                   });
  out.merged = encode(all);
  return out;
}

// The merge the reference performs — one stable sort over every port's
// records — is the global merge order the epoch handoff must reproduce.
TEST(EpochHandoff, AnyEpochSizeMatchesLegacyMerge) {
  const auto packets = workload();
  const EngineOutput oracle = reference(packets);
  ASSERT_FALSE(oracle.merged.empty());

  for (const Duration epoch : {Duration{1'000}, Duration{77'777},
                               Duration{1'000'000}, Duration{1} << 40}) {
    for (const unsigned threads : {1u, 4u, 8u}) {
      for (const std::uint32_t batch : {1u, 64u}) {
        ShardedEngine::RunOptions opts;
        opts.threads = threads;
        opts.batch = batch;
        opts.epoch_ns = epoch;
        const EngineOutput got = run_engine(packets, opts);
        const auto label = ::testing::Message()
                           << "epoch_ns=" << epoch << " threads=" << threads
                           << " batch=" << batch;
        EXPECT_EQ(oracle.merged, got.merged) << label;
        EXPECT_EQ(oracle.per_port, got.per_port) << label;
      }
    }
  }
}

TEST(EpochHandoff, RunPartitionedMatchesRun) {
  const auto packets = workload();
  ShardedEngine::RunOptions opts;
  opts.threads = 4;
  opts.batch = 64;
  opts.epoch_ns = 500'000;
  const EngineOutput direct = run_engine(packets, opts);

  auto eng = make_engine();
  auto shards = ShardedEngine::partition(packets, eng.forwarding(), kPorts);
  eng.run_partitioned(std::move(shards), opts);
  EXPECT_EQ(direct.merged, encode(eng.merged_records()));
  for (std::uint32_t p = 0; p < kPorts; ++p) {
    EXPECT_EQ(direct.per_port[p], encode(eng.port(p).records())) << p;
  }
}

TEST(EpochHandoff, ParallelPartitionMatchesSequential) {
  const auto packets = workload();
  // Custom forwarding so run() takes the generic (non-dst-hash) path too.
  auto fwd = [](const Packet& p) {
    return static_cast<std::uint32_t>(p.flow.src_port % kPorts);
  };
  auto base = ShardedEngine::partition(packets, fwd, kPorts);
  for (const unsigned threads : {2u, 8u}) {
    auto eng = make_engine();
    eng.set_forwarding(fwd);
    ShardedEngine::RunOptions opts;
    opts.threads = threads;
    eng.run(packets, opts);
    for (std::uint32_t p = 0; p < kPorts; ++p) {
      ASSERT_EQ(base[p].size(), eng.port(p).records().size())
          << "threads=" << threads << " port=" << p;
    }
  }
}

// The hook protocol: seal runs per shard with contiguous epochs and exactly
// one final; ready runs per epoch in order, sees the shard-ordered sidecars
// unchanged, and flags the last epoch exactly once.
TEST(EpochHandoff, HookProtocolAndSidecarPassthrough) {
  const auto packets = workload();
  auto eng = make_engine();

  struct SealTag {
    std::uint32_t shard;
    std::uint64_t epoch;
    bool final_seal;
  };
  std::vector<std::vector<SealTag>> sealed(kPorts);  // per shard, seal order
  std::atomic<std::uint64_t> ready_calls{0};
  std::uint64_t last_epoch_seen = 0;
  std::uint64_t final_ready = 0;
  bool ready_order_ok = true;
  bool sidecars_ok = true;

  EpochHooks hooks;
  hooks.seal = [&](std::uint32_t shard, const EpochSeal& s) {
    sealed[shard].push_back({shard, s.epoch, s.final_seal});
    return std::make_shared<SealTag>(SealTag{shard, s.epoch, s.final_seal});
  };
  hooks.ready = [&](std::uint64_t epoch,
                    const std::vector<std::shared_ptr<void>>& sidecars,
                    bool last) {
    const std::uint64_t n = ready_calls.fetch_add(1);
    if (epoch != n) ready_order_ok = false;
    last_epoch_seen = epoch;
    if (last) ++final_ready;
    for (std::uint32_t s = 0; s < sidecars.size(); ++s) {
      if (sidecars[s] == nullptr) continue;  // shard already past its final
      const auto& tag = *static_cast<const SealTag*>(sidecars[s].get());
      if (tag.shard != s || tag.epoch != epoch) sidecars_ok = false;
    }
  };
  eng.set_epoch_hooks(&hooks);

  ShardedEngine::RunOptions opts;
  opts.threads = 4;
  opts.epoch_ns = 250'000;
  eng.run(packets, opts);

  EXPECT_TRUE(ready_order_ok);
  EXPECT_TRUE(sidecars_ok);
  EXPECT_EQ(final_ready, 1u);
  std::uint64_t max_final_epoch = 0;
  for (std::uint32_t s = 0; s < kPorts; ++s) {
    ASSERT_FALSE(sealed[s].empty()) << s;
    for (std::uint64_t e = 0; e < sealed[s].size(); ++e) {
      EXPECT_EQ(sealed[s][e].epoch, e) << "shard " << s;
      EXPECT_EQ(sealed[s][e].final_seal, e + 1 == sealed[s].size())
          << "shard " << s;
    }
    max_final_epoch = std::max(max_final_epoch, sealed[s].back().epoch);
  }
  // The consumer merges every epoch up to the last shard's final seal.
  EXPECT_EQ(ready_calls.load(), max_final_epoch + 1);
  EXPECT_EQ(last_epoch_seen, max_final_epoch);
}

}  // namespace
}  // namespace pq::sim
