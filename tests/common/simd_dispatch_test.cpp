// The runtime SIMD dispatch contract (docs/ARCHITECTURE.md §13): requests
// parse and resolve to a level that is actually usable here, a forced level
// that is not usable falls back to scalar rather than faulting, and every
// SIMD kernel is byte-identical to its scalar oracle — including the
// unaligned heads and tails (0 .. width-1 leftover elements) where the
// vector loops hand back to scalar code, and the configurations the vector
// path refuses (non-power-of-two monitor granularity).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/simd/dispatch.h"
#include "core/queue_monitor.h"
#include "core/time_windows.h"

namespace pq {
namespace {

/// Every dispatch level usable on this machine, widest last. On a host
/// without AVX2 the sweep degenerates to {kScalar} and the suite still
/// proves the portable path against itself.
std::vector<simd::Level> sweep_levels() {
  std::vector<simd::Level> v{simd::Level::kScalar};
  if (simd::supported(simd::Level::kAvx2)) v.push_back(simd::Level::kAvx2);
  return v;
}

/// Forces a level for one sweep iteration; restores the configured request
/// (environment/default) on scope exit so tests cannot leak a forced level.
class ScopedLevel {
 public:
  explicit ScopedLevel(simd::Level level) { simd::set_active_level(level); }
  ~ScopedLevel() { simd::configure(); }
};

TEST(SimdDispatch, ParseRequest) {
  EXPECT_EQ(simd::parse_request("auto"), simd::Request::kAuto);
  EXPECT_EQ(simd::parse_request("avx2"), simd::Request::kAvx2);
  EXPECT_EQ(simd::parse_request("scalar"), simd::Request::kScalar);
  EXPECT_FALSE(simd::parse_request("").has_value());
  EXPECT_FALSE(simd::parse_request("AVX2").has_value());
  EXPECT_FALSE(simd::parse_request("sse").has_value());
  EXPECT_FALSE(simd::parse_request("scalar ").has_value());
}

TEST(SimdDispatch, ResolveAlwaysLandsOnUsableLevel) {
  for (const auto req : {simd::Request::kAuto, simd::Request::kAvx2,
                         simd::Request::kScalar}) {
    const simd::Level landed = simd::resolve(req);
    EXPECT_TRUE(simd::supported(landed)) << simd::to_string(req);
  }
  EXPECT_EQ(simd::resolve(simd::Request::kScalar), simd::Level::kScalar);
  // kAuto picks the widest usable level; a forced kAvx2 lands there exactly
  // when the CPU + build can execute it, and falls back to scalar otherwise
  // (the CPUID-fallback guarantee — never a fault, never a silent lie).
  const bool avx2 = simd::supported(simd::Level::kAvx2);
  EXPECT_EQ(simd::resolve(simd::Request::kAuto),
            avx2 ? simd::Level::kAvx2 : simd::Level::kScalar);
  EXPECT_EQ(simd::resolve(simd::Request::kAvx2),
            avx2 ? simd::Level::kAvx2 : simd::Level::kScalar);
}

TEST(SimdDispatch, SupportedImpliesCompiledAndCpu) {
  EXPECT_TRUE(simd::compiled(simd::Level::kScalar));
  EXPECT_TRUE(simd::cpu_supports(simd::Level::kScalar));
  EXPECT_TRUE(simd::supported(simd::Level::kScalar));
  EXPECT_EQ(simd::supported(simd::Level::kAvx2),
            simd::compiled(simd::Level::kAvx2) &&
                simd::cpu_supports(simd::Level::kAvx2));
}

TEST(SimdDispatch, ConfigureAppliesRequestAndReportsLanding) {
  const simd::Level before = simd::active_level();
  const simd::Level landed = simd::configure(simd::Request::kScalar);
  EXPECT_EQ(landed, simd::Level::kScalar);
  EXPECT_EQ(simd::active_level(), simd::Level::kScalar);
  EXPECT_EQ(simd::active_request(), simd::Request::kScalar);
  // Re-applying the environment/default request restores the initial level
  // (this suite does not set PQ_SIMD_LEVEL, so the default is kAuto).
  EXPECT_EQ(simd::configure(), before);
  EXPECT_EQ(simd::active_level(), before);
}

// Hash kernels across every tail length a vector loop can leave over:
// n = 0 .. 2*width so full groups, partial tails, and the empty input all
// occur. The scalar mix64 is the oracle.
TEST(SimdDispatch, HashBatchTailsMatchScalarOracle) {
  for (const simd::Level level : sweep_levels()) {
    ScopedLevel scope(level);
    for (std::size_t n = 0; n <= 16; ++n) {
      std::vector<std::uint64_t> in(n), out(n, 0xdead);
      std::vector<FlowId> flows;
      flows.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        in[i] = 0x123456789abcdef0ull * (i + 1) + n;
        flows.push_back(make_flow(static_cast<std::uint32_t>(7 * i + n)));
      }
      mix64_batch(in.data(), out.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], mix64(in[i]))
            << simd::to_string(level) << " n=" << n << " i=" << i;
      }
      std::vector<std::uint64_t> sig(n, 0xbeef);
      flow_signature_batch(flows.data(), sig.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(sig[i], flow_signature(flows[i]))
            << simd::to_string(level) << " n=" << n << " i=" << i;
      }
      // mix64_batch documents full aliasing (in == out).
      std::vector<std::uint64_t> inplace = in;
      mix64_batch(inplace.data(), inplace.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(inplace[i], mix64(in[i])) << "aliased n=" << n;
      }
    }
  }
}

// The window kernel's scalar head (first vector group needs element x-1)
// and tail both replay through the oracle; runs of every small length pin
// those boundaries, per dispatch level, against the per-packet path.
TEST(SimdDispatch, WindowRunTailsMatchPerPacketOracle) {
  core::TimeWindowParams p;
  p.m0 = 4;
  p.alpha = 2;
  p.k = 5;
  p.num_windows = 3;
  p.num_ports = 1;
  for (const simd::Level level : sweep_levels()) {
    ScopedLevel scope(level);
    core::TimeWindowSet oracle(p);
    core::TimeWindowSet batched(p);
    Timestamp t = 100;
    for (std::size_t n = 0; n <= 12; ++n) {
      std::vector<FlowId> flows;
      flows.reserve(n);
      std::vector<Timestamp> deq(n);
      for (std::size_t i = 0; i < n; ++i) {
        // Small advances with repeats: eviction chains and equal-TTS
        // duplicates inside the tiny run lengths.
        t += (i % 3 == 0) ? 0 : 17 * (i + n);
        flows.push_back(make_flow(static_cast<std::uint32_t>(i + 31 * n)));
        deq[i] = t;
      }
      for (std::size_t i = 0; i < n; ++i) {
        oracle.on_packet(0, flows[i], deq[i]);
      }
      batched.absorb_run(0, flows.data(), deq.data(), n);
      EXPECT_EQ(oracle.stats().stored, batched.stats().stored) << "n=" << n;
      EXPECT_EQ(oracle.stats().passed, batched.stats().passed) << "n=" << n;
      EXPECT_EQ(oracle.stats().dropped, batched.stats().dropped) << "n=" << n;
    }
    const auto a = oracle.read_bank(0, 0);
    const auto b = batched.read_bank(0, 0);
    for (std::size_t w = 0; w < a.size(); ++w) {
      for (std::size_t c = 0; c < a[w].size(); ++c) {
        ASSERT_EQ(a[w][c].occupied, b[w][c].occupied)
            << simd::to_string(level) << " w" << w << " cell " << c;
        if (!a[w][c].occupied) continue;
        EXPECT_EQ(a[w][c].flow, b[w][c].flow) << "w" << w << " cell " << c;
        EXPECT_EQ(a[w][c].cycle_id, b[w][c].cycle_id)
            << "w" << w << " cell " << c;
      }
    }
  }
}

// Non-power-of-two monitor granularity must refuse the vector path (its
// level computation is a shift) and still produce identical state through
// the portable loop, whatever level is active.
TEST(SimdDispatch, MonitorNonPowerOfTwoGranularityFallsBack) {
  core::QueueMonitorParams p;
  p.max_depth_cells = 2'000;
  p.granularity_cells = 48;  // not a power of two
  p.num_ports = 1;
  for (const simd::Level level : sweep_levels()) {
    ScopedLevel scope(level);
    core::QueueMonitor oracle(p);
    core::QueueMonitor batched(p);
    std::vector<FlowId> flows;
    std::vector<std::uint32_t> depth;
    for (std::size_t i = 0; i < 300; ++i) {
      flows.push_back(make_flow(static_cast<std::uint32_t>(i % 11)));
      depth.push_back(static_cast<std::uint32_t>((i * 97) % 1'900 + 1));
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      oracle.on_packet(0, flows[i], depth[i]);
    }
    batched.absorb_run(0, flows.data(), depth.data(), flows.size());
    const auto ma = oracle.read_bank(oracle.active_bank(), 0);
    const auto mb = batched.read_bank(batched.active_bank(), 0);
    ASSERT_EQ(ma.top, mb.top) << simd::to_string(level);
    ASSERT_EQ(ma.entries.size(), mb.entries.size());
    for (std::size_t i = 0; i < ma.entries.size(); ++i) {
      EXPECT_EQ(ma.entries[i].inc.valid, mb.entries[i].inc.valid) << i;
      EXPECT_EQ(ma.entries[i].dec.valid, mb.entries[i].dec.valid) << i;
      if (ma.entries[i].inc.valid && mb.entries[i].inc.valid) {
        EXPECT_EQ(ma.entries[i].inc.flow, mb.entries[i].inc.flow) << i;
        EXPECT_EQ(ma.entries[i].inc.seq, mb.entries[i].inc.seq) << i;
      }
      if (ma.entries[i].dec.valid && mb.entries[i].dec.valid) {
        EXPECT_EQ(ma.entries[i].dec.flow, mb.entries[i].dec.flow) << i;
        EXPECT_EQ(ma.entries[i].dec.seq, mb.entries[i].dec.seq) << i;
      }
    }
  }
}

}  // namespace
}  // namespace pq
