#include "common/hash.h"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace pq {
namespace {

TEST(Mix64, IsDeterministic) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_EQ(mix64(0), mix64(0));
}

TEST(Mix64, SmallInputChangesSpreadWidely) {
  // Adjacent inputs must differ in roughly half of the output bits.
  int total_bits = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    total_bits += std::popcount(mix64(i) ^ mix64(i + 1));
  }
  const double avg = total_bits / 256.0;
  EXPECT_GT(avg, 24.0);
  EXPECT_LT(avg, 40.0);
}

TEST(Mix64, NoCollisionsOnSequentialInputs) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    EXPECT_TRUE(seen.insert(mix64(i)).second) << "collision at " << i;
  }
}

TEST(Fnv1a, MatchesKnownVectors) {
  // FNV-1a 64-bit test vectors.
  EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

TEST(Fnv1a, SensitiveToEveryByte) {
  const char a[] = {1, 2, 3, 4};
  const char b[] = {1, 2, 3, 5};
  EXPECT_NE(fnv1a(a, 4), fnv1a(b, 4));
}

// The oracle for crc32: the one-table, byte-at-a-time CRC-32 (reflected
// IEEE polynomial 0xEDB88320), with its table built bit by bit.
std::uint32_t crc32_bytewise(const std::uint8_t* p, std::size_t len,
                             std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
  EXPECT_EQ(crc32("", 0, 0xDEADBEEFu), 0xDEADBEEFu);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  // Every length across several 16- and 8-byte steps plus every byte tail,
  // from every start offset within a 16-byte stride.
  const auto buf = random_bytes(1100 + 16, 1);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      ASSERT_EQ(crc32(buf.data() + offset, len),
                crc32_bytewise(buf.data() + offset, len))
          << "offset " << offset << ", length " << len;
    }
  }
}

TEST(Crc32, MatchesTheBytewiseReferenceOnAMebibyte) {
  const auto buf = random_bytes(std::size_t{1} << 20, 2);
  EXPECT_EQ(crc32(buf.data(), buf.size()),
            crc32_bytewise(buf.data(), buf.size()));
}

TEST(Crc32, RandomBuffersAndSeedsMatchAndChain) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t m = rng.uniform_below(300);
    const std::size_t n = rng.uniform_below(3000);
    const auto ab = random_bytes(m + n, rng());
    const auto seed = static_cast<std::uint32_t>(rng());
    EXPECT_EQ(crc32(ab.data(), ab.size(), seed),
              crc32_bytewise(ab.data(), ab.size(), seed));
    // Continuing from a previous result equals one call over a‖b.
    EXPECT_EQ(crc32(ab.data() + m, n, crc32(ab.data(), m)),
              crc32(ab.data(), ab.size()));
    EXPECT_EQ(crc32(ab.data(), ab.size()),
              crc32_bytewise(ab.data(), ab.size()));
  }
}

TEST(FlowSignature, DistinctFlowsGetDistinctSignatures) {
  std::unordered_set<std::uint64_t> seen;
  for (std::uint32_t i = 0; i < 200000; ++i) {
    seen.insert(flow_signature(make_flow(i)));
  }
  // make_flow maps distinct small integers to distinct tuples; with 64-bit
  // signatures collisions among 200k flows should be absent.
  EXPECT_EQ(seen.size(), 200000u);
}

TEST(FlowSignature, OrderOfEndpointsMatters) {
  FlowId a = make_flow(1);
  FlowId b = a;
  std::swap(b.src_ip, b.dst_ip);
  EXPECT_NE(flow_signature(a), flow_signature(b));
}

TEST(EcmpSignature, IsDeterministicAndDistinctFromFlowSignature) {
  const FlowId f = make_flow(17);
  EXPECT_EQ(ecmp_signature(f), ecmp_signature(f));
  // Same tuple, different hash function — equality would mean path choice
  // mirrors sketch placement.
  EXPECT_NE(ecmp_signature(f), flow_signature(f));
}

TEST(EcmpSignature, IndependentOfFlowSignatureBuckets) {
  // The regression the kEcmpHashSeed exists to prevent: flows that collide
  // in a small flow_signature register index must NOT systematically share
  // an ECMP path. Bucket 200k flows by their low-9-bit flow hash (the
  // time-window register index at k=9), then check each such cohort still
  // spreads over a 4-way equal-cost set. A correlated hash pair would put
  // every cohort member on one path and break the attribution scenarios'
  // path diversity.
  constexpr std::uint32_t kCohortBits = 9;
  constexpr std::uint64_t kPaths = 4;
  std::vector<std::array<std::uint32_t, kPaths>> spread(1u << kCohortBits,
                                                        {0, 0, 0, 0});
  for (std::uint32_t i = 0; i < 200000; ++i) {
    const FlowId f = make_flow(i);
    const auto cohort = flow_signature(f) & ((1u << kCohortBits) - 1);
    ++spread[cohort][ecmp_signature(f) % kPaths];
  }
  for (std::size_t cohort = 0; cohort < spread.size(); ++cohort) {
    std::uint32_t total = 0;
    std::uint32_t used = 0;
    for (const auto n : spread[cohort]) {
      total += n;
      used += n > 0 ? 1 : 0;
    }
    // ~390 flows per cohort; with independent hashes every cohort uses all
    // four paths, and no path starves below a loose fairness bound.
    ASSERT_GT(total, 100u);
    EXPECT_EQ(used, kPaths) << "cohort " << cohort << " collapsed onto "
                            << used << " path(s)";
    for (const auto n : spread[cohort]) {
      EXPECT_GT(n, total / 16) << "cohort " << cohort;
    }
  }
}

TEST(FlowIdToString, RendersTuple) {
  FlowId f{.src_ip = 0x0a000001,
           .dst_ip = 0x0a000002,
           .src_port = 1234,
           .dst_port = 80,
           .proto = 6};
  EXPECT_EQ(to_string(f), "10.0.0.1:1234->10.0.0.2:80/6");
}

TEST(HashFamily, DifferentIndicesGiveIndependentFunctions) {
  HashFamily fam(7);
  const FlowId f = make_flow(3);
  EXPECT_NE(fam(0, f), fam(1, f));
  EXPECT_NE(fam(1, f), fam(2, f));
}

TEST(HashFamily, SameSeedSameOutput) {
  HashFamily a(9), b(9);
  EXPECT_EQ(a(0, make_flow(5)), b(0, make_flow(5)));
}

TEST(HashFamily, IndexStaysInRange) {
  HashFamily fam(11);
  for (std::uint32_t i = 0; i < 1000; ++i) {
    EXPECT_LT(fam.index(i % 4, make_flow(i), 100), 100u);
  }
}

TEST(HashFamily, IndexDistributionIsRoughlyUniform) {
  HashFamily fam(13);
  std::vector<int> buckets(64, 0);
  const int n = 64000;
  for (int i = 0; i < n; ++i) {
    ++buckets[fam.index(0, make_flow(static_cast<std::uint32_t>(i)), 64)];
  }
  for (int c : buckets) {
    EXPECT_GT(c, 700);   // expected 1000 per bucket
    EXPECT_LT(c, 1300);
  }
}

TEST(BytesToCells, RoundsUp) {
  EXPECT_EQ(bytes_to_cells(1), 1u);
  EXPECT_EQ(bytes_to_cells(80), 1u);
  EXPECT_EQ(bytes_to_cells(81), 2u);
  EXPECT_EQ(bytes_to_cells(1500), 19u);
}

TEST(TxDelay, MatchesLineRateArithmetic) {
  // 1500 B at 10 Gb/s = 1200 ns exactly.
  EXPECT_EQ(tx_delay_ns(1500, 10.0), 1200u);
  // 64 B at 10 Gb/s = 51.2 ns, rounded up.
  EXPECT_EQ(tx_delay_ns(64, 10.0), 52u);
  // 250 B at 4 Gb/s = 500 ns.
  EXPECT_EQ(tx_delay_ns(250, 4.0), 500u);
}

}  // namespace
}  // namespace pq
