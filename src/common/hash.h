// Hash utilities: a 64-bit mixer and an indexed hash family for sketches.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.h"

namespace pq {

/// SplitMix64 finalizer: a high-quality 64-bit mixing function. Used both to
/// derive flow signatures and to seed RNG streams.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Element-wise mix64 over a key column: out[i] = mix64(in[i]). Hot loops
/// hash batch-at-a-time through this so the branch-free finalizer can
/// vectorize across elements; results are bit-identical to per-key mix64.
/// `in` and `out` may alias completely (in == out) but not partially.
void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n);

/// flow_signature over a contiguous array of flow IDs (same per-element
/// result as flow_signature, computed column-wise).
void flow_signature_batch(const FlowId* flows, std::uint64_t* out,
                          std::size_t n);

/// Seed separating the network-layer ECMP path hash from the PrintQueue
/// flow hash. flow_signature() is deliberately unseeded — it is the
/// register-cell identity the data plane stores and every archived snapshot
/// depends on — so the path hash re-mixes it with this constant instead of
/// reusing it. If the two hashes were identical, flows that collide in a
/// PrintQueue cell would also always share an ECMP path (and vice versa),
/// correlating sketch error with routing skew; the extra mix64 round makes
/// the pair behave as independent functions (regression-tested in
/// tests/common/hash_test.cpp).
inline constexpr std::uint64_t kEcmpHashSeed = 0xd6e8feb86659fd93ull;

/// The ECMP path-selection hash over a 5-tuple: mix64(flow_signature ^
/// kEcmpHashSeed). Reduce modulo the equal-cost set size to pick a path
/// (net::Topology::next_port). Stable across runs and hosts by design —
/// scenario generators rely on it to place flows on chosen paths.
std::uint64_t ecmp_signature(const FlowId& f);

/// FNV-1a over an arbitrary byte range; used for wire-format checksumming of
/// trace files (not for sketch indexing, where mix64 is preferred).
std::uint64_t fnv1a(const void* data, std::size_t len);

/// CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320) over a byte range: the
/// integrity trailer of every feed record frame (wire/trace_io), every
/// archive segment header, block and footer (store/archive_format.h), which
/// each recovery scan re-verifies, and every control-plane query message.
/// Unlike FNV it detects all single-bit and all single-byte errors, which
/// is the fault class the lossy-channel injector exercises. `seed` allows
/// incremental computation (pass a previous result to continue). A portable
/// slice-by-16 table kernel (16 and 8 bytes per step, then a byte tail)
/// with one code path on every host; tests/common/hash_test.cpp keeps the
/// bytewise one-table loop as its oracle.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// A family of pairwise-distinct hash functions over flow IDs, as required by
/// FlowRadar's k-ary encoded flowset and HashPipe's per-stage hashing.
/// `HashFamily(seed)(i, flow)` returns the i-th function applied to `flow`.
class HashFamily {
 public:
  explicit HashFamily(std::uint64_t seed) : seed_(seed) {}

  /// i-th hash of the flow, full 64-bit output.
  std::uint64_t operator()(std::uint32_t i, const FlowId& flow) const {
    return mix64(flow_signature(flow) ^ mix64(seed_ + 0x51ed2701u * (i + 1)));
  }

  /// i-th hash reduced to a table index in [0, buckets).
  std::uint32_t index(std::uint32_t i, const FlowId& flow,
                      std::uint32_t buckets) const {
    return static_cast<std::uint32_t>((*this)(i, flow) % buckets);
  }

 private:
  std::uint64_t seed_;
};

}  // namespace pq
