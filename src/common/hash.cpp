#include "common/hash.h"

#include <array>

#include "common/simd/dispatch.h"
#if defined(PQ_SIMD_AVX2)
#include "common/simd/kernels_avx2.h"
#endif

namespace pq {

std::uint64_t fnv1a(const void* data, std::size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 16>;

/// Slice-by-16 tables for the reflected IEEE polynomial: [0] is the classic
/// byte table, and [k][b] is the CRC register after byte b is followed by k
/// zero bytes, so sixteen independent lookups advance the CRC 16 bytes.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

/// The little-endian u32 at `p`, assembled from bytes on any host.
std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// The contribution of a 4-byte word whose last byte sits `k` bytes before
/// the end of the step.
std::uint32_t fold(std::uint32_t w, std::size_t k) {
  const Crc32Tables& t = kCrc32Tables;
  return t[k + 3][w & 0xFFu] ^ t[k + 2][(w >> 8) & 0xFFu] ^
         t[k + 1][(w >> 16) & 0xFFu] ^ t[k][w >> 24];
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 16; p += 16, len -= 16) {
    c = fold(load_le32(p) ^ c, 12) ^ fold(load_le32(p + 4), 8) ^
        fold(load_le32(p + 8), 4) ^ fold(load_le32(p + 12), 0);
  }
  if (len >= 8) {
    c = fold(load_le32(p) ^ c, 4) ^ fold(load_le32(p + 4), 0);
    p += 8;
    len -= 8;
  }
  for (; len > 0; ++p, --len) {
    c = kCrc32Tables[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void mix64_batch(const std::uint64_t* in, std::uint64_t* out, std::size_t n) {
#if defined(PQ_SIMD_AVX2)
  if (simd::active_level() == simd::Level::kAvx2) {
    simd::mix64_batch_avx2(in, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = mix64(in[i]);
}

void flow_signature_batch(const FlowId* flows, std::uint64_t* out,
                          std::size_t n) {
#if defined(PQ_SIMD_AVX2)
  if (simd::active_level() == simd::Level::kAvx2) {
    simd::flow_signature_batch_avx2(flows, out, n);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) out[i] = flow_signature(flows[i]);
}

std::uint64_t flow_signature(const FlowId& f) {
  std::uint64_t a = (static_cast<std::uint64_t>(f.src_ip) << 32) | f.dst_ip;
  std::uint64_t b = (static_cast<std::uint64_t>(f.src_port) << 24) |
                    (static_cast<std::uint64_t>(f.dst_port) << 8) | f.proto;
  return mix64(a ^ mix64(b));
}

std::uint64_t ecmp_signature(const FlowId& f) {
  return mix64(flow_signature(f) ^ kEcmpHashSeed);
}

std::string to_string(const FlowId& f) {
  auto ip = [](std::uint32_t v) {
    return std::to_string((v >> 24) & 0xff) + '.' +
           std::to_string((v >> 16) & 0xff) + '.' +
           std::to_string((v >> 8) & 0xff) + '.' + std::to_string(v & 0xff);
  };
  return ip(f.src_ip) + ':' + std::to_string(f.src_port) + "->" + ip(f.dst_ip) +
         ':' + std::to_string(f.dst_port) + '/' + std::to_string(f.proto);
}

}  // namespace pq
