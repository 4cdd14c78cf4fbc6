// Big-endian (network byte order) serialization helpers, plus the two
// field encodings every pq format shares: the 13-byte FlowId and the IEEE
// f64 bit pattern.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.h"

namespace pq::wire {

inline void put_u8(std::vector<std::uint8_t>& buf, std::uint8_t v) {
  buf.push_back(v);
}

inline void put_u16(std::vector<std::uint8_t>& buf, std::uint16_t v) {
  buf.push_back(static_cast<std::uint8_t>(v >> 8));
  buf.push_back(static_cast<std::uint8_t>(v));
}

inline void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  put_u16(buf, static_cast<std::uint16_t>(v >> 16));
  put_u16(buf, static_cast<std::uint16_t>(v));
}

inline void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  put_u32(buf, static_cast<std::uint32_t>(v >> 32));
  put_u32(buf, static_cast<std::uint32_t>(v));
}

/// Reader over a byte span that tracks its offset; `ok()` turns false on
/// overrun instead of throwing, so parsers can bail out with one check.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return data_.size() - off_; }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[off_++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    const std::uint16_t v = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(data_[off_]) << 8) | data_[off_ + 1]);
    off_ += 2;
    return v;
  }
  std::uint32_t u32() { return static_cast<std::uint32_t>(be(4)); }
  std::uint64_t u64() { return be(8); }
  void skip(std::size_t n) {
    if (need(n)) off_ += n;
  }

 private:
  /// `n` (even) big-endian bytes behind one bounds check, which keeps the
  /// read small enough to inline into the record decoders. A short stream
  /// reads as the whole u16s that fit and then fails, exactly like n / 2
  /// calls to u16().
  std::uint64_t be(std::size_t n) {
    std::uint64_t v = 0;
    if (ok_ && data_.size() - off_ >= n) {
      for (std::size_t i = 0; i < n; ++i) v = (v << 8) | data_[off_ + i];
      off_ += n;
      return v;
    }
    for (std::size_t i = 0; i < n; i += 2) v = (v << 16) | u16();
    return v;
  }
  bool need(std::size_t n) {
    if (!ok_ || data_.size() - off_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::span<const std::uint8_t> data_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

/// FlowId as 13 bytes: src_ip, dst_ip, src_port, dst_port, proto.
inline void put_flow(std::vector<std::uint8_t>& buf, const FlowId& f) {
  put_u32(buf, f.src_ip);
  put_u32(buf, f.dst_ip);
  put_u16(buf, f.src_port);
  put_u16(buf, f.dst_port);
  put_u8(buf, f.proto);
}

inline FlowId get_flow(ByteReader& r) {
  FlowId f;
  f.src_ip = r.u32();
  f.dst_ip = r.u32();
  f.src_port = r.u16();
  f.dst_port = r.u16();
  f.proto = r.u8();
  return f;
}

/// A double as its IEEE-754 bit pattern in a u64: exact, never rounded.
inline void put_f64(std::vector<std::uint8_t>& buf, double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(buf, bits);
}

inline double get_f64(ByteReader& r) {
  const std::uint64_t bits = r.u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

}  // namespace pq::wire
