#include "wire/headers.h"

#include <gtest/gtest.h>

#include "wire/bytes.h"

namespace pq::wire {
namespace {

std::vector<std::uint8_t> make_frame(const FlowId& flow,
                                     std::uint8_t priority = 0,
                                     std::uint16_t payload = 8) {
  std::vector<std::uint8_t> buf;
  EthernetHeader eth;
  encode_ethernet(buf, eth);
  Ipv4Header ip;
  ip.dscp = priority;
  ip.proto = flow.proto;
  ip.src_ip = flow.src_ip;
  ip.dst_ip = flow.dst_ip;
  const std::size_t l4 =
      flow.proto == kProtoUdp ? L4Header::kUdpSize : L4Header::kTcpSize;
  ip.total_len = static_cast<std::uint16_t>(Ipv4Header::kSize + l4 + payload);
  encode_ipv4(buf, ip);
  encode_l4(buf, flow, payload);
  buf.resize(buf.size() + payload, 0xab);
  return buf;
}

TEST(InternetChecksum, ZeroOverZeros) {
  std::vector<std::uint8_t> zeros(20, 0);
  EXPECT_EQ(internet_checksum(zeros), 0xffff);
}

TEST(InternetChecksum, RfcExampleVector) {
  // Classic RFC 1071 example words: 0x0001 0xf203 0xf4f5 0xf6f7.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(std::span<const std::uint8_t>(data, 8)),
            static_cast<std::uint16_t>(~0xddf2 & 0xffff));
}

TEST(InternetChecksum, OddLengthPadsWithZero) {
  const std::uint8_t a[] = {0x12, 0x34, 0x56};
  const std::uint8_t b[] = {0x12, 0x34, 0x56, 0x00};
  EXPECT_EQ(internet_checksum(std::span<const std::uint8_t>(a, 3)),
            internet_checksum(std::span<const std::uint8_t>(b, 4)));
}

TEST(ParseFrame, RoundTripsTcpFlow) {
  const FlowId flow = make_flow(42, kProtoTcp);
  const auto frame = make_frame(flow, 3);
  const auto parsed = parse_frame(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow, flow);
  EXPECT_EQ(parsed->priority, 3);
  EXPECT_EQ(parsed->payload.size(), 8u);
  EXPECT_EQ(parsed->payload[0], 0xab);
}

TEST(ParseFrame, RoundTripsUdpFlow) {
  const FlowId flow = make_flow(7, kProtoUdp);
  const auto parsed = parse_frame(make_frame(flow));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->flow, flow);
}

TEST(ParseFrame, EncodedIpv4ChecksumValidates) {
  // The encoded header's checksum field must make the whole header sum to 0.
  const auto frame = make_frame(make_flow(1));
  const auto hdr = std::span<const std::uint8_t>(frame).subspan(
      EthernetHeader::kSize, Ipv4Header::kSize);
  EXPECT_EQ(internet_checksum(hdr), 0);
}

TEST(ParseFrame, RejectsCorruptedIpHeader) {
  auto frame = make_frame(make_flow(1));
  frame[EthernetHeader::kSize + 12] ^= 0xff;  // flip a source-IP byte
  EXPECT_FALSE(parse_frame(frame).has_value());
}

TEST(ParseFrame, RejectsTruncation) {
  const auto frame = make_frame(make_flow(1));
  for (std::size_t len : {std::size_t{0}, std::size_t{10},
                          EthernetHeader::kSize, EthernetHeader::kSize + 10}) {
    EXPECT_FALSE(
        parse_frame(std::span<const std::uint8_t>(frame.data(), len))
            .has_value())
        << "len=" << len;
  }
}

TEST(ParseFrame, RejectsNonIpv4EtherType) {
  auto frame = make_frame(make_flow(1));
  frame[12] = 0x86;  // IPv6 ethertype
  frame[13] = 0xdd;
  EXPECT_FALSE(parse_frame(frame).has_value());
}

TEST(ParseFrame, RejectsUnknownL4Protocol) {
  const FlowId flow{.src_ip = 1, .dst_ip = 2, .src_port = 3, .dst_port = 4,
                    .proto = 47};  // GRE
  EXPECT_FALSE(parse_frame(make_frame(flow)).has_value());
}

TEST(ByteReader, ReadsBigEndianScalars) {
  std::vector<std::uint8_t> buf;
  put_u8(buf, 0x01);
  put_u16(buf, 0x0203);
  put_u32(buf, 0x04050607);
  put_u64(buf, 0x08090a0b0c0d0e0full);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0x01);
  EXPECT_EQ(r.u16(), 0x0203);
  EXPECT_EQ(r.u32(), 0x04050607u);
  EXPECT_EQ(r.u64(), 0x08090a0b0c0d0e0full);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ByteReader, OverrunSetsNotOk) {
  std::vector<std::uint8_t> buf{1, 2};
  ByteReader r(buf);
  r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(ByteReader, ShortReadConsumesTheWholeU16sThatFit) {
  // A wide read past the end takes the 16-bit halves that fit, then fails;
  // offset() and remaining() after the failure follow from that.
  const std::vector<std::uint8_t> three{1, 2, 3};
  ByteReader r32(three);
  EXPECT_EQ(r32.u32(), 0x01020000u);
  EXPECT_FALSE(r32.ok());
  EXPECT_EQ(r32.offset(), 2u);
  EXPECT_EQ(r32.u8(), 0u);  // nothing reads after a failure
  EXPECT_EQ(r32.remaining(), 1u);

  const std::vector<std::uint8_t> seven{1, 2, 3, 4, 5, 6, 7};
  ByteReader r64(seven);
  EXPECT_EQ(r64.u64(), 0x0102030405060000ull);
  EXPECT_FALSE(r64.ok());
  EXPECT_EQ(r64.offset(), 6u);
}

}  // namespace
}  // namespace pq::wire
