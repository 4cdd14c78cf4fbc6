#include "wire/trace_io.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace pq::wire {
namespace {

std::vector<TelemetryRecord> sample_records(std::size_t n) {
  std::vector<TelemetryRecord> recs;
  for (std::size_t i = 0; i < n; ++i) {
    TelemetryRecord r;
    r.flow = make_flow(static_cast<std::uint32_t>(i));
    r.egress_port = static_cast<std::uint32_t>(i % 4);
    r.size_bytes = 64 + static_cast<std::uint32_t>(i);
    r.enq_timestamp = 1000 * i;
    r.deq_timedelta = 17 * i;
    r.enq_qdepth = static_cast<std::uint32_t>(i * i);
    r.packet_id = i + 1;
    recs.push_back(r);
  }
  return recs;
}

TEST(TraceIo, RoundTripsRecords) {
  const auto recs = sample_records(100);
  std::stringstream ss;
  write_trace(ss, recs);
  const auto back = read_trace(ss);
  ASSERT_EQ(back.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(back[i].flow, recs[i].flow);
    EXPECT_EQ(back[i].egress_port, recs[i].egress_port);
    EXPECT_EQ(back[i].size_bytes, recs[i].size_bytes);
    EXPECT_EQ(back[i].enq_timestamp, recs[i].enq_timestamp);
    EXPECT_EQ(back[i].deq_timedelta, recs[i].deq_timedelta);
    EXPECT_EQ(back[i].enq_qdepth, recs[i].enq_qdepth);
    EXPECT_EQ(back[i].packet_id, recs[i].packet_id);
  }
}

TEST(TraceIo, RoundTripsEmptyTrace) {
  std::stringstream ss;
  write_trace(ss, {});
  EXPECT_TRUE(read_trace(ss).empty());
}

TEST(TraceIo, DetectsCorruption) {
  std::stringstream ss;
  write_trace(ss, sample_records(10));
  std::string data = ss.str();
  data[20] ^= 0x01;
  std::stringstream corrupted(data);
  EXPECT_THROW(read_trace(corrupted), std::runtime_error);
}

TEST(TraceIo, DetectsTruncation) {
  std::stringstream ss;
  write_trace(ss, sample_records(10));
  std::string data = ss.str();
  std::stringstream truncated(data.substr(0, data.size() / 2));
  EXPECT_THROW(read_trace(truncated), std::runtime_error);
}

TEST(TraceIo, DetectsBadMagic) {
  std::stringstream ss;
  write_trace(ss, sample_records(2));
  std::string data = ss.str();
  data[0] = static_cast<char>(data[0] ^ 0xff);
  std::stringstream bad(data);
  EXPECT_THROW(read_trace(bad), std::runtime_error);
}

TEST(TraceIo, FileRoundTrip) {
  const auto recs = sample_records(25);
  const std::string path = testing::TempDir() + "/pq_trace_test.bin";
  write_trace_file(path, recs);
  const auto back = read_trace_file(path);
  EXPECT_EQ(back.size(), 25u);
  EXPECT_EQ(back[24].packet_id, 25u);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_file("/nonexistent/pq.bin"), std::runtime_error);
}

// Pins the record codec: decoding the committed fixture and encoding it
// again reproduces the file byte for byte.
TEST(TraceIo, GoldenTraceReencodesByteForByte) {
  std::ifstream in(std::string(PQ_TEST_DATA_DIR) + "/golden_burst.pqt",
                   std::ios::binary);
  ASSERT_TRUE(in);
  const std::string original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  std::istringstream is(original);
  const auto recs = read_trace(is);
  EXPECT_EQ(recs.size(), 13346u);
  std::ostringstream os;
  write_trace(os, recs);
  EXPECT_TRUE(os.str() == original);
}

}  // namespace
}  // namespace pq::wire
