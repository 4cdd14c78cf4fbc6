#include "control/query_service.h"

#include <gtest/gtest.h>

#include <cmath>

namespace pq::control {
namespace {

core::PipelineConfig small_config() {
  core::PipelineConfig cfg;
  cfg.windows.m0 = 4;
  cfg.windows.alpha = 1;
  cfg.windows.k = 6;
  cfg.windows.num_windows = 3;
  cfg.monitor.max_depth_cells = 200;
  return cfg;
}

sim::EgressContext ctx(std::uint32_t flow, Timestamp deq,
                       std::uint32_t qdepth = 0) {
  sim::EgressContext c;
  c.flow = make_flow(flow);
  c.egress_port = 0;
  c.size_bytes = 80;
  c.packet_cells = 1;
  c.enq_qdepth = qdepth;
  c.enq_timestamp = deq;
  c.deq_timedelta = 0;
  return c;
}

struct Rig {
  Rig() : pipeline(small_config()), analysis(pipeline, make_acfg()),
          service(analysis) {
    pipeline.enable_port(0);
  }
  static AnalysisConfig make_acfg() {
    AnalysisConfig a;
    a.z0_override = 1.0;
    return a;
  }
  core::PrintQueuePipeline pipeline;
  AnalysisProgram analysis;
  QueryService service;
};

TEST(QueryService, TimeWindowRequestRoundTrips) {
  Rig rig;
  for (int i = 0; i < 40; ++i) {
    rig.pipeline.on_egress(ctx(static_cast<std::uint32_t>(i % 4),
                               16 + static_cast<Timestamp>(i) * 16));
  }
  rig.analysis.finalize(2000);

  QueryRequest req;
  req.type = QueryType::kTimeWindows;
  req.port_prefix = 0;
  req.t1 = 0;
  req.t2 = 2000;
  const auto wire_resp = rig.service.handle(encode_request(req));
  const auto resp = decode_response(wire_resp);
  EXPECT_EQ(resp.status, QueryStatus::kOk);
  ASSERT_EQ(resp.counts.size(), 4u);
  for (const auto& [flow, n] : resp.counts) EXPECT_NEAR(n, 10.0, 0.01);
  EXPECT_EQ(rig.service.requests_served(), 1u);
}

TEST(QueryService, QueueMonitorRequestRoundTrips) {
  Rig rig;
  rig.pipeline.on_egress(ctx(1, 100, 9));   // level 10
  rig.pipeline.on_egress(ctx(2, 200, 49));  // level 50
  rig.analysis.finalize(2000);

  QueryRequest req;
  req.type = QueryType::kQueueMonitor;
  req.t1 = 150;
  const auto resp = decode_response(rig.service.handle(encode_request(req)));
  EXPECT_EQ(resp.status, QueryStatus::kOk);
  ASSERT_EQ(resp.culprits.size(), 2u);
  EXPECT_EQ(resp.culprits[0].flow, make_flow(1));
  EXPECT_EQ(resp.culprits[0].level, 10u);
  EXPECT_EQ(resp.culprits[1].level, 50u);
}

TEST(QueryService, MalformedRequestIsRejectedSafely) {
  Rig rig;
  const std::vector<std::uint8_t> junk{1, 2, 3};
  const auto resp = decode_response(rig.service.handle(junk));
  EXPECT_EQ(resp.status, QueryStatus::kMalformed);
  EXPECT_EQ(rig.service.requests_rejected(), 1u);
}

TEST(QueryService, WrongMagicIsRejected) {
  Rig rig;
  auto req = encode_request({});
  req[0] ^= 0xff;
  const auto resp = decode_response(rig.service.handle(req));
  EXPECT_EQ(resp.status, QueryStatus::kMalformed);
}

TEST(QueryService, UnknownTypeIsRejected) {
  Rig rig;
  QueryRequest req;
  req.type = static_cast<QueryType>(99);  // encoded with a valid CRC
  const auto resp = decode_response(rig.service.handle(encode_request(req)));
  EXPECT_EQ(resp.status, QueryStatus::kUnknownType);
}

TEST(QueryService, CorruptedTypeByteFailsIntegrityNotDispatch) {
  // A flipped byte inside an otherwise well-formed frame must be caught by
  // the CRC trailer before the type is even looked at.
  Rig rig;
  auto req = encode_request({});
  req[4] = 99;  // type byte, CRC left stale
  const auto resp = decode_response(rig.service.handle(req));
  EXPECT_EQ(resp.status, QueryStatus::kMalformed);
  EXPECT_EQ(rig.service.health().crc_rejected, 1u);
}

TEST(QueryService, TruncatedResponseDecodesAsMalformed) {
  Rig rig;
  rig.pipeline.on_egress(ctx(1, 100));
  rig.analysis.finalize(2000);
  QueryRequest req;
  req.t2 = 2000;
  auto wire_resp = rig.service.handle(encode_request(req));
  wire_resp.resize(wire_resp.size() - 3);
  const auto resp = decode_response(wire_resp);
  EXPECT_EQ(resp.status, QueryStatus::kMalformed);
  EXPECT_TRUE(resp.counts.empty());
}

TEST(QueryService, EmptyResultIsValid) {
  Rig rig;
  rig.analysis.finalize(100);
  QueryRequest req;
  req.t1 = 0;
  req.t2 = 50;
  const auto resp = decode_response(rig.service.handle(encode_request(req)));
  EXPECT_EQ(resp.status, QueryStatus::kOk);
  EXPECT_TRUE(resp.counts.empty());
}

TEST(QueryService, UncoveredSpanIsFlaggedPartial) {
  Rig rig;
  rig.pipeline.on_egress(ctx(1, 100));
  rig.analysis.finalize(2000);
  // Half the span lies beyond every checkpoint: the answer must be marked
  // partial with the coverage as confidence, not silently passed as kOk.
  QueryRequest req;
  req.t1 = 0;
  req.t2 = 4000;
  const auto resp = decode_response(rig.service.handle(encode_request(req)));
  EXPECT_EQ(resp.status, QueryStatus::kPartial);
  EXPECT_GT(resp.confidence, 0.0);
  EXPECT_LT(resp.confidence, 1.0);
  EXPECT_EQ(rig.service.health().partial_answers, 1u);
}

TEST(QueryService, StatusForSplitsAtFullConfidence) {
  EXPECT_EQ(status_for(1.0), QueryStatus::kOk);
  EXPECT_EQ(status_for(kFullConfidence), QueryStatus::kOk);
  EXPECT_EQ(status_for(std::nextafter(kFullConfidence, 0.0)),
            QueryStatus::kPartial);
  EXPECT_EQ(status_for(0.0), QueryStatus::kPartial);
}

TEST(QueryService, DuplicateRequestIdsAreServedFromCache) {
  Rig rig;
  rig.pipeline.on_egress(ctx(1, 100));
  rig.analysis.finalize(2000);
  QueryRequest req;
  req.t2 = 2000;
  req.request_id = 77;
  const auto wire_req = encode_request(req);
  const auto first = rig.service.handle(wire_req);
  const auto replay = rig.service.handle(wire_req);
  EXPECT_EQ(first, replay);  // byte-identical idempotent replay
  EXPECT_EQ(rig.service.requests_served(), 1u);
  EXPECT_EQ(rig.service.health().duplicates_deduped, 1u);
  EXPECT_EQ(decode_response(replay).request_id, 77u);
}

TEST(QueryService, ResponseEchoesRequestIdAndSurvivesRoundTrip) {
  Rig rig;
  rig.analysis.finalize(100);
  QueryRequest req;
  req.t1 = 0;
  req.t2 = 50;
  req.request_id = 0xDEADBEEFCAFEull;
  const auto resp = decode_response(rig.service.handle(encode_request(req)));
  EXPECT_EQ(resp.request_id, 0xDEADBEEFCAFEull);
  EXPECT_DOUBLE_EQ(resp.confidence, 1.0);
}

}  // namespace
}  // namespace pq::control
