// Interval-cover properties of control::walk_checkpoints, the one walk
// behind every live, offline, archive and recovered time-window answer.
// A checkpoint taken at `ta` backs [ta - t_set, ta) (clamped at 0); the
// walk's coverage must equal the share of [t1, t2) the union of those
// intervals covers, whatever the schedule: regular polls, gaps, idle
// catch-up polls at one instant, or snapshots lost to abandoned reads.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>
#include <vector>

#include "control/analysis_program.h"

namespace pq::control {
namespace {

class CheckpointWalk : public ::testing::Test {
 protected:
  static core::TimeWindowParams params() {
    core::TimeWindowParams p;
    p.m0 = 4;
    p.alpha = 1;
    p.k = 4;
    p.num_windows = 2;
    return p;
  }

  WindowSnapshot snap(Timestamp taken_at) const {
    WindowSnapshot s;
    s.taken_at = taken_at;
    s.state.assign(params().num_windows,
                   std::vector<core::WindowCell>(1u << params().k));
    return s;
  }

  IntervalAnswer walk(const std::vector<WindowSnapshot>& snaps, Timestamp t1,
                      Timestamp t2) const {
    return walk_checkpoints(snaps, layout, coeffs, false, t1, t2);
  }

  /// |[t1, t2) ∩ ⋃ [taken_at - t_set, taken_at)|, by sorting and merging
  /// the clipped intervals — independent of the walk's backward order.
  Duration covered_length(const std::vector<WindowSnapshot>& snaps,
                          Timestamp t1, Timestamp t2) const {
    std::vector<std::pair<Timestamp, Timestamp>> pieces;
    for (const auto& s : snaps) {
      const Timestamp lo = std::max(
          t1, s.taken_at > t_set ? s.taken_at - t_set : Timestamp{0});
      const Timestamp hi = std::min(t2, s.taken_at);
      if (lo < hi) pieces.emplace_back(lo, hi);
    }
    std::sort(pieces.begin(), pieces.end());
    Duration total = 0;
    Timestamp reach = t1;
    for (const auto& [lo, hi] : pieces) {
      const Timestamp from = std::max(lo, reach);
      if (hi > from) total += hi - from;
      reach = std::max(reach, hi);
    }
    return total;
  }

  void expect_coverage_matches(const std::vector<WindowSnapshot>& snaps,
                               Timestamp t1, Timestamp t2) const {
    const auto answer = walk(snaps, t1, t2);
    const double span = static_cast<double>(t2 - t1);
    EXPECT_EQ(std::llround(answer.coverage * span),
              static_cast<long long>(covered_length(snaps, t1, t2)))
        << "query [" << t1 << ", " << t2 << ") over " << snaps.size()
        << " checkpoint(s)";
  }

  const core::TtsLayout layout{params()};
  const core::CoefficientTable coeffs =
      core::CoefficientTable::compute(1.0, params().alpha,
                                      params().num_windows);
  const Duration t_set = layout.set_period_ns();
};

TEST_F(CheckpointWalk, EmptySpanIsFullyCoveredAndNoCheckpointCoversNothing) {
  EXPECT_DOUBLE_EQ(walk({snap(t_set)}, 50, 50).coverage, 1.0);
  EXPECT_DOUBLE_EQ(walk({}, 0, t_set).coverage, 0.0);
}

TEST_F(CheckpointWalk, TilingCheckpointsCoverTheWholeSpan) {
  // [ s1 )[ s2 )[ s3 )
  //   [   query   )
  const std::vector<WindowSnapshot> snaps = {snap(t_set), snap(2 * t_set),
                                             snap(3 * t_set)};
  EXPECT_DOUBLE_EQ(walk(snaps, t_set / 2, 3 * t_set).coverage, 1.0);
  expect_coverage_matches(snaps, t_set / 2, 3 * t_set);
}

TEST_F(CheckpointWalk, GapBetweenCheckpointsIsUncovered) {
  // [ s1 )        [ s2 )
  // [      query       )
  const std::vector<WindowSnapshot> snaps = {snap(t_set), snap(3 * t_set)};
  EXPECT_DOUBLE_EQ(walk(snaps, 0, 3 * t_set).coverage, 2.0 / 3.0);
  expect_coverage_matches(snaps, 0, 3 * t_set);
}

TEST_F(CheckpointWalk, OverlappingAndRepeatedCheckpointsCountOnce) {
  //   [ s1 )
  //      [ s2 )       s2 twice: the idle catch-up polls at one instant
  //   [ query  )
  const std::vector<WindowSnapshot> snaps = {
      snap(t_set), snap(t_set + t_set / 2), snap(t_set + t_set / 2)};
  EXPECT_DOUBLE_EQ(walk(snaps, 0, t_set + t_set / 2).coverage, 1.0);
  expect_coverage_matches(snaps, 0, t_set + t_set / 2);
}

TEST_F(CheckpointWalk, SpanBeyondTheNewestCheckpointIsPartial) {
  // [ s1 )
  //    [ query     )
  const std::vector<WindowSnapshot> snaps = {snap(t_set)};
  EXPECT_DOUBLE_EQ(walk(snaps, t_set / 2, t_set + t_set / 2).coverage, 0.5);
  expect_coverage_matches(snaps, t_set / 2, t_set + t_set / 2);
}

TEST_F(CheckpointWalk, CoverageIsTheUnionOfCheckpointIntervals) {
  std::mt19937_64 rng(20221);
  const auto draw = [&rng](Timestamp lo, Timestamp hi) {
    return std::uniform_int_distribution<Timestamp>(lo, hi)(rng);
  };
  for (int schedule = 0; schedule < 400; ++schedule) {
    std::vector<WindowSnapshot> snaps;
    Timestamp t = draw(0, 2 * t_set);
    const int polls = static_cast<int>(draw(0, 24));
    for (int i = 0; i < polls; ++i) {
      switch (draw(0, 5)) {
        case 0:  // a gap: polls stopped for a while
          t += draw(2, 6) * t_set;
          break;
        case 1:  // an idle jump: both banks flushed at the same instant
          break;
        case 2:  // an early poll, overlapping the previous checkpoint
          t += draw(1, t_set - 1);
          break;
        default:  // on schedule, up to one packet gap late
          t += t_set + draw(0, t_set / 8);
          break;
      }
      // An abandoned torn read leaves no checkpoint behind.
      if (draw(0, 7) != 0) snaps.push_back(snap(t));
    }
    for (int q = 0; q < 12; ++q) {
      const Timestamp t1 = draw(0, t + 2 * t_set);
      const Timestamp t2 = t1 + draw(1, 8 * t_set);
      expect_coverage_matches(snaps, t1, t2);
    }
  }
}

}  // namespace
}  // namespace pq::control
