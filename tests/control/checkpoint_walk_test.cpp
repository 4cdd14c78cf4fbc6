// Interval-cover properties of control::walk_checkpoints, the one walk
// behind every live, offline, archive and recovered time-window answer.
// A checkpoint taken at `ta` backs [ta - t_set, ta) (clamped at 0); the
// walk's coverage must equal the share of [t1, t2) the union of those
// intervals covers, whatever the schedule: regular polls, gaps, idle
// catch-up polls at one instant, or snapshots lost to abandoned reads.
// The walk and control::nearest_snapshot read checkpoints through an
// accessor; over random, unsorted and repeating taken_at sequences, the
// walk must fetch exactly the checkpoints it credits, with the answer and
// the pick of the snapshot-vector walk it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "control/analysis_program.h"
#include "core/window_filter.h"

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

/// One piece a walk credits: checkpoint `index` backs [lo, hi).
struct Piece {
  std::size_t index = 0;
  Timestamp lo = 0;
  Timestamp hi = 0;
};

/// The walk over a snapshot vector as it stood before checkpoints were read
/// through an accessor, recording the pieces it credits.
IntervalAnswer reference_walk(const std::vector<WindowSnapshot>& snaps,
                              const core::TtsLayout& layout,
                              const core::CoefficientTable& coeffs,
                              Timestamp t1, Timestamp t2,
                              std::vector<Piece>& pieces) {
  IntervalAnswer answer;
  if (t2 <= t1) {
    answer.coverage = 1.0;
    return answer;
  }
  if (snaps.empty()) return answer;
  const Duration t_set = layout.set_period_ns();
  std::size_t idx = snaps.size() - 1;
  for (std::size_t i = 0; i < snaps.size(); ++i) {
    if (snaps[i].taken_at >= t2) {
      idx = i;
      break;
    }
  }
  Duration covered_ns = 0;
  Timestamp remaining_hi = t2;
  for (std::size_t i = idx + 1; i-- > 0 && remaining_hi > t1;) {
    const auto& snap = snaps[i];
    const Timestamp cover_lo =
        snap.taken_at > t_set ? snap.taken_at - t_set : 0;
    const Timestamp qlo = std::max(t1, cover_lo);
    const Timestamp qhi = std::min(remaining_hi, snap.taken_at);
    if (qhi <= qlo) {
      if (snap.taken_at <= t1) break;
      continue;
    }
    const auto filtered =
        core::filter_stale_cells(snap.state, layout, false, snap.taken_at);
    core::merge_counts(
        answer.counts,
        core::estimate_flow_counts(filtered, layout, coeffs, qlo, qhi));
    pieces.push_back({i, qlo, qhi});
    covered_ns += qhi - qlo;
    remaining_hi = qlo;
  }
  answer.coverage =
      static_cast<double>(covered_ns) / static_cast<double>(t2 - t1);
  return answer;
}

/// The pick over a snapshot vector before the accessor: the earliest of
/// the equally closest.
std::optional<std::size_t> reference_pick(const std::vector<Timestamp>& times,
                                          Timestamp t) {
  if (times.empty()) return std::nullopt;
  const auto dist = [t](Timestamp at) { return at > t ? at - t : t - at; };
  std::size_t best = 0;
  for (std::size_t i = 0; i < times.size(); ++i) {
    if (dist(times[i]) < dist(times[best])) best = i;
  }
  return best;
}

/// An accessor that logs every snapshot the walk fetches.
struct RecordingCheckpoints {
  const std::vector<WindowSnapshot>* snaps = nullptr;
  mutable std::vector<std::size_t> fetched;

  std::size_t size() const { return snaps->size(); }
  Timestamp taken_at(std::size_t i) const { return (*snaps)[i].taken_at; }
  const WindowSnapshot& snapshot(std::size_t i) const {
    fetched.push_back(i);
    return (*snaps)[i];
  }
};

/// Times only: the pick must select without any snapshot.
struct TimesOnly {
  const std::vector<Timestamp>* times = nullptr;
  std::size_t size() const { return times->size(); }
  Timestamp taken_at(std::size_t i) const { return (*times)[i]; }
};

TEST_F(CheckpointWalk, AccessorFetchesExactlyTheCheckpointsItCredits) {
  std::mt19937_64 rng(622);
  const auto draw = [&rng](Timestamp lo, Timestamp hi) {
    return std::uniform_int_distribution<Timestamp>(lo, hi)(rng);
  };
  // Checkpoints holding real window state: packets of a few flows, named
  // after the checkpoint, over the t_set before it, so every piece a walk
  // credits adds counts of its own.
  const auto filled = [&](Timestamp taken_at, std::uint32_t id) {
    core::TimeWindowSet windows(params());
    const Timestamp step = std::max<Timestamp>(1, t_set / 24);
    const Timestamp from = taken_at > t_set ? taken_at - t_set : 0;
    for (Timestamp t = from; t < taken_at; t += step) {
      FlowId flow;
      flow.src_ip = id * 4 + static_cast<std::uint32_t>(t / step % 3);
      windows.on_packet(0, flow, t);
    }
    WindowSnapshot s;
    s.taken_at = taken_at;
    s.state = windows.read_bank(windows.active_bank(), 0);
    return s;
  };

  std::size_t credited = 0;
  for (int sequence = 0; sequence < 300; ++sequence) {
    // Empty, single, repeating and unsorted sequences: times from a narrow
    // range so duplicates and overlaps are common, sorted half the time.
    const auto n = static_cast<std::size_t>(
        sequence < 20 ? sequence % 2 : draw(0, 14));
    std::vector<Timestamp> times;
    for (std::size_t i = 0; i < n; ++i) {
      times.push_back(draw(0, 2) == 0 && !times.empty() ? times.back()
                                                        : draw(0, 6 * t_set));
    }
    if (draw(0, 1) == 0) std::sort(times.begin(), times.end());
    std::vector<WindowSnapshot> snaps;
    for (std::size_t i = 0; i < n; ++i) {
      snaps.push_back(filled(times[i], static_cast<std::uint32_t>(i)));
    }

    for (int q = 0; q < 16; ++q) {
      const Timestamp t1 = draw(0, 7 * t_set);
      // A quarter of the spans are empty or reversed.
      const Timestamp t2 =
          draw(0, 3) == 0 ? draw(0, t1) : t1 + draw(1, 4 * t_set);
      SCOPED_TRACE("query [" + std::to_string(t1) + ", " +
                   std::to_string(t2) + ") over " + std::to_string(n) +
                   " checkpoint(s)");
      std::vector<Piece> pieces;
      const auto want = reference_walk(snaps, layout, coeffs, t1, t2, pieces);
      const RecordingCheckpoints cps{&snaps, {}};
      const auto got = walk_checkpoints(cps, layout, coeffs, false, t1, t2);

      // The pieces are disjoint, inside [t1, t2), and sum to the coverage.
      std::vector<std::pair<Timestamp, Timestamp>> sorted;
      Duration total = 0;
      for (const auto& p : pieces) {
        EXPECT_LE(t1, p.lo);
        EXPECT_LT(p.lo, p.hi);
        EXPECT_LE(p.hi, t2);
        sorted.emplace_back(p.lo, p.hi);
        total += p.hi - p.lo;
      }
      std::sort(sorted.begin(), sorted.end());
      for (std::size_t k = 1; k < sorted.size(); ++k) {
        EXPECT_LE(sorted[k - 1].second, sorted[k].first);
      }
      if (t2 > t1) {
        EXPECT_EQ(std::llround(got.coverage * static_cast<double>(t2 - t1)),
                  static_cast<long long>(total));
      }

      // The accessor fetched exactly the credited checkpoints, in the
      // walk's order, once each; nothing it skipped.
      std::vector<std::size_t> want_fetched;
      for (const auto& p : pieces) want_fetched.push_back(p.index);
      EXPECT_EQ(cps.fetched, want_fetched);
      credited += pieces.size();

      // Same counts and bitwise the same coverage as the vector walk.
      EXPECT_EQ(got.counts, want.counts);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.coverage),
                std::bit_cast<std::uint64_t>(want.coverage));

      // The pick through the accessor: the same index, the earliest of
      // equally close checkpoints.
      EXPECT_EQ(nearest_snapshot(TimesOnly{&times}, t1),
                reference_pick(times, t1));
      if (n >= 2) {
        const Timestamp a = times[draw(0, n - 1)];
        const Timestamp b = times[draw(0, n - 1)];
        const Timestamp mid = std::midpoint(a, b);
        EXPECT_EQ(nearest_snapshot(TimesOnly{&times}, mid),
                  reference_pick(times, mid));
      }
    }
  }
  // The sequences exercised the walk, not only its early exits.
  EXPECT_GT(credited, 1000u);
}

}  // namespace
}  // namespace pq::control
