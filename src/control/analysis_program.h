// The control-plane analysis program (paper Section 6). It runs on the
// switch CPU and (1) configures ports, (2) periodically freezes and reads
// the register banks, (3) services asynchronous and data-plane queries.
//
// In this reproduction it is driven in simulated packet time through the
// PipelineObserver interface: the pipeline reports each packet's dequeue
// time, and polls fire whenever the poll period elapses — the software
// equivalent of the paper's periodic polling thread.
//
// The read path is hardened against the register-copy race the paper's
// ping-pong banks narrow but cannot eliminate: every bank copy is verified
// against the rotation epoch (sampled before and after the read) and torn
// copies are discarded and re-read with capped exponential backoff. Faults
// are injectable through the faults::RegisterReadFaults seam; detections
// are counted in HealthStats. The degradation contract is partial-but-true:
// an abandoned snapshot loses history, it never leaks half-written cells
// into answers.
//
// Threading: one thread drives the program (packets, finalize). The
// checkpoint history it publishes — window and monitor snapshots and the
// z0 measured at each poll — sits behind a short-held history mutex: the
// driving thread holds it only to push one verified snapshot, and each
// asynchronous query holds it for one checkpoint walk. Queries may
// therefore run on other threads while packets are absorbed, and read
// only published checkpoints, as the CPU reads a frozen ping-pong bank.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "control/health.h"
#include "control/snapshots.h"
#include "control/telemetry_sink.h"
#include "core/coefficients.h"
#include "core/pipeline.h"
#include "obs/metrics.h"

namespace pq::faults {
class RegisterReadFaults;
}  // namespace pq::faults

namespace pq::control {

struct AnalysisConfig {
  /// Poll period; 0 means exactly the time-window set period t_set (the
  /// paper's requirement: at least one checkpoint per t_set).
  Duration poll_period_ns = 0;

  /// Window 0 fill probability for coefficient recovery. 0 means derive it
  /// at each poll from the pipeline's measured average dequeue gap
  /// (Theorem 3's d); queries use the value of the newest poll.
  double z0_override = 0.0;

  /// How long a data-plane query keeps the special registers locked (models
  /// the control plane's read latency; concurrent triggers are ignored).
  Duration dq_read_time_ns = 1'000'000;

  /// Extension beyond the paper: recover stale-but-decodable window-0
  /// cells (exact single-packet records) for spans no deeper window
  /// covers. Helps when traffic turns sparse after a burst, where the
  /// passing rule starves and Algorithm 3 would discard the history.
  bool salvage_stale_cells = false;

  /// Torn-read recovery: how many times a bank copy whose rotation epoch
  /// changed mid-read is re-read before the snapshot is abandoned, and the
  /// (capped exponential) backoff between attempts. Backoff is accounted in
  /// HealthStats::backoff_ns_spent rather than advancing simulated time.
  std::uint32_t max_read_retries = 3;
  Duration read_backoff_ns = 10'000;
  Duration read_backoff_max_ns = 1'000'000;
};

/// A time-window answer with its provenance: `coverage` is the fraction of
/// the requested span actually backed by consistent checkpoints. Coverage
/// below 1 means history was lost (slow polling, abandoned torn reads,
/// retention, queries beyond the recorded horizon) — the counts that *are*
/// returned are still genuine.
struct IntervalAnswer {
  core::FlowCounts counts;
  double coverage = 0.0;
};

/// A point-in-time monitor answer; `confidence` decays with the distance
/// between the query instant and the nearest consistent snapshot (1.0
/// when within one poll period).
struct MonitorAnswer {
  std::vector<core::OriginalCulprit> culprits;
  double confidence = 0.0;
};

/// Checkpoints in taking order, read through an accessor: `size()` and
/// `taken_at(i)`. The walk and the pick select on these times alone.
template <class C>
concept CheckpointTimes = requires(const C& c, std::size_t i) {
  { c.size() } -> std::convertible_to<std::size_t>;
  { c.taken_at(i) } -> std::convertible_to<Timestamp>;
};

/// ...and `snapshot(i)`, the i-th window checkpoint itself, which the walk
/// fetches only for a checkpoint that credits a piece. An archive accessor
/// parses it from its block there (store/archive_reader.h).
template <class C>
concept WindowCheckpoints =
    CheckpointTimes<C> && requires(const C& c, std::size_t i) {
      { c.snapshot(i) } -> std::convertible_to<const WindowSnapshot&>;
    };

/// Snapshots held in memory (the live program, a records bundle) as an
/// accessor.
template <class Snapshot>
struct SnapshotSpan {
  std::span<const Snapshot> snaps;
  std::size_t size() const { return snaps.size(); }
  Timestamp taken_at(std::size_t i) const { return snaps[i].taken_at; }
  const Snapshot& snapshot(std::size_t i) const { return snaps[i]; }
};

/// Adds the flow counts `snap` backs over [qlo, qhi): one piece of a walk.
void credit_checkpoint(core::FlowCounts& counts, const WindowSnapshot& snap,
                       const core::TtsLayout& layout,
                       const core::CoefficientTable& coeffs,
                       bool salvage_stale_cells, Timestamp qlo, Timestamp qhi);

/// The checkpoint walk behind every time-window answer — live, offline,
/// archive and recovered (ARCHITECTURE.md §3 step 1). Starts at the
/// earliest checkpoint taken at or after t2 (else the newest), then steps
/// backwards; each checkpoint contributes the piece of [t1, t2) inside
/// [taken_at - t_set, taken_at) that no later checkpoint already covered,
/// so nothing is counted twice. It reads `taken_at` to select and fetches
/// `snapshot(i)` once for each checkpoint that credits a piece, never for
/// one it skips.
template <WindowCheckpoints C>
IntervalAnswer walk_checkpoints(const C& cps, const core::TtsLayout& layout,
                                const core::CoefficientTable& coeffs,
                                bool salvage_stale_cells, Timestamp t1,
                                Timestamp t2) {
  IntervalAnswer answer;
  if (t2 <= t1) {
    answer.coverage = 1.0;  // an empty span is trivially covered
    return answer;
  }
  const std::size_t n = cps.size();
  if (n == 0) return answer;
  const Duration t_set = layout.set_period_ns();

  // First checkpoint that still contains data up to t2 (taken at or after
  // t2); fall back to the newest one.
  std::size_t idx = n - 1;
  for (std::size_t i = 0; i < n; ++i) {
    if (cps.taken_at(i) >= t2) {
      idx = i;
      break;
    }
  }

  // Walk backwards through checkpoints, each contributing the piece of the
  // interval it covers most recently (no double counting). `covered_ns`
  // sums the pieces a consistent checkpoint actually backs; the shortfall
  // is history lost to slow polling, abandoned torn reads or retention.
  Duration covered_ns = 0;
  Timestamp remaining_hi = t2;
  for (std::size_t i = idx + 1; i-- > 0 && remaining_hi > t1;) {
    const Timestamp taken_at = cps.taken_at(i);
    const Timestamp cover_lo = taken_at > t_set ? taken_at - t_set : 0;
    const Timestamp qlo = std::max(t1, cover_lo);
    const Timestamp qhi = std::min(remaining_hi, taken_at);
    if (qhi <= qlo) {
      if (taken_at <= t1) break;
      continue;
    }
    credit_checkpoint(answer.counts, cps.snapshot(i), layout, coeffs,
                      salvage_stale_cells, qlo, qhi);
    covered_ns += qhi - qlo;
    remaining_hi = qlo;
  }
  answer.coverage =
      static_cast<double>(covered_ns) / static_cast<double>(t2 - t1);
  return answer;
}

/// The walk over snapshots in taking order.
inline IntervalAnswer walk_checkpoints(std::span<const WindowSnapshot> snaps,
                                       const core::TtsLayout& layout,
                                       const core::CoefficientTable& coeffs,
                                       bool salvage_stale_cells, Timestamp t1,
                                       Timestamp t2) {
  return walk_checkpoints(SnapshotSpan<WindowSnapshot>{snaps}, layout, coeffs,
                          salvage_stale_cells, t1, t2);
}

/// Position of the checkpoint taken closest to `t` (the earliest of
/// equally close ones), or nullopt when there is none. Reads only
/// `taken_at`: the caller fetches the one snapshot that wins.
template <CheckpointTimes C>
std::optional<std::size_t> nearest_snapshot(const C& cps, Timestamp t) {
  const std::size_t n = cps.size();
  if (n == 0) return std::nullopt;
  const auto distance = [t](Timestamp at) { return at > t ? at - t : t - at; };
  std::size_t best = 0;
  Duration best_dist = distance(cps.taken_at(0));
  for (std::size_t i = 1; i < n; ++i) {
    const Duration dist = distance(cps.taken_at(i));
    if (dist < best_dist) {
      best = i;
      best_dist = dist;
    }
  }
  return best;
}

class AnalysisProgram final : public core::PipelineObserver {
 public:
  /// Attaches to a pipeline (registers itself as the observer).
  AnalysisProgram(core::PrintQueuePipeline& pipeline, AnalysisConfig cfg);

  // --- PipelineObserver ---
  void on_time(Timestamp now) override;
  void on_dq_trigger(const core::DqNotification& n) override;

  /// on_time(t) does nothing unless t reaches the next poll or, while a
  /// data-plane query holds the register lock, the pending unlock time —
  /// whichever comes first. Publishing that bound lets the batched pipeline
  /// absorb every packet strictly before it without calling on_time at all
  /// (the PipelineObserver::next_time_event contract).
  Timestamp next_time_event() const override {
    return dq_pending_unlock_ ? std::min(next_poll_, dq_unlock_at_)
                              : next_poll_;
  }

  /// Takes a final checkpoint so data from the tail of a run is readable.
  void finalize(Timestamp end_time);

  /// Attaches (or detaches, with nullptr) the torn-read fault seam. Not
  /// owned; must outlive the program.
  void set_read_faults(faults::RegisterReadFaults* f) { read_faults_ = f; }

  /// Attaches (or detaches, with nullptr) a telemetry sink that receives
  /// every verified snapshot, DQ capture and per-poll calibration as it is
  /// taken (see control/telemetry_sink.h). Not owned; must outlive the
  /// program. Install before driving packets — events are not replayed.
  void set_sink(TelemetrySink* sink) { sink_ = sink; }

  // --- Asynchronous queries (Section 6.3) ---
  // Safe from any thread while the program is driven: each one reads the
  // published history and its z0 under one hold of the history mutex.

  using IntervalAnswer = control::IntervalAnswer;
  using MonitorAnswer = control::MonitorAnswer;

  /// Per-flow packet-count estimate for packets dequeued on `port_prefix`
  /// within [t1, t2). Splits the interval across checkpoints and windows and
  /// applies coefficient recovery.
  core::FlowCounts query_time_windows(std::uint32_t port_prefix, Timestamp t1,
                                      Timestamp t2) const;
  IntervalAnswer query_time_windows_detail(std::uint32_t port_prefix,
                                           Timestamp t1, Timestamp t2) const;

  /// Original causes of congestion at the instant closest to `t`.
  /// With multi-queue tracking, pass the monitor partition from
  /// PrintQueuePipeline::monitor_partition(port_prefix, queue_id).
  std::vector<core::OriginalCulprit> query_queue_monitor(
      std::uint32_t port_prefix, Timestamp t) const;
  MonitorAnswer query_queue_monitor_detail(std::uint32_t port_prefix,
                                           Timestamp t) const;

  // --- Data-plane query results (Section 6.2) ---

  const std::vector<DqCapture>& dq_captures(std::uint32_t port_prefix) const;

  /// Executes the time-window query for a capture over [t1, t2); by default
  /// the capture's own victim interval.
  core::FlowCounts query_dq_capture(const DqCapture& capture, Timestamp t1,
                                    Timestamp t2) const;

  /// Original-culprit query against a capture's frozen monitor.
  std::vector<core::OriginalCulprit> query_dq_monitor(
      const DqCapture& capture) const;

  // --- Introspection (benches, tests) ---
  /// The published checkpoints, unguarded: for the driving thread, or for
  /// any thread once the run is over (a concurrent poll may reallocate
  /// them).
  const std::vector<WindowSnapshot>& window_snapshots(
      std::uint32_t port_prefix) const;
  const std::vector<MonitorSnapshot>& monitor_snapshots(
      std::uint32_t port_prefix) const;
  Duration poll_period_ns() const { return poll_period_; }
  std::uint64_t polls_performed() const { return polls_; }

  /// Read-path health counters (torn reads, retries, abandoned snapshots).
  const HealthStats& health() const { return health_; }

  /// The coefficient table a query on this port uses: z0 from the override
  /// when set, else the z0 measured at the newest poll (1.0 before the
  /// first) — the calibration an archive answer as of that poll uses.
  core::CoefficientTable coefficients(std::uint32_t port_prefix) const;

  /// Overrides window 0's fill probability for coefficient recovery (0
  /// restores the measured-gap default). Applies to queries from now on.
  /// Useful when the query span mixes congested and idle periods, where
  /// the long-run average packet rate is the better Theorem 3 `d` than the
  /// busy-period service time.
  void set_z0_override(double z0);

  /// Total register bytes copied by periodic polling so far (I/O model).
  std::uint64_t bytes_polled() const { return bytes_polled_; }

  /// Wall-clock latency of each poll (checkpoint read) — a timing metric,
  /// excluded from the cross-thread determinism contract.
  const obs::Histogram& poll_latency_ns() const { return poll_ns_; }

 private:
  void poll(Timestamp now);
  /// z0 from the partition's measured dequeue gap, or 1.0 before one is
  /// measured. Read at each poll only.
  double measured_z0(std::uint32_t port_prefix) const;
  core::CoefficientTable coefficients_locked(std::uint32_t port_prefix) const;
  template <typename Banks, typename Snapshot, typename FaultHook>
  bool read_verified(const Banks& banks, std::uint32_t bank,
                     std::uint32_t part, FaultHook fault, Snapshot& out);

  core::PrintQueuePipeline& pipe_;
  AnalysisConfig cfg_;
  Duration poll_period_ = 0;
  Timestamp next_poll_ = 0;
  Timestamp dq_unlock_at_ = 0;
  bool dq_pending_unlock_ = false;
  std::uint64_t polls_ = 0;
  std::uint64_t bytes_polled_ = 0;
  faults::RegisterReadFaults* read_faults_ = nullptr;
  TelemetrySink* sink_ = nullptr;
  HealthStats health_;
  obs::Histogram poll_ns_;

  /// Guards the checkpoint history below and cfg_.z0_override. Only the
  /// driving thread writes the history, so it reads it without the lock.
  mutable std::mutex history_mu_;
  std::vector<std::vector<WindowSnapshot>> window_snaps_;   // [port]
  std::vector<std::vector<MonitorSnapshot>> monitor_snaps_; // [port]
  std::vector<double> z0_;  ///< [port] measured at the newest poll
  std::vector<std::vector<DqCapture>> dq_captures_;         // [port]
};

}  // namespace pq::control
