#include "control/analysis_program.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/window_filter.h"
#include "faults/fault_plan.h"

namespace pq::control {

AnalysisProgram::AnalysisProgram(core::PrintQueuePipeline& pipeline,
                                 AnalysisConfig cfg)
    : pipe_(pipeline), cfg_(cfg) {
  poll_period_ = cfg_.poll_period_ns != 0
                     ? cfg_.poll_period_ns
                     : pipe_.windows().layout().set_period_ns();
  next_poll_ = poll_period_;
  window_snaps_.resize(pipe_.windows().port_partitions());
  monitor_snaps_.resize(pipe_.monitor().port_partitions());
  z0_.assign(pipe_.windows().port_partitions(), 1.0);
  dq_captures_.resize(pipe_.windows().port_partitions());
  pipe_.set_observer(this);
}

void AnalysisProgram::on_time(Timestamp now) {
  if (dq_pending_unlock_ && now >= dq_unlock_at_) {
    pipe_.windows().end_dataplane_query();
    pipe_.monitor().end_dataplane_query();
    dq_pending_unlock_ = false;
  }
  if (now >= next_poll_) {
    // After a long idle gap, intermediate polls would only capture the
    // same two ping-pong banks over and over (anything older has been
    // overwritten anyway), so flush at most both banks and jump the
    // schedule forward to the current grid point.
    const std::uint64_t due = (now - next_poll_) / poll_period_ + 1;
    const std::uint64_t todo = due < 2 ? due : 2;
    for (std::uint64_t i = 0; i < todo; ++i) poll(now);
    next_poll_ += due * poll_period_;
  }
}

template <typename Banks, typename Snapshot, typename FaultHook>
bool AnalysisProgram::read_verified(const Banks& banks, std::uint32_t bank,
                                    std::uint32_t part, FaultHook fault,
                                    Snapshot& out) {
  Duration backoff = cfg_.read_backoff_ns;
  for (std::uint32_t attempt = 0; attempt <= cfg_.max_read_retries;
       ++attempt) {
    const std::uint64_t before = banks.rotation_epoch();
    auto state = banks.read_bank(bank, part);
    std::uint64_t after = banks.rotation_epoch();
    if (read_faults_ != nullptr) after += fault(part, state);
    if (before == after) {
      out.epoch = before;
      out.state = std::move(state);
      return true;
    }
    ++health_.torn_reads_detected;
    if (attempt < cfg_.max_read_retries) {
      ++health_.torn_read_retries;
      health_.backoff_ns_spent += backoff;
      backoff = std::min(backoff * 2, cfg_.read_backoff_max_ns);
    }
  }
  return false;
}

void AnalysisProgram::poll(Timestamp now) {
  const obs::ScopedTimer poll_timer(poll_ns_);
  const std::uint32_t wbank = pipe_.windows().flip_periodic();
  const std::uint32_t mbank = pipe_.monitor().flip_periodic();
  const auto& wp = pipe_.windows().params();
  for (std::uint32_t port = 0; port < window_snaps_.size(); ++port) {
    WindowSnapshot snap;
    snap.taken_at = now;
    const bool verified =
        read_verified(pipe_.windows(), wbank, port,
                      [this](std::uint32_t p, core::WindowState& st) {
                        return read_faults_->on_window_read(p, st);
                      },
                      snap);
    {
      // The checkpoint and this poll's z0 publish in one hold, so a query
      // never pairs a snapshot with another poll's calibration.
      const std::lock_guard<std::mutex> lk(history_mu_);
      if (verified) window_snaps_[port].push_back(std::move(snap));
      z0_[port] = measured_z0(port);
    }
    if (!verified) {
      // Degrade, don't fabricate: a copy that stayed torn through every
      // retry is dropped — queries into this span return less, not junk.
      ++health_.snapshots_abandoned;
    } else if (sink_ != nullptr) {
      sink_->on_window_snapshot(port, window_snaps_[port].back());
    }
    bytes_polled_ += (1ull << wp.k) * wp.num_windows *
                     core::TimeWindowSet::kCellBytesOnSwitch;
  }
  // Monitor partitions are (port, queue) pairs when multi-queue tracking
  // is enabled, so they are polled independently of the window partitions.
  for (std::uint32_t part = 0; part < monitor_snaps_.size(); ++part) {
    MonitorSnapshot snap;
    snap.taken_at = now;
    if (read_verified(pipe_.monitor(), mbank, part,
                      [this](std::uint32_t p, core::MonitorState& st) {
                        return read_faults_->on_monitor_read(p, st);
                      },
                      snap)) {
      {
        const std::lock_guard<std::mutex> lk(history_mu_);
        monitor_snaps_[part].push_back(std::move(snap));
      }
      if (sink_ != nullptr) {
        sink_->on_monitor_snapshot(part, monitor_snaps_[part].back());
      }
    } else {
      ++health_.snapshots_abandoned;
    }
    bytes_polled_ += pipe_.monitor().params().levels() *
                     core::QueueMonitor::kEntryBytesOnSwitch;
  }
  ++polls_;
  if (sink_ != nullptr) {
    // The calibration matching this checkpoint: what the offline query path
    // needs to reproduce a live query issued right now. Emitted after the
    // poll's snapshots so a torn tail can never strand newer snapshots
    // behind an older calibration.
    CalibrationRecord cal;
    cal.taken_at = now;
    cal.window_params = pipe_.windows().params();
    cal.monitor_levels = pipe_.monitor().params().levels();
    cal.z0 = coefficients(0).z(0);
    sink_->on_calibration(cal);
  }
}

void AnalysisProgram::on_dq_trigger(const core::DqNotification& n) {
  DqCapture cap;
  cap.notification = n;
  cap.windows = pipe_.windows().read_bank(n.window_bank, n.port_prefix);
  cap.monitor = pipe_.monitor().read_bank(n.monitor_bank, n.port_prefix);
  dq_captures_.at(n.port_prefix).push_back(std::move(cap));
  if (sink_ != nullptr) {
    sink_->on_dq_capture(n.port_prefix, dq_captures_.at(n.port_prefix).back());
  }
  dq_unlock_at_ = n.deq_timestamp + cfg_.dq_read_time_ns;
  dq_pending_unlock_ = true;
}

void AnalysisProgram::finalize(Timestamp end_time) {
  if (dq_pending_unlock_) {
    pipe_.windows().end_dataplane_query();
    pipe_.monitor().end_dataplane_query();
    dq_pending_unlock_ = false;
  }
  poll(std::max(end_time, next_poll_ - poll_period_ + 1));
}

double AnalysisProgram::measured_z0(std::uint32_t port_prefix) const {
  const double gap = pipe_.avg_deq_gap_ns(port_prefix);
  return gap > 0.0
             ? core::z0_from_interarrival(pipe_.windows().params().m0, gap)
             : 1.0;
}

void AnalysisProgram::set_z0_override(double z0) {
  const std::lock_guard<std::mutex> lk(history_mu_);
  cfg_.z0_override = z0;
}

core::CoefficientTable AnalysisProgram::coefficients(
    std::uint32_t port_prefix) const {
  const std::lock_guard<std::mutex> lk(history_mu_);
  return coefficients_locked(port_prefix);
}

core::CoefficientTable AnalysisProgram::coefficients_locked(
    std::uint32_t port_prefix) const {
  const auto& p = pipe_.windows().params();
  const double z0 =
      cfg_.z0_override > 0.0 ? cfg_.z0_override : z0_.at(port_prefix);
  return core::CoefficientTable::compute(z0, p.alpha, p.num_windows);
}

core::FlowCounts AnalysisProgram::query_time_windows(
    std::uint32_t port_prefix, Timestamp t1, Timestamp t2) const {
  return query_time_windows_detail(port_prefix, t1, t2).counts;
}

IntervalAnswer AnalysisProgram::query_time_windows_detail(
    std::uint32_t port_prefix, Timestamp t1, Timestamp t2) const {
  // One hold for the z0 and the walk: both come from the same poll.
  const std::lock_guard<std::mutex> lk(history_mu_);
  return walk_checkpoints(window_snaps_.at(port_prefix),
                          pipe_.windows().layout(),
                          coefficients_locked(port_prefix),
                          cfg_.salvage_stale_cells, t1, t2);
}

void credit_checkpoint(core::FlowCounts& counts, const WindowSnapshot& snap,
                       const core::TtsLayout& layout,
                       const core::CoefficientTable& coeffs,
                       bool salvage_stale_cells, Timestamp qlo, Timestamp qhi) {
  const auto filtered = core::filter_stale_cells(
      snap.state, layout, salvage_stale_cells, snap.taken_at);
  core::merge_counts(counts,
                     core::estimate_flow_counts(filtered, layout, coeffs, qlo,
                                                qhi));
}

std::vector<core::OriginalCulprit> AnalysisProgram::query_queue_monitor(
    std::uint32_t port_prefix, Timestamp t) const {
  return query_queue_monitor_detail(port_prefix, t).culprits;
}

MonitorAnswer AnalysisProgram::query_queue_monitor_detail(
    std::uint32_t port_prefix, Timestamp t) const {
  MonitorAnswer answer;
  const std::lock_guard<std::mutex> lk(history_mu_);
  const auto& snaps = monitor_snaps_.at(port_prefix);
  const auto pick =
      nearest_snapshot(SnapshotSpan<MonitorSnapshot>{snaps}, t);
  if (!pick.has_value()) return answer;
  const MonitorSnapshot& best = snaps[*pick];
  answer.culprits = core::original_culprits(best.state);
  const Duration dist =
      best.taken_at > t ? best.taken_at - t : t - best.taken_at;
  answer.confidence = dist <= poll_period_
                          ? 1.0
                          : static_cast<double>(poll_period_) /
                                static_cast<double>(dist);
  return answer;
}

const std::vector<DqCapture>& AnalysisProgram::dq_captures(
    std::uint32_t port_prefix) const {
  return dq_captures_.at(port_prefix);
}

core::FlowCounts AnalysisProgram::query_dq_capture(const DqCapture& capture,
                                                   Timestamp t1,
                                                   Timestamp t2) const {
  const auto& layout = pipe_.windows().layout();
  const auto coeffs = coefficients(capture.notification.port_prefix);
  const auto filtered = core::filter_stale_cells(
      capture.windows, layout, cfg_.salvage_stale_cells,
      capture.notification.deq_timestamp);
  return core::estimate_flow_counts(filtered, layout, coeffs, t1, t2);
}

std::vector<core::OriginalCulprit> AnalysisProgram::query_dq_monitor(
    const DqCapture& capture) const {
  return core::original_culprits(capture.monitor);
}

const std::vector<WindowSnapshot>& AnalysisProgram::window_snapshots(
    std::uint32_t port_prefix) const {
  return window_snaps_.at(port_prefix);
}

const std::vector<MonitorSnapshot>& AnalysisProgram::monitor_snapshots(
    std::uint32_t port_prefix) const {
  return monitor_snaps_.at(port_prefix);
}

}  // namespace pq::control
