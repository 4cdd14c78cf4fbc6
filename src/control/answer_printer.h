// The text body of a culprit answer, shared by pq_offline, pq_query and
// pq_ctl. Every tool prints its own first header line and then one of these
// bodies, so the bodies are byte-identical across the tools over the same
// data — the golden_offline, golden_archive and kill_recover tests diff
// them with `sed 1d`.
#pragma once

#include <cstddef>
#include <cstdio>
#include <vector>

#include "common/types.h"
#include "core/queue_monitor.h"
#include "core/window_filter.h"

namespace pq::control {

/// The `top` heaviest flows of a time-window answer over [t1, t2).
inline void print_windows_answer(Timestamp t1, Timestamp t2,
                                 const core::FlowCounts& counts,
                                 std::size_t top) {
  std::printf("\nper-flow packet counts over [%llu, %llu) ns (%zu flows):\n",
              static_cast<unsigned long long>(t1),
              static_cast<unsigned long long>(t2), counts.size());
  for (const auto& [flow, n] : core::top_k_flows(counts, top)) {
    std::printf("  %-44s %10.1f\n", to_string(flow).c_str(), n);
  }
}

/// The ten flows with the most original-culprit packets near `t`.
inline void print_monitor_answer(
    Timestamp t, const std::vector<core::OriginalCulprit>& culprits) {
  std::printf("\noriginal culprits near t=%llu ns (%zu entries):\n",
              static_cast<unsigned long long>(t), culprits.size());
  for (const auto& [flow, n] :
       core::top_k_flows(core::culprit_counts(culprits), 10)) {
    std::printf("  %-44s %10.0f packets\n", to_string(flow).c_str(), n);
  }
}

}  // namespace pq::control
