// pq_offline — query a saved register-records bundle (produced by
// `pq_replay --save-records`) with no live pipeline: the decoupled
// collect/analyze workflow of the paper's Fig. 3.
//
// Usage:
//   pq_offline <records.pqr> windows <port> <t1_ns> <t2_ns> [--top K]
//   pq_offline <records.pqr> monitor <port> <t_ns>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "control/answer_printer.h"
#include "control/register_records.h"

int main(int argc, char** argv) {
  using namespace pq;
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: pq_offline <records.pqr> windows <port> <t1> <t2> "
                 "[--top K]\n"
                 "       pq_offline <records.pqr> monitor <port> <t>\n");
    return 2;
  }

  control::RegisterRecords records;
  try {
    records = control::read_records_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1], e.what());
    return 1;
  }
  std::printf("records: m0=%u alpha=%u k=%u T=%u, %zu port(s), "
              "%zu checkpoint(s), z0=%.3f\n",
              records.window_params.m0, records.window_params.alpha,
              records.window_params.k, records.window_params.num_windows,
              records.window_snapshots.size(),
              records.window_snapshots.empty()
                  ? std::size_t{0}
                  : records.window_snapshots[0].size(),
              records.z0);

  const std::string mode = argv[2];
  const auto port = static_cast<std::uint32_t>(std::atoi(argv[3]));
  if (mode == "windows") {
    if (argc < 6) {
      std::fprintf(stderr, "windows mode needs <t1> <t2>\n");
      return 2;
    }
    const auto t1 = static_cast<Timestamp>(std::atoll(argv[4]));
    const auto t2 = static_cast<Timestamp>(std::atoll(argv[5]));
    std::size_t top = 10;
    for (int i = 6; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--top") == 0) {
        top = static_cast<std::size_t>(std::atoi(argv[i + 1]));
      }
    }
    const auto answer =
        control::offline_query_time_windows(records, port, t1, t2);
    control::print_windows_answer(t1, t2, answer.counts, top);
  } else if (mode == "monitor") {
    const auto t = static_cast<Timestamp>(std::atoll(argv[4]));
    control::print_monitor_answer(
        t, control::offline_query_queue_monitor(records, port, t));
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return 0;
}
