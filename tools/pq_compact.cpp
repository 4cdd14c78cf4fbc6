// pq_compact — offline compaction of a pq::store archive directory.
//
// Rewrites cold, footer-clean segments in place: delta-recodes their
// blocks to the v2 format (v1 segments included) and drops superseded
// calibration records, without renumbering segments or changing what
// full-horizon queries answer (src/store/compactor.h documents the four
// invariants). Safe to run on an archive a crash left torn: damaged chains
// are abandoned at the first bad segment, never "healed".
//
// Usage:
//   pq_compact <archive-dir> [--port P] [--keep-newest N]
//              [--keep-calibrations] [--min-saved BYTES]
//
// Exit codes: 0 ok (including nothing to do), 1 unreadable directory,
// 2 bad usage.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "store/compactor.h"

int main(int argc, char** argv) {
  using namespace pq;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pq_compact <archive-dir> [--port P] "
                 "[--keep-newest N] [--keep-calibrations] "
                 "[--min-saved BYTES]\n");
    return 2;
  }
  store::CompactionPolicy policy;
  bool have_port = false;
  std::uint32_t port = 0;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--keep-calibrations") == 0) {
      policy.drop_superseded_calibrations = false;
    } else if (std::strcmp(argv[i], "--port") == 0 && i + 1 < argc) {
      have_port = true;
      port = static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--keep-newest") == 0 && i + 1 < argc) {
      policy.keep_newest_segments =
          static_cast<std::uint32_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--min-saved") == 0 && i + 1 < argc) {
      policy.min_bytes_saved =
          static_cast<std::uint64_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      return 2;
    }
  }
  std::error_code ec;
  if (!std::filesystem::is_directory(argv[1], ec)) {
    std::fprintf(stderr, "cannot read %s\n", argv[1]);
    return 1;
  }

  const store::CompactionStats s =
      have_port ? store::compact_port_chain(argv[1], port, policy)
                : store::compact_archive(argv[1], policy);
  std::printf("compaction: %llu segment(s) examined, %llu rewritten, "
              "%llu skipped, %llu damaged\n",
              static_cast<unsigned long long>(s.segments_examined),
              static_cast<unsigned long long>(s.segments_rewritten),
              static_cast<unsigned long long>(s.segments_skipped),
              static_cast<unsigned long long>(s.segments_skipped_damaged));
  if (s.segments_rewritten > 0) {
    std::printf("  %llu -> %llu byte(s) (%.2fx), %llu calibration(s) "
                "dropped\n",
                static_cast<unsigned long long>(s.bytes_before),
                static_cast<unsigned long long>(s.bytes_after),
                s.bytes_after > 0 ? static_cast<double>(s.bytes_before) /
                                        static_cast<double>(s.bytes_after)
                                  : 0.0,
                static_cast<unsigned long long>(s.calibrations_dropped));
  }
  return 0;
}
