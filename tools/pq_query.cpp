// pq_query — retroactive culprit queries against a pq::store archive
// directory (produced by `pq_replay --archive-dir`), including one that a
// crash left without clean-close footers: the reader recovers the longest
// CRC-valid prefix of every port's stream and answers from that.
//
// Usage:
//   pq_query <archive-dir> windows <port> <t1_ns> <t2_ns> [--top K]
//   pq_query <archive-dir> monitor <port> <t_ns>
//   pq_query <archive-dir> blocks <port>
//   pq_query <archive-dir> info
//   (any mode) [--strict] [--as-of T_ns] [--threads N] [--full-scan]
//
// `--threads N` recovers port chains on N workers; the recovered state is
// byte-identical to the sequential scan (whole-port jobs, merged in port
// order). A query plans over each port's checkpoint index and parses only
// the blocks its answer reads; `--full-scan` instead parses every block up
// to the horizon into a records bundle and answers over that — the
// full-materialization oracle the indexed answers must byte-match. `info`
// reads its layout, checkpoint count and z0 from the index and the newest
// usable calibration.
//
// `--as-of T` answers from only the blocks with t_hi <= T — the archive as
// it stood at time T. Calibration is newest-wins, so a later checkpoint
// legitimately rescales answers over earlier spans; bounding two archives
// to a common horizon is how the kill-and-recover test compares a crash
// survivor against its uninterrupted oracle.
//
// The windows/monitor output bodies are byte-identical to pq_offline over
// the same span (both run control's checkpoint walk and nearest-snapshot
// pick and print through control/answer_printer.h); only the first header
// line differs.
// tests/golden_archive_test.sh relies on that.
//
// `blocks` prints one canonical line per recovered block (kind, partition,
// time span, payload length and CRC) — a block-level fingerprint of the
// surviving stream, so crash-recovery tests can assert that one archive is
// an exact prefix of another with head/diff.
//
// `--strict` turns recovery into a visible failure: whenever the scan had
// to truncate anything (a crash-torn tail, a corrupt block), a one-line
// summary goes to stderr and the exit code is 3. The answers themselves
// are unchanged — strict mode is for scripts that must distinguish "clean
// archive" from "recovered archive".
//
// Recovery parses every snapshot and calibration it keeps, but a DQ
// capture's payload only when a mode reads it (`info` counts them): one
// that does not parse is reported on stderr with exit code 1.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "common/hash.h"
#include "control/answer_printer.h"
#include "store/archive_reader.h"

int main(int argc, char** argv) try {
  using namespace pq;
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: pq_query <archive-dir> windows <port> <t1> <t2> "
                 "[--top K] [--strict]\n"
                 "       pq_query <archive-dir> monitor <port> <t> "
                 "[--strict]\n"
                 "       pq_query <archive-dir> blocks <port> [--strict]\n"
                 "       pq_query <archive-dir> info [--strict]\n");
    return 2;
  }
  bool strict = false;
  auto as_of = std::numeric_limits<Timestamp>::max();
  store::ReaderOptions ropts;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) strict = true;
    if (std::strcmp(argv[i], "--full-scan") == 0) ropts.use_seek_index = false;
    if (std::strcmp(argv[i], "--as-of") == 0 && i + 1 < argc) {
      as_of = static_cast<Timestamp>(std::atoll(argv[i + 1]));
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      ropts.threads = static_cast<unsigned>(std::atoi(argv[i + 1]));
    }
  }

  std::unique_ptr<store::ArchiveReader> reader;
  try {
    reader = std::make_unique<store::ArchiveReader>(argv[1], ropts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot read %s: %s\n", argv[1], e.what());
    return 1;
  }
  const auto& stats = reader->stats();
  std::printf("archive: %zu port(s), %llu block(s) in %llu segment(s), "
              "%llu recover%s\n",
              reader->ports().size(),
              static_cast<unsigned long long>(stats.blocks_recovered),
              static_cast<unsigned long long>(stats.segments_opened),
              static_cast<unsigned long long>(stats.recoveries),
              stats.recoveries == 1 ? "y" : "ies");

  // Shared epilogue: recovery is always announced on stderr (stdout bodies
  // stay byte-stable for the golden tests); strict mode makes it fatal.
  const bool dirty = stats.recoveries > 0 || stats.bytes_truncated > 0;
  auto finish = [&]() -> int {
    if (dirty) {
      std::fprintf(stderr,
                   "recovery: %llu recover%s, %llu byte(s) truncated, "
                   "%llu of %llu segment(s) footer-clean\n",
                   static_cast<unsigned long long>(stats.recoveries),
                   stats.recoveries == 1 ? "y" : "ies",
                   static_cast<unsigned long long>(stats.bytes_truncated),
                   static_cast<unsigned long long>(stats.footer_hits),
                   static_cast<unsigned long long>(stats.segments_opened));
    }
    return strict && dirty ? 3 : 0;
  };

  const std::string mode = argv[2];
  if (mode == "info") {
    std::printf("  footer hits: %llu of %llu segment(s)\n",
                static_cast<unsigned long long>(stats.footer_hits),
                static_cast<unsigned long long>(stats.segments_opened));
    std::printf("  bytes truncated by recovery: %llu\n",
                static_cast<unsigned long long>(stats.bytes_truncated));
    if (stats.decode_errors > 0) {
      std::printf("  blocks refused by logical decode: %llu\n",
                  static_cast<unsigned long long>(stats.decode_errors));
    }
    for (const auto port : reader->ports()) {
      const store::RecoveredPort& rec = *reader->recovered().at(port);
      const auto cal = store::effective_calibration(rec);
      std::printf("  port %u: %zu block(s), m0=%u alpha=%u k=%u T=%u, "
                  "%zu checkpoint(s), %zu capture(s), z0=%.3f\n",
                  port, rec.blocks.size(), cal.window_params.m0,
                  cal.window_params.alpha, cal.window_params.k,
                  cal.window_params.num_windows, rec.index.windows[0].size(),
                  reader->dq_captures(port).size(), cal.z0);
      for (const auto& seg : rec.segments) {
        std::printf("    seg %06u v%u: %llu block(s), %llu byte(s), "
                    "span [%llu, %llu], %llu index sample(s), %s\n",
                    seg.index, seg.version,
                    static_cast<unsigned long long>(seg.blocks),
                    static_cast<unsigned long long>(seg.bytes),
                    static_cast<unsigned long long>(seg.t_lo_min),
                    static_cast<unsigned long long>(seg.t_hi_max),
                    static_cast<unsigned long long>(seg.index_samples),
                    seg.footer_ok ? "footer ok" : "torn");
      }
      if (rec.decode_error.status != store::BlockDecodeStatus::kOk) {
        std::printf("    decode error: %s at seg %06u block %llu\n",
                    to_string(rec.decode_error.status),
                    rec.decode_error.segment_index,
                    static_cast<unsigned long long>(
                        rec.decode_error.block_ordinal));
      }
    }
    return finish();
  }

  if (argc < (mode == "blocks" ? 4 : 5)) {
    std::fprintf(stderr, "%s mode needs <port>%s\n", mode.c_str(),
                 mode == "blocks" ? "" : " and timestamp(s)");
    return 2;
  }
  const auto port = static_cast<std::uint32_t>(std::atoi(argv[3]));
  if (!reader->has_port(port)) {
    std::fprintf(stderr, "port %u not present in archive\n", port);
    return 1;
  }

  if (mode == "blocks") {
    // One line per recovered block, in append order. The payload CRC makes
    // each line a content fingerprint: `head -n K | diff` proves one
    // archive's surviving stream is a prefix of another's.
    for (const auto& b : reader->recovered().at(port)->blocks) {
      std::printf("block kind=%u part=%u t_lo=%llu t_hi=%llu len=%zu "
                  "crc=%08x\n",
                  static_cast<unsigned>(b.kind), b.partition,
                  static_cast<unsigned long long>(b.t_lo),
                  static_cast<unsigned long long>(b.t_hi), b.payload.size(),
                  crc32(b.payload.data(), b.payload.size()));
    }
    return finish();
  }

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
    control::print_windows_answer(
        t1, t2, reader->query_time_windows(port, t1, t2, 0, as_of), top);
  } else if (mode == "monitor") {
    const auto t = static_cast<Timestamp>(std::atoll(argv[4]));
    control::print_monitor_answer(
        t, reader->query_queue_monitor(port, t, 0, as_of));
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  return finish();
} catch (const pq::control::RecordsError& e) {
  std::fprintf(stderr, "cannot decode a recovered record: %s\n", e.what());
  return 1;
}
