// Archive helpers shared by the store suites: whole-file byte access, a
// rewrite of a v2-written archive as archive v1 (the frozen format no
// writer produces any more, so the v1 read paths keep their inputs),
// CRC-valid blocks whose payload was damaged after the fact, and a cap on
// the size of the files this process writes.
#pragma once

#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "store/archive_format.h"
#include "store/archive_reader.h"

namespace pq::harness {

inline std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), {}};
}

inline void write_bytes(const std::string& path,
                        const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Rewrites the clean archive in `dir` as archive v1: every segment keeps
/// its name, index and blocks, with a version-1 header, the logical
/// payloads and a v1 footer. With `write_faults`, each v1 frame goes
/// through the injector as a v1 writer appended it: the first torn frame's
/// persisted prefix ends its file, with no footer, and the port's later
/// segments are deleted.
inline void rewrite_as_v1(const std::string& dir,
                          faults::TornWriteInjector* write_faults = nullptr) {
  const store::ArchiveReader reader(dir);
  for (const auto& [port, port_rec] : reader.recovered()) {
    const store::RecoveredPort& rec = *port_rec;
    std::size_t next_block = 0;
    bool dead = false;
    for (const auto& seg : rec.segments) {
      const std::string path = store::segment_path(dir, port, seg.index);
      if (dead) {
        std::filesystem::remove(path);
        continue;
      }
      store::SegmentHeader header = rec.header;
      header.segment_index = seg.index;
      header.version = store::kFormatVersionV1;
      std::vector<std::uint8_t> bytes;
      store::encode_segment_header(bytes, header);
      const std::uint64_t header_bytes = bytes.size();
      std::vector<store::IndexEntry> index;
      for (std::uint64_t i = 0; i < seg.blocks && !dead; ++i) {
        const auto& b = rec.blocks[next_block++];
        auto frame = store::encode_block(b.kind, b.partition, b.t_lo, b.t_hi,
                                         b.payload);
        const std::size_t persisted =
            write_faults != nullptr ? write_faults->on_append(frame)
                                    : frame.size();
        index.push_back({b.kind, b.partition, b.t_lo, b.t_hi, bytes.size(),
                         static_cast<std::uint32_t>(frame.size())});
        bytes.insert(bytes.end(), frame.begin(),
                     frame.begin() + static_cast<std::ptrdiff_t>(persisted));
        dead = persisted < frame.size();
      }
      if (!dead) {
        const auto footer = store::encode_footer(bytes.size() - header_bytes,
                                                 index,
                                                 store::kFormatVersionV1);
        bytes.insert(bytes.end(), footer.begin(), footer.end());
      }
      write_bytes(path, bytes);
    }
  }
}

/// Rewrites block `ordinal` of a segment file: `edit` may change the
/// block's partition and its payload (the v2 encoding tag and the length
/// included), then the frame is rebuilt with a fresh length field and CRC
/// and the bytes after it shift. The block stays CRC-valid, however
/// undecodable `edit` made it.
inline void reseal_block(
    const std::string& path, std::uint32_t port, std::size_t ordinal,
    const std::function<void(std::uint32_t& partition,
                             std::vector<std::uint8_t>& payload)>& edit) {
  std::vector<std::uint8_t> bytes = read_bytes(path);
  const store::SegmentScan scan = store::scan_segment_bytes(bytes, port);
  if (!scan.header_ok || scan.entries.size() <= ordinal) {
    throw std::runtime_error("no block to rewrite in " + path);
  }
  const store::IndexEntry& victim = scan.entries[ordinal];
  // Frame: magic u32 | kind u8 | partition u32 | t_lo u64 | t_hi u64 |
  // payload_len u32 | payload | crc32 (over magic..payload).
  const auto frame_at = bytes.begin() + static_cast<std::ptrdiff_t>(victim.offset);
  const auto frame_end = frame_at + victim.length;
  std::vector<std::uint8_t> payload(frame_at + (store::kBlockOverheadBytes - 4),
                                    frame_end - 4);
  std::uint32_t partition = victim.partition;
  edit(partition, payload);
  const auto frame = store::encode_block(victim.kind, partition, victim.t_lo,
                                         victim.t_hi, payload);
  const auto at = bytes.erase(frame_at, frame_end);
  bytes.insert(at, frame.begin(), frame.end());
  write_bytes(path, bytes);
}

/// Overwrites the v2 encoding tag of block `ordinal` of a segment file with
/// a value that is neither raw nor delta: the block stays CRC-valid but
/// cannot decode.
inline void poison_encoding_tag(const std::string& path, std::uint32_t port,
                                std::size_t ordinal) {
  reseal_block(path, port, ordinal,
               [](std::uint32_t&, std::vector<std::uint8_t>& payload) {
                 payload.at(0) = 0x77;
               });
}

/// Caps the size of every file this process writes at `bytes`
/// (RLIMIT_FSIZE) and ignores SIGXFSZ, so a write past the cap fails with
/// EFBIG instead of killing the process: a disk that stops taking bytes
/// mid-file. The destructor restores the limit and the signal disposition.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(std::uintmax_t bytes) {
    if (::getrlimit(RLIMIT_FSIZE, &saved_limit_) != 0) {
      throw std::runtime_error("getrlimit(RLIMIT_FSIZE) failed");
    }
    struct sigaction ignore{};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGXFSZ, &ignore, &saved_action_);
    rlimit cap = saved_limit_;
    cap.rlim_cur = static_cast<rlim_t>(bytes);
    if (::setrlimit(RLIMIT_FSIZE, &cap) != 0) {
      ::sigaction(SIGXFSZ, &saved_action_, nullptr);
      throw std::runtime_error("setrlimit(RLIMIT_FSIZE) failed");
    }
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }

  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_limit_{};
  struct sigaction saved_action_{};
};

}  // namespace pq::harness
