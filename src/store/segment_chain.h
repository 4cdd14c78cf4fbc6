// The one walk over a port's segment chain. Recovery (ArchiveReader) and
// the writer's resume repair both read a chain through it, so they agree on
// where it ends. The chain rule:
//
//   names   a directory is port P only if its name is exactly the last part
//           of port_dir(dir, P); a file is in P's chain only if its path is
//           exactly segment_path(dir, P, i) for some index i. Anything else
//           (a `port-0.bak` copy, `seg-000001 (copy).pqs`) is not part of
//           the archive.
//   order   ascending i.
//   anchor  the first file, whatever its index (retention may have pruned
//           the head). After it, each file must carry the next index, both
//           in its name and in its header.
//   end     the first file that breaks that sequence, fails its header, or
//           is not both footer-clean and fully decodable. Its valid prefix
//           (header plus the frames before the first torn, corrupt or
//           undecodable one) is what survives of it; every later file is
//           unreachable.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "store/archive_format.h"

namespace pq::store {

/// Ports whose directory under `archive_dir` has the canonical name, in
/// ascending order. A missing or unreadable directory lists as empty.
std::vector<std::uint32_t> list_ports(const std::string& archive_dir);

/// One canonically named segment file of a port.
struct SegmentFile {
  std::uint32_t index = 0;
  std::string path;
};

/// One CRC-verified block, in the writer's append order. `payload` is
/// always the logical (v1) snapshot bytes, whatever the segment format.
struct RecoveredBlock {
  BlockKind kind = BlockKind::kWindowSnapshot;
  std::uint32_t partition = 0;
  std::uint64_t t_lo = 0;
  std::uint64_t t_hi = 0;
  std::vector<std::uint8_t> payload;
};

/// One file of the chain, as the walk hands it to its caller.
struct ChainSegment {
  const SegmentFile* file = nullptr;
  std::uint64_t file_bytes = 0;
  /// The file's CRC scan. `header_ok` is false also when the file breaks
  /// the index sequence; nothing of such a file is kept.
  SegmentScan scan;
  /// The decoded CRC-valid frames, in order, up to the first one that fails
  /// to decode.
  std::vector<RecoveredBlock> blocks;
  BlockDecodeStatus decode_status = BlockDecodeStatus::kOk;
  /// Bytes of the file the chain keeps: all of them when clean(), else the
  /// header and the frames in `blocks` (0 without a usable header).
  std::uint64_t valid_bytes = 0;

  bool clean() const {
    return scan.header_ok && scan.footer_ok &&
           decode_status == BlockDecodeStatus::kOk;
  }
};

/// Walks the port's canonically named segment files in ascending index
/// order, holding one file in memory at a time, and calls `visit` on each
/// file it opens: every clean segment, then the file that ends the chain.
/// Returns the files after the one that ended the chain, which no reader
/// reaches; empty when the chain runs to the last file.
std::vector<SegmentFile> walk_segment_chain(
    const std::string& archive_dir, std::uint32_t port,
    const std::function<void(ChainSegment&)>& visit);

}  // namespace pq::store
