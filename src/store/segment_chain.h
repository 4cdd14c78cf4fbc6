// The segment-chain rule. The recovery scan (archive_reader.h) is the only
// code that reads a chain's files; resume applies the ChainEnd it records,
// so recovery and repair agree on where a chain ends. The rule:
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
//
// Unreadable is not damaged: a directory that exists but cannot be listed,
// or a listed segment file that cannot be opened or read in full, throws
// std::runtime_error naming the path, so no repair ever runs on a chain
// the scan could not see. A missing directory lists as empty.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "store/archive_format.h"

namespace pq::store {

/// Ports whose directory under `archive_dir` has the canonical name, in
/// ascending order. A missing directory lists as empty.
std::vector<std::uint32_t> list_ports(const std::string& archive_dir);

/// One canonically named segment file of a port.
struct SegmentFile {
  std::uint32_t index = 0;
  std::string path;
};

/// The port's canonically named segment files, ascending by index. A
/// missing port directory lists as empty.
std::vector<SegmentFile> list_segment_files(const std::string& archive_dir,
                                            std::uint32_t port);

/// One CRC-verified block, in the writer's append order. `payload` is
/// always the logical (v1) snapshot bytes, whatever the segment format.
struct RecoveredBlock {
  BlockKind kind = BlockKind::kWindowSnapshot;
  std::uint32_t partition = 0;
  std::uint64_t t_lo = 0;
  std::uint64_t t_hi = 0;
  std::vector<std::uint8_t> payload;
};

/// Where one port's chain ends, as the recovery scan found it, and so what
/// resume does there. Empty for a port with no segment files.
struct ChainEnd {
  /// The end file, when it is not clean but blocks of it survive: resume
  /// truncates it to `valid_bytes` and writes the footer a clean close
  /// would have written over `kept`, in the file's own version.
  struct Seal {
    std::uint32_t index = 0;
    std::uint16_t version = kFormatVersionV1;
    std::uint64_t header_bytes = 0;
    std::uint64_t valid_bytes = 0;  ///< header plus the kept frames
    std::vector<IndexEntry> kept;   ///< the surviving frames, in order
  };

  /// Surviving segment indices, oldest first: every clean segment, then the
  /// sealed end file. The writer continues after the last one.
  std::vector<std::uint32_t> live;
  std::optional<Seal> seal;
  /// Files resume deletes: the end file when no block of it survives, then
  /// every unreachable later file.
  std::vector<std::uint32_t> discard;
};

}  // namespace pq::store
