#include "store/segment_chain.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "store/block_codec_v2.h"

namespace pq::store {

namespace fs = std::filesystem;

namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return {std::istreambuf_iterator<char>(in), {}};
}

/// The number `name` spells between `prefix` and `suffix`.
bool parse_number(std::string_view name, std::string_view prefix,
                  std::string_view suffix, std::uint32_t& out) {
  if (name.size() <= prefix.size() + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return false;
  }
  std::uint64_t v = 0;
  for (const char c :
       name.substr(prefix.size(), name.size() - prefix.size() - suffix.size())) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xFFFFFFFFull) return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

std::string last_part(const std::string& path) {
  return fs::path(path).filename().string();
}

/// Decodes the scanned frames of `data` into `seg.blocks`, per the
/// segment's version, and sets how much of the file the chain keeps.
void decode_blocks(std::span<const std::uint8_t> data, ChainSegment& seg) {
  const SegmentScan& scan = seg.scan;
  SegmentPayloadCodec codec;
  seg.blocks.reserve(scan.entries.size());
  for (const auto& e : scan.entries) {
    const auto payload = data.subspan(e.offset + kBlockOverheadBytes - 4,
                                      e.length - kBlockOverheadBytes);
    RecoveredBlock block{e.kind, e.partition, e.t_lo, e.t_hi, {}};
    seg.decode_status = codec.decode(scan.header.version, e.kind, e.partition,
                                     payload, block.payload);
    if (seg.decode_status != BlockDecodeStatus::kOk) {
      // CRC-valid but undecodable: the prefix ends right before it.
      seg.valid_bytes = e.offset;
      return;
    }
    seg.blocks.push_back(std::move(block));
  }
  seg.valid_bytes = scan.footer_ok ? seg.file_bytes
                                   : scan.header_bytes + scan.blocks_bytes;
}

/// The port's canonically named segment files, ascending by index.
std::vector<SegmentFile> list_segment_files(const std::string& archive_dir,
                                            std::uint32_t port) {
  std::vector<SegmentFile> files;
  std::error_code ec;
  for (const auto& entry :
       fs::directory_iterator(port_dir(archive_dir, port), ec)) {
    const std::string name = entry.path().filename().string();
    std::uint32_t index = 0;
    if (!entry.is_regular_file(ec) ||
        !parse_number(name, "seg-", ".pqs", index)) {
      continue;
    }
    std::string path = segment_path(archive_dir, port, index);
    if (name == last_part(path)) files.push_back({index, std::move(path)});
  }
  std::sort(files.begin(), files.end(),
            [](const SegmentFile& a, const SegmentFile& b) {
              return a.index < b.index;
            });
  return files;
}

}  // namespace

std::vector<std::uint32_t> list_ports(const std::string& archive_dir) {
  std::vector<std::uint32_t> ports;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(archive_dir, ec)) {
    const std::string name = entry.path().filename().string();
    std::uint32_t port = 0;
    if (entry.is_directory(ec) && parse_number(name, "port-", "", port) &&
        name == last_part(port_dir(archive_dir, port))) {
      ports.push_back(port);
    }
  }
  std::sort(ports.begin(), ports.end());
  return ports;
}

std::vector<SegmentFile> walk_segment_chain(
    const std::string& archive_dir, std::uint32_t port,
    const std::function<void(ChainSegment&)>& visit) {
  std::vector<SegmentFile> files = list_segment_files(archive_dir, port);
  for (std::size_t i = 0; i < files.size(); ++i) {
    const std::vector<std::uint8_t> data = read_file(files[i].path);
    ChainSegment seg;
    seg.file = &files[i];
    seg.file_bytes = data.size();
    seg.scan = scan_segment_bytes(data, port);
    const bool in_sequence =
        seg.scan.header.segment_index == files[i].index &&
        (i == 0 || files[i].index == files[i - 1].index + 1);
    if (!in_sequence) seg.scan = SegmentScan{};
    if (seg.scan.header_ok) decode_blocks(data, seg);
    visit(seg);
    if (!seg.clean()) {
      files.erase(files.begin(),
                  files.begin() + static_cast<std::ptrdiff_t>(i) + 1);
      return files;
    }
  }
  return {};
}

}  // namespace pq::store
