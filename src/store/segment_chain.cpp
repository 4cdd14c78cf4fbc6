#include "store/segment_chain.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

namespace pq::store {

namespace fs = std::filesystem;

namespace {

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

/// Every entry of `dir`: none when it does not exist, and a throw naming it
/// when it exists but cannot be listed.
std::vector<fs::directory_entry> list_dir(const std::string& dir) {
  std::vector<fs::directory_entry> entries;
  std::error_code ec;
  fs::directory_iterator it(dir, ec);
  for (; !ec && it != fs::directory_iterator(); it.increment(ec)) {
    entries.push_back(*it);
  }
  if (ec && ec != std::errc::no_such_file_or_directory) {
    throw std::runtime_error("pq::store: cannot list " + dir + ": " +
                             ec.message());
  }
  return entries;
}

}  // namespace

std::vector<SegmentFile> list_segment_files(const std::string& archive_dir,
                                            std::uint32_t port) {
  std::vector<SegmentFile> files;
  std::error_code ec;
  for (const auto& entry : list_dir(port_dir(archive_dir, port))) {
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

std::vector<std::uint32_t> list_ports(const std::string& archive_dir) {
  std::vector<std::uint32_t> ports;
  std::error_code ec;
  for (const auto& entry : list_dir(archive_dir)) {
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

}  // namespace pq::store
