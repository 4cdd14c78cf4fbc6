// Command-line helpers shared by the tools and benches: `--name value`
// options, bare `--flag`s, and the process's peak resident set.
//
// Options are matched by exact name anywhere from argv[first] on. A tool
// whose leading arguments are positional passes the index of its first
// option (e.g. 2 after one positional), so a positional value is never read
// as an option name.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pq {

/// The argument after `name`, or `dflt` when the option is absent.
inline const char* arg_str(int argc, char** argv, const char* name,
                           const char* dflt, int first = 1) {
  for (int i = first; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return dflt;
}

/// The argument after `name` read as a number (std::atof), or `dflt`.
inline double arg_double(int argc, char** argv, const char* name, double dflt,
                         int first = 1) {
  const char* value = arg_str(argc, argv, name, nullptr, first);
  return value != nullptr ? std::atof(value) : dflt;
}

/// True when the bare flag `name` is present.
inline bool arg_flag(int argc, char** argv, const char* name, int first = 1) {
  for (int i = first; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

/// High-watermark of this process's resident set (VmHWM) in kB; 0 where
/// /proc/self/status is unavailable.
inline std::uint64_t peak_rss_kb() {
  std::uint64_t kb = 0;
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) {
        kb = std::strtoull(line + 6, nullptr, 10);
        break;
      }
    }
    std::fclose(f);
  }
  return kb;
}

}  // namespace pq
