// A cursor over JSON text for the repo's small schema-directed loaders
// (net/topology.cpp, serve/fault_config.cpp, obs/metrics.cpp). It knows
// the dialect, not the schema: objects, arrays, numbers, and strings
// without escapes (no null or bool, which no schema needs). Each step
// reports failure by returning false, so every loader keeps its own error
// type and messages.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

namespace pq {

class JsonCursor {
 public:
  explicit JsonCursor(std::string_view text) : s_(text) {}

  /// Offset of the next unread byte, for error messages.
  std::size_t offset() const { return i_; }

  /// Skips whitespace, then consumes `c` if it is next.
  bool eat(char c) {
    skip_ws();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  /// True when only whitespace is left.
  bool done() {
    skip_ws();
    return i_ >= s_.size();
  }

  /// A double-quoted string; false on a missing quote or any escape.
  bool string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') return false;
      out.push_back(s_[i_++]);
    }
    return eat('"');
  }

  /// A number, parsed by std::strtod but never past the end of the text:
  /// strtod runs on a copy of the token, which ends at the next JSON
  /// delimiter or at the end of the text.
  bool number(double& out) {
    skip_ws();
    std::size_t end = i_;
    while (end < s_.size() && !is_delimiter(s_[end])) ++end;
    const std::string token(s_.substr(i_, end - i_));
    char* stop = nullptr;
    out = std::strtod(token.c_str(), &stop);
    if (stop == token.c_str()) return false;
    i_ += static_cast<std::size_t>(stop - token.c_str());
    return true;
  }

  /// A run of decimal digits.
  bool u64(std::uint64_t& out) {
    skip_ws();
    if (i_ >= s_.size() || !is_digit(s_[i_])) return false;
    out = 0;
    while (i_ < s_.size() && is_digit(s_[i_])) {
      out = out * 10 + static_cast<std::uint64_t>(s_[i_++] - '0');
    }
    return true;
  }

 private:
  static bool is_space(char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  }
  static bool is_digit(char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  }
  static bool is_delimiter(char c) {
    return is_space(c) || c == ',' || c == ':' || c == '"' || c == '{' ||
           c == '}' || c == '[' || c == ']';
  }
  void skip_ws() {
    while (i_ < s_.size() && is_space(s_[i_])) ++i_;
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace pq
