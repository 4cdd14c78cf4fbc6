// Trimmed-timestamp (TTS) arithmetic shared by the time windows and their
// query path (paper Fig. 5 and Section 4.2).
//
// A dequeue timestamp is shifted right by m0 bits to obtain the TTS of time
// window 0; each deeper window shifts by a further alpha bits. Within a
// window, the k low bits of the TTS index the cell and the remaining bits
// form the cycle ID that disambiguates ring-buffer laps.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "common/types.h"

namespace pq::core {

struct TimeWindowParams {
  std::uint32_t m0 = 6;          ///< log2(cell period of window 0) in ns
  std::uint32_t alpha = 1;       ///< compression factor between windows
  std::uint32_t k = 12;          ///< log2(cells per window)
  std::uint32_t num_windows = 4; ///< T
  std::uint32_t num_ports = 1;   ///< rounded up to a power of two
  bool wrap32 = false;           ///< operate on the low 32 timestamp bits
                                 ///< (Tofino's nanosecond clock width)

  /// Ablation switch (benches only): when true the passing rule is
  /// disabled — evicted packets are always dropped, never aged into the
  /// next window. Isolates the contribution of hierarchical passing.
  bool ablate_passing = false;

  /// Why TtsLayout rejects these parameters, or nullptr if it accepts them.
  const char* range_error() const noexcept {
    if (alpha == 0 || alpha > 8 || k == 0 || k > 20 || num_windows == 0 ||
        num_windows > 16 || num_ports == 0 || m0 > 20) {
      return "TimeWindowParams out of range";
    }
    if (wrap32 && m0 + k >= 32) return "wrap32 requires m0 + k < 32";
    return nullptr;
  }

  void validate() const {
    if (const char* why = range_error()) throw std::invalid_argument(why);
  }
};

/// Pure TTS arithmetic for a parameter set.
class TtsLayout {
 public:
  explicit TtsLayout(const TimeWindowParams& p) : p_(p) { p_.validate(); }

  const TimeWindowParams& params() const { return p_; }

  std::uint64_t index_mask() const { return (1ull << p_.k) - 1; }

  /// TTS for window 0 from a raw dequeue timestamp.
  std::uint64_t tts0(Timestamp deq_ts) const {
    const std::uint64_t raw = p_.wrap32 ? (deq_ts & 0xffffffffull) : deq_ts;
    return raw >> p_.m0;
  }

  std::uint64_t index_of(std::uint64_t tts) const { return tts & index_mask(); }
  std::uint64_t cycle_of(std::uint64_t tts) const { return tts >> p_.k; }
  std::uint64_t combine(std::uint64_t cycle, std::uint64_t index) const {
    return (cycle << p_.k) | index;
  }

  /// Cell period of window i in nanoseconds: 2^(m0 + alpha*i).
  Duration cell_period_ns(std::uint32_t window) const {
    return 1ull << (p_.m0 + p_.alpha * window);
  }

  /// Window period of window i: 2^(m0 + alpha*i + k).
  Duration window_period_ns(std::uint32_t window) const {
    return cell_period_ns(window) << p_.k;
  }

  /// Total span of the window set: sum over i of window periods
  /// = (2^(alpha*T) - 1) / (2^alpha - 1) * 2^(m0 + k).
  Duration set_period_ns() const {
    Duration total = 0;
    for (std::uint32_t i = 0; i < p_.num_windows; ++i) {
      total += window_period_ns(i);
    }
    return total;
  }

  /// The raw-time interval [lo, hi) covered by a cell of window i whose TTS
  /// (cycle<<k | index) is `tts`.
  struct Span {
    Timestamp lo = 0;
    Timestamp hi = 0;
  };
  Span cell_span(std::uint32_t window, std::uint64_t tts) const {
    const std::uint32_t shift = p_.m0 + p_.alpha * window;
    return {tts << shift, (tts + 1) << shift};
  }

  /// Number of significant TTS bits (for wrap-aware cycle arithmetic).
  std::uint32_t tts_bits() const {
    return (p_.wrap32 ? 32u : 64u) - p_.m0;
  }

 private:
  TimeWindowParams p_;
};

}  // namespace pq::core
