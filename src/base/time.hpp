// Discrete-time values and static firing intervals for time Petri nets.
//
// The paper's computational model (§3.1) uses a time-discrete semantics:
// all phases, releases, computation times, deadlines and periods are
// non-negative integers, and a transition's timing constraint is a closed
// interval I(t) = [EFT(t), LFT(t)] with EFT <= LFT. LFT may be unbounded
// (classic TPN "infinity"); the pre-runtime building blocks only produce
// bounded intervals, but the TPN core supports both.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

#include "base/assert.hpp"

namespace ezrt {

/// A point in (or duration of) discrete model time. One unit is the task
/// granularity chosen by the specification (the paper calls it a TTU,
/// task time unit).
using Time = std::uint64_t;

/// Unbounded latest firing time.
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max();

/// Static firing interval [eft, lft] of a transition (Merlin & Faber).
class TimeInterval {
 public:
  constexpr TimeInterval() = default;

  constexpr TimeInterval(Time eft, Time lft) : eft_(eft), lft_(lft) {
    EZRT_CHECK(eft <= lft, "time interval requires EFT <= LFT");
  }

  /// The punctual interval [v, v].
  [[nodiscard]] static constexpr TimeInterval exactly(Time v) {
    return TimeInterval(v, v);
  }

  /// The interval [eft, infinity).
  [[nodiscard]] static constexpr TimeInterval at_least(Time eft) {
    return TimeInterval(eft, kTimeInfinity);
  }

  [[nodiscard]] constexpr Time eft() const { return eft_; }
  [[nodiscard]] constexpr Time lft() const { return lft_; }
  [[nodiscard]] constexpr bool bounded() const {
    return lft_ != kTimeInfinity;
  }
  [[nodiscard]] constexpr bool punctual() const { return eft_ == lft_; }
  [[nodiscard]] constexpr bool is_zero() const {
    return eft_ == 0 && lft_ == 0;
  }
  [[nodiscard]] constexpr bool contains(Time v) const {
    return eft_ <= v && v <= lft_;
  }

  friend constexpr bool operator==(TimeInterval, TimeInterval) = default;

  [[nodiscard]] std::string to_string() const;

 private:
  Time eft_ = 0;
  Time lft_ = 0;
};

std::ostream& operator<<(std::ostream& os, const TimeInterval& interval);

/// Wall-clock deadline `t0 + ms` on the steady clock, clamped to
/// time_point::max(). The clock counts signed 64-bit nanoseconds, so a
/// budget beyond ~292 years would wrap to a deadline in the past; a budget
/// too large to represent means "no ceiling" instead.
[[nodiscard]] inline std::chrono::steady_clock::time_point saturating_deadline(
    std::chrono::steady_clock::time_point t0, std::uint64_t ms) {
  using Clock = std::chrono::steady_clock;
  constexpr auto kMaxMs =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          Clock::duration::max())
          .count();
  if (ms > static_cast<std::uint64_t>(kMaxMs)) {
    return Clock::time_point::max();
  }
  const auto span = std::chrono::duration_cast<Clock::duration>(
      std::chrono::milliseconds(static_cast<std::int64_t>(ms)));
  if (t0 > Clock::time_point::max() - span) {
    return Clock::time_point::max();
  }
  return t0 + span;
}

}  // namespace ezrt
