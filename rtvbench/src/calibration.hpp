// Host-speed reference for the end-to-end times.
//
// The host is a shared VM whose speed drifts by tens of percent within
// minutes (README.md, "Steadiness").  A fixed computation that uses no
// library code (an open-addressing hash table and a sort over preallocated
// arrays) is timed every half second of a run, between operations; the
// run's median sample over kNominalSeconds is its slowdown.  Reported
// times are divided by it and rates multiplied, so they read as on a host
// where the reference takes kNominalSeconds.  A slower library still reads
// slower: the reference does not run its code.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"

namespace rtvbench {

class Calibration {
 public:
  /// A round figure near the reference's time on the host the README's
  /// figures come from.
  static constexpr double kNominalSeconds = 0.015;

  Calibration();
  /// Times one reference computation.
  void sample();
  /// Samples when half a second has passed since the last sample.
  void tick();
  /// Median sample over kNominalSeconds (1 before any sample).
  double slowdown() const;
  std::size_t samples() const { return samples_.size(); }

 private:
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> samples_;
  double last_ = 0.0;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace rtvbench
