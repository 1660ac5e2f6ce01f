#include "calibration.hpp"

#include <algorithm>

namespace rtvbench {

namespace {

constexpr std::size_t kKeys = std::size_t{1} << 17;
constexpr std::size_t kSlots = kKeys * 2;  // power of two
constexpr double kSampleEvery = 0.5;       // seconds of wall time

}  // namespace

Calibration::Calibration() : table_(kSlots), keys_(kKeys) {}

void Calibration::sample() {
  const double t0 = now_s();
  std::fill(table_.begin(), table_.end(), 0);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& k : keys_) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    k = x | 1;  // 0 marks an empty slot
    std::size_t s = (k * 0xff51afd7ed558ccdull) >> 46;  // 18 bits = kSlots
    while (table_[s] != 0 && table_[s] != k) s = (s + 1) & (kSlots - 1);
    table_[s] = k;
  }
  std::sort(keys_.begin(), keys_.end());
  std::uint64_t found = 0;
  for (std::size_t i = 0; i < kKeys; i += 7) {
    std::size_t s = (keys_[i] * 0xff51afd7ed558ccdull) >> 46;
    while (table_[s] != keys_[i]) s = (s + 1) & (kSlots - 1);
    found += s;
  }
  sink_ = found;
  last_ = now_s();
  samples_.push_back(last_ - t0);
}

void Calibration::tick() {
  if (now_s() - last_ >= kSampleEvery) sample();
}

double Calibration::slowdown() const {
  return samples_.empty() ? 1.0 : median(samples_) / kNominalSeconds;
}

}  // namespace rtvbench
