#include "util/stats.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fibbing::util {

void RunningStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

Ewma::Ewma(double alpha) : alpha_(alpha) {
  FIB_ASSERT(alpha > 0.0 && alpha <= 1.0, "Ewma: alpha must be in (0, 1]");
}

void Ewma::add(double sample) {
  if (!primed_) {
    value_ = sample;
    primed_ = true;
  } else {
    value_ = alpha_ * sample + (1.0 - alpha_) * value_;
  }
}

void Ewma::reset() {
  value_ = 0.0;
  primed_ = false;
}

double percentile(std::vector<double> samples, double p) {
  FIB_ASSERT(!samples.empty(), "percentile: empty sample set");
  FIB_ASSERT(p >= 0.0 && p <= 100.0, "percentile: p out of range");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples.front();
  const double rank = (p / 100.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

}  // namespace fibbing::util
