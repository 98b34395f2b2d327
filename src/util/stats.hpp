#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace fibbing::util {

/// Streaming moments (Welford) plus min/max. O(1) space.
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exponentially-weighted moving average, the classic SNMP/load-estimation
/// smoother: v' = alpha * sample + (1 - alpha) * v.
class Ewma {
 public:
  explicit Ewma(double alpha);

  void add(double sample);
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] bool primed() const { return primed_; }
  void reset();

 private:
  double alpha_;
  double value_ = 0.0;
  bool primed_ = false;
};

/// Percentile of a sample set with linear interpolation between order
/// statistics (the common "type 7" estimator). p in [0, 100].
/// Copies and sorts: intended for reporting, not hot paths.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

}  // namespace fibbing::util
