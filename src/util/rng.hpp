#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/assert.hpp"

namespace fibbing::util {

/// Deterministic random source. Every stochastic component takes an Rng (or
/// a seed) explicitly so whole-system runs are reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    FIB_ASSERT(lo <= hi, "uniform_int: empty range");
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    FIB_ASSERT(lo <= hi, "uniform: empty range");
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Exponential with the given rate (events per unit time).
  double exponential(double rate) {
    FIB_ASSERT(rate > 0.0, "exponential: rate must be positive");
    return std::exponential_distribution<double>(rate)(engine_);
  }

  /// Bernoulli trial.
  bool chance(double p) {
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Uniformly pick an element index from a non-empty container size.
  std::size_t pick_index(std::size_t size) {
    FIB_ASSERT(size > 0, "pick_index: empty container");
    return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(size) - 1));
  }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[pick_index(i)]);
    }
  }

  /// Derive an independent child stream (for per-component determinism that
  /// survives reordering of draws in sibling components).
  Rng fork();

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace fibbing::util
