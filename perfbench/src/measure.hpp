#pragma once
// The benchmark's own arithmetic: step classes, the percentile rule, medians
// and ratios, testable on hand-built inputs.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// What one EventQueue::step() did, judged from the benchmark's own callback
/// and from which public counters moved. Listed in priority order: a step
/// that both started a session and moved a controller counter is a decision.
enum class StepClass : std::size_t {
  kDecision,   ///< controller mitigations, retractions or placement solves moved
  kSession,    ///< the benchmark's callback started or stopped a session
  kLinkEvent,  ///< the benchmark's callback failed or restored a link
  kIgpRound,   ///< the IGP domain ran a shard round
  kPoll,       ///< the SNMP poller completed a poll
  kOther,      ///< none of the above (client transitions, no-op checks)
};
inline constexpr std::size_t kStepClasses = 6;
[[nodiscard]] const char* to_string(StepClass c);

/// Public counters read between steps.
struct Probe {
  std::int64_t mitigations = 0;
  std::int64_t retractions = 0;
  std::int64_t placement_solves = 0;
  std::uint64_t igp_rounds = 0;
  std::uint64_t polls = 0;
};

/// What the benchmark's own input callbacks did during the step.
struct InputActs {
  bool session = false;
  bool link = false;
};

[[nodiscard]] StepClass classify(const Probe& before, const Probe& after,
                                 InputActs acts);

/// A percentile is reported only when at least this many samples lie beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// The q-th percentile (`q` in (0, 1)) of `samples`, as util::percentile
/// reports it, when at least kMinBeyond samples lie beyond it: n - k of the
/// n samples rank above the k = ceil(q * n)-th smallest. Otherwise no value.
[[nodiscard]] std::optional<double> percentile(const std::vector<double>& samples,
                                               double q);

/// Samples needed for percentile(_, q) to report a value.
[[nodiscard]] std::size_t min_samples_for(double q);

/// Median (mean of the middle pair for even sizes); 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// num / den, or 0 when den is 0 (a layer that did no work has no ratio).
[[nodiscard]] double ratio(double num, double den);

/// Relative cost of tracing: traced / untraced - 1.
[[nodiscard]] double overhead_frac(double traced_s, double untraced_s);

}  // namespace perfbench
