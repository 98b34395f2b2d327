#include "measure.hpp"

#include <algorithm>
#include <cmath>

#include "util/stats.hpp"

namespace perfbench {

const char* to_string(StepClass c) {
  switch (c) {
    case StepClass::kDecision: return "decision";
    case StepClass::kSession: return "session";
    case StepClass::kLinkEvent: return "link_event";
    case StepClass::kIgpRound: return "igp_round";
    case StepClass::kPoll: return "poll";
    case StepClass::kOther: return "other";
  }
  return "?";
}

StepClass classify(const Probe& before, const Probe& after, InputActs acts) {
  if (after.mitigations != before.mitigations ||
      after.retractions != before.retractions ||
      after.placement_solves != before.placement_solves) {
    return StepClass::kDecision;
  }
  if (acts.session) return StepClass::kSession;
  if (acts.link) return StepClass::kLinkEvent;
  if (after.igp_rounds != before.igp_rounds) return StepClass::kIgpRound;
  if (after.polls != before.polls) return StepClass::kPoll;
  return StepClass::kOther;
}

std::optional<double> percentile(const std::vector<double>& samples, double q) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  if (n == 0 || n - std::min(rank, n) < kMinBeyond) return std::nullopt;
  return fibbing::util::percentile(samples, 100.0 * q);
}

std::size_t min_samples_for(double q) {
  std::size_t n = kMinBeyond;
  while (!percentile(std::vector<double>(n, 0.0), q)) ++n;
  return n;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double overhead_frac(double traced_s, double untraced_s) {
  return ratio(traced_s, untraced_s) - 1.0;
}

}  // namespace perfbench
