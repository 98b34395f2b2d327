#pragma once
// One run of a plan: build the service, warm it up untimed, then advance it
// with EventQueue::step() until the horizon event fires, timing and
// classifying every step.

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/lie.hpp"
#include "igp/lsa.hpp"
#include "igp/routes.hpp"
#include "measure.hpp"
#include "workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The service's state at the plan's peak instant, copied by a traced run
/// so the direct per-layer calls work on the workload's own state.
struct Capture {
  std::vector<fibbing::core::Lie> lies;
  std::vector<fibbing::igp::RoutingTable> tables;  ///< per router
  std::vector<bool> down;                          ///< per directed link
  std::vector<fibbing::igp::LsaPtr> lsdb;          ///< the session router's database
};

/// The work a timed loop did. Runs of one workload and seed, traced or not,
/// must agree on all of it before their timings may be compared.
struct Work {
  std::array<std::uint64_t, kStepClasses> steps{};
  std::uint64_t placement_solves = 0;
  std::uint64_t spf_runs = 0;
  std::uint64_t lsas_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::size_t flows_peak = 0;
  friend bool operator==(const Work&, const Work&) = default;
};
[[nodiscard]] std::string to_string(const Work& work);

/// One timed step, as the traced run records it.
struct Span {
  StepClass cls = StepClass::kOther;
  double seconds = 0.0;
};

struct RunRecord {
  double setup_s = 0.0;  ///< plan generation through the end of warm-up
  double run_s = 0.0;    ///< wall time of the timed step loop
  Work work;
  // Step latencies in ms, by what the step did.
  std::vector<double> decide_ms;      ///< every decision step
  std::vector<double> place_ms;       ///< placement attempts (see Op::kPlacement)
  std::vector<double> session_ms;     ///< every session step
  std::vector<double> reconverge_ms;  ///< per link event, summed until reconverged
  std::vector<Span> spans;         ///< traced runs only: every timed step
  /// Telemetry snapshots taken just before and just after the timed loop.
  std::map<std::string, double> before;
  std::map<std::string, double> after;
  std::size_t sessions = 0;  ///< sessions started, set-up included
  std::size_t stalled = 0;   ///< of those, sessions that stalled at least once
  std::vector<std::string> failures;  ///< failed checks
  std::optional<Capture> capture;     ///< traced runs only
};

/// Run `plan`. `setup_started` is when the caller began building the plan,
/// so set-up time covers topology generation too. A traced run records
/// every step's span and captures the state at plan.peak_s; it does the
/// same simulated work as an untraced one.
[[nodiscard]] RunRecord run_plan(const Plan& plan, bool trace,
                                 Clock::time_point setup_started);

/// The latencies a run reports for `op`.
[[nodiscard]] const std::vector<double>& op_samples(const RunRecord& run, Op op);

/// Counter delta of `key` over the timed loop.
[[nodiscard]] double delta(const RunRecord& run, const std::string& key);

}  // namespace perfbench
