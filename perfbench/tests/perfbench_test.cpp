// Tests for the benchmark's own logic: the percentile rule, the step
// classifier (pure, and on a small hand-built run whose classes are known),
// the ratio arithmetic and the workload plans.
//
//   cmake --build .bench_build --target perfbench_test && .bench_build/perfbench_test

#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "measure.hpp"
#include "runner.hpp"
#include "topo/generators.hpp"
#include "util/logging.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

int g_failed = 0;

#define CHECK(cond)                                                          \
  do {                                                                       \
    if (!(cond)) {                                                           \
      std::fprintf(stderr, "%s:%d: CHECK(%s) failed\n", __FILE__, __LINE__, #cond); \
      ++g_failed;                                                            \
    }                                                                        \
  } while (0)

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

bool near(std::optional<double> v, double want) {
  return v.has_value() && std::abs(*v - want) < 1e-9;
}

void percentile_needs_ten_samples_beyond() {
  // Values interpolate between order statistics, as util::percentile does.
  CHECK(near(percentile(one_to(100), 0.9), 90.1));  // 10 samples beyond the 90th
  CHECK(!percentile(one_to(99), 0.9));              // 9 beyond
  CHECK(near(percentile(one_to(20), 0.5), 10.5));
  CHECK(!percentile(one_to(19), 0.5));
  CHECK(!percentile({}, 0.5));
  CHECK(min_samples_for(0.9) == 100);
  CHECK(min_samples_for(0.5) == 20);
  CHECK(near(percentile(one_to(104), 0.9), 93.7));  // churn's 104 link events
}

void median_and_ratios() {
  CHECK(median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(median({}) == 0.0);
  CHECK(ratio(3.0, 2.0) == 1.5);
  CHECK(ratio(3.0, 0.0) == 0.0);
  CHECK(std::abs(overhead_frac(1.1, 1.0) - 0.1) < 1e-12);
  CHECK(std::abs(overhead_frac(0.95, 1.0) + 0.05) < 1e-12);
}

void classifier_priority() {
  const Probe idle{};
  Probe decided = idle;
  decided.retractions = 1;
  Probe round = idle;
  round.igp_rounds = 1;
  Probe polled = idle;
  polled.polls = 1;
  Probe all = decided;
  all.igp_rounds = 1;
  all.polls = 1;
  CHECK(classify(idle, idle, {}) == StepClass::kOther);
  CHECK(classify(idle, decided, {true, true}) == StepClass::kDecision);
  CHECK(classify(idle, all, {}) == StepClass::kDecision);
  CHECK(classify(idle, round, {true, false}) == StepClass::kSession);
  CHECK(classify(idle, round, {false, true}) == StepClass::kLinkEvent);
  CHECK(classify(idle, round, {true, true}) == StepClass::kSession);
  CHECK(classify(idle, round, {}) == StepClass::kIgpRound);
  CHECK(classify(idle, polled, {}) == StepClass::kPoll);
  Probe round_and_poll = round;
  round_and_poll.polls = 1;
  CHECK(classify(idle, round_and_poll, {}) == StepClass::kIgpRound);
  Probe placed = idle;
  placed.placement_solves = 2;
  CHECK(classify(idle, placed, {}) == StepClass::kDecision);
}

/// The paper's network: 31 viewers of P1 (served from B) join at t = 2 s,
/// which the controller must place; they leave at t = 10 s, so the lies
/// retract; then A-R1 fails and is restored with no demand left.
Plan hand_built_plan() {
  const fibbing::topo::PaperTopology p = fibbing::topo::make_paper_topology();
  Plan plan;
  plan.topo = p.topo;
  plan.config.controller.high_watermark = 0.7;
  plan.config.controller.low_watermark = 0.4;
  plan.config.controller.session_router = p.r3;
  plan.servers = {p.b};
  plan.prefixes = {p.p1};
  plan.asset = {1e6, 1e6};
  for (int i = 0; i < 31; ++i) {
    plan.sessions.push_back({0, 0, 2.0 + 0.01 * i, 10.0 + 0.01 * i});
  }
  plan.link_events = {{20.0, p.a, p.r1, true}, {25.0, p.a, p.r1, false}};
  plan.warm_s = 1.0;
  plan.peak_s = 5.0;
  plan.horizon_s = 30.0;
  return plan;
}

void classifier_on_a_hand_built_run() {
  const Plan plan = hand_built_plan();
  const RunRecord run = run_plan(plan, true, Clock::now());
  const auto steps = [&](StepClass c) {
    return run.work.steps[static_cast<std::size_t>(c)];
  };
  CHECK(run.failures.empty());
  CHECK(run.sessions == 31 && run.stalled == 0);
  // The controller defers its evaluation to a step of its own, so a session
  // step never decides: exactly one session step per start and stop.
  CHECK(steps(StepClass::kSession) == 62);
  CHECK(run.session_ms.size() == 62);
  // No demand is left when the link fails, so neither link step re-plans.
  CHECK(steps(StepClass::kLinkEvent) == 2);
  CHECK(run.reconverge_ms.size() == 2);
  // Rounds run in the domain's own pump events, one round per step.
  const auto rounds = static_cast<std::uint64_t>(delta(run, "shard.rounds"));
  CHECK(steps(StepClass::kIgpRound) == rounds);
  const double polls = delta(run, "poller.polls");
  CHECK(steps(StepClass::kPoll) <= polls);
  CHECK(steps(StepClass::kPoll) + steps(StepClass::kDecision) >= polls);
  // The crowd is placed and retracted: decisions happened, each one moving
  // at least one controller counter.
  const double mitigations = delta(run, "controller.mitigations");
  const double retractions = delta(run, "controller.retractions");
  const double solves = delta(run, "controller.placement_solves");
  const double moved = mitigations + retractions + solves;
  CHECK(mitigations >= 1 && retractions >= 1);
  CHECK(steps(StepClass::kDecision) >= 2 && steps(StepClass::kDecision) <= moved);
  CHECK(!run.place_ms.empty() && run.place_ms.size() < run.decide_ms.size());
  std::uint64_t total = 0;
  for (const std::uint64_t n : run.work.steps) total += n;
  CHECK(total == run.spans.size());
  CHECK(run.capture.has_value() && !run.capture->lies.empty());
}

void traced_and_untraced_runs_do_the_same_work() {
  const Plan plan = hand_built_plan();
  const RunRecord untraced = run_plan(plan, false, Clock::now());
  const RunRecord traced = run_plan(plan, true, Clock::now());
  CHECK(untraced.work == traced.work);
  CHECK(untraced.spans.empty() && !untraced.capture);
}

/// A seed gives the same inputs every time, and surge times every crowd
/// pair equally often on every seed.
void plans_repeat_and_surge_times_every_pair_equally() {
  for (const std::string& w : workload_names()) {
    CHECK(describe(make_plan(w, 7)) == describe(make_plan(w, 7)));
    CHECK(describe(make_plan(w, 7)) != describe(make_plan(w, 8)));
  }
  for (const std::uint64_t seed : {1, 2}) {
    const Plan plan = make_plan("surge", seed);
    std::map<std::pair<std::size_t, std::size_t>, int> timed;
    for (std::size_t j = 13; j < plan.crowds.size(); ++j) {
      ++timed[{plan.crowds[j].server, plan.crowds[j].prefix}];
    }
    CHECK(timed.size() == 13);
    for (const auto& [pair, n] : timed) CHECK(n == 8);
  }
}

}  // namespace

int main() {
  fibbing::util::set_log_level(fibbing::util::LogLevel::kError);
  percentile_needs_ten_samples_beyond();
  median_and_ratios();
  classifier_priority();
  classifier_on_a_hand_built_run();
  traced_and_untraced_runs_do_the_same_work();
  plans_repeat_and_surge_times_every_pair_equally();
  std::printf("perfbench_test: %s (%d failed checks)\n", g_failed == 0 ? "ok" : "FAILED",
              g_failed);
  return g_failed == 0 ? 0 : 1;
}
