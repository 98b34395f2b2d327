#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/event_queue.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/strings.hpp"
#include "util/timeseries.hpp"

namespace fibbing::util {
namespace {

// ---------------------------------------------------------------- EventQueue

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.defer([&] { order.push_back(0); });  // the driving thread: runs at once
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, EqualTimesFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] {
    ++fired;
    q.schedule_in(1.0, [&] { ++fired; });
  });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventHandle h = q.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));  // second cancel is a no-op
  q.run();
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, CancelAfterFireIsNoop) {
  EventQueue q;
  const EventHandle h = q.schedule_at(1.0, [] {});
  q.run();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, RunUntilStopsAtHorizon) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.5);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunUntilSkipsCancelledTopWithoutPassingHorizon) {
  // A cancelled item at the top of the heap must not let run_until step
  // over it to a live event past the horizon.
  EventQueue q;
  int fired = 0;
  const EventHandle h = q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.cancel(h);
  q.run_until(2.0);
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 5.0);
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  const EventHandle h = q.schedule_at(1.0, [] {});
  q.schedule_at(2.0, [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(h);
  EXPECT_EQ(q.pending(), 1u);
}

// ----------------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 10);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 10);
  }
}

TEST(Rng, ForkedStreamsDiffer) {
  Rng parent(1);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.uniform_int(0, 1'000'000) == child.uniform_int(0, 1'000'000)) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, ExponentialHasRoughlyCorrectMean) {
  Rng rng(3);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// --------------------------------------------------------------------- Stats

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Ewma, FirstSamplePrimes) {
  Ewma e(0.5);
  EXPECT_FALSE(e.primed());
  e.add(10.0);
  EXPECT_TRUE(e.primed());
  EXPECT_DOUBLE_EQ(e.value(), 10.0);
  e.add(20.0);
  EXPECT_DOUBLE_EQ(e.value(), 15.0);
}

TEST(Ewma, ConvergesTowardConstantInput) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.add(42.0);
  EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile(v, 62.5), 3.5);
}

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99), 7.0);
}

// ---------------------------------------------------------------- TimeSeries

TEST(TimeSeries, StepInterpolation) {
  TimeSeries ts("x");
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  EXPECT_DOUBLE_EQ(ts.at(0.5), 0.0);   // before first sample
  EXPECT_DOUBLE_EQ(ts.at(1.0), 10.0);  // exact hit
  EXPECT_DOUBLE_EQ(ts.at(1.5), 10.0);  // step holds
  EXPECT_DOUBLE_EQ(ts.at(3.0), 20.0);  // holds past the end
}

TEST(TimeSeries, WindowAggregates) {
  TimeSeries ts("x");
  for (int i = 0; i <= 10; ++i) ts.add(i, i * 1.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(0, 10), 5.0);
  EXPECT_DOUBLE_EQ(ts.max_over(3, 7), 7.0);
  EXPECT_DOUBLE_EQ(ts.max_over(20, 30), 0.0);
}

TEST(AsciiChart, RendersLegendAndGrid) {
  TimeSeries ts("load");
  ts.add(0.0, 1.0);
  ts.add(5.0, 2.0);
  const std::string chart = ascii_chart({&ts}, 0.0, 10.0, 20, 5);
  EXPECT_NE(chart.find("load"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

// ------------------------------------------------------------------- Strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto parts = split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, TrimBothEnds) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Strings, ParseUintRejectsGarbage) {
  EXPECT_EQ(parse_uint_or("123", -1), 123);
  EXPECT_EQ(parse_uint_or("12x", -1), -1);
  EXPECT_EQ(parse_uint_or("", -1), -1);
  EXPECT_EQ(parse_uint_or("-5", -1), -1);
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

// -------------------------------------------------------------------- Result

TEST(Result, SuccessHoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(Result, FailureHoldsError) {
  const auto r = Result<int>::failure("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), "nope");
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  const auto f = Status::failure("bad");
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.error(), "bad");
}

}  // namespace
}  // namespace fibbing::util
