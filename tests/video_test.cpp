#include <gtest/gtest.h>

#include "support/scenario.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "video/client.hpp"
#include "video/flash_crowd.hpp"
#include "video/system.hpp"

namespace fibbing::video {
namespace {

using support::PaperVideoHarness;
using topo::make_paper_topology;
using topo::PaperTopology;

// ------------------------------------------------------------- VideoClient

TEST(VideoClient, StartupDelayAtLineRate) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 60.0}, /*startup=*/2.0);
  client.on_rate_change(1e6);  // exactly the bitrate: fills 1 s/s pre-play
  events.run_until(10.0);
  const Qoe q = client.qoe();
  EXPECT_NEAR(q.startup_delay_s, 2.0, 1e-9);
  EXPECT_EQ(q.stall_count, 0);
  EXPECT_NEAR(q.played_s, 8.0, 1e-9);
}

TEST(VideoClient, FasterDeliveryShortensStartup) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 60.0}, 2.0);
  client.on_rate_change(4e6);  // 4x bitrate
  events.run_until(1.0);
  EXPECT_NEAR(client.qoe().startup_delay_s, 0.5, 1e-9);
}

TEST(VideoClient, ZeroRateNeverStarts) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 60.0});
  client.on_rate_change(0.0);
  events.run_until(30.0);
  const Qoe q = client.qoe();
  EXPECT_NEAR(q.played_s, 0.0, 1e-9);
  EXPECT_EQ(q.stall_count, 0);  // never started, so no stall events
}

TEST(VideoClient, UnderRateStallsAndRebuffers) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 300.0}, 2.0, 2.0);
  client.on_rate_change(1e6);
  events.run_until(4.0);  // started at t=2, buffer steady at threshold
  // Rate halves: buffer drains at 0.5 s/s from 2 s -> stall at t=8.
  client.on_rate_change(0.5e6);
  events.run_until(7.9);
  EXPECT_EQ(client.qoe().stall_count, 0);
  events.run_until(8.1);
  EXPECT_EQ(client.qoe().stall_count, 1);
  // At 0.5 fill rate the 2 s resume threshold needs 4 s: resumes at t=12.
  events.run_until(12.1);
  const Qoe q = client.qoe();
  EXPECT_EQ(q.stall_count, 1);
  EXPECT_NEAR(q.stall_time_s, 4.0, 1e-6);
}

TEST(VideoClient, RecoveredRateStopsStalling) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 300.0}, 2.0, 2.0);
  client.on_rate_change(0.5e6);  // starved from the start
  events.run_until(4.0);         // startup threshold reached at t=4 (2s @ 0.5)
  client.on_rate_change(2e6);    // network heals
  events.run_until(30.0);
  const Qoe q = client.qoe();
  EXPECT_EQ(q.stall_count, 0);
  EXPECT_GT(q.played_s, 25.0);
}

TEST(VideoClient, FinishesAndReportsCompletion) {
  util::EventQueue events;
  bool finished = false;
  VideoClient client(events, VideoAsset{1e6, 10.0}, 2.0);
  client.set_on_finished([&] { finished = true; });
  client.on_rate_change(1e6);
  events.run_until(11.9);
  EXPECT_FALSE(finished);  // 2 s startup + 10 s playout = t=12
  events.run_until(12.1);
  EXPECT_TRUE(finished);
  EXPECT_TRUE(client.qoe().finished);
  EXPECT_NEAR(client.qoe().played_s, 10.0, 1e-9);
}

TEST(VideoClient, StallRatioReflectsStarvation) {
  util::EventQueue events;
  VideoClient client(events, VideoAsset{1e6, 300.0}, 2.0, 2.0);
  client.on_rate_change(0.5e6);  // permanently starved at half rate
  events.run_until(200.0);
  const Qoe q = client.qoe();
  // Long-run stall ratio approaches 1 - rate/bitrate = 0.5.
  EXPECT_NEAR(q.stall_ratio(), 0.5, 0.05);
  EXPECT_GE(q.stall_count, 2);
}

// ------------------------------------------------------------- VideoSystem

TEST(VideoSystem, SessionCreatesFlowAndNotice) {
  PaperVideoHarness fx;
  int notices = 0;
  topo::NodeId noticed_ingress = topo::kInvalidNode;
  fx.bus.subscribe([&](const monitor::DemandNotice& n) {
    notices += n.delta_sessions;
    noticed_ingress = n.ingress;
  });
  const SessionId id =
      fx.system.start_session(fx.s1, fx.p.p1, fx.p.p1.host(1), VideoAsset{1e6, 60.0});
  EXPECT_EQ(notices, 1);
  EXPECT_EQ(noticed_ingress, fx.p.b);
  EXPECT_EQ(fx.sim.flow_count(), 1u);
  EXPECT_EQ(fx.system.active_count(), 1u);
  // Uncongested network: the client streams at full rate and starts on time.
  fx.events.run_until(5.0);
  EXPECT_NEAR(fx.system.client(id).qoe().startup_delay_s, 2.0, 1e-9);
}

TEST(VideoSystem, FinishedSessionRemovesFlowAndPublishes) {
  PaperVideoHarness fx;
  int active = 0;
  fx.bus.subscribe([&](const monitor::DemandNotice& n) { active += n.delta_sessions; });
  fx.system.start_session(fx.s1, fx.p.p1, fx.p.p1.host(1), VideoAsset{1e6, 5.0});
  fx.events.run_until(30.0);
  EXPECT_EQ(active, 0);  // +1 then -1
  EXPECT_EQ(fx.sim.flow_count(), 0u);
  EXPECT_EQ(fx.system.active_count(), 0u);
}

TEST(VideoSystem, StopSessionAborts) {
  PaperVideoHarness fx;
  const SessionId id =
      fx.system.start_session(fx.s1, fx.p.p1, fx.p.p1.host(1), VideoAsset{1e6, 600.0});
  fx.events.run_until(3.0);
  fx.system.stop_session(id);
  EXPECT_EQ(fx.sim.flow_count(), 0u);
  EXPECT_EQ(fx.system.active_count(), 0u);
}

TEST(VideoSystem, StoppedSessionQoeFreezesAtStop) {
  // The viewer leaves 1 ms after its flow's link fails, with seconds of
  // content still buffered: the stopped client must not go on integrating
  // the dead rate into a stall.
  support::PaperScenario run(core::ServiceConfig{});
  VideoSystem& system = run.service.video();
  util::EventQueue& events = run.service.events();
  SessionId id = 0;
  Qoe at_stop;
  events.schedule_at(1.0, [&] {
    id = system.start_session(run.s1, run.p.p1, run.p.p1.host(1), VideoAsset{});
  });
  events.schedule_at(5.0, [&] { (void)run.service.fail_link(run.p.b, run.p.r2); });
  events.schedule_at(5.001, [&] {
    system.stop_session(id);
    at_stop = system.client(id).qoe();
  });
  run.run_until(20.0);
  const Qoe q = system.client(id).qoe();
  EXPECT_EQ(q.stall_count, 0);
  EXPECT_DOUBLE_EQ(q.stall_time_s, 0.0);
  EXPECT_FALSE(q.finished);
  EXPECT_GT(q.played_s, 0.0);
  EXPECT_DOUBLE_EQ(q.played_s, at_stop.played_s);
}

TEST(VideoSystem, CongestionStallsClientsWithoutController) {
  PaperVideoHarness fx;
  // 50 concurrent 1 Mb/s sessions through the 40 Mb/s B-R2 bottleneck:
  // everyone is squeezed to 0.8 Mb/s and stalls repeatedly.
  for (int i = 0; i < 50; ++i) {
    fx.system.start_session(fx.s1, fx.p.p1,
                            fx.p.p1.host(static_cast<std::uint32_t>(1 + i)),
                            VideoAsset{1e6, 120.0});
  }
  fx.events.run_until(60.0);
  const auto qoe = fx.system.all_qoe();
  int stalled = 0;
  for (const Qoe& q : qoe) {
    if (q.stall_count > 0) ++stalled;
  }
  EXPECT_EQ(stalled, 50);
}

// ------------------------------------------------------------- flash crowd

TEST(FlashCrowd, Fig2ScheduleShape) {
  const PaperTopology p = make_paper_topology();
  const auto batches = fig2_schedule(0, 1, p.p1, p.p2);
  ASSERT_EQ(batches.size(), 3u);
  EXPECT_DOUBLE_EQ(batches[0].time_s, 0.0);
  EXPECT_EQ(batches[0].count, 1);
  EXPECT_DOUBLE_EQ(batches[1].time_s, 15.0);
  EXPECT_EQ(batches[1].count, 30);
  EXPECT_DOUBLE_EQ(batches[2].time_s, 35.0);
  EXPECT_EQ(batches[2].count, 31);
  EXPECT_EQ(batches[2].server, 1u);
  EXPECT_EQ(batches[2].client_prefix, p.p2);
}

TEST(FlashCrowd, ScheduleRequestsStartsSessionsAtTimes) {
  PaperVideoHarness fx;
  const int total = schedule_requests(
      fx.system, fx.events, fig2_schedule(fx.s1, fx.s2, fx.p.p1, fx.p.p2));
  EXPECT_EQ(total, 62);
  fx.events.run_until(1.0);
  EXPECT_EQ(fx.system.active_count(), 1u);
  fx.events.run_until(20.0);
  EXPECT_EQ(fx.system.active_count(), 31u);
  fx.events.run_until(40.0);
  EXPECT_EQ(fx.system.active_count(), 62u);
}

TEST(FlashCrowd, PoissonCrowdIsDeterministicPerSeed) {
  const PaperTopology p = make_paper_topology();
  util::Rng rng1(7);
  util::Rng rng2(7);
  const auto a = poisson_crowd(rng1, 2.0, 0.0, 30.0, 0, p.p1, VideoAsset{});
  const auto b = poisson_crowd(rng2, 2.0, 0.0, 30.0, 0, p.p1, VideoAsset{});
  ASSERT_EQ(a.size(), b.size());
  // Rate 2/s over 30 s: about 60 arrivals.
  EXPECT_GT(a.size(), 35u);
  EXPECT_LT(a.size(), 90u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].time_s, b[i].time_s);
  }
}

}  // namespace
}  // namespace fibbing::video
