// The sharded domain's contract: partitioning routers across worker threads
// is an *execution* detail, never a *behavioral* one. A domain run with any
// shard count must produce bit-identical LSDBs, routing tables and protocol
// counters to the single-threaded run (shards = 1, which spawns no worker
// at all), for any seed, including fail/restore churn and controller
// injections landing mid-convergence. These tests pin that down, exercise
// the ShardPool engine directly, and prove the 1000-router scale target.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "igp/domain.hpp"
#include "igp/lsa.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"
#include "util/rng.hpp"
#include "util/shard_pool.hpp"

namespace fibbing::igp {
namespace {

using topo::LinkId;
using topo::NodeId;

net::Ipv4 fa_toward(const topo::Topology& t, NodeId from, NodeId to) {
  const LinkId l = t.link_between(from, to);
  return t.link(t.link(l).reverse).local_addr;
}

/// A link whose endpoints keep other adjacencies (failing it cannot
/// partition a connected remainder into silence on either endpoint).
LinkId redundant_link(const topo::Topology& t) {
  for (LinkId l = 0; l < t.link_count(); ++l) {
    if (t.out_links(t.link(l).from).size() >= 3 &&
        t.out_links(t.link(l).to).size() >= 3) {
      return l;
    }
  }
  return topo::kInvalidLink;
}

/// One finished run, kept alive so LSDBs can be compared in place.
struct ChurnRun {
  explicit ChurnRun(const topo::Topology& t, std::size_t shards)
      : events(std::make_unique<util::EventQueue>()),
        domain(std::make_unique<IgpDomain>(t, *events, IgpTiming{}, nullptr,
                                           shards)) {}
  std::unique_ptr<util::EventQueue> events;
  std::unique_ptr<IgpDomain> domain;
  std::uint64_t spf_runs = 0;
  proto::SessionCounters proto_counters;
  proto::ControllerSession::Counters southbound;
};

/// Drive one domain through the full churn script: boot, converge, inject a
/// lie and fail a link *while the lie's flooding is still in flight*,
/// converge, then restore the link and retract the lie mid-bring-up.
/// Every action is keyed on simulated time, so the script interleaves with
/// the protocol identically for every shard count by construction.
ChurnRun run_churn_script(const topo::Topology& t, std::size_t shards) {
  ChurnRun run(t, shards);
  util::EventQueue& events = *run.events;
  IgpDomain& domain = *run.domain;
  const net::Prefix pfx(net::Ipv4(203, 0, 113, 0), 24);

  domain.start();
  domain.run_to_convergence();

  ExternalLsa lie;
  lie.lie_id = 7;
  lie.prefix = pfx;
  lie.ext_metric = 3;
  lie.forwarding_address = fa_toward(t, t.link(0).from, t.link(0).to);
  domain.inject_external(2, lie);

  const LinkId flapped = redundant_link(t);
  EXPECT_NE(flapped, topo::kInvalidLink);
  events.run_until(events.now() + 0.004);  // the lie is mid-flood...
  domain.fail_link(flapped);               // ...when the link dies
  domain.run_to_convergence();

  domain.restore_link(flapped);
  events.run_until(events.now() + 0.003);  // mid-bring-up...
  EXPECT_TRUE(domain.withdraw_external(2, 7).ok());  // ...retract mid-churn
  domain.run_to_convergence();

  run.spf_runs = domain.total_spf_runs();
  run.proto_counters = domain.total_proto_counters();
  run.southbound = domain.controller_session(2).counters();
  return run;
}

TEST(ShardDeterminism, BitIdenticalToSingleThreadedAcrossSeedsAndShardCounts) {
  for (const std::uint64_t seed : {17u, 42u, 91u}) {
    util::Rng rng(seed);
    topo::Topology t = topo::make_waxman(60, rng, 0.25, 0.25, 10);
    t.attach_prefix(0, net::Prefix(net::Ipv4(203, 0, 113, 0), 24), 0);

    const ChurnRun ref = run_churn_script(t, 1);
    EXPECT_EQ(ref.domain->shard_count(), 1u);
    for (const std::size_t shards : {2u, 3u, 8u}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", " +
                   std::to_string(shards) + " shards");
      const ChurnRun got = run_churn_script(t, shards);
      // Same databases everywhere...
      for (NodeId n = 0; n < t.node_count(); ++n) {
        ASSERT_TRUE(ref.domain->router(n).lsdb().same_content(
            got.domain->router(n).lsdb()))
            << "router " << n;
      }
      // ...same routes...
      for (NodeId n = 0; n < t.node_count(); ++n) {
        ASSERT_EQ(ref.domain->table(n), got.domain->table(n)) << "router " << n;
      }
      // ...and the *same execution*: every control-plane message and SPF
      // run happened identically, not merely equivalently.
      EXPECT_EQ(ref.spf_runs, got.spf_runs);
      EXPECT_EQ(ref.proto_counters, got.proto_counters);
      EXPECT_EQ(ref.southbound, got.southbound);
    }
  }
}

/// One finished timer-driven-teardown run: a router crash and a one-way
/// loss fault, both discovered purely by liveness timers (DeadInterval /
/// 1-way Hello), never by fail_link. Everything compared afterwards --
/// including the order of detected liveness transitions -- must be
/// bit-identical across shard counts.
struct LivenessRun {
  explicit LivenessRun(const topo::Topology& t, std::size_t shards)
      : events(std::make_unique<util::EventQueue>()),
        domain(std::make_unique<IgpDomain>(t, *events, fast_liveness_timing(),
                                           nullptr, shards)) {}
  static IgpTiming fast_liveness_timing() {
    IgpTiming timing;
    timing.hello_interval_s = 0.5;
    timing.dead_interval_s = 2.0;
    return timing;
  }
  std::unique_ptr<util::EventQueue> events;
  std::unique_ptr<IgpDomain> domain;
  std::vector<std::pair<LinkId, bool>> transitions;
  std::uint64_t spf_runs = 0;
  proto::SessionCounters proto_counters;
};

LivenessRun run_liveness_script(const topo::Topology& t, std::size_t shards) {
  LivenessRun run(t, shards);
  IgpDomain& domain = *run.domain;
  domain.set_on_liveness_change([&run](LinkId link, bool down) {
    run.transitions.emplace_back(link, down);
  });
  domain.start();
  domain.run_to_convergence();

  // Crash one endpoint of a redundant link; a different redundant link
  // (disjoint from the victim) loses every packet one way.
  const LinkId crashed_near = redundant_link(t);
  EXPECT_NE(crashed_near, topo::kInvalidLink);
  const NodeId victim = t.link(crashed_near).from;
  LinkId lossy = topo::kInvalidLink;
  for (LinkId l = 0; l < t.link_count(); ++l) {
    if (t.link(l).from == victim || t.link(l).to == victim) continue;
    if (t.out_links(t.link(l).from).size() >= 3 &&
        t.out_links(t.link(l).to).size() >= 3) {
      lossy = l;
      break;
    }
  }
  EXPECT_NE(lossy, topo::kInvalidLink);

  domain.crash_router(victim);
  domain.set_link_loss(lossy, 1.0);
  run.events->run_until(run.events->now() + 3.5);  // past the dead interval
  domain.run_to_convergence();

  run.spf_runs = domain.total_spf_runs();
  run.proto_counters = domain.total_proto_counters();
  return run;
}

TEST(ShardDeterminism, TimerDrivenTeardownBitIdenticalAcrossShardCounts) {
  util::Rng rng(23);
  topo::Topology t = topo::make_waxman(60, rng, 0.25, 0.25, 10);

  const LivenessRun ref = run_liveness_script(t, 1);
  EXPECT_GE(ref.transitions.size(), 3u);  // >= 2 crash detections + 2 one-way
  for (const std::size_t shards : {2u, 3u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const LivenessRun got = run_liveness_script(t, shards);
    // The same liveness transitions, detected in the same order.
    ASSERT_EQ(ref.transitions, got.transitions);
    for (NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_TRUE(ref.domain->router(n).lsdb().same_content(
          got.domain->router(n).lsdb()))
          << "router " << n;
      ASSERT_EQ(ref.domain->table(n), got.domain->table(n)) << "router " << n;
    }
    EXPECT_EQ(ref.spf_runs, got.spf_runs);
    EXPECT_EQ(ref.proto_counters, got.proto_counters);
  }
}

TEST(ShardDeterminism, ThousandRouterWaxmanConvergesSharded) {
  util::Rng rng(7);
  // alpha 0.04 keeps the mean degree ~9: comfortably connected (the
  // generator retries otherwise) while holding the serial flood volume --
  // and thereby the single-core worst-case runtime -- inside the 600s
  // ctest budget.
  topo::Topology t = topo::make_waxman(1000, rng, 0.04, 0.25, 10);
  t.attach_prefix(0, net::Prefix(net::Ipv4(203, 0, 113, 0), 24), 0);

  util::EventQueue events;
  IgpDomain domain(t, events, IgpTiming{}, nullptr, 8);
  EXPECT_EQ(domain.shard_count(), 8u);
  domain.start();
  domain.run_to_convergence();
  ASSERT_TRUE(domain.converged());

  // Every router holds the full database (1000 Router-LSAs + the prefix
  // owner's) and the flooding actually crossed shard boundaries.
  for (NodeId n = 0; n < t.node_count(); n += 97) {
    ASSERT_TRUE(domain.router(0).lsdb().same_content(domain.router(n).lsdb()))
        << "router " << n;
    ASSERT_EQ(domain.router(n).lsdb().size(), t.node_count());
  }
  const util::ShardPool::Stats stats = domain.shard_stats();
  EXPECT_GT(stats.rounds, 0u);
  EXPECT_GT(stats.cross_shard_messages, 0u);
  EXPECT_GT(stats.events_run, t.node_count());
}

// ------------------------------------------------------------- ShardPool

TEST(ShardPool, SingleShardSpawnsNoWorkersAndRunsInOrder) {
  util::ShardPool pool(1, 4);
  EXPECT_EQ(pool.shard_count(), 1u);
  std::vector<int> fired;
  // Scheduled out of order, and with equal timestamps ordered by origin.
  pool.schedule(3, 3, 2.0, [&] { fired.push_back(32); });
  pool.schedule(1, 1, 1.0, [&] { fired.push_back(11); });
  pool.schedule(0, 0, 2.0, [&] { fired.push_back(2); });
  pool.schedule(2, 2, 1.0, [&] { fired.push_back(21); });
  while (pool.has_pending()) pool.run_round();
  EXPECT_EQ(fired, (std::vector<int>{11, 21, 2, 32}));
  EXPECT_EQ(pool.now(), 2.0);
  EXPECT_EQ(pool.stats().cross_shard_messages, 0u);
}

TEST(ShardPool, ShardCountClampsToActorCount) {
  util::ShardPool pool(64, 3);
  EXPECT_EQ(pool.shard_count(), 3u);
  EXPECT_EQ(pool.shard_of(0), 0u);
  EXPECT_EQ(pool.shard_of(2), 2u);
}

TEST(ShardPool, DriverEventsSortAfterActorsAtOneInstant) {
  util::ShardPool pool(1, 4);
  std::vector<int> fired;
  pool.schedule(util::ShardPool::kDriverActor, 1, 1.0, [&] { fired.push_back(-1); });
  pool.schedule(3, 3, 1.0, [&] { fired.push_back(3); });
  pool.schedule(0, 0, 1.0, [&] { fired.push_back(0); });
  while (pool.has_pending()) pool.run_round();
  // At one instant, ordering is by origin -- and the driver sorts last.
  EXPECT_EQ(fired, (std::vector<int>{0, 3, -1}));
}

TEST(ShardPool, CancelPreventsExecution) {
  util::ShardPool pool(1, 2);
  bool ran = false;
  const util::EventHandle h = pool.schedule(0, 0, 1.0, [&] { ran = true; });
  pool.schedule(1, 1, 1.0, [] {});
  EXPECT_TRUE(pool.cancel(0, h));
  EXPECT_FALSE(pool.cancel(0, h));  // second cancel is a no-op
  while (pool.has_pending()) pool.run_round();
  EXPECT_FALSE(ran);
}

TEST(ShardPool, ActorSchedulerRoundTripsThroughTheSchedulerInterface) {
  util::ShardPool pool(2, 8);
  util::Scheduler& sched = pool.actor_scheduler(5);
  EXPECT_EQ(sched.now(), 0.0);
  bool ran = false;
  sched.schedule_in(0.5, [&] { ran = true; });
  const util::EventHandle h = sched.schedule_in(1.0, [] {});
  EXPECT_TRUE(sched.cancel(h));
  while (pool.has_pending()) pool.run_round();
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.now(), 0.5);
}

TEST(ShardPool, AdvanceToRaisesClockWhileIdle) {
  util::ShardPool pool(1, 1);
  pool.advance_to(3.0);
  EXPECT_EQ(pool.now(), 3.0);
  pool.advance_to(1.0);  // never backwards
  EXPECT_EQ(pool.now(), 3.0);
  bool ran = false;
  pool.schedule(0, 0, 3.5, [&] { ran = true; });
  pool.run_round();
  EXPECT_TRUE(ran);
  EXPECT_EQ(pool.now(), 3.5);
}

TEST(ShardPool, EventsAcrossShardsAtOneInstantAllRunInOneRound) {
  util::ShardPool pool(4, 8);
  std::atomic<int> count{0};
  for (std::uint32_t a = 0; a < 8; ++a) {
    pool.schedule(a, a, 1.0, [&] { count.fetch_add(1); });
  }
  EXPECT_EQ(pool.run_round(), 8u);
  EXPECT_EQ(count.load(), 8);
  EXPECT_FALSE(pool.has_pending());
  EXPECT_EQ(pool.stats().rounds, 1u);
}

TEST(ShardPool, DeferredCallbacksRunAfterTheRoundInActorOrder) {
  constexpr std::uint32_t kActors = 16;
  const std::thread::id driver = std::this_thread::get_id();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    util::ShardPool pool(shards, kActors);
    std::atomic<std::uint32_t> events_run{0};
    std::vector<std::pair<std::uint32_t, int>> ran;  // (actor, deferral)
    bool early = false;
    bool off_driver = false;
    const auto defer = [&](std::uint32_t a, int k) {
      pool.actor_scheduler(a).defer([&, a, k] {
        early |= events_run.load() != 2 * kActors;
        off_driver |= std::this_thread::get_id() != driver;
        ran.emplace_back(a, k);
      });
    };
    for (std::uint32_t a = 0; a < kActors; ++a) {
      // Origins descend as targets ascend, so every shard runs its actors
      // in descending order; each actor's second deferral comes from a
      // self event at the same instant.
      pool.schedule(kActors - 1 - a, a, 1.0, [&, a] {
        defer(a, 0);
        pool.actor_scheduler(a).schedule_in(0.0, [&, a] {
          defer(a, 1);
          events_run.fetch_add(1);
        });
        events_run.fetch_add(1);
      });
    }
    EXPECT_EQ(pool.run_round(), 2 * kActors);
    EXPECT_FALSE(pool.has_pending());
    EXPECT_FALSE(early);
    EXPECT_FALSE(off_driver);
    std::vector<std::pair<std::uint32_t, int>> expected;
    for (std::uint32_t a = 0; a < kActors; ++a) {
      expected.emplace_back(a, 0);
      expected.emplace_back(a, 1);
    }
    EXPECT_EQ(ran, expected);
  }
}

}  // namespace
}  // namespace fibbing::igp
