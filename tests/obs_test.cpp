// The observability layer: the control-loop trace recorder (span nesting,
// lie-id threading, stage offsets, disabled no-op), the per-component
// log level overrides, and -- through the full service -- the telemetry
// snapshot (its key set and trace histogram expansion), the end-to-end
// mitigation trace chain plus its bit-identity across shard counts (the
// ShardDeterminism contract extended to telemetry).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "support/scenario.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace fibbing {
namespace {

// ------------------------------------------------------ the trace recorder

TEST(TraceRecorderTest, DisabledRecorderIsANoOp) {
  obs::TraceRecorder rec;  // disabled by default
  EXPECT_FALSE(rec.enabled());
  FIB_EVENT(&rec, 1.0, 1, obs::Stage::kTrigger, obs::kControllerNode, 0);
  { FIB_SPAN(&rec, 1.0, 1, obs::Stage::kSolve, obs::kControllerNode, 0); }
  FIB_EVENT(static_cast<obs::TraceRecorder*>(nullptr), 1.0, 1,
            obs::Stage::kTrigger, obs::kControllerNode, 0);
  EXPECT_TRUE(rec.events().empty());
  EXPECT_EQ(rec.canonical_dump(), "");
}

TEST(TraceRecorderTest, SpansNestWithSymmetricDepths) {
  obs::TraceRecorder rec(/*enabled=*/true);
  const std::uint64_t trace = rec.next_trace_id();
  EXPECT_EQ(trace, 1u);
  {
    FIB_SPAN(&rec, 2.0, trace, obs::Stage::kTrigger, obs::kControllerNode, 0);
    {
      FIB_SPAN(&rec, 2.0, trace, obs::Stage::kSolve, obs::kControllerNode, 1);
    }
    FIB_EVENT(&rec, 2.5, trace, obs::Stage::kInject, 4, 7);
  }
  const auto& ev = rec.events();
  ASSERT_EQ(ev.size(), 5u);
  EXPECT_EQ(ev[0].phase, 'B');  // trigger begin
  EXPECT_EQ(ev[0].depth, 0u);
  EXPECT_EQ(ev[1].phase, 'B');  // solve begin, nested
  EXPECT_EQ(ev[1].depth, 1u);
  EXPECT_EQ(ev[2].phase, 'E');  // solve end, same depth as its begin
  EXPECT_EQ(ev[2].depth, 1u);
  EXPECT_EQ(ev[3].phase, 'i');  // instant inside the outer span
  EXPECT_EQ(ev[3].stage, obs::Stage::kInject);
  EXPECT_EQ(ev[4].phase, 'E');  // trigger end
  EXPECT_EQ(ev[4].depth, 0u);
  for (const obs::TraceEvent& e : ev) EXPECT_EQ(e.trace_id, trace);
}

TEST(TraceRecorderTest, LieBindingThreadsTraceIds) {
  obs::TraceRecorder rec(/*enabled=*/true);
  const std::uint64_t t1 = rec.next_trace_id();
  const std::uint64_t t2 = rec.next_trace_id();
  rec.bind_lie(101, t1);
  rec.bind_lie(102, t2);
  EXPECT_EQ(rec.trace_for_lie(101), t1);
  EXPECT_EQ(rec.trace_for_lie(102), t2);
  EXPECT_EQ(rec.trace_for_lie(999), 0u);  // unbound
  rec.bind_lie(101, t2);  // re-binding follows the newest mitigation
  EXPECT_EQ(rec.trace_for_lie(101), t2);
}

TEST(TraceRecorderTest, StageOffsetsMeasureFromTheTraceRoot) {
  obs::TraceRecorder rec(/*enabled=*/true);
  const std::uint64_t trace = rec.next_trace_id();
  rec.emit(10.0, trace, obs::Stage::kMonitor, 'i', obs::kControllerNode, 0);
  rec.emit(10.5, trace, obs::Stage::kInject, 'i', 4, 7);
  rec.emit(11.0, trace, obs::Stage::kTableFlip, 'i', 2, 7);
  const auto offsets = rec.stage_offsets();
  ASSERT_EQ(offsets.at("monitor_s").size(), 1u);
  EXPECT_DOUBLE_EQ(offsets.at("monitor_s")[0], 0.0);
  EXPECT_DOUBLE_EQ(offsets.at("inject_s")[0], 0.5);
  EXPECT_DOUBLE_EQ(offsets.at("table_flip_s")[0], 1.0);
  EXPECT_DOUBLE_EQ(offsets.at("end_to_end_s")[0], 1.0);
}

// ------------------------------------------------------------- log levels

TEST(Logging, PerComponentOverrideShortCircuits) {
  const util::LogLevel saved = util::log_level();
  util::set_log_level(util::LogLevel::kWarn);
  EXPECT_FALSE(util::log_enabled(util::LogLevel::kDebug, "controller"));
  util::set_log_level("controller", util::LogLevel::kDebug);
  EXPECT_TRUE(util::log_enabled(util::LogLevel::kDebug, "controller"));
  EXPECT_FALSE(util::log_enabled(util::LogLevel::kDebug, "igp"));
  // An override can also silence one component below the global threshold.
  util::set_log_level("igp", util::LogLevel::kOff);
  EXPECT_FALSE(util::log_enabled(util::LogLevel::kError, "igp"));
  util::clear_log_level("controller");
  util::clear_log_level("igp");
  EXPECT_FALSE(util::log_enabled(util::LogLevel::kDebug, "controller"));
  EXPECT_TRUE(util::log_enabled(util::LogLevel::kError, "igp"));
  util::set_log_level(saved);
}

// ------------------------------------------- the end-to-end mitigation trace

core::ServiceConfig traced_config(std::size_t shards) {
  // Reactive (SNMP-only) detection so the chain starts at a monitor sample.
  core::ServiceConfig config = support::demo_config(true, /*proactive=*/false);
  config.tracing = true;
  config.igp_shards = shards;
  return config;
}

/// The tracer is the one sample store: telemetry expands each stage's
/// offsets into _count/_p50/_p99/_max keys. Every other key is a component
/// counter read by the telemetry table, and the set of those is pinned
/// exactly, so a dropped or renamed key fails here.
TEST(MetricsRegistry, HistogramExpandsToPercentileKeys) {
  support::PaperScenario scenario(traced_config(1));
  scenario.schedule_fig2();
  scenario.run_until(45.0);
  const auto offsets = scenario.service.tracer().stage_offsets();
  ASSERT_TRUE(offsets.contains("end_to_end_s"));
  const auto telemetry = scenario.service.telemetry_snapshot();
  std::set<std::string> trace_keys;
  for (const auto& [key, samples] : offsets) {
    const std::string name = "trace.reaction." + key;
    EXPECT_DOUBLE_EQ(telemetry.at(name + "_count"), double(samples.size())) << key;
    EXPECT_DOUBLE_EQ(telemetry.at(name + "_p50"), util::percentile(samples, 50.0));
    EXPECT_DOUBLE_EQ(telemetry.at(name + "_p99"), util::percentile(samples, 99.0));
    EXPECT_DOUBLE_EQ(telemetry.at(name + "_max"),
                     *std::max_element(samples.begin(), samples.end()));
    for (const char* suffix : {"_count", "_p50", "_p99", "_max"}) {
      trace_keys.insert(name + suffix);
    }
  }
  std::set<std::string> counter_keys;
  for (const auto& [key, value] : telemetry) {
    if (key.rfind("trace.", 0) == 0) {
      EXPECT_TRUE(trace_keys.contains(key)) << key;
    } else {
      counter_keys.insert(key);
    }
  }
  const std::set<std::string> expected = {
      "cache.spf_batched", "cache.spf_full", "cache.spf_incremental",
      "cache.table_builds", "cache.table_hits", "controller.active_lies",
      "controller.mitigations", "controller.placement_solves",
      "controller.relaxed_placements", "controller.retractions",
      "controller.topology_events", "dataplane.blackholed_flows", "dataplane.flow_walks",
      "dataplane.flows", "dataplane.looping_flows", "dataplane.max_min_solves",
      "dataplane.rate_solves",
      "igp.lsas_sent", "igp.spf_incremental_runs", "igp.spf_origins_read", "igp.spf_runs",
      "poller.polls", "proto.bytes_sent", "proto.hellos_sent", "proto.lsas_sent",
      "proto.lsus_sent", "proto.packets_sent", "proto.retransmissions",
      "shard.cross_shard_messages", "shard.events_run", "shard.rounds",
      "southbound.acks_received", "southbound.alias_rejections", "southbound.lsas_sent",
      "southbound.lsus_sent", "southbound.packets_sent", "southbound.reflushes",
  };
  EXPECT_EQ(expected.size(), 37u);
  EXPECT_EQ(counter_keys, expected);
  // igp.lsas_sent is the domain's flooding volume, the same aggregate as
  // proto.lsas_sent.
  EXPECT_DOUBLE_EQ(telemetry.at("igp.lsas_sent"), telemetry.at("proto.lsas_sent"));
}

TEST(TraceChain, Fig2SurgeCoversEveryStage) {
  support::PaperScenario scenario(traced_config(1));
  scenario.schedule_fig2();
  scenario.run_until(30.0);  // the t=15 surge has been detected and mitigated

  ASSERT_GT(scenario.service.controller().mitigations(), 0);
  std::set<obs::Stage> stages;
  std::set<std::uint64_t> traces;
  for (const obs::TraceEvent& e : scenario.service.tracer().events()) {
    if (e.trace_id == 0) continue;
    stages.insert(e.stage);
    traces.insert(e.trace_id);
  }
  ASSERT_FALSE(traces.empty());
  for (const obs::Stage s :
       {obs::Stage::kMonitor, obs::Stage::kTrigger, obs::Stage::kSolve,
        obs::Stage::kCompile, obs::Stage::kVerify, obs::Stage::kInject,
        obs::Stage::kLsaInstall, obs::Stage::kSpf, obs::Stage::kTableFlip}) {
    EXPECT_TRUE(stages.count(s)) << "missing stage " << obs::to_string(s);
  }

  // The trace-derived reaction histograms ride the telemetry snapshot, and
  // the whole loop closes in well under the paper's seconds-scale budget.
  const auto telemetry = scenario.service.telemetry_snapshot();
  ASSERT_GE(telemetry.at("trace.reaction.end_to_end_s_count"), 1.0);
  EXPECT_GT(telemetry.at("trace.reaction.end_to_end_s_max"), 0.0);
  EXPECT_LT(telemetry.at("trace.reaction.end_to_end_s_max"), 5.0);
  EXPECT_GE(telemetry.at("controller.mitigations"), 1.0);
}

/// The shard bit-identity contract extended to telemetry: the canonical
/// trace stream and the metrics snapshot are pure functions of the scenario,
/// independent of how many IGP shards executed it.
/// (shard.* keys are excluded from the snapshot comparison: cross-shard
/// message counts genuinely depend on the partition.)
TEST(TraceChain, TraceAndTelemetryBitIdenticalAcrossShardAndWorkerCounts) {
  struct Run {
    std::string dump;
    std::map<std::string, double> telemetry;
  };
  const auto run = [](std::size_t shards) {
    support::PaperScenario scenario(traced_config(shards));
    scenario.schedule_fig2();
    scenario.run_until(45.0);  // both surges: multiple overlapping traces
    Run out;
    out.dump = scenario.service.tracer().canonical_dump();
    out.telemetry = scenario.service.telemetry_snapshot();
    for (auto it = out.telemetry.begin(); it != out.telemetry.end();) {
      it = it->first.rfind("shard.", 0) == 0 ? out.telemetry.erase(it) : ++it;
    }
    return out;
  };

  const Run ref = run(1);
  EXPECT_FALSE(ref.dump.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    const Run got = run(shards);
    EXPECT_EQ(ref.dump, got.dump);
    EXPECT_EQ(ref.telemetry, got.telemetry);
  }
}

}  // namespace
}  // namespace fibbing
