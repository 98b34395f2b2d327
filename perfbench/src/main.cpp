// fibbing_perf, the Fibbing benchmark. Runs one workload from a seed, checks the
// outputs, and prints every metric by name with its unit and sample count,
// then one JSON result line.
//
//   fibbing_perf --workload surge|viewers|churn --seed N --seconds S --trace 0|1
//
// Untraced (--trace 0): the end-to-end metrics. The workload is set up and
// run repeatedly, each time from scratch, until S seconds have passed (at
// least kMinRuns times); every metric is the median over those runs.
// Traced (--trace 1): the same runs plus one traced run of the same seed,
// and the per-layer metrics from it. All runs must do identical work.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/service.hpp"
#include "layers.hpp"
#include "measure.hpp"
#include "runner.hpp"
#include "topo/generators.hpp"
#include "util/logging.hpp"
#include "video/flash_crowd.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace fib = fibbing;

// At least kMinRuns runs make a median; at most kMaxRuns keep a cheap
// workload from spending its whole budget on repeated set-ups.
constexpr std::size_t kMinRuns = 3;
constexpr std::size_t kMaxRuns = 25;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
};

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  int given = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      opt.trace = value == "1";
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
    ++given;
  }
  const auto& names = workload_names();
  if (given != 4 || argc != 9 || opt.seconds <= 0.0 ||
      std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return std::nullopt;
  }
  return opt;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                    &regs[4 * i + 3]) == 0) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  model.erase(model.find_last_not_of(' ') + 1);
  return model;
#else
  return "unknown";
#endif
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// The paper's Fig. 2 experiment, untimed: it must end with 2 mitigations,
/// 5 active lies, 62 sessions and no stall.
std::vector<std::string> check_fig2() {
  const fib::topo::PaperTopology p = fib::topo::make_paper_topology();
  fib::core::ServiceConfig config;
  config.controller.high_watermark = 0.7;
  config.controller.low_watermark = 0.4;
  config.controller.session_router = p.r3;
  fib::core::FibbingService service(p.topo, config);
  service.boot();
  const auto s1 = service.video().add_server({"S1", p.b, fib::net::Ipv4(198, 18, 1, 1)});
  const auto s2 = service.video().add_server({"S2", p.a, fib::net::Ipv4(198, 18, 2, 1)});
  fib::video::schedule_requests(service.video(), service.events(),
                                fib::video::fig2_schedule(s1, s2, p.p1, p.p2,
                                                          {1e6, 300.0}));
  bool done = false;
  service.events().schedule_at(60.0, [&done] { done = true; });
  while (!done && service.events().step()) {
  }
  int stalled = 0;
  const std::vector<fib::video::Qoe> qoe = service.video().all_qoe();
  for (const fib::video::Qoe& q : qoe) stalled += q.stall_count > 0 ? 1 : 0;
  const int mitigations = service.controller().mitigations();
  const std::size_t lies = service.controller().active_lie_count();
  if (mitigations == 2 && lies == 5 && qoe.size() == 62 && stalled == 0) return {};
  return {"fig2: " + std::to_string(mitigations) + " mitigations, " +
          std::to_string(lies) + " active lies, " + std::to_string(qoe.size()) +
          " sessions, " + std::to_string(stalled) + " stalled (expected 2, 5, 62, 0)"};
}

/// One printed metric. `key` names it in the JSON result; empty keeps it to
/// the human-readable lines.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
  std::string key;
};

/// Median over runs of each run's q-th percentile, with the per-run sample
/// count. No value when any run lacks the samples for it.
struct RunPercentile {
  std::optional<double> value;
  std::size_t samples = 0;
};
RunPercentile median_percentile(const std::vector<std::vector<double>>& per_run,
                                double q) {
  RunPercentile out;
  std::vector<double> values;
  for (const std::vector<double>& samples : per_run) {
    out.samples = samples.size();
    const std::optional<double> v = percentile(samples, q);
    if (!v) return out;
    values.push_back(*v);
  }
  out.value = median(values);
  return out;
}

const char* op_label(Op op) {
  switch (op) {
    case Op::kPlacement: return "place_ms";
    case Op::kSession: return "session_ms";
    case Op::kReconvergence: return "reconverge_ms";
  }
  return "op_ms";
}

const char* op_unit_name(Op op) {
  switch (op) {
    case Op::kPlacement: return "placements";
    case Op::kSession: return "session steps";
    case Op::kReconvergence: return "link events";
  }
  return "samples";
}

/// Percentile metrics of one kind of sample. A percentile without enough
/// samples beyond it is left out, and is a failed check when `required`.
void add_percentiles(std::vector<Metric>& out, std::vector<std::string>& failures,
                     const std::vector<std::vector<double>>& per_run,
                     const std::string& label, const std::string& what,
                     const std::string& json_prefix, bool required) {
  for (const auto& [q, suffix] : {std::pair{0.5, "_p50"}, std::pair{0.9, "_p90"}}) {
    const RunPercentile p = median_percentile(per_run, q);
    const std::string name = label + suffix;
    if (!p.value) {
      const std::string why = name + " needs " + std::to_string(min_samples_for(q)) +
                              " " + what + " per run; a run had " +
                              std::to_string(p.samples);
      if (required) failures.push_back(why);
      std::printf("# %s\n", why.c_str());
      continue;
    }
    const std::size_t beyond =
        p.samples - static_cast<std::size_t>(std::ceil(q * p.samples));
    out.push_back({name, *p.value, "ms",
                   "n=" + std::to_string(p.samples) + " " + what + " per run, " +
                       std::to_string(beyond) + " beyond; median of " +
                       std::to_string(per_run.size()) + " runs",
                   json_prefix.empty() ? "" : json_prefix + suffix});
  }
}

std::vector<Metric> end_to_end(const Plan& plan, const std::vector<RunRecord>& runs,
                               std::vector<std::string>& failures) {
  std::vector<double> setup;
  std::vector<double> run;
  std::vector<std::vector<double>> op_ms;
  std::vector<std::vector<double>> decide_ms;
  std::vector<std::vector<double>> session_ms;
  std::size_t sessions = 0;
  std::size_t stalled = 0;
  for (const RunRecord& r : runs) {
    setup.push_back(r.setup_s);
    run.push_back(r.run_s);
    op_ms.push_back(op_samples(r, plan.op));
    decide_ms.push_back(r.decide_ms);
    session_ms.push_back(r.session_ms);
    sessions += r.sessions;
    stalled += r.stalled;
  }
  const std::string of_runs = "median of " + std::to_string(runs.size()) + " runs";
  std::printf("# per run: setup_s");
  for (const double v : setup) std::printf(" %.4f", v);
  std::printf(" | run_s");
  for (const double v : run) std::printf(" %.4f", v);
  for (const auto& [q, name] : {std::pair{0.5, "p50"}, std::pair{0.9, "p90"}}) {
    std::printf(" | %s_%s", op_label(plan.op), name);
    for (const std::vector<double>& samples : op_ms) {
      std::printf(" %.4f", percentile(samples, q).value_or(0.0));
    }
  }
  std::printf("\n");
  std::vector<Metric> out{
      {"setup_s", median(setup), "s", of_runs + " (plan, boot, warm-up to t=" +
                                          std::to_string(plan.warm_s) + ")", "setup_s"},
      {"run_s", median(run), "s",
       of_runs + " (virtual t=" + std::to_string(plan.warm_s) + ".." +
           std::to_string(plan.horizon_s) + ")",
       "run_s"},
      {"rss_mb", peak_rss_mib(), "MiB", "peak resident set of the process", "rss_mb"},
      {"stall_frac", ratio(double(stalled), double(sessions)), "ratio",
       std::to_string(stalled) + " of " + std::to_string(sessions) + " sessions stalled",
       ""},
  };
  add_percentiles(out, failures, op_ms, op_label(plan.op), op_unit_name(plan.op), "op_ms",
                  true);
  if (plan.op == Op::kPlacement) {
    add_percentiles(out, failures, decide_ms, "decide_ms", "decisions", "", false);
    add_percentiles(out, failures, session_ms, "session_ms", "session steps", "", false);
  }
  return out;
}

std::vector<Metric> per_layer(const RunRecord& t, const std::vector<RunRecord>& untraced,
                              const LayerTimes& layers,
                              std::vector<std::string>& failures) {
  std::array<double, kStepClasses> busy{};
  std::vector<double> round_ms;
  for (const Span& span : t.spans) {
    busy[static_cast<std::size_t>(span.cls)] += span.seconds;
    if (span.cls == StepClass::kIgpRound) round_ms.push_back(span.seconds * 1e3);
  }
  const auto steps = [&](StepClass c) {
    return double(t.work.steps[static_cast<std::size_t>(c)]);
  };
  const auto busy_s = [&](StepClass c) { return busy[static_cast<std::size_t>(c)]; };
  const auto d = [&](const char* key) { return delta(t, key); };
  const auto at_end = [&](const char* key) {
    return t.after.count(key) != 0 ? t.after.at(key) : 0.0;
  };
  double total_steps = 0.0;
  for (const std::uint64_t n : t.work.steps) total_steps += double(n);
  std::vector<double> untraced_run;
  for (const RunRecord& r : untraced) untraced_run.push_back(r.run_s);
  const double decisions = steps(StepClass::kDecision);

  std::vector<Metric> out;
  const auto add = [&](const char* name, double value, const char* unit,
                       const char* note = "") {
    out.push_back({name, value, unit, note, name});
  };
  add("core.decisions", decisions, "count", "decision steps");
  add("core.decide_busy_s", busy_s(StepClass::kDecision), "s");
  add("core.mitigations", d("controller.mitigations"), "count");
  add("core.retractions", d("controller.retractions"), "count");
  add("core.placement_solves", d("controller.placement_solves"), "count");
  add("core.relaxed_placements", d("controller.relaxed_placements"), "count");
  add("core.topology_events", d("controller.topology_events"), "count");
  add("core.solves_per_decision",
      ratio(d("controller.placement_solves"), decisions), "ratio");
  add("core.compile_ms",
      layers.core_compile_ms, "ms", "direct compile_lies, hottest prefix");
  add("core.verify_ms", layers.core_verify_ms, "ms", "direct verify_augmentation");
  add("te.solve_ms", layers.te_solve_ms, "ms", "direct solve_min_max, hottest prefix");
  add("igp.round_busy_s", busy_s(StepClass::kIgpRound), "s");
  add("igp.spf_runs", d("igp.spf_runs"), "count");
  add("igp.spf_incremental_frac",
      ratio(d("igp.spf_incremental_runs"), d("igp.spf_runs")), "ratio");
  add("igp.lsas_sent", d("igp.lsas_sent"), "count");
  add("igp.routes_us", layers.igp_routes_us, "us", "direct compute_routes, per router");
  const double table_hits = d("cache.table_hits");
  add("igp.cache_hit_frac", ratio(table_hits, table_hits + d("cache.table_builds")),
      "ratio");
  add("igp.cache_spf_full", d("cache.spf_full"), "count");
  add("igp.cache_spf_incremental", d("cache.spf_incremental"), "count");
  add("igp.cache_spf_batched", d("cache.spf_batched"), "count");
  add("proto.packets_sent", d("proto.packets_sent"), "count");
  add("proto.bytes_sent", d("proto.bytes_sent"), "B");
  add("proto.retransmissions", d("proto.retransmissions"), "count");
  add("proto.lsas_per_lsu", ratio(d("proto.lsas_sent"), d("proto.lsus_sent")), "ratio");
  add("proto.codec_us",
      layers.proto_codec_us, "us", "direct encode+decode, whole-LSDB LS Update");
  add("proto.southbound_lsas_sent", d("southbound.lsas_sent"), "count");
  add("proto.southbound_reflushes", d("southbound.reflushes"), "count");
  add("proto.southbound_alias_rejections", d("southbound.alias_rejections"), "count");
  add("dataplane.session_busy_s", busy_s(StepClass::kSession), "s");
  add("dataplane.flows_peak", double(t.work.flows_peak), "count");
  add("dataplane.rates_us",
      layers.dataplane_rates_us, "us", "direct max_min_rates, peak flows");
  add("dataplane.walk_us", layers.dataplane_walk_us, "us", "direct walk_flow, per flow");
  add("dataplane.looping_flows",
      at_end("dataplane.looping_flows"), "count", "at the horizon");
  add("dataplane.blackholed_flows",
      at_end("dataplane.blackholed_flows"), "count", "at the horizon");
  add("monitor.polls", d("poller.polls"), "count");
  add("monitor.poll_busy_s", busy_s(StepClass::kPoll), "s");
  add("video.sessions", double(t.sessions), "count", "set-up included");
  add("video.stalled_sessions", double(t.stalled), "count");
  add("util.steps", total_steps, "count");
  add("util.other_busy_s", busy_s(StepClass::kOther), "s");
  add("util.shard_rounds", d("shard.rounds"), "count");
  add("obs.trace_overhead_frac", overhead_frac(t.run_s, median(untraced_run)), "ratio",
      "traced run_s / median untraced run_s - 1");
  // Idle workloads run too few rounds for percentiles, so these stay out of
  // the result line.
  add_percentiles(out, failures, {round_ms}, "igp.round_ms", "IGP rounds", "", false);
  return out;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    const std::string alias = m.key.empty() || m.key == m.name ? "" : " [" + m.key + "]";
    std::printf("%-34s %14.6g %-5s %s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.c_str(), alias.c_str());
  }
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const Metric& m : metrics) {
    if (m.key.empty()) continue;
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                m.key.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int run(const Options& opt) {
  fib::util::set_log_level(fib::util::LogLevel::kError);
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("# host nproc=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
              std::thread::hardware_concurrency(), cpu_model().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  std::vector<std::string> failures = check_fig2();
  std::vector<RunRecord> runs;
  std::optional<Plan> plan;
  const Clock::time_point started = Clock::now();
  while (runs.size() < kMinRuns ||
         (runs.size() < kMaxRuns &&
          std::chrono::duration<double>(Clock::now() - started).count() < opt.seconds)) {
    const Clock::time_point t0 = Clock::now();
    plan = make_plan(opt.workload, opt.seed);
    runs.push_back(run_plan(*plan, false, t0));
  }
  std::optional<RunRecord> traced;
  if (opt.trace) {
    const Clock::time_point t0 = Clock::now();
    traced = run_plan(*plan, true, t0);
  }

  std::vector<const RunRecord*> all;
  for (const RunRecord& r : runs) all.push_back(&r);
  if (traced) all.push_back(&*traced);
  std::size_t attempted = 0;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const RunRecord& r = *all[i];
    attempted += r.sessions;
    failed += r.stalled;
    for (const std::string& f : r.failures) {
      failures.push_back("run " + std::to_string(i) + ": " + f);
    }
    if (!(r.work == all[0]->work)) {
      failures.push_back("run " + std::to_string(i) + " did other work than run 0: " +
                         to_string(r.work) + " vs " + to_string(all[0]->work));
    }
  }
  std::printf("# plan: %s\n", describe(*plan).c_str());
  std::printf("# runs=%zu%s work: %s\n", runs.size(), traced ? " + 1 traced" : "",
              to_string(runs.front().work).c_str());

  std::vector<Metric> metrics;
  if (opt.trace) {
    LayerTimes layers;
    if (traced->capture) {
      layers = time_layers(*plan, *traced->capture);
    } else {
      layers.failures.push_back("the traced run never reached its peak instant");
    }
    failures.insert(failures.end(), layers.failures.begin(), layers.failures.end());
    metrics = per_layer(*traced, runs, layers, failures);
  } else {
    metrics = end_to_end(*plan, runs, failures);
  }
  print_metrics(metrics);
  for (const std::string& f : failures) std::printf("# FAILED %s\n", f.c_str());
  print_result(failures.empty(), attempted, failed, metrics);
  return failures.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::fprintf(stderr,
                 "usage: %s --workload surge|viewers|churn --seed N --seconds S "
                 "--trace 0|1\n",
                 argv[0]);
    return 2;
  }
  try {
    return run(*opt);
  } catch (const std::exception& e) {
    std::printf("# FAILED %s\n", e.what());
    std::printf(
        "{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {}}\n");
    return 1;
  }
}
