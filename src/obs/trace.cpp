#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace fibbing::obs {

const char* to_string(Stage stage) {
  switch (stage) {
    case Stage::kMonitor: return "monitor";
    case Stage::kTrigger: return "trigger";
    case Stage::kSolve: return "solve";
    case Stage::kCompile: return "compile";
    case Stage::kVerify: return "verify";
    case Stage::kInject: return "inject";
    case Stage::kLsaInstall: return "lsa_install";
    case Stage::kSpf: return "spf";
    case Stage::kTableFlip: return "table_flip";
  }
  return "unknown";
}

void TraceRecorder::bind_lie(std::uint64_t lie_id, std::uint64_t trace_id) {
  util::MutexLock lock(bind_mu_);
  lie_trace_[lie_id] = trace_id;
}

std::uint64_t TraceRecorder::trace_for_lie(std::uint64_t lie_id) const {
  util::MutexLock lock(bind_mu_);
  const auto it = lie_trace_.find(lie_id);
  return it == lie_trace_.end() ? 0 : it->second;
}

void TraceRecorder::emit(double at, std::uint64_t trace_id, Stage stage,
                         char phase, std::uint32_t node, std::uint64_t detail) {
  events_.push_back(
      TraceEvent{at, trace_id, stage, phase, node, detail, span_depth_});
}

std::string TraceRecorder::canonical_dump() const {
  std::string out;
  char line[160];
  for (const TraceEvent& e : events_) {
    std::snprintf(line, sizeof(line), "%.9f %llu %s %c %u %llu %u\n", e.at,
                  static_cast<unsigned long long>(e.trace_id),
                  to_string(e.stage), e.phase, e.node,
                  static_cast<unsigned long long>(e.detail), e.depth);
    out += line;
  }
  return out;
}

std::string TraceRecorder::chrome_json() const {
  // Chrome trace-event format: virtual seconds become microseconds; each
  // trace is a pid so chrome://tracing groups one mitigation per track.
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const TraceEvent& e : events_) {
    const char* extra = e.phase == 'i' ? ",\"s\":\"t\"" : "";
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,"
                  "\"pid\":%llu,\"tid\":%u,\"args\":{\"trace\":%llu,"
                  "\"detail\":%llu,\"depth\":%u}%s}",
                  first ? "" : ",", to_string(e.stage), e.phase, e.at * 1e6,
                  static_cast<unsigned long long>(e.trace_id), e.node,
                  static_cast<unsigned long long>(e.trace_id),
                  static_cast<unsigned long long>(e.detail), e.depth, extra);
    out += buf;
    first = false;
  }
  out += "]}";
  return out;
}

std::map<std::string, std::vector<double>> TraceRecorder::stage_offsets() const {
  // Per trace: root = earliest event; each present stage contributes its
  // first timestamp as an offset from the root.
  struct PerTrace {
    double root = 0.0;
    double last = 0.0;
    std::map<Stage, double> first;
  };
  std::map<std::uint64_t, PerTrace> traces;
  for (const TraceEvent& e : events_) {
    if (e.trace_id == 0 || e.phase == 'E') continue;
    auto [it, inserted] = traces.try_emplace(e.trace_id);
    PerTrace& t = it->second;
    if (inserted) t.root = e.at;
    t.root = std::min(t.root, e.at);
    t.last = std::max(t.last, e.at);
    t.first.try_emplace(e.stage, e.at);
    auto first_it = t.first.find(e.stage);
    first_it->second = std::min(first_it->second, e.at);
  }
  std::map<std::string, std::vector<double>> out;
  for (const auto& [id, t] : traces) {
    for (const auto& [stage, at] : t.first) {
      out[std::string(to_string(stage)) + "_s"].push_back(at - t.root);
    }
    out["end_to_end_s"].push_back(t.last - t.root);
  }
  return out;
}

ScopedSpan::ScopedSpan(TraceRecorder* recorder, double at,
                       std::uint64_t trace_id, Stage stage, std::uint32_t node,
                       std::uint64_t detail)
    : recorder_(recorder != nullptr && recorder->enabled() ? recorder : nullptr),
      at_(at),
      trace_id_(trace_id),
      stage_(stage),
      node_(node) {
  if (recorder_ == nullptr) return;
  recorder_->emit(at_, trace_id_, stage_, 'B', node_, detail);
  (void)recorder_->enter_span();
}

ScopedSpan::~ScopedSpan() {
  if (recorder_ == nullptr) return;
  recorder_->exit_span();
  // Spans close at the same virtual instant they opened unless the stage
  // yields to the event loop; the matching timestamp keeps the stream a
  // pure function of the scenario.
  recorder_->emit(at_, trace_id_, stage_, 'E', node_, 0);
}

}  // namespace fibbing::obs
