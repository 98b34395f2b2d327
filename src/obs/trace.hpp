#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fibbing::obs {

/// The control-loop stages a mitigation traverses, in causal order -- the
/// paper's Fig. 2 / Section 4 reaction chain. Enum order IS the chain
/// order; stage_offsets() and scripts/trace_report.py rely on it.
enum class Stage : std::uint8_t {
  kMonitor,     ///< the SNMP sample / detector edge that triggered it
  kTrigger,     ///< mitigation batch start (controller decision)
  kSolve,       ///< min-max placement solve (per prefix, commit order)
  kCompile,     ///< lie compilation (per prefix)
  kVerify,      ///< augmentation verification verdict (per prefix)
  kInject,      ///< southbound External-LSA injection (per lie)
  kLsaInstall,  ///< a router installed the lie's LSA (flood arrival)
  kSpf,         ///< a router's SPF consumed the lie
  kTableFlip,   ///< the dataplane FIB flipped to the new table
};
[[nodiscard]] const char* to_string(Stage stage);

/// Pseudo-node for controller-side events (routers use their NodeId).
inline constexpr std::uint32_t kControllerNode = 0xffffffffu;

/// One trace record. Timestamps come exclusively from the virtual clock
/// (util::Scheduler::now() at the emitting component) -- never wall clock --
/// so a trace stream is a pure function of the scenario.
struct TraceEvent {
  double at = 0.0;             ///< virtual time, seconds
  std::uint64_t trace_id = 0;  ///< mitigation this event belongs to
  Stage stage = Stage::kTrigger;
  char phase = 'i';            ///< 'B' span begin, 'E' span end, 'i' instant
  std::uint32_t node = kControllerNode;  ///< router id or kControllerNode
  std::uint64_t detail = 0;    ///< stage-dependent: lie id, link id, count
  std::uint32_t depth = 0;     ///< span nesting depth at emission
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Causal trace recorder for the mitigation control loop.
///
/// Trace-id lifecycle: the controller allocates an id at the triggering
/// monitor sample (next_trace_id), emits the controller-side stages on the
/// driving thread in commit order, and binds each injected lie's id to the
/// trace (bind_lie) *before* the LSA can reach any router (injections ride
/// the message channel with a positive flood delay). Routers look the
/// binding up (trace_for_lie) when the lie's External-LSA installs and when
/// SPF consumes it, and stamp the table flip that SPF hands over. The lie
/// id travels in the External-LSA's route tag (appendix E), so the thread
/// needs no side channel.
///
/// Determinism contract (extends the repo's shard bit-identity guarantee):
/// events enter the stream one way only, emit(), on the driving thread.
/// Controller stages append between rounds in program order; a router on
/// a shard worker defers its stamps through
/// util::ShardPool::defer, which replays the round's deferred callbacks in
/// ascending router order, each router's in its own order. So the stream
/// is bit-identical for every shard count. The canonical_dump() string is
/// the surface the determinism property test compares.
///
/// Thread safety: the stream is driving-thread-only; the lie-binding map
/// is util::Mutex-guarded (FIB_GUARDED_BY, proven by -Wthread-safety),
/// because routers read it mid-round. When disabled (the default) every
/// emit path short-circuits on one read of a flag fixed at construction,
/// before touching any argument -- the FIB_SPAN/FIB_EVENT macros guard the
/// same way, so tracing costs one branch when off.
class TraceRecorder {
 public:
  explicit TraceRecorder(bool enabled = false) : enabled_(enabled) {}
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Fresh trace id (driving thread only; ids are dense from 1).
  [[nodiscard]] std::uint64_t next_trace_id() { return ++last_trace_id_; }

  /// Bind an injected lie to its mitigation's trace (driving thread,
  /// strictly before any router can see the lie's LSA).
  void bind_lie(std::uint64_t lie_id, std::uint64_t trace_id) FIB_EXCLUDES(bind_mu_);
  /// The trace a lie belongs to; 0 when unbound (shard-worker safe).
  [[nodiscard]] std::uint64_t trace_for_lie(std::uint64_t lie_id) const
      FIB_EXCLUDES(bind_mu_);

  /// Append to the stream in program order (driving thread only).
  void emit(double at, std::uint64_t trace_id, Stage stage, char phase,
            std::uint32_t node, std::uint64_t detail);

  /// The stream (driving thread).
  [[nodiscard]] const std::vector<TraceEvent>& events() const { return events_; }

  /// One line per event -- the bit-identity comparison surface.
  [[nodiscard]] std::string canonical_dump() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}) for chrome://tracing
  /// or Perfetto; scripts/trace_report.py reads the same file.
  [[nodiscard]] std::string chrome_json() const;

  /// Per-trace reaction-latency breakdown: for every trace, each present
  /// stage's first timestamp as an offset from the trace root, keyed
  /// "<stage>_s", plus "end_to_end_s" (root to last event). Returned as
  /// key -> samples-across-traces; FibbingService::telemetry_snapshot()
  /// expands them into percentile keys.
  [[nodiscard]] std::map<std::string, std::vector<double>> stage_offsets() const;

  // Span-depth bookkeeping for ScopedSpan (driving thread only).
  [[nodiscard]] std::uint32_t enter_span() { return span_depth_++; }
  void exit_span() { --span_depth_; }

 private:
  const bool enabled_;
  std::uint64_t last_trace_id_ = 0;
  std::uint32_t span_depth_ = 0;
  std::vector<TraceEvent> events_;  ///< driving thread only

  mutable util::Mutex bind_mu_;
  std::map<std::uint64_t, std::uint64_t> lie_trace_ FIB_GUARDED_BY(bind_mu_);
};

/// RAII span: emits a 'B' record on construction and the matching 'E' on
/// destruction, tracking nesting depth. Inert when the recorder is null or
/// disabled. Driving thread only (spans model controller-side stages;
/// routers defer instants).
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, double at, std::uint64_t trace_id,
             Stage stage, std::uint32_t node, std::uint64_t detail);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceRecorder* recorder_;  ///< null when inert
  double at_;
  std::uint64_t trace_id_;
  Stage stage_;
  std::uint32_t node_;
};

}  // namespace fibbing::obs

// Emission macros: the recorder expression is evaluated once; when it is
// null or disabled, no other argument is evaluated -- tracing-off costs one
// branch (bench_overhead's BM_TelemetryOverhead pins the <2% budget).
#define FIB_OBS_CONCAT_(a, b) a##b
#define FIB_OBS_CONCAT(a, b) FIB_OBS_CONCAT_(a, b)

/// Instant event on the driving thread.
#define FIB_EVENT(recorder, at, trace_id, stage, node, detail)               \
  do {                                                                       \
    ::fibbing::obs::TraceRecorder* fib_obs_rec_ = (recorder);                \
    if (fib_obs_rec_ != nullptr && fib_obs_rec_->enabled()) {                \
      fib_obs_rec_->emit((at), (trace_id), (stage), 'i', (node), (detail));  \
    }                                                                        \
  } while (0)

/// Scoped span on the driving thread (begin here, end at scope exit).
#define FIB_SPAN(recorder, at, trace_id, stage, node, detail)        \
  ::fibbing::obs::ScopedSpan FIB_OBS_CONCAT(fib_obs_span_, __LINE__)(\
      (recorder), (at), (trace_id), (stage), (node), (detail))
