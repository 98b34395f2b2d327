#pragma once

#include <cstdint>
#include <functional>

#include "util/event_queue.hpp"

namespace fibbing::video {

/// A video asset: constant-bitrate content of a given duration. The demo
/// streams ~1 Mb/s videos (Fig. 2's axis: tens of flows sum to a few
/// MB/s per link).
struct VideoAsset {
  double bitrate_bps = 1e6;
  double duration_s = 120.0;
};

/// Playback QoE counters for one client.
struct Qoe {
  double startup_delay_s = 0.0;
  int stall_count = 0;
  double stall_time_s = 0.0;
  double played_s = 0.0;
  bool finished = false;

  /// Fraction of wall time (after startup) spent stalled. The paper's
  /// "smooth vs. stutter" claim is this number near 0 vs. clearly above 0.
  [[nodiscard]] double stall_ratio() const {
    const double wall = played_s + stall_time_s;
    return wall > 0.0 ? stall_time_s / wall : 0.0;
  }
};

/// Playout-buffer model of a streaming client.
///
/// The buffer (measured in seconds of content) fills at
/// receive_rate / bitrate and drains at 1 while playing. The client starts
/// playing once `startup_threshold_s` of content is buffered, stalls when
/// the buffer empties, and resumes after `resume_threshold_s` is
/// re-buffered -- the standard model whose stalls are exactly the visible
/// "stutter" of the demo.
///
/// Driven by rate-change callbacks from the data plane; between callbacks
/// the buffer evolves piecewise-linearly, so state is updated lazily and
/// the next transition (stall / resume / end of playback) is scheduled as
/// an event.
class VideoClient {
 public:
  VideoClient(util::EventQueue& events, VideoAsset asset,
              double startup_threshold_s = 2.0, double resume_threshold_s = 2.0);

  /// Notify the client that its flow's delivery rate changed.
  void on_rate_change(double rate_bps);

  /// The viewer left: QoE freezes at the current instant and no transition
  /// fires any more. finished stays false. A no-op once playback is done.
  void stop();

  /// Invoked once when playback completes (the session owner removes the
  /// flow from the data plane).
  void set_on_finished(std::function<void()> fn) { on_finished_ = std::move(fn); }

  /// Advance internal state to the current simulation time and report QoE.
  [[nodiscard]] Qoe qoe();
  [[nodiscard]] bool finished();

 private:
  enum class State { kStartup, kPlaying, kStalled, kDone, kStopped };

  void catch_up_();      // integrate buffer/counters since last update
  void reschedule_();    // plan the next state transition event
  void transition_();

  util::EventQueue& events_;
  VideoAsset asset_;
  double startup_threshold_s_;
  double resume_threshold_s_;

  State state_ = State::kStartup;
  double rate_bps_ = 0.0;
  double buffer_s_ = 0.0;       // seconds of content buffered
  double received_s_ = 0.0;     // seconds of content received in total
  double last_update_ = 0.0;
  double start_time_ = 0.0;
  util::EventHandle pending_{};
  Qoe qoe_{};
  std::function<void()> on_finished_;
};

}  // namespace fibbing::video
