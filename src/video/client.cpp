#include "video/client.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace fibbing::video {

namespace {
constexpr double kEps = 1e-9;
}

VideoClient::VideoClient(util::EventQueue& events, VideoAsset asset,
                         double startup_threshold_s, double resume_threshold_s)
    : events_(events),
      asset_(asset),
      startup_threshold_s_(startup_threshold_s),
      resume_threshold_s_(resume_threshold_s),
      last_update_(events.now()),
      start_time_(events.now()) {
  FIB_ASSERT(asset.bitrate_bps > 0.0, "VideoClient: non-positive bitrate");
  FIB_ASSERT(asset.duration_s > 0.0, "VideoClient: non-positive duration");
  FIB_ASSERT(startup_threshold_s > 0.0 && resume_threshold_s > 0.0,
             "VideoClient: non-positive buffer thresholds");
}

void VideoClient::on_rate_change(double rate_bps) {
  FIB_ASSERT(rate_bps >= 0.0, "VideoClient: negative rate");
  catch_up_();
  rate_bps_ = rate_bps;
  transition_();
}

void VideoClient::stop() {
  catch_up_();
  if (state_ == State::kDone) return;
  state_ = State::kStopped;
  events_.cancel(pending_);
  pending_ = util::EventHandle{};
}

Qoe VideoClient::qoe() {
  catch_up_();
  return qoe_;
}

bool VideoClient::finished() {
  catch_up_();
  return state_ == State::kDone;
}

void VideoClient::catch_up_() {
  const double now = events_.now();
  const double dt = now - last_update_;
  if (dt <= 0.0) return;
  last_update_ = now;
  // Content still arriving? (Intervals never straddle receive-completion:
  // a transition event is always scheduled at that instant.)
  const bool receiving = received_s_ < asset_.duration_s - kEps && rate_bps_ > 0.0;
  const double fill = receiving ? rate_bps_ / asset_.bitrate_bps : 0.0;
  switch (state_) {
    case State::kStartup:
      buffer_s_ += fill * dt;
      received_s_ += fill * dt;
      break;
    case State::kPlaying:
      buffer_s_ += (fill - 1.0) * dt;
      received_s_ += fill * dt;
      qoe_.played_s += dt;
      break;
    case State::kStalled:
      buffer_s_ += fill * dt;
      received_s_ += fill * dt;
      qoe_.stall_time_s += dt;
      break;
    case State::kDone:
    case State::kStopped:
      return;
  }
  buffer_s_ = std::max(buffer_s_, 0.0);
  received_s_ = std::min(received_s_, asset_.duration_s);
  qoe_.played_s = std::min(qoe_.played_s, asset_.duration_s);
}

void VideoClient::transition_() {
  // Evaluate state changes at the current instant (post catch_up_), then
  // re-plan the next boundary.
  const double remaining_play = asset_.duration_s - qoe_.played_s;
  const bool receiving = received_s_ < asset_.duration_s - kEps && rate_bps_ > 0.0;
  const double fill = receiving ? rate_bps_ / asset_.bitrate_bps : 0.0;

  switch (state_) {
    case State::kStartup: {
      // A short asset may never reach the nominal threshold.
      const double threshold = std::min(startup_threshold_s_, asset_.duration_s);
      if (buffer_s_ + kEps >= threshold) {
        state_ = State::kPlaying;
        qoe_.startup_delay_s = events_.now() - start_time_;
      }
      break;
    }
    case State::kPlaying:
      if (remaining_play <= kEps) {
        state_ = State::kDone;
        qoe_.finished = true;
        events_.cancel(pending_);
        if (on_finished_) on_finished_();
        return;
      }
      if (buffer_s_ <= kEps && fill < 1.0 - kEps) {
        state_ = State::kStalled;
        ++qoe_.stall_count;
      }
      break;
    case State::kStalled:
      // Resume at the threshold; a nearly-finished asset resumes as soon as
      // everything still unplayed is buffered.
      if (buffer_s_ + kEps >= std::min(resume_threshold_s_, remaining_play)) {
        state_ = State::kPlaying;
      }
      break;
    case State::kDone:
    case State::kStopped:
      return;
  }
  reschedule_();
}

void VideoClient::reschedule_() {
  events_.cancel(pending_);
  pending_ = util::EventHandle{};

  const bool receiving = received_s_ < asset_.duration_s - kEps && rate_bps_ > 0.0;
  const double fill = receiving ? rate_bps_ / asset_.bitrate_bps : 0.0;
  const double remaining_play = asset_.duration_s - qoe_.played_s;
  double next = std::numeric_limits<double>::infinity();

  // Receive completion always changes the dynamics.
  if (receiving) {
    next = std::min(next, (asset_.duration_s - received_s_) / fill);
  }
  switch (state_) {
    case State::kStartup: {
      const double threshold = std::min(startup_threshold_s_, asset_.duration_s);
      if (fill > 0.0 && buffer_s_ < threshold) {
        next = std::min(next, (threshold - buffer_s_) / fill);
      }
      break;
    }
    case State::kPlaying: {
      next = std::min(next, remaining_play);  // end of playback
      const double drain = 1.0 - fill;
      if (drain > kEps && buffer_s_ > 0.0) {
        next = std::min(next, buffer_s_ / drain);  // buffer empties
      } else if (drain > kEps) {
        next = std::min(next, 0.0);  // already empty and draining: stall now
      }
      break;
    }
    case State::kStalled: {
      const double threshold = std::min(resume_threshold_s_, remaining_play);
      if (fill > 0.0 && buffer_s_ < threshold) {
        next = std::min(next, (threshold - buffer_s_) / fill);
      }
      break;
    }
    case State::kDone:
    case State::kStopped:
      return;
  }
  if (next == std::numeric_limits<double>::infinity()) return;  // wait for rates
  pending_ = events_.schedule_in(std::max(next, 0.0), [this] {
    catch_up_();
    transition_();
  });
}

}  // namespace fibbing::video
