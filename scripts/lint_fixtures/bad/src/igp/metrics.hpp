#pragma once

#include <cstdint>

// Counter-ish members outside src/obs/ must flow into the telemetry
// snapshot, and every registration annotation must name a telemetry key
// (obs-registered): every member below is a finding.

namespace fixture {

struct Counters {
  std::uint64_t packets = 0;
};

class FloodMeter {
 public:
  // lint:obs-registered-ok()
  std::uint64_t empty_reason_count_ = 0;

 private:
  std::uint64_t flood_count_ = 0;
  Counters counters_;
  // obs:registered(nosuch)
  std::uint64_t unmatched_count_ = 0;
  std::uint64_t flood_walks_ = 0;  // obs:registered(igp.nosuch)
};

}  // namespace fixture
