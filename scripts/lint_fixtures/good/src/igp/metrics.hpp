#pragma once

#include <cstdint>
#include <map>
#include <string>

// The accepted obs-registered forms: a registration annotation whose key
// prefix-matches a key of a telemetry table somewhere in the tree, and a
// reasoned waiver for members that are not metrics.

namespace fixture {

struct Counters {
  std::uint64_t packets = 0;
};

class FloodMeter {
 public:
  std::map<std::string, double> telemetry() const {
    return {
        {"igp.floods", flood_count_},
        {"igp.packets", counters_.packets},
        {"igp.walks", walks_},
    };
  }

 private:
  // obs:registered(igp.floods)
  std::uint64_t flood_count_ = 0;
  Counters counters_;  // obs:registered(igp)
  std::uint64_t walks_ = 0;  // obs:registered(igp.walks)
  // lint:obs-registered-ok(structural size, not a metric)
  std::uint64_t slot_count_ = 0;
};

}  // namespace fixture
