#pragma once
// Direct calls into each layer's public functions on a run's captured peak
// state: the per-layer costs a step timing cannot separate.

#include <string>
#include <vector>

#include "runner.hpp"
#include "workload.hpp"

namespace perfbench {

struct LayerTimes {
  double te_solve_ms = 0.0;         ///< te::solve_min_max, hottest prefix
  double core_compile_ms = 0.0;     ///< core::compile_lies of that solution
  double core_verify_ms = 0.0;      ///< core::verify_augmentation of the lies
  double igp_routes_us = 0.0;       ///< igp::compute_routes, per router
  double proto_codec_us = 0.0;      ///< encode_packet + decode_packet of an LS Update
  double dataplane_walk_us = 0.0;   ///< dataplane::walk_flow, per flow
  double dataplane_rates_us = 0.0;  ///< dataplane::max_min_rates, all flows
  std::vector<std::string> failures;
};

/// Time each layer on `capture`, the state of a traced run of `plan` at
/// plan.peak_s. Every value is the median of repeated calls.
[[nodiscard]] LayerTimes time_layers(const Plan& plan, const Capture& capture);

}  // namespace perfbench
