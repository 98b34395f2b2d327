// On-demand WAN traffic engineering on an Abilene-like backbone.
//
// A CDN cache at one PoP suddenly serves a viral object: three other PoPs
// pull from it far beyond what the IGP's shortest paths can carry. The
// example compares, for the surged prefix:
//   - plain IGP shortest-path routing,
//   - the exact min-max optimum (LP-free solver),
//   - the Fibbing augmentation that realizes it (with bounded detours and
//     at most 8 FIB slots per router),
// and prints per-link utilizations plus the compiled lies.
//
// Run: ./wan_te [surge_gbps]

#include <cstdio>
#include <cstdlib>

#include "core/augment.hpp"
#include "core/loads.hpp"
#include "core/verify.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "te/minmax.hpp"
#include "topo/generators.hpp"

using namespace fibbing;

int main(int argc, char** argv) {
  const double surge_gbps = argc > 1 ? std::atof(argv[1]) : 6.0;
  topo::Topology wan = topo::make_abilene(/*capacity_bps=*/10e9);
  const topo::NodeId cache = wan.node_id("KC");
  const net::Prefix viral(net::Ipv4(203, 0, 113, 0), 24);
  wan.attach_prefix(cache, viral, /*metric=*/10);  // redistribution headroom

  const std::vector<te::Demand> demands{
      {wan.node_id("NY"), surge_gbps * 1e9},
      {wan.node_id("LAX"), surge_gbps * 1e9},
      {wan.node_id("ATL"), surge_gbps * 1e9},
  };

  std::printf("Viral object at %s; %0.1f Gb/s pulled from NY, LAX and ATL\n\n",
              wan.node(cache).name.c_str(), surge_gbps);

  const double spf_theta = te::shortest_path_max_utilization(wan, cache, demands);
  std::printf("plain IGP shortest paths : max link utilization %.2f%s\n",
              spf_theta, spf_theta > 1.0 ? "  ** CONGESTED **" : "");

  te::MinMaxConfig config;
  config.max_stretch = 2.0;
  const auto optimal = te::solve_min_max(wan, cache, demands, {}, config);
  if (!optimal.ok()) {
    std::fprintf(stderr, "optimizer failed: %s\n", optimal.error().c_str());
    return 1;
  }
  std::printf("min-max optimum          : max link utilization %.2f\n",
              optimal.value().theta);

  const core::DestRequirement req =
      core::requirement_from_splits(viral, optimal.value().splits, 8);
  const auto compiled = core::compile_lies(wan, req);
  if (!compiled.ok()) {
    std::fprintf(stderr, "augmentation failed: %s\n", compiled.error().c_str());
    return 1;
  }
  const auto report = core::verify_augmentation(wan, req, compiled.value().lies);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.to_string(wan).c_str());
    return 1;
  }

  // Utilization achieved by the verified lie set (weighted-ECMP fluid).
  const auto tables = igp::compute_all_routes(
      igp::NetworkView::from_topology(wan, core::to_externals(compiled.value().lies)));
  const auto load =
      core::loads_from_routes(wan, igp::column_of(tables, viral), viral, demands);
  double fib_theta = 0.0;
  for (topo::LinkId l = 0; l < wan.link_count(); ++l) {
    fib_theta = std::max(fib_theta, load[l] / wan.link(l).capacity_bps);
  }
  std::printf("Fibbing (max 8 slots)    : max link utilization %.2f\n\n", fib_theta);

  std::printf("%zu lies realize the placement (%zu before reduction):\n",
              compiled.value().lies.size(), compiled.value().naive_lie_count);
  for (const core::Lie& lie : compiled.value().lies) {
    std::printf("  %s\n", core::to_string(lie, wan).c_str());
  }

  std::printf("\nper-link utilization under Fibbing (>1%% shown):\n");
  for (topo::LinkId l = 0; l < wan.link_count(); ++l) {
    const double util = load[l] / wan.link(l).capacity_bps;
    if (util > 0.01) {
      std::printf("  %-10s %5.1f%%\n", wan.link_name(l).c_str(), util * 100.0);
    }
  }
  return 0;
}
