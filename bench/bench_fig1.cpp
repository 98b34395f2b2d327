// Reproduces the worked example of paper Fig. 1 (a-d):
//   1a  IGP shortest paths from A and B overlap on B-R2-C;
//   1b  the flash crowd overloads B-R2 / R2-C (relative loads 100/200/200);
//   1c  the controller's lies (fB at B; the uneven-split set at A);
//   1d  resulting per-link loads 33/66 with the maximum reduced.
// All values are computed analytically (fluid splits), so the output is
// exact and deterministic.

#include <cstdio>

#include "core/augment.hpp"
#include "core/loads.hpp"
#include "core/verify.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "topo/generators.hpp"

using namespace fibbing;

namespace {

void print_loads(const topo::Topology& t, const std::vector<double>& load) {
  double worst = 0.0;
  for (topo::LinkId l = 0; l < t.link_count(); ++l) worst = std::max(worst, load[l]);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    if (load[l] <= 0.0) continue;
    std::printf("    %-8s %6.1f%s\n", t.link_name(l).c_str(), load[l],
                load[l] == worst ? "   <-- max" : "");
  }
}

}  // namespace

int main() {
  const topo::PaperTopology p = topo::make_paper_topology();
  const topo::Topology& t = p.topo;

  // --- Fig. 1a: shortest paths --------------------------------------------
  std::printf("=== Fig. 1a: IGP shortest paths ===\n");
  const igp::NetworkView base = igp::NetworkView::from_topology(t);
  const igp::SpfResult from_a = igp::run_spf(base, p.a);
  const igp::SpfResult from_b = igp::run_spf(base, p.b);
  std::printf("  A -> blue: cost %u via %s (paths overlap on B-R2-C)\n",
              from_a.dist[p.c], t.node(from_a.first_hops[p.c][0]).name.c_str());
  std::printf("  B -> blue: cost %u via %s\n", from_b.dist[p.c],
              t.node(from_b.first_hops[p.c][0]).name.c_str());

  // --- Fig. 1b: the surge on shortest paths --------------------------------
  // 100 units from each server (S1 at B on P1, S2 at A on P2).
  std::printf("\n=== Fig. 1b: surge on plain IGP (relative loads) ===\n");
  const auto tables0 = igp::compute_all_routes(base);
  std::vector<double> loads_b(t.link_count(), 0.0);
  {
    const auto l1 = core::loads_from_routes(t, igp::column_of(tables0, p.p1), p.p1,
                                            {{p.b, 100.0}});
    const auto l2 = core::loads_from_routes(t, igp::column_of(tables0, p.p2), p.p2,
                                            {{p.a, 100.0}});
    for (topo::LinkId l = 0; l < t.link_count(); ++l) loads_b[l] = l1[l] + l2[l];
  }
  print_loads(t, loads_b);
  std::printf("  (paper: A-B 100, B-R2 200, R2-C 200 -- overloaded)\n");

  // --- Fig. 1c: the lies ----------------------------------------------------
  std::printf("\n=== Fig. 1c: compiled lies ===\n");
  core::DestRequirement req1;
  req1.prefix = p.p1;
  req1.nodes[p.b] = {igp::WeightedNextHop{p.r2, 1}, igp::WeightedNextHop{p.r3, 1}};
  core::DestRequirement req2;
  req2.prefix = p.p2;
  req2.nodes[p.a] = {igp::WeightedNextHop{p.b, 1}, igp::WeightedNextHop{p.r1, 2}};
  req2.nodes[p.b] = {igp::WeightedNextHop{p.r2, 1}, igp::WeightedNextHop{p.r3, 1}};

  const auto aug1 = core::compile_lies(t, req1);
  core::AugmentConfig cfg2;
  cfg2.first_lie_id = 100;
  const auto aug2 = core::compile_lies(t, req2, cfg2);
  if (!aug1.ok() || !aug2.ok()) {
    std::fprintf(stderr, "compile failed: %s\n",
                 (!aug1.ok() ? aug1.error() : aug2.error()).c_str());
    return 1;
  }
  std::vector<core::Lie> lies = aug1.value().lies;
  lies.insert(lies.end(), aug2.value().lies.begin(), aug2.value().lies.end());
  for (const core::Lie& lie : lies) {
    std::printf("  %s\n", core::to_string(lie, t).c_str());
  }
  const bool ok1 = core::verify_augmentation(t, req1, lies).ok();
  const bool ok2 = core::verify_augmentation(t, req2, lies).ok();
  std::printf("  verifier: P1 %s, P2 %s\n", ok1 ? "ok" : "FAILED",
              ok2 ? "ok" : "FAILED");

  // --- Fig. 1d: loads with the augmentation ---------------------------------
  std::printf("\n=== Fig. 1d: loads with Fibbing (relative) ===\n");
  const auto tables1 = igp::compute_all_routes(
      igp::NetworkView::from_topology(t, core::to_externals(lies)));
  std::vector<double> loads_d(t.link_count(), 0.0);
  {
    const auto l1 = core::loads_from_routes(t, igp::column_of(tables1, p.p1), p.p1,
                                            {{p.b, 100.0}});
    const auto l2 = core::loads_from_routes(t, igp::column_of(tables1, p.p2), p.p2,
                                            {{p.a, 100.0}});
    for (topo::LinkId l = 0; l < t.link_count(); ++l) loads_d[l] = l1[l] + l2[l];
  }
  print_loads(t, loads_d);
  std::printf("  (paper: A-B 33, every other used link 66)\n");

  double max_before = 0.0;
  double max_after = 0.0;
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    max_before = std::max(max_before, loads_b[l]);
    max_after = std::max(max_after, loads_d[l]);
  }
  std::printf("\nmax link load: %.1f -> %.1f (%.1fx reduction)\n", max_before,
              max_after, max_before / max_after);
  return (ok1 && ok2) ? 0 : 1;
}
