// Quickstart: steer traffic with a single Fibbing lie.
//
// Builds the paper's demo network, shows router B's forwarding table for
// the "blue" destination, then asks the lie compiler for an even 2-way
// split at B, injects the resulting External-LSA into the running IGP and
// shows the reprogrammed table. No router configuration is touched at any
// point -- that is the whole point of Fibbing.
//
// Run: ./quickstart

#include <cstdio>

#include "core/augment.hpp"
#include "core/verify.hpp"
#include "dataplane/fib.hpp"
#include "igp/domain.hpp"
#include "topo/generators.hpp"
#include "util/event_queue.hpp"

using namespace fibbing;

int main() {
  // 1. The network of Fig. 1a: seven routers, the blue prefix split in two
  //    /25 halves announced at C.
  const topo::PaperTopology p = topo::make_paper_topology();

  // 2. Boot a link-state IGP over it (LSA flooding + SPF on each router).
  util::EventQueue events;
  igp::IgpDomain domain(p.topo, events);
  domain.start();
  domain.run_to_convergence();

  std::printf("== Before fibbing: B's route for %s\n", p.p1.to_string().c_str());
  std::printf("   %s\n",
              igp::to_string(domain.table(p.b).at(p.p1), p.topo).c_str());

  // 3. Express the goal declaratively: B must split P1 evenly over R2/R3.
  core::DestRequirement requirement;
  requirement.prefix = p.p1;
  requirement.nodes[p.b] = {igp::WeightedNextHop{p.r2, 1},
                            igp::WeightedNextHop{p.r3, 1}};

  // 4. Compile it into lies (fake nodes encoded as External-LSAs).
  const auto compiled = core::compile_lies(p.topo, requirement);
  if (!compiled.ok()) {
    std::fprintf(stderr, "augmentation failed: %s\n", compiled.error().c_str());
    return 1;
  }
  std::printf("== Compiled %zu lie(s):\n", compiled.value().lies.size());
  for (const core::Lie& lie : compiled.value().lies) {
    std::printf("   %s\n", core::to_string(lie, p.topo).c_str());
  }

  // 5. Inject through the controller's IGP session at R3 and let the
  //    protocol do the rest (flooding, SPF, FIB updates).
  for (const core::Lie& lie : compiled.value().lies) {
    domain.inject_external(p.r3, core::to_lsa(lie));
  }
  domain.run_to_convergence();

  std::printf("== After fibbing: B's route for %s\n", p.p1.to_string().c_str());
  std::printf("   %s\n",
              igp::to_string(domain.table(p.b).at(p.p1), p.topo).c_str());

  // 6. Per-destination isolation: the sibling prefix is untouched.
  std::printf("== Untouched sibling prefix %s at B\n   %s\n",
              p.p2.to_string().c_str(),
              igp::to_string(domain.table(p.b).at(p.p2), p.topo).c_str());

  // 7. And the independent verifier agrees.
  const auto report =
      core::verify_augmentation(p.topo, requirement, compiled.value().lies);
  std::printf("== Verifier: %s\n", report.to_string(p.topo).c_str());
  return report.ok() ? 0 : 1;
}
