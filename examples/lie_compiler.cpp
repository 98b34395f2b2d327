// fibctl-style offline lie compiler: read a topology file and a forwarding
// requirement from the command line, print the External-LSAs to inject.
//
// Usage:
//   ./lie_compiler <topology-file> <prefix> <router>=<nh>[:copies][,<nh>...] ...
//
// Example (the paper's Fig. 1d, assuming demo.topo holds the demo network):
//   ./lie_compiler demo.topo 203.0.113.128/25 A=B,R1:2 B=R2,R3
//
// With no arguments, compiles that exact example on the built-in demo
// topology (so the binary is also a runnable smoke test).

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/augment.hpp"
#include "core/verify.hpp"
#include "topo/generators.hpp"
#include "topo/parser.hpp"
#include "util/strings.hpp"

using namespace fibbing;

namespace {

int fail(const std::string& why) {
  std::fprintf(stderr, "error: %s\n", why.c_str());
  return 1;
}

/// Parse "A=B,R1:2" into a requirement entry.
bool parse_node_req(const topo::Topology& topo, const std::string& spec,
                    core::DestRequirement& req, std::string& error) {
  const auto parts = util::split(spec, '=');
  if (parts.size() != 2) {
    error = "want router=nh[:copies][,...], got: " + spec;
    return false;
  }
  const topo::NodeId node = topo.find_node(parts[0]);
  if (node == topo::kInvalidNode) {
    error = "unknown router: " + parts[0];
    return false;
  }
  std::vector<igp::WeightedNextHop> hops;
  for (const auto& hop_spec : util::split(parts[1], ',')) {
    const auto hop_parts = util::split(hop_spec, ':');
    const topo::NodeId via = topo.find_node(hop_parts[0]);
    if (via == topo::kInvalidNode) {
      error = "unknown next hop: " + hop_parts[0];
      return false;
    }
    long long copies = 1;
    if (hop_parts.size() > 1) {
      copies = util::parse_uint_or(hop_parts[1], -1);
      if (copies <= 0) {
        error = "bad copy count: " + hop_spec;
        return false;
      }
    }
    hops.push_back(igp::WeightedNextHop{via, static_cast<std::uint32_t>(copies)});
  }
  req.nodes[node] = std::move(hops);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  topo::Topology topology;
  core::DestRequirement req;

  if (argc < 4) {
    std::printf("(no arguments: compiling the built-in Fig. 1d example)\n\n");
    const topo::PaperTopology p = topo::make_paper_topology();
    topology = p.topo;
    req.prefix = p.p2;
    req.nodes[p.a] = {igp::WeightedNextHop{p.b, 1}, igp::WeightedNextHop{p.r1, 2}};
    req.nodes[p.b] = {igp::WeightedNextHop{p.r2, 1}, igp::WeightedNextHop{p.r3, 1}};
  } else {
    std::ifstream file(argv[1]);
    if (!file) return fail(std::string("cannot open ") + argv[1]);
    std::ostringstream text;
    text << file.rdbuf();
    auto parsed = topo::parse_topology(text.str());
    if (!parsed.ok()) return fail(parsed.error());
    topology = std::move(parsed).value();

    const auto prefix = net::Prefix::parse(argv[2]);
    if (!prefix.ok()) return fail(prefix.error());
    req.prefix = prefix.value();
    for (int i = 3; i < argc; ++i) {
      std::string error;
      if (!parse_node_req(topology, argv[i], req, error)) return fail(error);
    }
  }

  const auto compiled = core::compile_lies(topology, req);
  if (!compiled.ok()) return fail(compiled.error());
  const auto report = core::verify_augmentation(topology, req, compiled.value().lies);

  std::printf("requirement for %s:\n", req.prefix.to_string().c_str());
  for (const auto& [node, hops] : req.nodes) {
    std::printf("  %s ->", topology.node(node).name.c_str());
    for (const auto& nh : hops) {
      std::printf(" %s", topology.node(nh.via).name.c_str());
      if (nh.weight > 1) std::printf("x%u", nh.weight);
    }
    std::printf("\n");
  }
  std::printf("\n%zu lie(s) (%zu before reduction, %d repair round(s)):\n",
              compiled.value().lies.size(), compiled.value().naive_lie_count,
              compiled.value().repair_rounds);
  for (const core::Lie& lie : compiled.value().lies) {
    std::printf("  %s\n", core::to_string(lie, topology).c_str());
  }
  std::printf("\nverifier: %s\n", report.to_string(topology).c_str());
  return report.ok() ? 0 : 1;
}
