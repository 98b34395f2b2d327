// Parameterized property sweeps: each suite cross-checks a core algorithm
// against an independent reference implementation (or an invariant) over
// randomized instances, one seed per test case.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <tuple>

#include "core/augment.hpp"
#include "core/verify.hpp"
#include "igp/route_cache.hpp"
#include "igp/lsdb.hpp"
#include "igp/router_process.hpp"
#include "dataplane/ecmp.hpp"
#include "dataplane/forwarding.hpp"
#include "dataplane/network_sim.hpp"
#include "dataplane/rate_solver.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "net/lpm_trie.hpp"
#include "support/probes.hpp"
#include "support/scenario.hpp"
#include "te/maxflow.hpp"
#include "te/minmax.hpp"
#include "te/ratio.hpp"
#include "topo/generators.hpp"
#include "topo/link_state.hpp"
#include "util/rng.hpp"
#include "video/system.hpp"

namespace fibbing {
namespace {

// ------------------------------------------------------- SPF vs Bellman-Ford

class SpfProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SpfProperty, DistancesMatchBellmanFord) {
  util::Rng rng(GetParam());
  const topo::Topology t = topo::make_waxman(18, rng, 0.5, 0.5, 9);
  const igp::NetworkView view = igp::NetworkView::from_topology(t);
  const auto source = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
  const igp::SpfResult spf = igp::run_spf(view, source);

  // Reference: Bellman-Ford relaxation until fixpoint.
  std::vector<std::uint64_t> ref(t.node_count(), ~0ull);
  ref[source] = 0;
  for (std::size_t round = 0; round < t.node_count(); ++round) {
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      const topo::Link& link = t.link(l);
      if (ref[link.from] != ~0ull && ref[link.from] + link.metric < ref[link.to]) {
        ref[link.to] = ref[link.from] + link.metric;
      }
    }
  }
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    if (ref[n] == ~0ull) {
      EXPECT_FALSE(spf.reaches(n));
    } else {
      EXPECT_EQ(spf.dist[n], ref[n]) << "node " << n;
    }
  }
}

/// Checks every first-hop set of run_spf from `source` on `t` with `mask`'s
/// links down against the definition: neighbor w is a first hop toward v
/// iff the link source->w is up and metric(source,w) + dist(w,v) ==
/// dist(source,v). Returns how many targets have more than one first hop.
std::size_t expect_ecmp_first_hops(const topo::Topology& t,
                                   const topo::LinkStateMask* mask,
                                   topo::NodeId source) {
  const igp::NetworkView view = igp::NetworkView::from_topology(t, {}, mask);
  const igp::SpfResult from_src = igp::run_spf(view, source);
  std::size_t multi = 0;
  for (topo::NodeId v = 0; v < t.node_count(); ++v) {
    if (v == source || !from_src.reaches(v)) {
      EXPECT_TRUE(from_src.first_hops[v].empty()) << "target " << v;
      continue;
    }
    std::vector<topo::NodeId> expected;
    for (const topo::LinkId l : t.out_links(source)) {
      if (mask != nullptr && mask->is_down(l)) continue;
      const topo::NodeId w = t.link(l).to;
      const igp::SpfResult from_w = igp::run_spf(view, w);
      if (from_w.reaches(v) &&
          t.link(l).metric + from_w.dist[v] == from_src.dist[v]) {
        expected.push_back(w);
      }
    }
    std::sort(expected.begin(), expected.end());
    expected.erase(std::unique(expected.begin(), expected.end()), expected.end());
    EXPECT_TRUE(std::ranges::equal(from_src.first_hops[v], expected)) << "target " << v;
    if (expected.size() > 1) ++multi;
  }
  return multi;
}

/// `t` with each link's two directions given independent metrics in
/// [1, max_metric].
topo::Topology with_asymmetric_metrics(const topo::Topology& t, util::Rng& rng,
                                       topo::Metric max_metric) {
  topo::Topology out;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) out.add_node(t.node(n).name);
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    if (link.from > link.to) continue;
    out.add_link_asymmetric(link.from, link.to,
                            static_cast<topo::Metric>(rng.uniform_int(1, max_metric)),
                            static_cast<topo::Metric>(rng.uniform_int(1, max_metric)),
                            link.capacity_bps);
  }
  return out;
}

TEST_P(SpfProperty, FirstHopsSatisfyEcmpDefinition) {
  util::Rng rng(GetParam() ^ 0xabcdef);
  const topo::Topology t = topo::make_waxman(16, rng, 0.5, 0.5, 7);
  expect_ecmp_first_hops(t, nullptr,
                         static_cast<topo::NodeId>(rng.pick_index(t.node_count())));
  // Metric ties (metrics 1-2), asymmetric metrics, each with and without
  // four failed links.
  const topo::Topology tied = topo::make_waxman(16, rng, 0.5, 0.5, 2);
  const topo::Topology asymmetric = with_asymmetric_metrics(tied, rng, 3);
  std::size_t multi = 0;
  for (const topo::Topology* g : {&tied, &asymmetric}) {
    topo::LinkStateMask mask(*g);
    for (int k = 0; k < 4; ++k) {
      mask.fail(static_cast<topo::LinkId>(rng.pick_index(g->link_count())));
    }
    for (const topo::LinkStateMask* m : {static_cast<const topo::LinkStateMask*>(nullptr),
                                         static_cast<const topo::LinkStateMask*>(&mask)}) {
      multi += expect_ecmp_first_hops(
          *g, m, static_cast<topo::NodeId>(rng.pick_index(g->node_count())));
    }
  }
  EXPECT_GT(multi, 0u);  // the ties make ECMP sets
}

/// One SpfResult carried through 300 random batches of link flips, each
/// handed to update_spf as RouterSpf hands a hold-down window's deltas: it
/// must equal run_spf on every new view, node by node, and its first-hop
/// arena must stay within twice its live size.
TEST_P(SpfProperty, RepairLineageMatchesFreshRuns) {
  util::Rng rng(GetParam() ^ 0x5bf1);
  const topo::Topology t = topo::make_waxman(30, rng, 0.5, 0.5, 2);
  const auto source = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
  topo::LinkStateMask mask(t);
  std::vector<bool> bits = mask.bits();
  igp::SpfResult spf = igp::run_spf(igp::NetworkView::from_topology(t, {}, &mask), source);
  std::size_t incremental = 0;
  std::size_t compactions = 0;
  for (int batch = 0; batch < 300; ++batch) {
    // 1-3 adjacencies flip; a few batches flip many (update_spf's full path).
    const int flips = rng.chance(0.05) ? 12 : static_cast<int>(rng.uniform_int(1, 3));
    for (int k = 0; k < flips; ++k) {
      const auto l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      if (mask.is_down(l)) {
        mask.restore(l);
      } else if (mask.down_count() < 8 || rng.chance(0.2)) {
        mask.fail(l);
      }
    }
    std::vector<igp::EdgeDelta> deltas;
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      if (bits[l] == mask.bits()[l]) continue;
      deltas.push_back(
          igp::EdgeDelta{t.link(l).from, t.link(l).to, t.link(l).metric, mask.bits()[l]});
    }
    bits = mask.bits();
    const igp::NetworkView view = igp::NetworkView::from_topology(t, {}, &mask);
    const std::size_t arena_before = spf.first_hops.arena_size();
    igp::SpfUpdate update = igp::update_spf(view, spf, deltas);
    if (update.mode != igp::SpfUpdate::Mode::kUnchanged) spf = std::move(update.result);
    if (update.mode == igp::SpfUpdate::Mode::kIncremental) {
      ++incremental;
      if (spf.first_hops.arena_size() < arena_before) ++compactions;
    }
    const igp::SpfResult fresh = igp::run_spf(view, source);
    for (topo::NodeId v = 0; v < t.node_count(); ++v) {
      ASSERT_EQ(spf.dist[v], fresh.dist[v]) << "batch " << batch << " node " << v;
      ASSERT_TRUE(std::ranges::equal(spf.first_hops[v], fresh.first_hops[v]))
          << "batch " << batch << " node " << v;
    }
    ASSERT_TRUE(spf.first_hops == fresh.first_hops) << "batch " << batch;
    ASSERT_LE(spf.first_hops.arena_size(), 2 * spf.first_hops.live_size())
        << "batch " << batch;
  }
  EXPECT_GT(incremental, 50u);
  EXPECT_GT(compactions, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpfProperty, ::testing::Range<std::uint64_t>(1, 9));

// ----------------------------------------------------- LPM trie vs linear scan

class LpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmProperty, MatchesLinearScanReference) {
  util::Rng rng(GetParam());
  net::LpmTrie<int> trie;
  std::vector<std::pair<net::Prefix, int>> entries;
  for (int i = 0; i < 60; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_int(0, 28));
    const net::Prefix p(net::Ipv4(static_cast<std::uint32_t>(
                            rng.uniform_int(0, 0xffffffffLL))),
                        len);
    // Insert-or-overwrite in both structures.
    trie.insert(p, i);
    bool replaced = false;
    for (auto& [q, v] : entries) {
      if (q == p) {
        v = i;
        replaced = true;
        break;
      }
    }
    if (!replaced) entries.emplace_back(p, i);
  }
  for (int probe = 0; probe < 400; ++probe) {
    const net::Ipv4 addr(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL)));
    const auto got = trie.lookup(addr);
    // Reference: longest matching prefix by linear scan.
    const std::pair<net::Prefix, int>* best = nullptr;
    for (const auto& entry : entries) {
      if (!entry.first.contains(addr)) continue;
      if (best == nullptr || entry.first.length() > best->first.length()) {
        best = &entry;
      }
    }
    if (best == nullptr) {
      EXPECT_FALSE(got.has_value()) << addr.to_string();
    } else {
      ASSERT_TRUE(got.has_value()) << addr.to_string();
      EXPECT_EQ(*got->value, best->second) << addr.to_string();
      EXPECT_EQ(got->prefix, best->first) << addr.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty, ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------------------------------ max-min fairness laws

class RateSolverProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RateSolverProperty, CapacityEfficiencyAndFairness) {
  util::Rng rng(GetParam());
  const topo::Topology t = topo::make_waxman(12, rng, 0.6, 0.6, 5, 50.0, 200.0);
  const igp::NetworkView view = igp::NetworkView::from_topology(t);

  // Random delivered paths along shortest routes.
  std::vector<dataplane::FlowPath> paths;
  std::vector<double> demands;
  for (int i = 0; i < 40; ++i) {
    const auto src = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
    auto dst = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
    if (dst == src) dst = (dst + 1) % static_cast<topo::NodeId>(t.node_count());
    // Walk the shortest route hop by hop (lowest first hop on ECMP ties).
    dataplane::FlowPath path;
    topo::NodeId u = src;
    while (u != dst) {
      const igp::SpfResult spf = igp::run_spf(view, u);
      if (!spf.reaches(dst)) break;
      const topo::NodeId next = spf.first_hops[dst].front();
      path.links.push_back(t.link_between(u, next));
      u = next;
    }
    if (u != dst) continue;
    path.outcome = dataplane::FlowPath::Outcome::kDelivered;
    path.egress = dst;
    paths.push_back(std::move(path));
    demands.push_back(rng.uniform(5.0, 80.0));
  }
  std::vector<dataplane::RatedFlow> flows;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    flows.push_back(dataplane::RatedFlow{i + 1, demands[i], &paths[i]});
  }
  const std::vector<double> rates = dataplane::max_min_rates(t, flows);

  std::vector<double> used(t.link_count(), 0.0);
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_GE(rates[i], 0.0);
    EXPECT_LE(rates[i], demands[i] + 1e-9);
    for (const topo::LinkId l : paths[i].links) used[l] += rates[i];
  }
  // 1. Capacity: no link over its limit.
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    EXPECT_LE(used[l], t.link(l).capacity_bps * (1 + 1e-9)) << t.link_name(l);
  }
  // 2. Efficiency (Pareto): every throttled flow crosses a saturated link.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (rates[i] >= demands[i] - 1e-6) continue;
    bool saturated = false;
    for (const topo::LinkId l : paths[i].links) {
      if (used[l] >= t.link(l).capacity_bps * (1 - 1e-6)) saturated = true;
    }
    EXPECT_TRUE(saturated) << "flow " << i;
  }
  // 3. Max-min: on each saturated link, every throttled flow crossing it
  //    has rate >= any other crossing flow's rate minus epsilon... i.e. a
  //    throttled flow's rate equals the max of the link's min rates.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (rates[i] >= demands[i] - 1e-6) continue;
    // The flow is bottlenecked somewhere: on that link no flow may hold
    // more than rates[i] unless it is demand-limited below its fair share.
    bool justified = false;
    for (const topo::LinkId l : paths[i].links) {
      if (used[l] < t.link(l).capacity_bps * (1 - 1e-6)) continue;
      bool dominated = false;
      for (std::size_t j = 0; j < flows.size(); ++j) {
        if (j == i || rates[j] <= rates[i] + 1e-6) continue;
        bool crosses = false;
        for (const topo::LinkId m : paths[j].links) {
          if (m == l) crosses = true;
        }
        if (crosses && rates[j] > rates[i] + 1e-6 &&
            rates[j] > demands[j] - 1e-6) {
          // j holds more but only because it is demand-limited: fine.
        } else if (crosses) {
          dominated = true;
        }
      }
      if (!dominated) justified = true;
    }
    EXPECT_TRUE(justified) << "flow " << i << " could be increased";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RateSolverProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

// ------------------------------- scoped data-plane updates vs full recompute

/// NetworkSim re-walks only the flows a mutation can move, updates rates
/// only when a path moved, and runs the full max-min solve only while a link
/// does not fit. Reference: after every step, walk every flow from scratch
/// over a mirror of the FIBs and solve max-min rates over all flows in id
/// order; paths, flow rates and link rates must match exactly.
class DataplaneIncrementalProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Rate updates of one run, and the full max-min solves among them.
struct RateWork {
  std::uint64_t updates = 0;
  std::uint64_t max_min_solves = 0;
};

/// One seeded run of random add/remove/fail/restore steps, FIB swaps
/// (set_fib) and table flips (flip_table with the changed prefixes) on a
/// Waxman graph whose link capacities (50-200 Mb/s) are multiplied by
/// `capacity_scale`, checked against the reference after every step. A /16
/// announced elsewhere covers the flows' four /24s, so a flow whose /24
/// route vanishes at a router falls back to the /16 there.
void check_scoped_updates(std::uint64_t seed, double capacity_scale, RateWork* work) {
  util::Rng rng(seed ^ 0xda7a);
  // The flips and the /16 draw from their own stream, so the other steps
  // keep theirs.
  util::Rng flip_rng(seed ^ 0xf119);
  topo::Topology t = topo::make_waxman(
      static_cast<std::size_t>(rng.uniform_int(30, 60)), rng, 0.5, 0.5, 8,
      50e6 * capacity_scale, 200e6 * capacity_scale);
  std::vector<net::Prefix> used;
  for (std::uint8_t i = 0; i < 4; ++i) {
    used.emplace_back(net::Ipv4(203, 0, i, 0), 24);
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                    used.back());
  }
  const net::Prefix unused(net::Ipv4(198, 51, 100, 0), 24);  // no flow goes here
  t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())), unused);
  const net::Prefix aggregate(net::Ipv4(203, 0, 0, 0), 16);  // covers every flow
  t.attach_prefix(static_cast<topo::NodeId>(flip_rng.pick_index(t.node_count())),
                  aggregate);

  // FIB sources: tables under 3 link masks x {no lies, lies on the flows'
  // prefixes} x {no lies, lies on the unused prefix}. Flipping only the
  // last choice changes only entries no flow reads.
  const auto lies_on = [&](const std::vector<net::Prefix>& prefixes, std::uint64_t id) {
    std::vector<igp::NetworkView::External> lies;
    for (int i = 0; i < 12; ++i) {
      const auto l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      lies.push_back(igp::NetworkView::External{
          id++, prefixes[rng.pick_index(prefixes.size())],
          static_cast<topo::Metric>(rng.uniform_int(0, 3)),
          t.link(t.link(l).reverse).local_addr});
    }
    return lies;
  };
  const std::vector<igp::NetworkView::External> used_lies = lies_on(used, 1);
  const std::vector<igp::NetworkView::External> unused_lies = lies_on({unused}, 101);
  std::vector<std::vector<igp::RoutingTable>> sources;  // index: 4*mask + 2*u + v
  for (int m = 0; m < 3; ++m) {
    topo::LinkStateMask mask(t);
    for (int k = 0; k < 4 * m; ++k) {
      mask.fail(static_cast<topo::LinkId>(rng.pick_index(t.link_count())));
    }
    for (int u = 0; u < 2; ++u) {
      for (int v = 0; v < 2; ++v) {
        std::vector<igp::NetworkView::External> lies;
        if (u == 1) lies = used_lies;
        if (v == 1) lies.insert(lies.end(), unused_lies.begin(), unused_lies.end());
        sources.push_back(igp::compute_all_routes(
            igp::NetworkView::from_topology(t, std::move(lies), &mask)));
      }
    }
  }
  const auto make_fib = [&](topo::NodeId n, std::size_t source) {
    return dataplane::Fib::from_routing_table(t, n, sources[source][n]);
  };

  util::EventQueue events;
  dataplane::NetworkSim sim(t, events);
  sim.install_tables(sources[0]);
  std::vector<std::size_t> installed(t.node_count(), 0);  // last source set
  std::vector<igp::RoutingTable> tables = sources[0];     // what each FIB holds
  std::vector<dataplane::Fib> mirror;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) mirror.push_back(make_fib(n, 0));
  std::map<dataplane::FlowId, dataplane::Flow> flows;
  std::uint16_t next_port = 1000;
  const auto add_flow = [&] {
    const net::Prefix& dst = used[rng.pick_index(used.size())];
    dataplane::Flow f = support::make_flow(
        static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
        dst.host(static_cast<std::uint32_t>(rng.uniform_int(1, 200))), next_port++,
        rng.uniform(5e6, 40e6));
    f.id = sim.add_flow(f);
    flows.emplace(f.id, f);
  };
  for (int i = 0; i < 100; ++i) add_flow();

  const auto random_flow = [&] {
    return std::next(flows.begin(),
                     static_cast<std::ptrdiff_t>(rng.pick_index(flows.size())));
  };
  const auto set_table = [&](topo::NodeId n, const igp::RoutingTable& table) {
    sim.set_fib(n, dataplane::Fib::from_routing_table(t, n, table));
    mirror[n] = dataplane::Fib::from_routing_table(t, n, table);
    tables[n] = table;
  };
  const auto set_fib = [&](topo::NodeId n, std::size_t source) {
    set_table(n, sources[source][n]);
    installed[n] = source;
  };
  // A router's table flip as an SPF run hands it over: the new table and
  // the prefixes whose entry changed. Returns that list.
  const auto flip = [&](topo::NodeId n, const igp::RoutingTable& table) {
    const std::vector<net::Prefix> changed = igp::changed_prefixes(tables[n], table);
    sim.flip_table(n, table, changed);
    mirror[n] = dataplane::Fib::from_routing_table(t, n, table);
    tables[n] = table;
    return changed;
  };
  // A router on a random flow's path, and that flow's /24.
  const auto on_some_path = [&] {
    const auto it = std::next(
        flows.begin(), static_cast<std::ptrdiff_t>(flip_rng.pick_index(flows.size())));
    const dataplane::FlowPath& path = sim.flow_path(it->first);
    const std::size_t hop = flip_rng.pick_index(path.links.size() + 1);
    const topo::NodeId n = hop == 0 ? it->second.ingress : t.link(path.links[hop - 1]).to;
    return std::pair{n, *std::find_if(used.begin(), used.end(), [&](const net::Prefix& p) {
                       return p.contains(it->second.dst);
                     })};
  };
  int quiet_swaps = 0;   // set_fib that walked no flow
  int still_swaps = 0;   // walked, but no path moved
  int moving_swaps = 0;  // a path moved
  int empty_flips = 0;
  int vanishing_flips = 0;  // a changed prefix has no route left
  int cost_flips = 0;       // only costs changed
  int nested_flips = 0;     // the /16 and a /24 changed together
  int moving_flips = 0;     // a flip moved a path
  for (int step = 0; step < 450; ++step) {
    const std::uint64_t walks = sim.flow_walks();
    const std::uint64_t solves = sim.rate_solves();
    // One step in three is a table flip (kinds 8-11).
    const auto kind =
        flip_rng.chance(1.0 / 3) ? flip_rng.uniform_int(8, 11) : rng.uniform_int(0, 7);
    bool swap = false;
    if (kind == 0 || (kind == 1 && flows.size() < 80)) {
      add_flow();
    } else if (kind == 1) {
      const auto it = random_flow();
      sim.remove_flow(it->first);
      flows.erase(it);
    } else if (kind == 2) {
      sim.fail_link(static_cast<topo::LinkId>(rng.pick_index(t.link_count())));
    } else if (kind == 3) {
      const std::vector<topo::LinkId> down = sim.link_state().down_links();
      if (!down.empty()) sim.restore_link(down[rng.pick_index(down.size())]);
    } else if (kind == 4) {
      // Identical table.
      const auto n = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
      set_table(n, tables[n]);
      swap = true;
    } else if (kind == 5) {
      // Only the unused prefix's entry changes.
      const auto n = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
      installed[n] ^= 1;
      igp::RoutingTable table = tables[n];
      table.erase(unused);
      if (const auto it = sources[installed[n]][n].find(unused);
          it != sources[installed[n]][n].end()) {
        table.insert(*it);
      }
      set_table(n, table);
      swap = true;
    } else if (kind == 8) {
      // A flip that changed nothing: no walk and no rate update.
      const auto n = on_some_path().first;
      const igp::RoutingTable same = tables[n];
      EXPECT_TRUE(flip(n, same).empty()) << "step " << step;
      ++empty_flips;
      EXPECT_EQ(sim.flow_walks(), walks) << "step " << step;
      EXPECT_EQ(sim.rate_solves(), solves) << "step " << step;
    } else if (kind == 9) {
      // A flow's /24 route vanishes, and half the time the /16's with it.
      const auto [n, prefix] = on_some_path();
      igp::RoutingTable table = tables[n];
      table.erase(prefix);
      if (flip_rng.chance(0.5)) table.erase(aggregate);
      const std::vector<net::Prefix> changed = flip(n, table);
      if (!changed.empty()) ++vanishing_flips;
    } else if (kind == 10) {
      // Every route's cost moves, no next hop does: nothing to walk.
      const auto n = on_some_path().first;
      igp::RoutingTable table = tables[n];
      for (auto& [prefix, entry] : table) ++entry.cost;
      const std::vector<net::Prefix> changed = flip(n, table);
      EXPECT_EQ(changed.size(), table.size()) << "step " << step;
      EXPECT_EQ(sim.flow_walks(), walks) << "step " << step;
      EXPECT_EQ(sim.rate_solves(), solves) << "step " << step;
      if (!changed.empty()) ++cost_flips;
    } else if (kind == 11) {
      // The /16 takes another route of the router, while a flow's /24
      // vanishes, returns from a source table or changes with it.
      const auto [n, prefix] = on_some_path();
      igp::RoutingTable table = tables[n];
      if (!table.empty()) {
        const igp::RouteEntry other =
            std::next(table.begin(),
                      static_cast<std::ptrdiff_t>(flip_rng.pick_index(table.size())))
                ->second;
        table[aggregate] = other;
      }
      const igp::RoutingTable& source = sources[flip_rng.pick_index(sources.size())][n];
      if (const auto it = source.find(prefix);
          it != source.end() && flip_rng.chance(0.5)) {
        table[prefix] = it->second;
      } else {
        table.erase(prefix);
      }
      const std::vector<net::Prefix> changed = flip(n, table);
      if (std::ranges::binary_search(changed, aggregate) &&
          std::ranges::binary_search(changed, prefix)) {
        ++nested_flips;
      }
    } else {
      // At a router on some flow's path, a table whose route to the flow's
      // prefix differs from the installed one (any table if none does).
      const auto it = random_flow();
      const dataplane::FlowPath& path = sim.flow_path(it->first);
      const std::size_t hop = rng.pick_index(path.links.size() + 1);
      const topo::NodeId n =
          hop == 0 ? it->second.ingress : t.link(path.links[hop - 1]).to;
      const net::Prefix& prefix =
          *std::find_if(used.begin(), used.end(),
                        [&](const net::Prefix& p) { return p.contains(it->second.dst); });
      const auto route = [&](const igp::RoutingTable& table) {
        const auto found = table.find(prefix);
        return found == table.end() ? std::nullopt : std::optional(found->second);
      };
      std::vector<std::size_t> differing;
      for (std::size_t k = 0; k < sources.size(); ++k) {
        if (route(sources[k][n]) != route(tables[n])) differing.push_back(k);
      }
      set_fib(n, differing.empty() ? rng.pick_index(sources.size())
                                   : differing[rng.pick_index(differing.size())]);
      swap = true;
    }
    if (kind >= 8 && sim.rate_solves() != solves) ++moving_flips;
    if (swap) {
      if (sim.flow_walks() == walks) {
        ++quiet_swaps;
        EXPECT_EQ(sim.rate_solves(), solves) << "step " << step;
      } else if (sim.rate_solves() == solves) {
        ++still_swaps;
      } else {
        ++moving_swaps;
      }
    }

    std::vector<dataplane::FlowPath> paths;
    std::vector<dataplane::RatedFlow> rated;
    paths.reserve(flows.size());
    for (const auto& [id, flow] : flows) {
      paths.push_back(dataplane::walk_flow(t, mirror, flow, sim.link_state().bits()));
      rated.push_back(dataplane::RatedFlow{id, flow.demand_bps, &paths.back()});
    }
    const std::vector<double> rates = dataplane::max_min_rates(t, rated);
    std::vector<double> link_rates(t.link_count(), 0.0);
    std::size_t looping = 0;
    std::size_t blackholed = 0;
    for (std::size_t i = 0; i < rated.size(); ++i) {
      const dataplane::FlowId id = rated[i].id;
      ASSERT_TRUE(sim.flow_path(id) == paths[i]) << "step " << step << " flow " << id;
      ASSERT_EQ(sim.flow_rate(id), rates[i]) << "step " << step << " flow " << id;
      if (paths[i].delivered()) {
        for (const topo::LinkId l : paths[i].links) link_rates[l] += rates[i];
      }
      looping += paths[i].outcome == dataplane::FlowPath::Outcome::kLoop ? 1 : 0;
      blackholed += paths[i].outcome == dataplane::FlowPath::Outcome::kBlackhole ? 1 : 0;
    }
    for (topo::LinkId l = 0; l < t.link_count(); ++l) {
      ASSERT_EQ(sim.link_rate(l), link_rates[l]) << "step " << step << " link " << l;
    }
    ASSERT_EQ(sim.looping_flows(), looping) << "step " << step;
    ASSERT_EQ(sim.blackholed_flows(), blackholed) << "step " << step;
  }
  // Every scope must have carried some swaps, and every kind of flip
  // must have occurred.
  EXPECT_GT(quiet_swaps, 0);
  EXPECT_GT(still_swaps, 0);
  EXPECT_GT(moving_swaps, 0);
  EXPECT_GT(empty_flips, 0);
  EXPECT_GT(vanishing_flips, 0);
  EXPECT_GT(cost_flips, 0);
  EXPECT_GT(nested_flips, 0);
  EXPECT_GT(moving_flips, 0);
  *work = RateWork{sim.rate_solves(), sim.max_min_solves()};
}

TEST_P(DataplaneIncrementalProperty, ScopedUpdatesMatchFullRecompute) {
  RateWork work;
  check_scoped_updates(GetParam(), 1.0, &work);
}

/// At x4 some links fill and drain, so updates mix the shortcut and the
/// full solve; at x100 no link ever fills, so no update runs the full solve.
TEST_P(DataplaneIncrementalProperty, UncongestedShortcutMatchesFullRecompute) {
  RateWork mixed;
  check_scoped_updates(GetParam(), 4.0, &mixed);
  if (HasFatalFailure()) return;
  EXPECT_GT(mixed.max_min_solves, 0u);
  EXPECT_LT(mixed.max_min_solves, mixed.updates);
  RateWork roomy;
  check_scoped_updates(GetParam(), 100.0, &roomy);
  if (HasFatalFailure()) return;
  EXPECT_GT(roomy.updates, 0u);
  EXPECT_EQ(roomy.max_min_solves, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DataplaneIncrementalProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// ------------------------------------------------- max-flow vs min-cut bound

class MaxFlowProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MaxFlowProperty, FlowConservationAndCutBound) {
  util::Rng rng(GetParam());
  const std::size_t n = 10;
  te::MaxFlow mf(n);
  struct E {
    std::size_t from, to, id;
    double cap;
  };
  std::vector<E> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v && rng.chance(0.3)) {
        const double cap = rng.uniform(1.0, 20.0);
        edges.push_back(E{u, v, mf.add_edge(u, v, cap), cap});
      }
    }
  }
  const double value = mf.solve(0, n - 1);

  // Conservation at interior nodes; source/sink balance equals the value.
  std::vector<double> net(n, 0.0);
  for (const E& e : edges) {
    const double f = mf.flow_on(e.id);
    EXPECT_GE(f, -1e-9);
    EXPECT_LE(f, e.cap + 1e-9);
    net[e.from] -= f;
    net[e.to] += f;
  }
  for (std::size_t v = 1; v + 1 < n; ++v) EXPECT_NEAR(net[v], 0.0, 1e-6);
  EXPECT_NEAR(-net[0], value, 1e-6);
  EXPECT_NEAR(net[n - 1], value, 1e-6);

  // Weak duality: any random cut upper-bounds the flow value.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<bool> side(n, false);
    side[0] = true;  // source side
    for (std::size_t v = 1; v + 1 < n; ++v) side[v] = rng.chance(0.5);
    double cut = 0.0;
    for (const E& e : edges) {
      if (side[e.from] && !side[e.to]) cut += e.cap;
    }
    EXPECT_GE(cut, value - 1e-6);
  }
}

/// The min-max search re-capacitates one network per probe: through a
/// sequence of thetas (with widened edges and residual pushes in between, as
/// the refinement leaves them), every solve and every edge's flow must be
/// bit-identical to a fresh network built at that theta.
TEST_P(MaxFlowProperty, RecapacitatedNetworkMatchesFreshOne) {
  util::Rng rng(GetParam() ^ 0xf10e);
  const std::size_t n = 10;
  struct E {
    std::size_t from, to;
    double cap;
  };
  std::vector<E> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (std::size_t v = 0; v < n; ++v) {
      if (u != v && rng.chance(0.3)) edges.push_back(E{u, v, rng.uniform(1.0, 20.0)});
    }
  }
  te::MaxFlow reused(n);
  for (const E& e : edges) reused.add_edge(e.from, e.to, e.cap);
  std::vector<double> thetas{1.0, 2.0, 0.5, 0.75, 0.625, 0.0, 3.0};
  for (int k = 0; k < 6; ++k) thetas.push_back(rng.uniform(0.05, 4.0));
  for (const double theta : thetas) {
    te::MaxFlow fresh(n);
    std::vector<double> caps;
    for (const E& e : edges) {
      caps.push_back(theta * e.cap);
      fresh.add_edge(e.from, e.to, theta * e.cap);
    }
    reused.set_capacities(caps);
    EXPECT_EQ(reused.solve(0, n - 1), fresh.solve(0, n - 1)) << "theta " << theta;
    EXPECT_EQ(reused.flows(), fresh.flows()) << "theta " << theta;
    if (!edges.empty()) {
      // Leave state behind that the next set_capacities must clear.
      reused.widen(rng.pick_index(edges.size()), 1.5);
      (void)reused.push_residual(0, n - 1, 0.25);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaxFlowProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

// ------------------------------------------------ ratio approximation bounds

class RatioProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {};

TEST_P(RatioProperty, ErrorWithinApportionmentBound) {
  const auto [budget, seed] = GetParam();
  util::Rng rng(seed);
  for (int trial = 0; trial < 40; ++trial) {
    const auto k = static_cast<std::size_t>(rng.uniform_int(
        2, std::min<std::uint32_t>(budget, 4)));
    std::vector<double> f(k);
    double sum = 0.0;
    for (double& x : f) sum += (x = rng.uniform(0.02, 1.0));
    for (double& x : f) x /= sum;
    const auto w = te::approximate_ratios(f, budget);
    // Sum within budget; every positive fraction keeps at least one slot.
    std::uint32_t total = 0;
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_GE(w[i], 1u);
      total += w[i];
    }
    EXPECT_LE(total, budget);
    // With enough room (budget >= 2k) the apportionment lands within one
    // slot of the target; at budget == k the floors dominate and only the
    // structural invariants above hold.
    if (budget >= 2 * k) {
      EXPECT_LE(te::ratio_error(w, f), 1.0 / static_cast<double>(k) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    BudgetsAndSeeds, RatioProperty,
    ::testing::Combine(::testing::Values(2u, 4u, 8u, 16u),
                       ::testing::Values(11ull, 22ull, 33ull)));

// ----------------------------------- augmentation: random two-hop requirements

class AugmentProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// Random per-destination requirements (random uneven splits over random
/// adjacent next hops that lie on *some* sensible DAG): compile + verify
/// must either succeed exactly or fail with the granularity diagnostic.
TEST_P(AugmentProperty, CompiledLiesVerifyExactly) {
  util::Rng rng(GetParam());
  topo::Topology base = topo::make_waxman(12, rng, 0.55, 0.55, 4);
  topo::Topology t;
  for (topo::NodeId v = 0; v < base.node_count(); ++v) t.add_node(base.node(v).name);
  for (topo::LinkId l = 0; l < base.link_count(); ++l) {
    const topo::Link& link = base.link(l);
    if (link.from < link.to) {
      t.add_link(link.from, link.to, link.metric * 4, link.capacity_bps);
    }
  }
  const auto dest = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
  const net::Prefix prefix(net::Ipv4(203, 0, 113, 0), 24);
  t.attach_prefix(dest, prefix, 16);

  // Requirements from a *valid DAG*: distances to dest strictly decrease
  // along required edges, so acyclicity holds by construction.
  const igp::NetworkView view = igp::NetworkView::from_topology(t);
  std::vector<topo::Metric> dist_to_dest(t.node_count());
  for (topo::NodeId v = 0; v < t.node_count(); ++v) {
    dist_to_dest[v] = igp::run_spf(view, v).dist[dest];
  }
  core::DestRequirement req;
  req.prefix = prefix;
  for (topo::NodeId u = 0; u < t.node_count(); ++u) {
    if (u == dest || !rng.chance(0.4)) continue;
    std::vector<igp::WeightedNextHop> hops;
    for (const topo::LinkId l : t.out_links(u)) {
      const topo::NodeId v = t.link(l).to;
      if (dist_to_dest[v] < dist_to_dest[u] && rng.chance(0.7)) {
        hops.push_back(igp::WeightedNextHop{
            v, static_cast<std::uint32_t>(rng.uniform_int(1, 3))});
      }
    }
    if (!hops.empty()) req.nodes.emplace(u, std::move(hops));
  }
  if (req.nodes.empty()) return;  // nothing to realize for this seed
  ASSERT_TRUE(core::validate_requirement(t, req).ok());

  const auto compiled = core::compile_lies(t, req);
  if (!compiled.ok()) {
    EXPECT_TRUE(compiled.error().find("granularity") != std::string::npos ||
                compiled.error().find("repair") != std::string::npos ||
                compiled.error().find("steer") != std::string::npos)
        << compiled.error();
    return;
  }
  const core::VerifyReport report =
      core::verify_augmentation(t, req, compiled.value().lies);
  EXPECT_TRUE(report.ok()) << report.to_string(t);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AugmentProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------ forwarding: hash shares track weights

class EcmpShareProperty
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(EcmpShareProperty, FlowSharesTrackFibWeights) {
  const auto [w1, w2] = GetParam();
  const topo::PaperTopology p = topo::make_paper_topology();
  dataplane::FibEntry entry{
      false,
      {dataplane::FibNextHop{0, 1, w1}, dataplane::FibNextHop{1, 2, w2}}};
  const double target = static_cast<double>(w1) / (w1 + w2);
  int first = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const dataplane::Flow f =
        support::make_flow(0, p.p1.host(static_cast<std::uint32_t>(1 + i % 120)),
                           static_cast<std::uint16_t>(1024 + i));
    if (dataplane::select_next_hop(entry, f, 99) == 0) ++first;
  }
  EXPECT_NEAR(static_cast<double>(first) / n, target, 0.035)
      << "weights " << w1 << ":" << w2;
}

INSTANTIATE_TEST_SUITE_P(Weights, EcmpShareProperty,
                         ::testing::Values(std::pair<std::uint32_t, std::uint32_t>{1, 1},
                                           std::pair<std::uint32_t, std::uint32_t>{1, 2},
                                           std::pair<std::uint32_t, std::uint32_t>{1, 3},
                                           std::pair<std::uint32_t, std::uint32_t>{2, 3},
                                           std::pair<std::uint32_t, std::uint32_t>{3, 5},
                                           std::pair<std::uint32_t, std::uint32_t>{1, 7}));

// ----------------------------- churn: interleaved fail/restore/surge/subside

/// True when every node can still reach every other over the links that
/// would remain up if `candidate`'s adjacency also went down.
bool stays_connected_without(const topo::Topology& t,
                             const topo::LinkStateMask& mask,
                             topo::LinkId candidate) {
  const topo::LinkId cand_rev = t.link(candidate).reverse;
  std::vector<bool> seen(t.node_count(), false);
  std::vector<topo::NodeId> queue{0};
  seen[0] = true;
  while (!queue.empty()) {
    const topo::NodeId u = queue.back();
    queue.pop_back();
    for (const topo::LinkId l : t.out_links(u)) {
      if (mask.is_down(l) || l == candidate || l == cand_rev) continue;
      const topo::NodeId v = t.link(l).to;
      if (!seen[v]) {
        seen[v] = true;
        queue.push_back(v);
      }
    }
  }
  return std::all_of(seen.begin(), seen.end(), [](bool s) { return s; });
}

class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

/// ~200 random interleaved fail / restore / surge / subside steps. After
/// every step settles, the run must preserve traffic conservation (transit
/// nodes forward exactly what they receive), never hold a lie that steers
/// over a down link, and never loop or blackhole a flow (failures keep the
/// graph connected; partition blackholes are exercised elsewhere). Once all
/// links are restored and load subsides, the whole system must reconverge
/// to the no-lie full-topology routes of a pristine boot.
/// `max_group` > 1 turns every fail / restore step into a shared-risk-group
/// event: 2..max_group adjacencies flip together before the network settles
/// (a conduit cut taking down every fiber it carries). max_group == 1
/// reproduces the single-link churn byte-for-byte (no extra rng draws).
void run_churn_scenario(std::uint64_t seed, const core::ServiceConfig& config,
                        int max_group = 1) {
  util::Rng rng(seed);
  support::PaperScenario run(config);
  core::FibbingService& service = run.service;
  const topo::Topology& t = run.p.topo;
  const video::VideoAsset asset{1e6, 3600.0};  // only churn ends sessions

  std::vector<topo::LinkId> adjacencies;  // one id per pair (from < to)
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    if (t.link(l).from < t.link(l).to) adjacencies.push_back(l);
  }
  const std::vector<topo::NodeId> transit{run.p.r1, run.p.r2, run.p.r3, run.p.r4};

  std::vector<video::SessionId> sessions;
  std::uint32_t next_host = 1;
  double now = 0.0;
  for (int step = 0; step < 200; ++step) {
    const auto kind = rng.uniform_int(0, 3);
    if (kind == 0) {
      // Fail random up adjacencies whose loss keeps the graph connected --
      // the whole group before the network settles when SRLGs are on.
      const int group =
          max_group > 1 ? static_cast<int>(rng.uniform_int(2, max_group)) : 1;
      for (int g = 0; g < group; ++g) {
        std::vector<topo::LinkId> candidates;
        for (const topo::LinkId l : adjacencies) {
          if (!service.link_state().is_down(l) &&
              stays_connected_without(t, service.link_state(), l)) {
            candidates.push_back(l);
          }
        }
        if (candidates.empty()) break;
        const topo::LinkId l = candidates[rng.pick_index(candidates.size())];
        ASSERT_TRUE(service.fail_link(t.link(l).from, t.link(l).to).ok());
      }
    } else if (kind == 1) {
      // Restore random down adjacencies (no-op when nothing is down).
      const int group =
          max_group > 1 ? static_cast<int>(rng.uniform_int(2, max_group)) : 1;
      for (int g = 0; g < group; ++g) {
        std::vector<topo::LinkId> downs;
        for (const topo::LinkId l : adjacencies) {
          if (service.link_state().is_down(l)) downs.push_back(l);
        }
        if (downs.empty()) break;
        const topo::LinkId l = downs[rng.pick_index(downs.size())];
        ASSERT_TRUE(service.restore_link(t.link(l).from, t.link(l).to).ok());
      }
    } else if (kind == 2 && sessions.size() < 45) {
      // Surge: a batch of sessions toward P1 (from S1) or P2 (from S2).
      const bool p1 = rng.chance(0.5);
      const auto count = rng.uniform_int(3, 8);
      for (std::int64_t i = 0; i < count; ++i) {
        const net::Prefix& prefix = p1 ? run.p.p1 : run.p.p2;
        sessions.push_back(service.video().start_session(
            p1 ? run.s1 : run.s2, prefix, prefix.host(1 + next_host++ % 120),
            asset));
      }
    } else if (kind == 3 && !sessions.empty()) {
      // Subside: a few clients leave.
      const auto count =
          std::min<std::size_t>(sessions.size(),
                                static_cast<std::size_t>(rng.uniform_int(1, 8)));
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t pick = rng.pick_index(sessions.size());
        service.video().stop_session(sessions[pick]);
        sessions[pick] = sessions.back();
        sessions.pop_back();
      }
    }
    now += 2.0;  // IGP floods, SPF holds and the controller all settle
    run.run_until(now);

    ASSERT_TRUE(support::lies_respect_link_state(service)) << "step " << step;
    // Each router's FIB was patched from the changed prefixes its SPF runs
    // handed over; it must hold exactly the router's table.
    for (topo::NodeId n = 0; n < t.node_count(); ++n) {
      ASSERT_EQ(service.sim().fib(n).to_string(t),
                dataplane::Fib::from_routing_table(t, n, service.domain().table(n))
                    .to_string(t))
          << "step " << step << " at " << t.node(n).name;
    }
    ASSERT_EQ(service.sim().looping_flows(), 0u) << "step " << step;
    ASSERT_EQ(service.sim().blackholed_flows(), 0u) << "step " << step;
    for (const topo::NodeId n : transit) {
      ASSERT_TRUE(support::transit_conserved(service, n))
          << "step " << step << " at " << t.node(n).name;
    }

    // Cache/fresh equivalence under churn: the controller's shared route
    // cache must serve tables bit-identical to a from-scratch all-pairs
    // computation for the live topology state and the live lie set.
    std::vector<core::Lie> lies;
    for (const auto& [prefix, placed] : service.controller().active_lies()) {
      lies.insert(lies.end(), placed.begin(), placed.end());
    }
    const auto cached =
        service.controller().route_cache().tables(core::to_externals(lies));
    const auto fresh = igp::compute_all_routes(igp::NetworkView::from_topology(
        t, core::to_externals(lies), &service.link_state()));
    ASSERT_EQ(support::routing_tables(*cached, t.node_count()), fresh)
        << "cache diverged from fresh routes at step " << step;
  }

  // Drain: all links back up, all clients gone.
  for (const topo::LinkId l : adjacencies) {
    if (service.link_state().is_down(l)) {
      ASSERT_TRUE(service.restore_link(t.link(l).from, t.link(l).to).ok());
    }
  }
  for (const video::SessionId id : sessions) service.video().stop_session(id);
  now += 30.0;
  run.run_until(now);

  // The run must actually have exercised the failure-aware loop: plenty of
  // topology events and at least one mitigation and retraction. The
  // retraction tripwire is only meaningful for single-link churn: under
  // grouped (SRLG) events a seed can legitimately shed every lie through
  // stranded re-placement instead of load-driven retraction.
  EXPECT_GT(service.controller().topology_events(), 20);
  EXPECT_GE(service.controller().mitigations(), 1);
  if (max_group == 1) {
    EXPECT_GE(service.controller().retractions(), 1);
  }

  EXPECT_FALSE(service.link_state().any_down());
  EXPECT_EQ(service.controller().active_lie_count(), 0u);
  EXPECT_EQ(service.sim().flow_count(), 0u);
  // Bit-identical to a freshly booted, never-failed service.
  support::PaperScenario pristine;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    EXPECT_EQ(service.domain().table(n), pristine.service.domain().table(n))
        << "router " << t.node(n).name;
  }
}

TEST_P(ChurnProperty, InterleavedChurnPreservesInvariantsAndReconverges) {
  run_churn_scenario(GetParam(), support::demo_config());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnProperty, ::testing::Range<std::uint64_t>(1, 4));

// ------------------------------------------- SRLG churn: grouped fail/restore

/// Shared-risk-group churn: every topology event takes 2-4 adjacencies down
/// (or up) together before the network settles, interleaved with the same
/// surges/subsides. All churn invariants -- and the cache-vs-fresh
/// bit-identity checked after every step -- must survive simultaneous
/// multi-link events, not just the single-link deltas of ChurnProperty.
class SrlgChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SrlgChurnProperty, GroupedFailuresPreserveInvariantsAndReconverge) {
  run_churn_scenario(GetParam(), support::demo_config(), /*max_group=*/4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SrlgChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// --------------------------------------- route cache vs fresh, direct churn

/// Controller-free interleaving check: drive a RouteCache directly with
/// random fail / restore / inject / retract steps (including disconnecting
/// failures and dangling forwarding addresses the controller would never
/// produce) and assert bit-identity with fresh compute_all_routes after
/// every step.
class RouteCacheChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteCacheChurnProperty, CacheMatchesFreshAcrossInterleavings) {
  util::Rng rng(GetParam());
  topo::Topology t = topo::make_waxman(22, rng, 0.5, 0.5, 8);
  for (int i = 0; i < 3; ++i) {
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                    net::Prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0),
                                24));
  }
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  std::vector<igp::NetworkView::External> externals;
  std::uint64_t next_lie_id = 1;
  for (int step = 0; step < 120; ++step) {
    const auto kind = rng.uniform_int(0, 3);
    if (kind == 0) {
      // Fail any up adjacency -- disconnection is fair game for the cache.
      std::vector<topo::LinkId> up;
      for (topo::LinkId l = 0; l < t.link_count(); ++l) {
        if (t.link(l).from < t.link(l).to && !mask.is_down(l)) up.push_back(l);
      }
      if (!up.empty()) mask.fail(up[rng.pick_index(up.size())]);
    } else if (kind == 1) {
      const std::vector<topo::LinkId> down = mask.down_links();
      if (!down.empty()) mask.restore(down[rng.pick_index(down.size())]);
    } else if (kind == 2 && externals.size() < 24) {
      // Inject: a lie steering into a random link (possibly a down one --
      // its forwarding address then dangles, which must also match fresh).
      const topo::LinkId l =
          static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      const bool attached = rng.chance(0.5);
      const net::Prefix prefix =
          attached ? t.prefixes()[rng.pick_index(t.prefixes().size())].prefix
                   : net::Prefix(net::Ipv4(198, 51, 100, 0), 24);
      externals.push_back(igp::NetworkView::External{
          next_lie_id++, prefix,
          static_cast<topo::Metric>(rng.uniform_int(0, 6)),
          t.link(t.link(l).reverse).local_addr});
    } else if (kind == 3 && !externals.empty()) {
      const std::size_t pick = rng.pick_index(externals.size());
      externals[pick] = externals.back();
      externals.pop_back();
    }

    const auto cached = cache.tables(externals);
    const auto fresh = igp::compute_all_routes(
        igp::NetworkView::from_topology(t, externals, &mask));
    ASSERT_EQ(support::routing_tables(*cached, t.node_count()), fresh) << "step " << step;
  }
  // The run must have exercised every cache layer.
  EXPECT_GT(cache.stats().table_builds, 0u);
  EXPECT_GT(cache.stats().generations, 0u);
  EXPECT_GT(cache.stats().spf_incremental + cache.stats().spf_unchanged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheChurnProperty,
                         ::testing::Range<std::uint64_t>(1, 7));

/// SRLG variant: every fail / restore step flips a whole 2-4-adjacency
/// shared-risk group between two cache queries, so refresh_ must diff a
/// multi-link mask delta into one batched update_spf repair. Bit-identity
/// with fresh computation is asserted after every step, and the run must
/// prove the batched incremental path actually carried the events
/// (spf_batched > 0) instead of silently falling back to full Dijkstras.
class RouteCacheSrlgProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteCacheSrlgProperty, GroupedDeltasMatchFreshViaBatchedRepairs) {
  util::Rng rng(GetParam() ^ 0x5516);
  topo::Topology t = topo::make_waxman(24, rng, 0.5, 0.5, 8);
  for (int i = 0; i < 3; ++i) {
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                    net::Prefix(net::Ipv4(203, 0, static_cast<std::uint8_t>(i), 0),
                                24));
  }
  topo::LinkStateMask mask(t);
  igp::RouteCache cache(t, mask);

  std::vector<igp::NetworkView::External> externals;
  std::uint64_t next_lie_id = 1;
  for (int step = 0; step < 100; ++step) {
    const auto kind = rng.uniform_int(0, 3);
    const auto group = rng.uniform_int(2, 4);
    if (kind == 0) {
      // Conduit cut: fail a whole group of up adjacencies at once.
      for (std::int64_t g = 0; g < group; ++g) {
        std::vector<topo::LinkId> up;
        for (topo::LinkId l = 0; l < t.link_count(); ++l) {
          if (t.link(l).from < t.link(l).to && !mask.is_down(l)) up.push_back(l);
        }
        if (up.empty()) break;
        mask.fail(up[rng.pick_index(up.size())]);
      }
    } else if (kind == 1) {
      // Conduit repair: restore a group of down adjacencies at once.
      for (std::int64_t g = 0; g < group; ++g) {
        const std::vector<topo::LinkId> down = mask.down_links();
        if (down.empty()) break;
        mask.restore(down[rng.pick_index(down.size())]);
      }
    } else if (kind == 2 && externals.size() < 24) {
      // Surge stand-in: a lie lands (its FA may dangle on a down link).
      const topo::LinkId l =
          static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      const net::Prefix prefix =
          rng.chance(0.5) ? t.prefixes()[rng.pick_index(t.prefixes().size())].prefix
                          : net::Prefix(net::Ipv4(198, 51, 100, 0), 24);
      externals.push_back(igp::NetworkView::External{
          next_lie_id++, prefix,
          static_cast<topo::Metric>(rng.uniform_int(0, 6)),
          t.link(t.link(l).reverse).local_addr});
    } else if (kind == 3 && !externals.empty()) {
      const std::size_t pick = rng.pick_index(externals.size());
      externals[pick] = externals.back();
      externals.pop_back();
    }

    const auto cached = cache.tables(externals);
    const auto fresh = igp::compute_all_routes(
        igp::NetworkView::from_topology(t, externals, &mask));
    ASSERT_EQ(support::routing_tables(*cached, t.node_count()), fresh) << "step " << step;
  }
  EXPECT_GT(cache.stats().spf_batched, 0u);
  EXPECT_GT(cache.stats().spf_incremental + cache.stats().spf_unchanged, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteCacheSrlgProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// ------------------------------- router SPF view patch vs from_lsdb rebuild

/// The per-node multiset diff of two whole views: the repair input routers
/// computed before they patched one kept view in place.
std::vector<igp::EdgeDelta> adjacency_deltas(const igp::NetworkView& prev,
                                             const igp::NetworkView& next) {
  std::vector<igp::EdgeDelta> deltas;
  using Key = std::pair<topo::NodeId, topo::Metric>;
  for (topo::NodeId u = 0; u < next.node_count(); ++u) {
    std::vector<Key> a;
    std::vector<Key> b;
    for (const auto& e : prev.edges_from(u)) a.emplace_back(e.to, e.metric);
    for (const auto& e : next.edges_from(u)) b.emplace_back(e.to, e.metric);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        deltas.push_back(igp::EdgeDelta{u, a[i].first, a[i].second, true});
        ++i;
      } else if (i == a.size() || b[j] < a[i]) {
        deltas.push_back(igp::EdgeDelta{u, b[j].first, b[j].second, false});
        ++j;
      } else {
        ++i;
        ++j;
      }
    }
  }
  return deltas;
}

/// The first difference between a patched view and from_lsdb's, or "" when
/// they agree: edges and externals in order, subnets and attachments as
/// sorted lists, and every interface address of `t` resolving alike.
std::string view_difference(const igp::NetworkView& got, const igp::NetworkView& want,
                            const topo::Topology& t) {
  using SubnetKey = std::tuple<net::Prefix, topo::NodeId, topo::NodeId, topo::Metric,
                               topo::Metric, std::uint32_t, std::uint32_t>;
  const auto subnet_key = [](const igp::NetworkView::Subnet& s) {
    return SubnetKey{s.prefix,    s.a, s.b, s.metric_ab, s.metric_ba, s.addr_a.bits(),
                     s.addr_b.bits()};
  };
  const auto subnets = [&](const igp::NetworkView& v) {
    std::vector<SubnetKey> out;
    for (const auto& s : v.subnets()) out.push_back(subnet_key(s));
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto attachments = [](const igp::NetworkView& v) {
    std::vector<std::tuple<net::Prefix, topo::NodeId, topo::Metric>> out;
    for (const auto& a : v.attachments()) out.emplace_back(a.prefix, a.node, a.metric);
    std::sort(out.begin(), out.end());
    return out;
  };
  const auto externals = [](const igp::NetworkView& v) {
    std::vector<std::tuple<std::uint64_t, net::Prefix, topo::Metric, std::uint32_t>> out;
    for (const auto& e : v.externals()) {
      out.emplace_back(e.lie_id, e.prefix, e.ext_metric, e.forwarding_address.bits());
    }
    return out;
  };
  if (got.node_count() != want.node_count()) return "node count";
  for (topo::NodeId u = 0; u < want.node_count(); ++u) {
    const auto& g = got.edges_from(u);
    const auto& w = want.edges_from(u);
    const bool same = std::equal(g.begin(), g.end(), w.begin(), w.end(),
                                 [](const auto& x, const auto& y) {
                                   return x.to == y.to && x.metric == y.metric;
                                 });
    if (!same) return "edges of " + std::to_string(u);
  }
  if (subnets(got) != subnets(want)) return "subnets";
  if (attachments(got) != attachments(want)) return "attachments";
  if (externals(got) != externals(want)) return "externals";
  for (topo::LinkId l = 0; l < t.link_count(); ++l) {
    const auto g = got.resolve_forwarding_address(t.link(l).local_addr);
    const auto w = want.resolve_forwarding_address(t.link(l).local_addr);
    if (g.has_value() != w.has_value() ||
        (g && (subnet_key(*g->subnet) != subnet_key(*w->subnet) ||
               g->pointed_router != w->pointed_router))) {
      return "forwarding address of link " + std::to_string(l);
    }
  }
  return "";
}

/// A router's SPF patches one kept view from the LSDB keys that changed
/// since its previous run. Reference: rebuild the view with from_lsdb and
/// run a fresh Dijkstra after every batch of LSDB changes. Batches
/// re-originate Router-LSAs with links dropped, restored or re-metered on
/// one side or both (half-configured adjacencies included), with prefixes
/// hidden or shown; erase Router-LSAs and let them appear late; and
/// install, withdraw and erase lies whose forwarding addresses sit on live
/// and dead subnets.
class RouterViewPatchProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterViewPatchProperty, PatchedViewMatchesFromLsdbRebuild) {
  util::Rng rng(GetParam() ^ 0x5bf);
  topo::Topology t = topo::make_waxman(
      static_cast<std::size_t>(rng.uniform_int(30, 60)), rng, 0.5, 0.5, 8);
  const std::size_t n = t.node_count();
  std::vector<net::Prefix> prefixes;
  for (std::uint8_t i = 0; i < 6; ++i) {
    prefixes.emplace_back(net::Ipv4(203, 0, i, 0), 24);
    t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(n)), prefixes.back(),
                    static_cast<topo::Metric>(rng.uniform_int(0, 3)));
  }
  prefixes.emplace_back(net::Ipv4(198, 51, 100, 0), 24);  // announced by lies only

  igp::Lsdb db;
  std::vector<bool> dropped(t.link_count(), false);  // per directed link
  std::vector<topo::Metric> metric(t.link_count());
  for (topo::LinkId l = 0; l < t.link_count(); ++l) metric[l] = t.link(l).metric;
  std::vector<bool> hide_prefixes(n, false);
  std::vector<igp::SeqNum> router_seq(n, 0);
  std::vector<igp::SeqNum> lie_seq(16, 0);
  const auto present = [&](topo::NodeId u) {
    return db.find(igp::LsaKey{igp::LsaType::kRouter, u}) != nullptr;
  };
  const auto originate = [&](topo::NodeId u) {
    igp::RouterLsa body;
    body.origin = u;
    for (const topo::LinkId l : t.out_links(u)) {
      if (dropped[l]) continue;
      body.links.push_back(
          igp::LsaLink{t.link(l).to, metric[l], t.link(l).subnet, t.link(l).local_addr});
    }
    for (const auto& att : t.prefixes()) {
      if (att.node == u && !hide_prefixes[u]) {
        body.prefixes.push_back(igp::LsaPrefix{att.prefix, att.metric});
      }
    }
    ASSERT_EQ(db.install(igp::Lsa{igp::LsaKey{igp::LsaType::kRouter, u}, ++router_seq[u],
                                  std::move(body)}),
              igp::Lsdb::InstallResult::kNewer);
  };
  const auto install_lie = [&](std::uint64_t id, bool withdrawn) {
    igp::ExternalLsa ext;
    ext.lie_id = id;
    ext.prefix = prefixes[rng.pick_index(prefixes.size())];
    ext.ext_metric = static_cast<topo::Metric>(rng.uniform_int(0, 3));
    // Any interface address: its subnet may be live, dropped on one side or
    // on both, or owned by an absent router.
    ext.forwarding_address =
        t.link(static_cast<topo::LinkId>(rng.pick_index(t.link_count()))).local_addr;
    ext.withdrawn = withdrawn;
    (void)db.install(igp::make_external_lsa(ext, ++lie_seq[id]));
  };

  // Boot: most Router-LSAs are there before the first run, the rest appear
  // later.
  std::vector<bool> was_present(n, false);  // at the previous run
  for (topo::NodeId u = 0; u < n; ++u) {
    if (rng.chance(0.85)) originate(u);
  }
  const auto src = static_cast<topo::NodeId>(rng.pick_index(n));
  igp::RouterSpf spf(src, n);
  igp::NetworkView prev = igp::NetworkView::from_lsdb(igp::Lsdb{}, n);
  int flip_runs = 0;
  int repairs = 0;
  for (int step = 0; step < 300; ++step) {
    std::set<topo::NodeId> touched;  // Router keys this batch changed
    const auto batch = step == 0 ? 0 : rng.uniform_int(1, 3);
    for (std::int64_t a = 0; a < batch; ++a) {
      const auto kind = rng.uniform_int(0, 19);
      const auto l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      const topo::NodeId from = t.link(l).from;
      const topo::NodeId to = t.link(l).to;
      const auto u = static_cast<topo::NodeId>(rng.pick_index(n));
      const auto refresh = [&](topo::NodeId r) {
        if (!present(r)) return;
        originate(r);
        touched.insert(r);
      };
      if (kind <= 3) {
        // Both sides drop (or restore) the link.
        dropped[l] = !dropped[l];
        dropped[t.link(l).reverse] = dropped[l];
        refresh(from);
        refresh(to);
      } else if (kind <= 5) {
        // One side only: the /30 is named on one side, or again on both.
        dropped[l] = !dropped[l];
        refresh(from);
      } else if (kind <= 7) {
        metric[l] = static_cast<topo::Metric>(rng.uniform_int(1, 8));
        refresh(from);
      } else if (kind == 8) {
        hide_prefixes[u] = !hide_prefixes[u];
        refresh(u);
      } else if (kind == 9) {
        refresh(u);  // same content, fresher instance
      } else if (kind == 10) {
        // A flushed Router-LSA (RFC 14 erase of a MaxAge instance).
        if (db.erase(igp::LsaKey{igp::LsaType::kRouter, u})) touched.insert(u);
      } else if (kind == 11) {
        if (!present(u)) {
          originate(u);
          touched.insert(u);
        }
      } else {
        const std::uint64_t id = rng.pick_index(lie_seq.size());
        if (kind <= 15) {
          install_lie(id, /*withdrawn=*/false);
        } else if (kind <= 17) {
          install_lie(id, /*withdrawn=*/true);
        } else {
          (void)db.erase(igp::LsaKey{igp::LsaType::kExternal, id});
        }
      }
    }
    bool flipped = false;
    for (topo::NodeId u = 0; u < n; ++u) {
      flipped = flipped || was_present[u] != present(u);
      was_present[u] = present(u);
    }

    const igp::RouterSpf::Run run = spf.run(db);
    const igp::NetworkView want = igp::NetworkView::from_lsdb(db, n);
    ASSERT_EQ(view_difference(spf.view(), want, t), "") << "step " << step;

    const std::vector<igp::EdgeDelta> deltas = adjacency_deltas(prev, want);
    ASSERT_EQ(run.deltas.size(), deltas.size()) << "step " << step;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      const igp::EdgeDelta& g = run.deltas[i];
      const igp::EdgeDelta& w = deltas[i];
      ASSERT_TRUE(g.from == w.from && g.to == w.to && g.metric == w.metric &&
                  g.removed == w.removed)
          << "step " << step << " delta " << i;
    }

    // The patched in-edges equal a fresh view's, as multisets.
    for (topo::NodeId v = 0; v < n; ++v) {
      const auto sorted = [](const std::vector<igp::NetworkView::InEdge>& in) {
        std::vector<std::pair<topo::NodeId, topo::Metric>> out;
        for (const auto& e : in) out.emplace_back(e.from, e.metric);
        std::sort(out.begin(), out.end());
        return out;
      };
      ASSERT_EQ(sorted(spf.view().edges_into(v)), sorted(want.edges_into(v)))
          << "step " << step << " node " << v;
    }

    const igp::SpfResult fresh = igp::run_spf(want, src);
    ASSERT_EQ(spf.result().dist, fresh.dist) << "step " << step;
    ASSERT_EQ(spf.result().first_hops, fresh.first_hops) << "step " << step;
    ASSERT_EQ(igp::compute_routes(spf.view(), spf.result()),
              igp::compute_routes(want, fresh))
        << "step " << step;

    // Work: every origin on a presence flip, else exactly the changed ones.
    ASSERT_EQ(run.origins_read, flipped ? n : touched.size()) << "step " << step;
    if (flipped) ++flip_runs;
    if (run.incremental && !run.deltas.empty()) ++repairs;
    prev = want;
  }
  // Both patch paths and the repair path must have carried some runs.
  EXPECT_GT(flip_runs, 1);
  EXPECT_GT(repairs, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterViewPatchProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// ----------------------------------- verify report vs per-router reference

/// A next-hop set as the references below see it: weight by via.
using ReferenceSplit = std::map<topo::NodeId, std::uint32_t>;

/// `hops` with the weights of a repeated via summed.
ReferenceSplit summed_split(const std::vector<igp::WeightedNextHop>& hops) {
  ReferenceSplit split;
  for (const igp::WeightedNextHop& nh : hops) split[nh.via] += nh.weight;
  return split;
}

/// `hops` summed per via and divided by the weights' gcd, by map and
/// without igp::lowest_terms or core::same_split.
ReferenceSplit reference_lowest_terms(const std::vector<igp::WeightedNextHop>& hops) {
  ReferenceSplit split = summed_split(hops);
  std::uint32_t g = 0;
  for (const auto& [via, w] : split) g = std::gcd(g, w);
  if (g > 1) {
    for (auto& [via, w] : split) w /= g;
  }
  return split;
}

/// The verifier's checks as a per-router loop over fresh router-major
/// compute_all_routes tables, with weights compared as
/// reference_lowest_terms maps: the reference the column-reading verifier
/// must reproduce issue for issue (kind, node, text and order).
core::VerifyReport reference_verify(const topo::Topology& t,
                                    const core::DestRequirement& req,
                                    const std::vector<core::Lie>& lies,
                                    const topo::LinkStateMask& mask) {
  std::vector<core::Lie> other;
  for (const core::Lie& lie : lies) {
    if (lie.prefix != req.prefix) other.push_back(lie);
  }
  const auto baseline = igp::compute_all_routes(
      igp::NetworkView::from_topology(t, core::to_externals(other), &mask));
  const auto augmented = igp::compute_all_routes(
      igp::NetworkView::from_topology(t, core::to_externals(lies), &mask));
  const auto format = [&](const ReferenceSplit& dist) {
    std::string out = "{";
    for (const auto& [via, w] : dist) {
      if (out.size() > 1) out += ", ";
      out += t.node(via).name + ":" + std::to_string(w);
    }
    return out + "}";
  };

  core::VerifyReport report;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    const auto base_it = baseline[n].find(req.prefix);
    const auto aug_it = augmented[n].find(req.prefix);
    const auto req_it = req.nodes.find(n);
    if (req_it != req.nodes.end()) {
      if (aug_it == augmented[n].end()) {
        report.issues.push_back(
            {core::VerifyIssueKind::kNoRoute, n, "required prefix has no route"});
      } else {
        const ReferenceSplit want = reference_lowest_terms(req_it->second);
        const ReferenceSplit got = reference_lowest_terms(aug_it->second.next_hops);
        if (want != got) {
          report.issues.push_back({core::VerifyIssueKind::kRequirementNotMet, n,
                                   "requirement not met: want " + format(want) +
                                       ", got " + format(got)});
        }
      }
    } else {
      const ReferenceSplit before =
          base_it == baseline[n].end() ? ReferenceSplit{}
                                       : reference_lowest_terms(base_it->second.next_hops);
      const ReferenceSplit after =
          aug_it == augmented[n].end() ? ReferenceSplit{}
                                       : reference_lowest_terms(aug_it->second.next_hops);
      const bool was_local = base_it != baseline[n].end() && base_it->second.local;
      const bool is_local = aug_it != augmented[n].end() && aug_it->second.local;
      if (before != after || was_local != is_local) {
        report.issues.push_back({core::VerifyIssueKind::kPolluted, n,
                                 "polluted: forwarding changed from " + format(before) +
                                     " to " + format(after)});
      }
    }
    for (const auto& [prefix, entry] : baseline[n]) {
      if (prefix == req.prefix) continue;
      const auto other_it = augmented[n].find(prefix);
      if (other_it == augmented[n].end() || !(other_it->second == entry)) {
        report.issues.push_back(
            {core::VerifyIssueKind::kIsolationViolated, n,
             "isolation violated: route for " + prefix.to_string() + " changed"});
      }
    }
  }

  // Loop check by repeated sink removal over the router-major entries.
  std::vector<int> indegree(t.node_count(), 0);
  const auto hops = [&](topo::NodeId n) {
    const auto it = augmented[n].find(req.prefix);
    return it == augmented[n].end() || it->second.local
               ? std::vector<igp::WeightedNextHop>{}
               : it->second.next_hops;
  };
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    for (const auto& nh : hops(n)) ++indegree[nh.via];
  }
  std::vector<topo::NodeId> order;
  for (topo::NodeId n = 0; n < t.node_count(); ++n) {
    if (indegree[n] == 0) order.push_back(n);
  }
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const auto& nh : hops(order[head])) {
      if (--indegree[nh.via] == 0) order.push_back(nh.via);
    }
  }
  if (order.size() != t.node_count()) {
    report.issues.push_back({core::VerifyIssueKind::kLoop, topo::kInvalidNode,
                             "forwarding loop detected for " + req.prefix.to_string()});
  }
  return report;
}

std::vector<std::string> describe(const core::VerifyReport& report) {
  std::vector<std::string> out;
  for (const core::VerifyIssue& issue : report.issues) {
    out.push_back(std::to_string(static_cast<int>(issue.kind)) + " @" +
                  std::to_string(issue.node) + " " + issue.what);
  }
  return out;
}

/// Compiled lie sets on random Waxman graphs (pristine and with one link
/// down), each perturbed by dropping a lie, adding a rogue lie for the
/// prefix, or adding an environment lie for another prefix: the verifier
/// (through a shared route cache and through a local one) must report
/// exactly what the per-router reference reports.
class VerifyReportProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(VerifyReportProperty, IssuesMatchPerRouterReference) {
  util::Rng rng(GetParam() ^ 0x7e51f);
  int compiled = 0;
  int with_issues = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const topo::Topology base =
        topo::make_waxman(14, rng, 0.5, 0.5, /*max_metric=*/6, 100.0, 300.0);
    topo::Topology t;  // metrics x4 for granularity headroom
    for (topo::NodeId n = 0; n < base.node_count(); ++n) t.add_node(base.node(n).name);
    for (topo::LinkId l = 0; l < base.link_count(); ++l) {
      const topo::Link& link = base.link(l);
      if (link.from < link.to) {
        t.add_link(link.from, link.to, link.metric * 4, link.capacity_bps);
      }
    }
    const auto dest = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
    const net::Prefix prefix(net::Ipv4(203, 0, 0, 0), 24);
    t.attach_prefix(dest, prefix, 16);
    std::vector<net::Prefix> others;
    for (std::uint8_t i = 1; i <= 2; ++i) {
      others.emplace_back(net::Ipv4(203, 0, i, 0), 24);
      t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                      others.back());
    }
    others.emplace_back(net::Ipv4(198, 51, 100, 0), 24);  // announced by lies only

    topo::LinkStateMask mask(t);
    if (trial % 2 == 1) {
      const topo::LinkId l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      ASSERT_TRUE(mask.fail(l));
    }
    std::vector<te::Demand> demands;
    for (int d = 0; d < 3; ++d) {
      topo::NodeId ingress = static_cast<topo::NodeId>(rng.pick_index(t.node_count()));
      if (ingress == dest) ingress = (ingress + 1) % t.node_count();
      demands.push_back(te::Demand{ingress, rng.uniform(80.0, 250.0)});
    }
    te::MinMaxConfig mm;
    mm.max_stretch = 2.0;
    mm.link_state = &mask;
    const auto solution = te::solve_min_max(t, dest, demands, {}, mm);
    if (!solution.ok()) continue;
    const core::DestRequirement req =
        core::requirement_from_splits(prefix, solution.value().splits, 8);
    if (req.nodes.empty()) continue;
    igp::RouteCache cache(t, mask);
    core::AugmentConfig config;
    config.link_state = &mask;
    config.route_cache = &cache;
    const auto result = core::compile_lies(t, req, config);
    if (!result.ok()) continue;
    ++compiled;

    const auto random_lie = [&](const net::Prefix& p, std::uint64_t id) {
      const topo::LinkId l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      core::Lie lie;
      lie.id = id;
      lie.prefix = p;
      lie.attach = t.link(l).from;
      lie.via = t.link(l).to;
      lie.ext_metric = static_cast<topo::Metric>(rng.uniform_int(0, 40));
      lie.forwarding_address = core::lie_forwarding_address(t, lie.attach, lie.via);
      return lie;
    };
    const std::vector<core::Lie>& lies = result.value().lies;
    std::vector<std::vector<core::Lie>> cases{lies};
    for (std::size_t drop = 0; drop < lies.size(); ++drop) {
      std::vector<core::Lie> dropped = lies;
      dropped.erase(dropped.begin() + static_cast<long>(drop));
      cases.push_back(std::move(dropped));
    }
    for (int k = 0; k < 6; ++k) {
      std::vector<core::Lie> rogue = lies;
      rogue.push_back(random_lie(prefix, 1000 + k));
      cases.push_back(std::move(rogue));
      std::vector<core::Lie> environment = lies;
      environment.push_back(random_lie(others[rng.pick_index(others.size())], 2000 + k));
      if (k % 2 == 1) environment.push_back(random_lie(prefix, 3000 + k));
      cases.push_back(std::move(environment));
    }

    for (std::size_t c = 0; c < cases.size(); ++c) {
      const std::vector<std::string> want =
          describe(reference_verify(t, req, cases[c], mask));
      if (!want.empty()) ++with_issues;
      EXPECT_EQ(describe(core::verify_augmentation(t, req, cases[c], &mask, &cache)), want)
          << "trial " << trial << " case " << c;
      EXPECT_EQ(describe(core::verify_augmentation(t, req, cases[c], &mask)), want)
          << "trial " << trial << " case " << c;
    }
  }
  EXPECT_GE(compiled, 2);
  EXPECT_GT(with_issues, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifyReportProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// ------------------------------ split comparison vs the map-based reference

/// Random hop lists (1-8 vias, weights 1-8, shuffled, some vias listed twice,
/// some lists scaled by a common factor), each paired with a rewriting of the
/// same split or of one with a weight or a via changed: igp::lowest_terms
/// must list the reference's map in via order, and core::same_split must
/// agree with the reference whether it is handed lowest terms or summed lists
/// that keep their common factors.
class SplitCompareProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SplitCompareProperty, AgreesWithMapReference) {
  util::Rng rng(GetParam() ^ 0x5b17);
  const auto as_hops = [](const ReferenceSplit& split) {
    std::vector<igp::WeightedNextHop> hops;
    for (const auto& [via, w] : split) hops.push_back({via, w});
    return hops;
  };
  // A listing of `split`: maybe scaled, some hops split in two, shuffled.
  const auto rewrite = [&](const ReferenceSplit& split) {
    const auto scale =
        static_cast<std::uint32_t>(rng.chance(0.5) ? rng.uniform_int(2, 3) : 1);
    std::vector<igp::WeightedNextHop> hops;
    for (const auto& [via, w] : split) {
      const std::uint32_t weight = w * scale;
      if (weight > 1 && rng.chance(0.3)) {
        const auto part = static_cast<std::uint32_t>(rng.uniform_int(1, weight - 1));
        hops.push_back({via, part});
        hops.push_back({via, weight - part});
      } else {
        hops.push_back({via, weight});
      }
    }
    rng.shuffle(hops);
    return hops;
  };

  int same = 0;
  int different = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ReferenceSplit split;
    const auto vias = rng.uniform_int(1, 8);
    while (static_cast<std::int64_t>(split.size()) < vias) {
      split[static_cast<topo::NodeId>(rng.uniform_int(0, 15))] =
          static_cast<std::uint32_t>(rng.uniform_int(1, 8));
    }
    ReferenceSplit other = split;
    const auto change = rng.uniform_int(0, 2);
    auto it = std::next(other.begin(), static_cast<long>(rng.pick_index(other.size())));
    if (change == 1) {
      it->second = it->second % 8 + 1;  // another weight in 1-8
    } else if (change == 2) {
      const auto [via, w] = *it;
      other.erase(it);
      other[via + 16] = w;  // a via the split does not use
    }
    const std::vector<igp::WeightedNextHop> a = rewrite(split);
    const std::vector<igp::WeightedNextHop> b = rewrite(other);

    const ReferenceSplit ref_a = reference_lowest_terms(a);
    const ReferenceSplit ref_b = reference_lowest_terms(b);
    const std::vector<igp::WeightedNextHop> low_a = igp::lowest_terms(a);
    const std::vector<igp::WeightedNextHop> low_b = igp::lowest_terms(b);
    EXPECT_EQ(low_a, as_hops(ref_a)) << "trial " << trial;
    EXPECT_EQ(low_b, as_hops(ref_b)) << "trial " << trial;

    const bool want = ref_a == ref_b;
    (want ? same : different) += 1;
    const std::vector<igp::WeightedNextHop> sum_a = as_hops(summed_split(a));
    const std::vector<igp::WeightedNextHop> sum_b = as_hops(summed_split(b));
    EXPECT_EQ(core::same_split(low_a, low_b), want) << "trial " << trial;
    EXPECT_EQ(core::same_split(sum_a, sum_b), want) << "trial " << trial;
    EXPECT_EQ(core::same_split(low_a, sum_b), want) << "trial " << trial;
    EXPECT_EQ(core::same_split(sum_b, sum_a), want) << "trial " << trial;
  }
  // Both answers must have been asked for often.
  EXPECT_GT(same, 100);
  EXPECT_GT(different, 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SplitCompareProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

// ------------------------- route entries vs the allocating per-candidate kernel

/// What the reference saw while computing entries: how often each case the
/// one-pass kernel must get right reached a computed entry.
struct EntryCases {
  int two_sided_ties = 0;  ///< minimal lie candidates whose subnet sides tie
  int shared_hops = 0;     ///< ... and whose two sides share a first hop
  int self_pointing = 0;   ///< externals skipped at their own router
  int dangling = 0;        ///< externals whose forwarding address resolves nowhere
  int local = 0;           ///< entries delivered at the router itself
  int replicated = 0;      ///< entries with a next hop of weight > 1
};

/// The allocating per-candidate route-entry kernel: each candidate copies
/// its first hops, a transfer subnet whose two sides tie builds their union
/// with std::set_union, and the weights of the minimal candidates are
/// gathered in a std::map.
igp::RouteEntry reference_route_entry(
    const igp::NetworkView& view, const igp::SpfResult& spf,
    const std::vector<const igp::NetworkView::Attachment*>& attachments,
    const std::vector<const igp::NetworkView::External*>& externals,
    EntryCases& cases) {
  struct Candidate {
    topo::Metric cost = igp::kInfMetric;
    bool local = false;
    bool two_sided = false;
    bool shared = false;
    std::vector<topo::NodeId> first_hops;
  };
  std::vector<Candidate> cands;
  for (const igp::NetworkView::Attachment* att : attachments) {
    if (!spf.reaches(att->node)) continue;
    Candidate cand;
    cand.cost = spf.dist[att->node] + att->metric;
    if (att->node == spf.source) {
      cand.local = true;
    } else {
      cand.first_hops.assign(spf.first_hops[att->node].begin(),
                             spf.first_hops[att->node].end());
    }
    cands.push_back(std::move(cand));
  }
  for (const igp::NetworkView::External* ext : externals) {
    const auto match = view.resolve_forwarding_address(ext->forwarding_address);
    if (!match) {
      ++cases.dangling;
      continue;
    }
    if (match->pointed_router == spf.source) {
      ++cases.self_pointing;
      continue;
    }
    const igp::NetworkView::Subnet& subnet = *match->subnet;
    Candidate cand;
    std::vector<std::vector<topo::NodeId>> tied;
    topo::Metric best = igp::kInfMetric;
    const std::pair<topo::NodeId, topo::Metric> sides[2] = {
        {subnet.a, subnet.metric_ab}, {subnet.b, subnet.metric_ba}};
    for (int side = 0; side < 2; ++side) {
      const auto [endpoint, iface_cost] = sides[side];
      if (!spf.reaches(endpoint)) continue;
      const topo::Metric cost = spf.dist[endpoint] + iface_cost;
      std::vector<topo::NodeId> hops;
      if (endpoint == spf.source) {
        hops = {side == 0 ? subnet.b : subnet.a};
      } else {
        hops.assign(spf.first_hops[endpoint].begin(), spf.first_hops[endpoint].end());
      }
      if (cost < best) {
        best = cost;
        tied = {std::move(hops)};
      } else if (cost == best) {
        tied.push_back(std::move(hops));
      }
    }
    if (best >= igp::kInfMetric) continue;
    for (const std::vector<topo::NodeId>& hops : tied) {
      std::vector<topo::NodeId> merged;
      std::set_union(cand.first_hops.begin(), cand.first_hops.end(), hops.begin(),
                     hops.end(), std::back_inserter(merged));
      cand.first_hops = std::move(merged);
    }
    cand.two_sided = tied.size() == 2;
    cand.shared = cand.two_sided &&
                  cand.first_hops.size() < tied[0].size() + tied[1].size();
    cand.cost = best + ext->ext_metric;
    cands.push_back(std::move(cand));
  }

  igp::RouteEntry entry;
  for (const Candidate& cand : cands) entry.cost = std::min(entry.cost, cand.cost);
  if (entry.cost >= igp::kInfMetric) return entry;
  std::map<topo::NodeId, std::uint32_t> weights;
  for (const Candidate& cand : cands) {
    if (cand.cost != entry.cost) continue;
    if (cand.local) entry.local = true;
    if (cand.two_sided) ++cases.two_sided_ties;
    if (cand.shared) ++cases.shared_hops;
    for (const topo::NodeId hop : cand.first_hops) weights[hop] += 1;
  }
  for (const auto& [via, weight] : weights) {
    entry.next_hops.push_back(igp::WeightedNextHop{via, weight});
  }
  if (entry.local) ++cases.local;
  if (std::any_of(entry.next_hops.begin(), entry.next_hops.end(),
                  [](const igp::WeightedNextHop& nh) { return nh.weight > 1; })) {
    ++cases.replicated;
  }
  return entry;
}

/// Every router's routing table through reference_route_entry.
std::vector<igp::RoutingTable> reference_all_routes(const igp::NetworkView& view,
                                                    EntryCases& cases) {
  struct Sources {
    std::vector<const igp::NetworkView::Attachment*> attachments;
    std::vector<const igp::NetworkView::External*> externals;
  };
  std::map<net::Prefix, Sources> by_prefix;
  for (const auto& att : view.attachments()) {
    by_prefix[att.prefix].attachments.push_back(&att);
  }
  for (const auto& ext : view.externals()) {
    by_prefix[ext.prefix].externals.push_back(&ext);
  }
  std::vector<igp::RoutingTable> tables(view.node_count());
  for (topo::NodeId n = 0; n < view.node_count(); ++n) {
    const igp::SpfResult spf = igp::run_spf(view, n);
    for (const auto& [prefix, sources] : by_prefix) {
      igp::RouteEntry entry = reference_route_entry(view, spf, sources.attachments,
                                                    sources.externals, cases);
      if (entry.reachable()) tables[n].emplace(prefix, std::move(entry));
    }
  }
  return tables;
}

/// Seeded Waxman graphs with small metrics (many equal-cost ties), prefixes
/// attached once, twice (anycast) and not at all, and lie sets with
/// replicated lies, lies into failed links and lies to addresses no subnet
/// owns: compute_all_routes and the route cache's columns must equal the
/// allocating reference entry for entry, and every case above must occur.
class RouteEntryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouteEntryProperty, EntriesMatchAllocatingReference) {
  util::Rng rng(GetParam() ^ 0x5e77e);
  EntryCases cases;
  for (int trial = 0; trial < 6; ++trial) {
    topo::Topology t = topo::make_waxman(16, rng, 0.6, 0.5, /*max_metric=*/2);
    std::vector<net::Prefix> prefixes;
    for (std::uint8_t i = 0; i < 3; ++i) {
      prefixes.emplace_back(net::Ipv4(203, 0, i, 0), 24);
      const int announcers = i;  // 0: announced by lies only; 2: anycast
      for (int k = 0; k < announcers; ++k) {
        t.attach_prefix(static_cast<topo::NodeId>(rng.pick_index(t.node_count())),
                        prefixes.back(),
                        static_cast<topo::Metric>(rng.uniform_int(0, 3)));
      }
    }
    topo::LinkStateMask mask(t);
    if (trial % 2 == 1) {
      ASSERT_TRUE(mask.fail(static_cast<topo::LinkId>(rng.pick_index(t.link_count()))));
    }

    std::vector<igp::NetworkView::External> externals;
    std::uint64_t next_id = 1;
    for (int k = 0; k < 14; ++k) {
      const topo::LinkId l = static_cast<topo::LinkId>(rng.pick_index(t.link_count()));
      const net::Ipv4 fwd = rng.chance(0.1) ? net::Ipv4(10, 99, 0, 1)
                                            : t.link(t.link(l).reverse).local_addr;
      const igp::NetworkView::External ext{
          next_id++, prefixes[rng.pick_index(prefixes.size())],
          static_cast<topo::Metric>(rng.uniform_int(0, 3)), fwd};
      externals.push_back(ext);
      for (int copy = 0; copy < 2 && rng.chance(0.4); ++copy) {
        externals.push_back(ext);
        externals.back().lie_id = next_id++;
      }
    }

    const igp::NetworkView view = igp::NetworkView::from_topology(t, externals, &mask);
    const std::vector<igp::RoutingTable> want = reference_all_routes(view, cases);
    EXPECT_EQ(igp::compute_all_routes(view), want) << "trial " << trial;
    igp::RouteCache cache(t, mask);
    EXPECT_EQ(support::routing_tables(*cache.tables(externals), t.node_count()), want)
        << "trial " << trial;
  }
  EXPECT_GT(cases.two_sided_ties, 0);
  EXPECT_GT(cases.shared_hops, 0);
  EXPECT_GT(cases.self_pointing, 0);
  EXPECT_GT(cases.dangling, 0);
  EXPECT_GT(cases.local, 0);
  EXPECT_GT(cases.replicated, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouteEntryProperty,
                         ::testing::Range<std::uint64_t>(1, 4));

}  // namespace
}  // namespace fibbing
