#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <vector>

#include "igp/routes.hpp"
#include "igp/spf.hpp"
#include "igp/view.hpp"
#include "topo/link_state.hpp"
#include "topo/topology.hpp"
#include "util/annotations.hpp"
#include "util/mutex.hpp"

namespace fibbing::igp {

/// Work accounting for the cache (benchmarks and tests read these).
struct RouteCacheStats {
  // -- table level --------------------------------------------------------
  std::uint64_t table_hits = 0;      ///< exact (version, lie-set) memo hits
  std::uint64_t table_builds = 0;    ///< misses patched from the baseline
  std::uint64_t memo_evictions = 0;  ///< LRU victims pushed out at capacity
  std::uint64_t baseline_builds = 0; ///< externals-free table sets derived
  // -- SPF level ----------------------------------------------------------
  std::uint64_t spf_full = 0;         ///< fresh Dijkstras (cold or fallback)
  std::uint64_t spf_incremental = 0;  ///< affected-region repairs
  std::uint64_t spf_unchanged = 0;    ///< link events proven no-ops per source
  /// Multi-adjacency (SRLG) events that stayed on the incremental path: one
  /// count per source whose update covered >1 simultaneous adjacency without
  /// falling back to a full Dijkstra. Subset of spf_incremental +
  /// spf_unchanged.
  std::uint64_t spf_batched = 0;
  // -- lifecycle ----------------------------------------------------------
  std::uint64_t generations = 0;      ///< effective topology-state refreshes
};

/// Versioned route-computation cache: the controller hot path's replacement
/// for computing full all-pairs route tables from scratch at every step.
///
/// Layering (all keyed on the LinkStateMask's version):
///   1. Exact memo -- a repeated query for the same lie set on the same
///      topology state returns the same immutable table set in O(1). The
///      key is the canonical lie-set fingerprint (sorted (prefix, metric,
///      forwarding address) tuples; External-LSA ids do not influence
///      routes, so re-injected lies still hit).
///   2. Lie-delta patching -- table sets are prefix-major, one immutable
///      column per prefix. An External-LSA for prefix p can only change
///      routes *for p*, so a miss shares every column of the memoized
///      externals-free baseline that it does not patch and computes only
///      the patched prefixes' columns from the memoized per-source SPFs (no
///      Dijkstra at all). A memo entry therefore owns only its patched
///      columns.
///   3. Incremental SPF -- on a link fail/restore the per-source SPFs are
///      repaired from the affected subtree (igp::update_spf, reading the
///      view's in-edges), which itself falls back to a full Dijkstra when
///      the change is bulk or non-local. A fail/restore pair that nets out
///      to no change revalidates everything in O(links).
///
/// Every column is bit-identical to the same prefix's column
/// (igp::column_of) of a fresh
/// igp::compute_all_routes(NetworkView::from_topology(topo, externals,
/// &mask)) -- the ChurnProperty suite asserts exactly that across random
/// fail/restore/inject/retract interleavings.
///
/// The cache only ever *reads* the mask (version + bits); it subscribes to
/// nothing, so its lifetime is independent of the mask's listener list. One
/// instance is shared across a mitigation's whole solve -> compile ->
/// verify -> ledger pipeline (Controller owns it and hands it to
/// compile_lies and verify_augmentation), so each baseline is computed
/// exactly once per topology version.
///
/// Thread safety: every public method locks an internal mutex (all state is
/// FIB_GUARDED_BY and proven by -Wthread-safety), although the controller
/// queries it from one thread. Returned references stay valid after the
/// lock drops: per-source SPFs and the view are written exactly once per
/// generation, and generations only turn over on a mask-version change.
/// Table sets and their columns are immutable shared_ptrs throughout.
class RouteCache {
 public:
  /// `memo_capacity` bounds the exact memo (layer 1): at capacity the
  /// least-recently-used lie-set variant is evicted. The default covers the
  /// controller's steady state (one entry per variant it evaluates per
  /// topology version) with room; tests shrink it to exercise eviction.
  RouteCache(const topo::Topology& topo, const topo::LinkStateMask& mask,
             std::size_t memo_capacity = kDefaultMemoCapacity);

  static constexpr std::size_t kDefaultMemoCapacity = 64;

  /// One prefix's routes at every router, shared by every table set that
  /// does not patch the prefix.
  using ColumnPtr = std::shared_ptr<const RouteColumn>;
  /// A table set, prefix-major: one column per prefix that has a source (an
  /// attachment or an external), in prefix order.
  using Tables = std::map<net::Prefix, ColumnPtr>;
  using TablesPtr = std::shared_ptr<const Tables>;

  /// Routes of every router for the current topology state plus
  /// `externals`. Immutable and shared: callers may hold the pointer across
  /// later topology changes (it stays internally consistent; it just no
  /// longer describes the live state). `tables({})` is the externals-free
  /// baseline, built once per topology state.
  [[nodiscard]] TablesPtr tables(const std::vector<NetworkView::External>& externals)
      FIB_EXCLUDES(mu_);

  /// `prefix`'s column in `tables`; a prefix that no router has a source for
  /// reads as a column of unreachable entries.
  [[nodiscard]] const ColumnPtr& column(const Tables& tables,
                                        const net::Prefix& prefix) const;

  /// Memoized SPF from `source` over the current (degraded) topology.
  [[nodiscard]] const SpfResult& spf(topo::NodeId source) FIB_EXCLUDES(mu_);

  /// The externals-free NetworkView of the current topology state. Valid
  /// until the next call that observes a newer mask version.
  [[nodiscard]] const NetworkView& view() FIB_EXCLUDES(mu_);

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
  [[nodiscard]] const topo::LinkStateMask& link_state() const { return *mask_; }
  /// A snapshot copy: under concurrent queries the live struct moves, and a
  /// reference into it could not be read race-free.
  [[nodiscard]] RouteCacheStats stats() const FIB_EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    return stats_;
  }

 private:
  /// One external's route-relevant identity (lie ids excluded: they never
  /// influence the computed routes).
  using ExtId = std::tuple<net::Prefix, topo::Metric, net::Ipv4>;
  using Fingerprint = std::vector<ExtId>;

  /// Catch up with the mask: diff the stored bit snapshot against the live
  /// one and invalidate (or incrementally carry over) the derived state.
  void refresh_() FIB_REQUIRES(mu_);
  // Lock-free bodies of the public accessors (each public entry point locks
  // once and delegates, so internal cross-calls never re-lock).
  [[nodiscard]] const NetworkView& view_locked_() FIB_REQUIRES(mu_);
  [[nodiscard]] const SpfResult& spf_locked_(topo::NodeId source) FIB_REQUIRES(mu_);
  [[nodiscard]] TablesPtr baseline_locked_() FIB_REQUIRES(mu_);
  [[nodiscard]] TablesPtr build_(const std::vector<NetworkView::External>& externals)
      FIB_REQUIRES(mu_);
  /// `prefix`'s column given its attachments and exactly these externals.
  [[nodiscard]] ColumnPtr build_column_(
      const net::Prefix& prefix,
      const std::vector<const NetworkView::External*>& externals) FIB_REQUIRES(mu_);

  const topo::Topology* topo_;
  const topo::LinkStateMask* mask_;
  /// Every router unreachable: what column() reads for an absent prefix.
  const ColumnPtr unreachable_;

  /// One lock for all mutable state: queries are cheap relative to the
  /// solver work done between them, so a coarse capability keeps the
  /// invariants trivially whole.
  mutable util::Mutex mu_;

  std::uint64_t version_seen_ FIB_GUARDED_BY(mu_);
  /// Mask snapshot the cached state describes.
  std::vector<bool> bits_ FIB_GUARDED_BY(mu_);
  /// Lazily built per generation.
  std::optional<NetworkView> view_ FIB_GUARDED_BY(mu_);

  /// Per-source SPFs for the current generation (null until queried).
  std::vector<std::shared_ptr<const SpfResult>> spf_ FIB_GUARDED_BY(mu_);
  /// Previous generation's SPFs, each updated on demand by `delta_`.
  std::vector<std::shared_ptr<const SpfResult>> prev_spf_ FIB_GUARDED_BY(mu_);
  /// Directed edge deltas between the previous and current generation, one
  /// per flipped mask bit. A whole SRLG event lands here as one batch and
  /// stays on the incremental path; update_spf runs the full Dijkstra past
  /// its bulk-transition limit.
  std::vector<EdgeDelta> delta_ FIB_GUARDED_BY(mu_);

  TablesPtr baseline_ FIB_GUARDED_BY(mu_);
  /// Exact memo with LRU keyed eviction: `lru_` orders fingerprints most-
  /// recently-used first; each memo entry holds its list position so a hit
  /// refreshes recency in O(1) (splice), and capacity evicts `lru_.back()`.
  struct MemoEntry {
    TablesPtr tables;
    std::list<Fingerprint>::iterator lru_pos;
  };
  std::size_t memo_capacity_;
  std::map<Fingerprint, MemoEntry> memo_ FIB_GUARDED_BY(mu_);
  std::list<Fingerprint> lru_ FIB_GUARDED_BY(mu_);
  /// Attachments of the current view bucketed by prefix (patch helper).
  std::map<net::Prefix, std::vector<const NetworkView::Attachment*>> attachments_
      FIB_GUARDED_BY(mu_);

  RouteCacheStats stats_ FIB_GUARDED_BY(mu_);
};

}  // namespace fibbing::igp
