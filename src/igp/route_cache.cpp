#include "igp/route_cache.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace fibbing::igp {

RouteCache::RouteCache(const topo::Topology& topo, const topo::LinkStateMask& mask,
                       std::size_t memo_capacity)
    : topo_(&topo),
      mask_(&mask),
      unreachable_(std::make_shared<const RouteColumn>(topo.node_count())),
      version_seen_(mask.version()),
      bits_(mask.bits()),
      spf_(topo.node_count()),
      memo_capacity_(memo_capacity) {
  FIB_ASSERT(&mask.topology() == &topo, "RouteCache: mask for a different topology");
  FIB_ASSERT(memo_capacity_ > 0, "RouteCache: memo capacity must be positive");
}

void RouteCache::refresh_() {
  if (mask_->version() == version_seen_) return;
  version_seen_ = mask_->version();

  const std::vector<bool>& live = mask_->bits();
  FIB_ASSERT(live.size() == bits_.size(), "RouteCache: mask size changed");
  // Net change since the snapshot: one directed EdgeDelta per flipped half
  // (the view excludes each directed link by its own down bit, so the diff
  // translates one-to-one). A whole SRLG event -- several adjacencies
  // flipping inside one version window -- lands here as a single batch.
  std::vector<EdgeDelta> deltas;
  for (topo::LinkId l = 0; l < bits_.size(); ++l) {
    if (bits_[l] == live[l]) continue;
    const topo::Link& link = topo_->link(l);
    deltas.push_back(EdgeDelta{link.from, link.to, link.metric,
                               /*removed=*/live[l]});
  }
  if (deltas.empty()) {
    // e.g. a fail/restore pair between queries: the version moved but the
    // topology state did not -- everything cached is still exact.
    return;
  }

  ++stats_.generations;
  // The previous generation's SPFs are updated on demand, in one batched
  // Ramalingam-Reps pass over the whole delta.
  prev_spf_ = std::move(spf_);
  delta_ = std::move(deltas);
  spf_.assign(topo_->node_count(), nullptr);
  bits_ = live;
  view_.reset();
  baseline_.reset();
  memo_.clear();
  lru_.clear();
  attachments_.clear();
}

const NetworkView& RouteCache::view() {
  util::MutexLock lock(mu_);
  return view_locked_();
}

const NetworkView& RouteCache::view_locked_() {
  refresh_();
  if (!view_) {
    view_ = NetworkView::from_topology(*topo_, {}, mask_);
    for (const NetworkView::Attachment& att : view_->attachments()) {
      attachments_[att.prefix].push_back(&att);
    }
  }
  return *view_;
}

const SpfResult& RouteCache::spf(topo::NodeId source) {
  util::MutexLock lock(mu_);
  return spf_locked_(source);
}

const SpfResult& RouteCache::spf_locked_(topo::NodeId source) {
  refresh_();
  FIB_ASSERT(source < spf_.size(), "RouteCache::spf: source out of range");
  if (spf_[source] != nullptr) return *spf_[source];

  const NetworkView& current = view_locked_();
  std::shared_ptr<const SpfResult> prev =
      source < prev_spf_.size() ? prev_spf_[source] : nullptr;
  if (prev != nullptr) {
    // >2 directed halves == more than one simultaneous adjacency: an SRLG
    // batch (spf_batched counts the ones that stay off the full path).
    const bool multi = delta_.size() > 2;
    SpfUpdate update = update_spf(current, *prev, delta_);
    switch (update.mode) {
      case SpfUpdate::Mode::kUnchanged:
        ++stats_.spf_unchanged;
        if (multi) ++stats_.spf_batched;
        spf_[source] = std::move(prev);  // share: content already exact
        break;
      case SpfUpdate::Mode::kIncremental:
        ++stats_.spf_incremental;
        if (multi) ++stats_.spf_batched;
        spf_[source] = std::make_shared<const SpfResult>(std::move(update.result));
        break;
      case SpfUpdate::Mode::kFull:
        ++stats_.spf_full;
        spf_[source] = std::make_shared<const SpfResult>(std::move(update.result));
        break;
    }
  } else {
    ++stats_.spf_full;
    spf_[source] = std::make_shared<const SpfResult>(run_spf(current, source));
  }
  return *spf_[source];
}

RouteCache::TablesPtr RouteCache::baseline_locked_() {
  refresh_();
  if (baseline_ == nullptr) {
    (void)view_locked_();  // buckets attachments_ for this generation
    auto tables = std::make_shared<Tables>();
    for (const auto& [prefix, atts] : attachments_) {
      tables->emplace(prefix, build_column_(prefix, {}));
    }
    baseline_ = std::move(tables);
    ++stats_.baseline_builds;
  }
  return baseline_;
}

const RouteCache::ColumnPtr& RouteCache::column(const Tables& tables,
                                                const net::Prefix& prefix) const {
  const auto it = tables.find(prefix);
  return it == tables.end() ? unreachable_ : it->second;
}

RouteCache::TablesPtr RouteCache::tables(
    const std::vector<NetworkView::External>& externals) {
  util::MutexLock lock(mu_);
  refresh_();
  if (externals.empty()) return baseline_locked_();

  Fingerprint key;
  key.reserve(externals.size());
  for (const NetworkView::External& ext : externals) {
    key.emplace_back(ext.prefix, ext.ext_metric, ext.forwarding_address);
  }
  std::sort(key.begin(), key.end());

  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.table_hits;
    // Refresh recency: a hit moves the variant to the front of the LRU
    // order without invalidating the stored iterator.
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.tables;
  }

  TablesPtr built = build_(externals);
  if (memo_.size() >= memo_capacity_) {
    ++stats_.memo_evictions;
    memo_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(std::move(key));
  memo_.emplace(lru_.front(), MemoEntry{built, lru_.begin()});
  return built;
}

RouteCache::TablesPtr RouteCache::build_(
    const std::vector<NetworkView::External>& externals) {
  // Lie-delta recomputation: externals for prefix p only influence routes
  // for p, so the variant shares every baseline column it does not patch
  // and computes only the patched prefixes' columns from the memoized SPFs.
  std::map<net::Prefix, std::vector<const NetworkView::External*>> by_prefix;
  for (const NetworkView::External& ext : externals) {
    by_prefix[ext.prefix].push_back(&ext);
  }
  auto tables = std::make_shared<Tables>(*baseline_locked_());
  for (const auto& [prefix, exts] : by_prefix) {
    (*tables)[prefix] = build_column_(prefix, exts);
  }
  ++stats_.table_builds;
  return tables;
}

RouteCache::ColumnPtr RouteCache::build_column_(
    const net::Prefix& prefix,
    const std::vector<const NetworkView::External*>& externals) {
  const NetworkView& current = view_locked_();
  static const std::vector<const NetworkView::Attachment*> kNoAttachments;
  const auto att_it = attachments_.find(prefix);
  const auto& atts = att_it == attachments_.end() ? kNoAttachments : att_it->second;
  // A forwarding address resolves the same at every router: once per column.
  std::vector<ResolvedExternal> resolved;
  resolved.reserve(externals.size());
  for (const NetworkView::External* ext : externals) {
    if (const auto r = resolve_external(current, *ext)) resolved.push_back(*r);
  }
  auto column = std::make_shared<RouteColumn>();
  column->reserve(topo_->node_count());
  for (topo::NodeId n = 0; n < topo_->node_count(); ++n) {
    column->push_back(compute_route_entry(spf_locked_(n), atts, resolved));
  }
  return column;
}

}  // namespace fibbing::igp
