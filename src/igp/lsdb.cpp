#include "igp/lsdb.hpp"

#include <algorithm>
#include <utility>

#include "util/assert.hpp"

namespace fibbing::igp {

Lsdb::InstallResult Lsdb::install(LsaPtr lsa) {
  FIB_ASSERT(lsa != nullptr, "Lsdb::install: null LSA");
  auto it = entries_.find(lsa->id);
  if (it == entries_.end()) {
    changes_.push_back(Change{lsa->id, nullptr});
    entries_.emplace(lsa->id, std::move(lsa));
    return InstallResult::kNewer;
  }
  if (lsa->seq > it->second->seq) {
    changes_.push_back(Change{lsa->id, std::exchange(it->second, std::move(lsa))});
    return InstallResult::kNewer;
  }
  if (lsa->seq == it->second->seq) return InstallResult::kDuplicate;
  return InstallResult::kStale;
}

Lsdb::InstallResult Lsdb::install(const Lsa& lsa) {
  return install(std::make_shared<const Lsa>(lsa));
}

bool Lsdb::erase(const LsaKey& key) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  changes_.push_back(Change{key, std::move(it->second)});
  entries_.erase(it);
  return true;
}

std::vector<Lsdb::Change> Lsdb::drain_changes() {
  std::vector<Change> out;
  out.swap(changes_);
  // Stable, so each key's first record -- the one holding the instance of
  // the previous drain -- is the one unique() keeps.
  const auto by_key = [](const Change& a, const Change& b) { return a.key < b.key; };
  std::stable_sort(out.begin(), out.end(), by_key);
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Change& a, const Change& b) { return a.key == b.key; }),
            out.end());
  return out;
}

const Lsa* Lsdb::find(const LsaKey& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.get();
}

std::vector<const Lsa*> Lsdb::live() const {
  std::vector<const Lsa*> out;
  out.reserve(entries_.size());
  // lint:unordered-iter-ok(hash order never escapes: out is sorted by key below)
  for (const auto& [key, lsa] : entries_) {
    const auto* ext = std::get_if<ExternalLsa>(&lsa->body);
    if (ext != nullptr && ext->withdrawn) continue;
    out.push_back(lsa.get());
  }
  std::sort(out.begin(), out.end(),
            [](const Lsa* a, const Lsa* b) { return a->id < b->id; });
  return out;
}

std::vector<LsaPtr> Lsdb::all() const {
  std::vector<LsaPtr> out;
  out.reserve(entries_.size());
  // lint:unordered-iter-ok(hash order never escapes: out is sorted by key below)
  for (const auto& [key, lsa] : entries_) out.push_back(lsa);
  std::sort(out.begin(), out.end(),
            [](const LsaPtr& a, const LsaPtr& b) { return a->id < b->id; });
  return out;
}

bool Lsdb::same_content(const Lsdb& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  // lint:unordered-iter-ok(order-independent reduction: all-of over lookups)
  for (const auto& [key, lsa] : entries_) {
    const Lsa* theirs = other.find(key);
    if (theirs == nullptr || theirs->seq != lsa->seq) return false;
  }
  return true;
}

}  // namespace fibbing::igp
