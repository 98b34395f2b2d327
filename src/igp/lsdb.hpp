#pragma once

#include <unordered_map>
#include <vector>

#include "igp/lsa.hpp"

namespace fibbing::igp {

/// Link-state database: the per-router replica of all flooded LSAs.
/// Sequence numbers decide freshness, exactly as in OSPF: an instance
/// replaces a stored one iff its seq is strictly newer. Instances are held
/// by LsaPtr, so a replaced or erased instance stays alive in its Change
/// record (Change::before) for the router's SPF view patch to diff against.
class Lsdb {
 public:
  enum class InstallResult { kNewer, kDuplicate, kStale };

  /// Install an LSA instance. kNewer means the database changed (and the
  /// caller should re-flood and schedule SPF).
  InstallResult install(LsaPtr lsa);
  /// Convenience for callers holding a plain value (tests, one-off
  /// construction): wraps it in a handle.
  InstallResult install(const Lsa& lsa);

  [[nodiscard]] const Lsa* find(const LsaKey& key) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }

  /// Remove an entry outright (RFC 14 MaxAge flushing). Returns true when
  /// something was erased.
  bool erase(const LsaKey& key);

  /// A key whose content changed since the previous drain_changes().
  struct Change {
    LsaKey key;
    /// The instance the key held at that drain; null when it held none.
    LsaPtr before;
  };
  /// Every key whose content changed since the previous call -- through an
  /// install returning kNewer or an erase -- once each, ascending by key.
  /// The database records these itself, so no install site can be missed.
  [[nodiscard]] std::vector<Change> drain_changes();

  /// All live (non-withdrawn) LSAs, deterministic order (sorted by key).
  [[nodiscard]] std::vector<const Lsa*> live() const;

  /// All entries including withdrawal tombstones, as handles (no copy).
  [[nodiscard]] std::vector<LsaPtr> all() const;

  /// Two databases are equivalent when they hold the same keys at the same
  /// sequence numbers (the convergence criterion for the flooding tests).
  [[nodiscard]] bool same_content(const Lsdb& other) const;

 private:
  std::unordered_map<LsaKey, LsaPtr> entries_;
  /// One record per change since the last drain, in change order.
  std::vector<Change> changes_;
};

}  // namespace fibbing::igp
