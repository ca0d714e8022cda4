#ifndef STAR_SERVE_RESULT_CACHE_H_
#define STAR_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <utility>
#include <vector>

#include "core/certificate.h"
#include "core/match.h"
#include "serve/lru_section.h"

namespace star::serve {

struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts dropped because Invalidate() ran after the value was computed.
  uint64_t stale_drops = 0;

  double hit_rate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// A completed top-k result list together with the canonical node ranks of
/// the query that produced it. The cache key is insertion-order
/// insensitive, so a hit may come from an *equivalent reordering* of the
/// caller's query: `node_rank[u]` (the canonical rank of the inserter's
/// node u, from query::CanonicalizeQuery) is what lets the service remap
/// `matches[i].mapping` — expressed in the inserter's node order — into
/// the caller's node order before returning it.
struct CachedResult {
  std::vector<core::GraphMatch> matches;
  std::vector<int> node_rank;
  /// The inserter's quality certificate, replayed verbatim on every hit
  /// (prefix/bound are score-based, so node-order remapping never touches
  /// them). The cache key embeds the degradation level, so an entry can
  /// only ever be hit by requests admitted at the SAME level — a degraded
  /// answer can never satisfy a stricter request.
  core::QualityCertificate certificate;
};

/// Thread-safe LRU cache of completed top-k result lists, keyed by the
/// normalized query key (canonical query signature + matching semantics +
/// k — see QueryService::CacheKey). A hit is bitwise identical to
/// re-running the query: only complete (non-cancelled) OK results are ever
/// inserted, and the generation check below keeps results computed against
/// superseded state out.
///
/// Result lists are stored behind shared_ptr, so a hit is a refcount bump
/// and the critical section stays O(1) regardless of k — the (possibly
/// large) match copy the caller needs happens outside the lock. The store
/// is one LruSection, whose index takes string_view probes, so lookups
/// with a composed key never allocate a temporary std::string.
///
/// Invalidation contract: Lookup callers capture generation() before
/// computing a fresh value and pass it to Insert. Invalidate() bumps the
/// generation and clears the cache, so values computed against the old
/// graph/index state can never land after the bump.
class ResultCache {
 public:
  using MatchList = std::shared_ptr<const CachedResult>;

  /// capacity 0 disables the cache (lookups miss, inserts drop).
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  uint64_t generation() const {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

  void Invalidate() {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    entries_.Clear();
  }

  /// nullptr = miss. The returned list stays valid for as long as the
  /// caller holds the pointer, even across eviction or invalidation.
  MatchList Lookup(std::string_view key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (auto* entry = entries_.Touch(key)) {
      ++stats_.hits;
      return entry->second;
    }
    ++stats_.misses;
    return nullptr;
  }

  /// `node_rank` must be the canonical ranks of the inserting query's
  /// nodes (see CachedResult); hits on reordered-equivalent queries depend
  /// on it to restore the caller's node order.
  void Insert(std::string_view key, std::vector<core::GraphMatch> value,
              std::vector<int> node_rank, uint64_t generation,
              core::QualityCertificate certificate = {}) {
    if (capacity_ == 0) return;
    auto wrapped = std::make_shared<const CachedResult>(
        CachedResult{std::move(value), std::move(node_rank), certificate});
    std::lock_guard<std::mutex> lock(mu_);
    if (generation != generation_) {
      ++stats_.stale_drops;
      return;
    }
    if (auto* entry = entries_.Touch(key)) {
      entry->second = std::move(wrapped);
      return;
    }
    entries_.InsertFront(key, std::move(wrapped), capacity_,
                         &stats_.evictions);
    ++stats_.insertions;
  }

  CacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.lru.size();
  }

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  uint64_t generation_ = 0;
  LruSection<MatchList> entries_;
  CacheStats stats_;
};

}  // namespace star::serve

#endif  // STAR_SERVE_RESULT_CACHE_H_
