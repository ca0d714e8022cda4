#ifndef STAR_SERVE_STAR_CACHE_H_
#define STAR_SERVE_STAR_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/reuse_cache.h"
#include "serve/lru_section.h"

namespace star::serve {

struct StarCacheStats {
  /// Always 0: candidate lists are not cached across queries. Kept for
  /// perfbench's serve.star_cache.candidate_hit_rate, which reads both.
  uint64_t candidate_hits = 0;
  uint64_t candidate_misses = 0;  ///< always 0 (see candidate_hits)
  uint64_t toplist_hits = 0;
  uint64_t toplist_misses = 0;
  uint64_t toplist_insertions = 0;
  uint64_t toplist_evictions = 0;
  /// Inserts dropped because Invalidate() ran after the value was computed.
  uint64_t stale_drops = 0;
};

/// Thread-safe, generation-counted LRU store behind core::ReuseCache: per
/// canonical star, a top-list prefix with its recorded between-pull upper
/// bounds. Keys are full canonical strings (config fingerprint + canonical
/// star signature) and every lookup compares the complete key via the hash
/// map's equality — a hash collision can never surface a wrong entry.
///
/// Values are shared_ptr-wrapped so a hit is a refcount bump: the critical
/// section does no copying, and readers keep replaying an entry safely even
/// after it is evicted or invalidated (the replayed data stays valid; the
/// generation gate only stops NEW inserts computed against old state).
///
/// Invalidation contract (same as ResultCache): callers capture
/// generation() before computing, pass it to the insert; Invalidate() bumps
/// the generation and clears the store.
class StarCache final : public core::ReuseCache {
 public:
  /// Top-list entry capacity; 0 disables the cache (lookups miss, inserts
  /// drop).
  explicit StarCache(size_t capacity) : capacity_(capacity) {}

  uint64_t generation() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return generation_;
  }

  void Invalidate() {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    toplists_.Clear();
  }

  std::optional<core::StarTopList> LookupStarTopList(
      std::string_view key) override;

  /// Keeps the deeper recording when an entry already exists: more matches
  /// wins; at equal depth an exhausted recording supersedes an open one.
  void InsertStarTopList(std::string_view key,
                         std::vector<core::StarMatch> matches,
                         std::vector<double> bounds, bool exhausted,
                         uint64_t generation) override;

  StarCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  /// Test-only fault injection (fuzz harness): adds `delta` to every
  /// memoized star-top-list score and recorded bound, in place. A warm run
  /// then replays the perturbed stream, which the harness's warm==cold
  /// differential cell must flag. Returns the number of entries touched.
  size_t CorruptTopListScoresForTest(double delta) {
    std::lock_guard<std::mutex> lock(mu_);
    size_t touched = 0;
    for (auto& [key, toplist] : toplists_.lru) {
      auto matches =
          std::make_shared<std::vector<core::StarMatch>>(*toplist.matches);
      for (auto& m : *matches) m.score += delta;
      auto bounds = std::make_shared<std::vector<double>>(*toplist.bounds);
      for (double& b : *bounds) b += delta;
      toplist.matches = std::move(matches);
      toplist.bounds = std::move(bounds);
      ++touched;
    }
    return touched;
  }

  size_t toplist_size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return toplists_.lru.size();
  }

 private:
  mutable std::mutex mu_;
  const size_t capacity_;
  uint64_t generation_ = 0;
  LruSection<core::StarTopList> toplists_;
  StarCacheStats stats_;
};

}  // namespace star::serve

#endif  // STAR_SERVE_STAR_CACHE_H_
