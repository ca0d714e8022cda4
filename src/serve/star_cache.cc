#include "serve/star_cache.h"

#include <utility>

namespace star::serve {

std::optional<core::StarTopList> StarCache::LookupStarTopList(
    std::string_view key) {
  std::lock_guard<std::mutex> lock(mu_);
  if (auto* entry = toplists_.Touch(key)) {
    ++stats_.toplist_hits;
    return entry->second;
  }
  ++stats_.toplist_misses;
  return std::nullopt;
}

void StarCache::InsertStarTopList(std::string_view key,
                                  std::vector<core::StarMatch> matches,
                                  std::vector<double> bounds, bool exhausted,
                                  uint64_t generation) {
  if (capacity_ == 0) return;
  // A recording whose bounds are misaligned with its matches can never
  // replay faithfully; refuse it outright.
  if (bounds.size() != matches.size() + 1) return;
  core::StarTopList value;
  const size_t depth = matches.size();
  value.matches = std::make_shared<const std::vector<core::StarMatch>>(
      std::move(matches));
  value.bounds =
      std::make_shared<const std::vector<double>>(std::move(bounds));
  value.exhausted = exhausted;
  std::lock_guard<std::mutex> lock(mu_);
  if (generation != generation_) {
    ++stats_.stale_drops;
    return;
  }
  if (auto* entry = toplists_.Touch(key)) {
    const core::StarTopList& old = entry->second;
    const size_t old_depth = old.matches ? old.matches->size() : 0;
    const bool deeper = depth > old_depth ||
                        (depth == old_depth && exhausted && !old.exhausted);
    if (deeper) entry->second = std::move(value);
    return;  // Touch already refreshed recency
  }
  toplists_.InsertFront(key, std::move(value), capacity_,
                        &stats_.toplist_evictions);
  ++stats_.toplist_insertions;
}

}  // namespace star::serve
