#ifndef STAR_CORE_REUSE_CACHE_H_
#define STAR_CORE_REUSE_CACHE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/match.h"
#include "scoring/query_scorer.h"

namespace star::core {

/// A memoized star match stream: the first matches of one canonical star
/// in emission order, plus the engine's upper bound BETWEEN each pair of
/// pulls. bounds has matches->size() + 1 entries — bounds[i] is
/// StarSearch::UpperBound() after exactly i matches were emitted. Replay
/// surfaces these recorded bounds so a rank join driven by a warm stream
/// takes bit-for-bit the same pull/emit decisions as one driven cold.
struct StarTopList {
  std::shared_ptr<const std::vector<StarMatch>> matches;
  std::shared_ptr<const std::vector<double>> bounds;
  /// True when the stream was drained: matches is the COMPLETE result of
  /// the star, not just a prefix.
  bool exhausted = false;
};

/// Cross-query reuse cache consumed by the engine (StarFramework /
/// CachedStarStream) and implemented by the serving layer
/// (serve::StarCache). Two sections, both keyed by full signature strings
/// (configuration fingerprint + canonical signature — lookups compare the
/// whole key, never a hash alone):
///
///  - candidate lists: the scorer's complete, sorted candidate list for
///    one (node attributes, config) pair, at d >= 2 only (at d <= 1 a list
///    also depends on the node's neighbours);
///  - star top-lists: memoized match-stream prefixes per canonical star.
///
/// Generation contract (same as serve::ResultCache): callers capture
/// generation() before computing, pass it to Insert*, and the
/// implementation drops inserts whose generation is stale. An
/// implementation must only ever return values inserted under the SAME
/// graph / ensemble / index it is being probed for — in practice a cache
/// instance is owned by one QueryService and never outlives its data.
///
/// Thread safety: implementations must be safe for concurrent calls.
class ReuseCache {
 public:
  virtual ~ReuseCache() = default;

  virtual uint64_t generation() const = 0;

  /// The complete candidate list stored under `key`, or nullptr.
  virtual std::shared_ptr<const std::vector<scoring::ScoredCandidate>>
  LookupCandidates(std::string_view key) = 0;

  /// Stores a COMPLETE (non-truncated) candidate list. Dropped if
  /// `generation` is stale.
  virtual void InsertCandidates(std::string_view key,
                                std::vector<scoring::ScoredCandidate> list,
                                uint64_t generation) = 0;

  /// The memoized stream prefix stored under `key`, or nullopt.
  virtual std::optional<StarTopList> LookupStarTopList(std::string_view key) = 0;

  /// Stores a stream prefix (bounds.size() must be matches.size() + 1).
  /// Implementations keep the deeper of the stored and offered entries.
  /// Dropped if `generation` is stale.
  virtual void InsertStarTopList(std::string_view key,
                                 std::vector<StarMatch> matches,
                                 std::vector<double> bounds, bool exhausted,
                                 uint64_t generation) = 0;
};

}  // namespace star::core

#endif  // STAR_CORE_REUSE_CACHE_H_
