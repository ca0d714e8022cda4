#ifndef STAR_CORE_RANK_JOIN_H_
#define STAR_CORE_RANK_JOIN_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <memory_resource>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "core/flat_tuple_set.h"
#include "core/match.h"
#include "core/reuse_cache.h"
#include "core/star_search.h"

namespace star::core {

/// Pull interface for algorithms that emit matches in non-increasing score
/// order, with a declared set of covered query nodes. The monotonicity is
/// the property §VI-A relies on: it makes a match stream equivalent to a
/// pre-sorted list, enabling rank joins with valid upper bounds. Rank joins
/// use the cover masks to find the joint nodes U shared by two inputs.
/// Query graphs are limited to 64 nodes by the mask width, far beyond any
/// query the paper considers.
class CoveredMatchIterator {
 public:
  virtual ~CoveredMatchIterator() = default;

  /// The next-best match, or nullopt when exhausted. Scores of successive
  /// results never increase.
  virtual std::optional<GraphMatch> Next() = 0;

  /// An upper bound on the score of any match not yet returned.
  /// Must be <= the score of the previously returned match once one has
  /// been returned; -infinity when exhausted.
  virtual double UpperBound() const = 0;

  /// Bit u set <=> query node u is mapped by every match of this stream.
  virtual uint64_t covered_mask() const = 0;

  /// True when the stream stopped because of a cancellation rather than
  /// genuine exhaustion. A consumer must not treat a cancelled stream's
  /// nullopt as "ran dry": the stream's unseen matches could still tie or
  /// beat anything the consumer has buffered, so emitting past it would
  /// break the canonical order.
  virtual bool cancelled() const { return false; }
};

/// Adapts a StarSearch into a CoveredMatchIterator producing partial
/// GraphMatches, with an optional cross-query memo. The stream's scores are
/// the α-weighted star scores (StarSearch::Options::node_weights), so they
/// are monotone and sum exactly to Eq. 2 across a decomposition.
///
/// The memo probes a ReuseCache for the canonical star's recorded stream
/// prefix and replays it instead of driving the search; when the consumer
/// outruns the prefix the cold search resumes exactly where the recording
/// left off (the search is deterministic per canonical star, so skipping
/// the replayed pulls lands it in the identical state). Replay also
/// surfaces the RECORDED between-pull upper bounds, so a rank join fed by a
/// warm stream makes bit-for-bit the same pull and emit decisions as one
/// fed cold — warm results are bitwise identical to cold execution,
/// including tie order.
///
/// With cache == nullptr or an empty key (non-exact canonical star) the
/// stream is the plain search: cold, no recording. Cold/extending runs
/// record what they emit; CommitToCache() publishes the recording —
/// callers must only invoke it when the whole query run finished without
/// any cancellation, so truncated partials never enter the cache.
class CachedStarStream : public CoveredMatchIterator {
 public:
  /// `scorer` and `cache` (nullable) must outlive the stream. `key` is the
  /// full star cache key (config fingerprint + canonical star signature);
  /// empty disables memoization for this stream. `generation` is the cache
  /// generation captured before any engine work (passed to the insert).
  CachedStarStream(scoring::QueryScorer& scorer, query::StarQuery star,
                   StarSearch::Options options, ReuseCache* cache,
                   std::string key, uint64_t generation);

  std::optional<GraphMatch> Next() override;
  double UpperBound() const override;
  uint64_t covered_mask() const override { return covered_; }
  bool cancelled() const override { return search_.stats().cancelled; }

  /// Matches emitted so far (replayed + live) — the star's search depth
  /// |L_i| (Fig. 14(d)).
  size_t depth() const { return depth_; }

  /// True when the stream probed the cache at all (cache attached and the
  /// canonical star was exact).
  bool probed() const { return cache_ != nullptr && !key_.empty(); }
  /// True when the probe found a recorded prefix.
  bool cache_hit() const { return entry_.has_value(); }
  /// True when the consumer outran the recorded prefix and the cold
  /// search resumed.
  bool resumed() const { return resumed_; }

  /// Search counters (all zero for a pure replay — no search work ran).
  const StarSearchStats& stats() const { return search_.stats(); }

  /// Inserts/extends the cache entry from what this stream emitted. Call
  /// ONLY after the whole query completed with no cancellation anywhere
  /// (framework-level gate); no-op when nothing new was learned.
  void CommitToCache();

 private:
  /// One live search pull with bound recording; nullopt on exhaustion.
  std::optional<GraphMatch> LivePull();

  ReuseCache* cache_;
  std::string key_;
  uint64_t generation_ = 0;
  // Mutable: UpperBound() const initializes the search on first use.
  mutable StarSearch search_;
  uint64_t covered_ = 0;

  std::optional<StarTopList> entry_;  // recorded prefix, if any
  size_t pos_ = 0;                    // replay cursor into entry_
  bool resumed_ = false;              // cold search took over after replay
  bool live_exhausted_ = false;       // search reported genuine exhaustion
  size_t depth_ = 0;

  /// Recording: combined prefix + live emissions, maintained only when
  /// probed(). record_bounds_[i] is the search upper bound after i pulls.
  std::vector<StarMatch> record_matches_;
  std::vector<double> record_bounds_;
};

/// Hash rank join of two monotone match streams (starjoin, Fig. 9; HRJN
/// [21] with the α-scheme upper bounds of Eq. 4).
///
/// Maintains a hash table per input keyed by the joint-node assignment,
/// and emits joined matches once their score is at least the threshold
///   T = max(U_left + top_right, top_left + U_right),
/// which Eq. 4 shows is a valid upper bound on any unseen join result when
/// the two inputs' ranking functions split shared-node scores by α.
///
/// Each step pulls the input whose term sets T, HRJN's adaptive strategy:
/// the left one when U_left + top_right >= top_left + U_right, else the
/// right one (a side's top is its UpperBound() until its first pull; an
/// exhausted side's U is -inf). Pulling the side with the larger U is not
/// that strategy: when the left input's scores run above the right's,
/// top_left + U_right sets T, pulling the left input cannot lower it, and
/// that rule reads the left input far past the point where the k-th
/// result could be emitted.
///
/// The output is itself a CoveredMatchIterator, enabling the left-deep
/// multiway pipeline of §VI-A.
class RankJoin : public CoveredMatchIterator {
 public:
  struct Stats {
    size_t left_pulled = 0;
    size_t right_pulled = 0;
    size_t pairs_probed = 0;
    size_t results_formed = 0;
  };

  /// `cancel` (optional) cooperatively stops the pull loop: once it
  /// fires, Next() reports exhaustion and already-returned results remain
  /// a valid prefix. Must outlive the join. `mem` (optional) backs the
  /// result heap's storage — pass the per-query arena resource from the
  /// owning thread (the join runs entirely on it); null = default
  /// resource.
  RankJoin(std::unique_ptr<CoveredMatchIterator> left,
           std::unique_ptr<CoveredMatchIterator> right,
           bool enforce_injective, const Cancellation* cancel = nullptr,
           std::pmr::memory_resource* mem = nullptr);

  std::optional<GraphMatch> Next() override;
  double UpperBound() const override;
  uint64_t covered_mask() const override { return covered_; }

  const Stats& stats() const { return stats_; }

  /// True if a cancellation checkpoint stopped the pull loop, or an input
  /// stream ended by cancellation (which poisons the join the same way).
  bool cancelled() const override { return cancelled_; }

 private:
  struct Side {
    std::unique_ptr<CoveredMatchIterator> input;
    // Join table: the distinct join keys pulled so far, and per key id the
    // matches pulled with that key, in pull order. Only probed and
    // appended, never iterated as a whole.
    FlatTupleSet keys;
    std::vector<std::vector<GraphMatch>> groups;
    double top_score = 0.0;  // score of the first match pulled
    bool top_seen = false;
    bool exhausted = false;
    size_t pulled = 0;
  };

  /// Fills key_ with the join key of `m`: its data nodes at the shared
  /// query nodes, in shared_nodes_ order.
  void JoinKey(const GraphMatch& m);

  /// Unseen-result threshold T (Eq. 4 composition); -inf when both inputs
  /// are exhausted.
  double Threshold() const;

  /// Pulls one match from the chosen side, probes, pushes join results.
  /// Returns false if the side was exhausted.
  bool Pull(Side& self, Side& other);

  /// Combines two compatible partial matches.
  std::optional<GraphMatch> Combine(const GraphMatch& a,
                                    const GraphMatch& b) const;

  Side left_, right_;
  uint64_t covered_ = 0;
  std::vector<int> shared_nodes_;
  std::vector<uint32_t> key_;  // join key of the match being pulled
  bool enforce_injective_;
  CancelChecker cancel_check_;
  bool cancelled_ = false;

  struct ResultOrder {
    bool operator()(const GraphMatch& a, const GraphMatch& b) const {
      return a.score < b.score;
    }
  };
  // Heap container on the per-query arena when one is attached (the join
  // is owning-thread only, so the single-threaded arena is safe here).
  std::priority_queue<GraphMatch, std::pmr::vector<GraphMatch>, ResultOrder>
      results_;
  Stats stats_;
};

}  // namespace star::core

#endif  // STAR_CORE_RANK_JOIN_H_
