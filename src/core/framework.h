#ifndef STAR_CORE_FRAMEWORK_H_
#define STAR_CORE_FRAMEWORK_H_

#include <limits>
#include <memory>
#include <vector>

#include <string>

#include "common/arena.h"
#include "common/deadline.h"
#include "core/decomposition.h"
#include "core/match.h"
#include "core/rank_join.h"
#include "core/reuse_cache.h"
#include "core/star_search.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/query_graph.h"
#include "scoring/match_config.h"
#include "scoring/query_scorer.h"
#include "text/ensemble.h"

namespace star::core {

/// End-to-end configuration of the STAR framework (Fig. 4).
struct StarOptions {
  /// Star-query engine: stark or stard.
  StarStrategy strategy = StarStrategy::kStard;
  /// Matching semantics (thresholds, lambda, d, injectivity).
  scoring::MatchConfig match;
  /// Decomposition heuristic for general queries.
  DecompositionOptions decomposition;
  /// α of the two-way rank-join score split (§VI-A). The first star of a
  /// shared node owns α of its F_N; with > 2 stars the remainder is split
  /// evenly.
  double alpha = 0.5;
  /// Cross-query reuse cache (nullable, must outlive the framework and be
  /// bound to the same graph/ensemble/index): star match streams replay
  /// their memoized prefixes (at d <= 1 only a single-star query's). Every
  /// run scores its own candidate lists. Hits are bitwise identical to
  /// cold execution; cancelled/truncated runs never insert.
  ReuseCache* reuse = nullptr;
};

/// Serializes every StarOptions field that can change results (bit-exact
/// doubles), plus whether a label index is attached — the retrieval
/// semantics differ with and without one.
/// Used as the config segment of serve-layer cache keys and of ReuseCache
/// keys.
std::string StarOptionsFingerprint(const StarOptions& o, bool has_index);

/// α-scheme ownership weights for star `star_index` of `stars` (§VI-A):
/// weights[u] is the fraction of query node u's F_N that this star's
/// ranking function owns (0 for nodes outside the star; the first owning
/// star gets α, the rest split the remainder evenly).
std::vector<double> AlphaNodeWeights(const query::QueryGraph& q,
                                     const std::vector<query::StarQuery>& stars,
                                     size_t star_index, double alpha);

/// ReuseCache key of one canonical star's top-list, or "" when the
/// canonicalization is not exact (such stars are never memoized).
std::string StarCacheKey(const std::string& config_fingerprint,
                         const query::QueryGraph& q,
                         const query::StarQuery& star,
                         const std::vector<double>& node_weights);

/// Per-query-node candidate-list digest, exported for the serve layer's
/// degradation drop bounds: when a tightened cutoff or pool sampling may
/// have excluded candidates, the certificate needs the best/worst KEPT
/// F_N per node to bound what any excluded candidate could contribute.
/// It describes each list as it was scored (QueryScorer::ScoredInfo),
/// before the d <= 1 plan's arc-consistency pass.
struct NodeCandidateInfo {
  /// The list was scored during the run. When false the caps below are
  /// meaningless and readers must assume the worst.
  bool computed = false;
  /// Wildcard query node: F_N == wildcard_node_score (untyped) or the
  /// type check (typed) for every v.
  bool wildcard = false;
  /// Best kept F_N (lists are (score desc, node asc); 0 if empty), raised
  /// over the pool nodes the d <= 1 plan dropped unscored.
  double top_score = 0.0;
  /// Worst kept F_N (the cut boundary; 0 if empty).
  double cut_score = 0.0;
  /// The list is exactly max_candidates long — the cutoff may have
  /// dropped candidates above node_threshold.
  bool cut_applied = false;
  /// The run's config sampled this node's retrieval pool.
  bool sampled = false;
};

/// Per-query execution diagnostics.
struct FrameworkStats {
  /// True if a cancellation checkpoint fired anywhere in the query: the
  /// returned matches are then a (correctly ordered) prefix of the exact
  /// top-k rather than the complete answer.
  bool cancelled = false;
  /// Certified residual bound: upper bound on the score of any valid
  /// match (under THIS run's config) not among the returned matches.
  /// Sound for complete, cancelled, and truncated runs alike: the live
  /// pipeline bound (tightened by the last emitted score — streams are
  /// monotone) when every candidate list is complete, else the scorer's
  /// a-priori ScoreUpperBound. -inf = search space exhausted; +inf =
  /// nothing computed (pre-expired request).
  double residual_bound = std::numeric_limits<double>::infinity();
  /// Candidate-list digests per query node (index-aligned with the query;
  /// empty when the run returned before building a scorer).
  std::vector<NodeCandidateInfo> node_candidates;
  size_t num_stars = 0;
  /// Matches pulled from each star stream (the search depths |L_i|).
  std::vector<size_t> star_depths;
  /// Total depth D = sum |L_i| (§VI-A's effectiveness metric).
  size_t total_depth = 0;
  /// Aggregated star-engine counters.
  StarSearchStats search;
  /// The scorer's candidate-retrieval counters (nodes considered, skipped
  /// by a bound, and scored).
  scoring::RetrievalStats retrieval;

  /// Cross-query reuse activity (all zero when StarOptions::reuse is
  /// unset). A star counts as a hit when its stream replayed a memoized
  /// prefix; a resume additionally ran the engine past the prefix.
  size_t star_cache_hits = 0;
  size_t star_cache_misses = 0;
  size_t star_cache_resumes = 0;
};

/// Fills one NodeCandidateInfo per query node from the scorer's digests
/// of its scored lists (never triggers computation).
std::vector<NodeCandidateInfo> CollectNodeCandidateInfo(
    const query::QueryGraph& q, const scoring::QueryScorer& scorer);

/// The STAR top-k query engine (Fig. 4): decomposes a general graph query
/// into stars, evaluates each star with stark/stard, and assembles
/// complete matches with the α-scheme rank join. Star queries bypass the
/// join entirely.
class StarFramework {
 public:
  /// All referenced objects must outlive the framework. `index` may be
  /// null (candidates then scan all of V).
  StarFramework(const graph::KnowledgeGraph& g,
                const text::SimilarityEnsemble& ensemble,
                const graph::LabelIndex* index, StarOptions options);

  /// Top-k matches of q in descending score order. Exact under the
  /// configured matching semantics (ties broken arbitrarily). A query
  /// that fails QueryGraph::Validate() gets no matches.
  std::vector<GraphMatch> TopK(const query::QueryGraph& q, size_t k);

  /// Cancellable variant: `cancel` (nullable, must outlive the call) is
  /// polled at every hot-loop checkpoint — candidate scoring, stark
  /// enumeration, stard propagation, reserve activation, rank-join pulls.
  /// Once it fires the call winds down and returns the matches emitted so
  /// far (a prefix of the exact top-k, possibly empty), with
  /// last_stats().cancelled set. An already-expired deadline returns
  /// before any candidate retrieval.
  std::vector<GraphMatch> TopK(const query::QueryGraph& q, size_t k,
                               const Cancellation* cancel);

  /// Arena variant: `arena` (nullable, single-threaded, owned by the
  /// caller) backs the query's transient state — candidate lists,
  /// walk-ball scratch, the rank-join result heap. The caller must not
  /// Reset() it until the returned matches have been consumed of every
  /// reference into scorer state (the matches themselves own their
  /// mappings and survive a reset). A serving worker that owns one arena
  /// and resets it once per request reaches steady-state zero allocation
  /// churn on the cold path. Results are bit-identical with and without
  /// an arena.
  std::vector<GraphMatch> TopK(const query::QueryGraph& q, size_t k,
                               const Cancellation* cancel,
                               common::MonotonicArena* arena);

  /// Diagnostics of the most recent TopK call.
  const FrameworkStats& last_stats() const { return stats_; }

  const StarOptions& options() const { return options_; }
  StarOptions& mutable_options() { return options_; }

 private:
  const graph::KnowledgeGraph& graph_;
  const text::SimilarityEnsemble& ensemble_;
  const graph::LabelIndex* index_;
  StarOptions options_;
  /// StarOptionsFingerprint of options_ — the config segment every
  /// ReuseCache key starts with.
  std::string config_fingerprint_;
  FrameworkStats stats_;
};

}  // namespace star::core

#endif  // STAR_CORE_FRAMEWORK_H_
