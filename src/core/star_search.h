#ifndef STAR_CORE_STAR_SEARCH_H_
#define STAR_CORE_STAR_SEARCH_H_

#include <cstddef>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "core/match.h"
#include "core/pivot_enumerator.h"
#include "query/query_graph.h"
#include "scoring/query_scorer.h"

namespace star::core {

/// Which §V algorithm evaluates the star query.
enum class StarStrategy {
  /// stark (Fig. 5): the exact top-1 match is computed for *every* pivot
  /// candidate up front. For d >= 2 this performs a d-hop traversal per
  /// candidate — the cost the paper's Exp-1 measures. The top-1 is read
  /// off the pivot's leaf lists; a pivot's enumerator is built only when
  /// the search activates it (or, once, to resolve a top-1 whose best
  /// leaves collide under injectivity).
  kStark,
  /// stard (§V-B): d rounds of message propagation produce (an upper bound
  /// on) each candidate's top-1 score; exact per-pivot enumeration runs
  /// only for pivots that can reach the top k ("lazy" refinement).
  kStard,
  /// The §V-C "alternative": pivot candidates are ranked by a cheap
  /// closed-form upper bound (pivot F_N plus, per leaf, the best leaf
  /// candidate score and best edge score) and exact per-pivot enumerators
  /// are built lazily in that order, stopping as soon as no unseen pivot
  /// can beat the best queued match. A TA-flavored middle ground: no
  /// message passing, but far fewer per-pivot traversals than stark when
  /// pivot F_N scores discriminate well.
  kHybrid,
};

/// Counters exposed for the benchmark harness.
struct StarSearchStats {
  size_t pivot_candidates = 0;
  /// PivotEnumerators constructed: one per activated pivot with a match,
  /// plus one for each stark top-1 whose first state collides under
  /// injectivity (built for its PeekScore, then dropped).
  size_t enumerators_built = 0;
  /// stard messages: the sends pushed in rounds 1 .. d-1 (one per
  /// neighbor of each sender), plus the offers pivot candidates pull in
  /// round d (one per frontier entry queued at a neighbor).
  size_t messages_sent = 0;
  /// Leaf-list builds, one per pivot scanned (each stark top-1, each
  /// rebuild for a colliding top-1, each activation), plus the walk-layer
  /// nodes they expand at d >= 2.
  size_t nodes_expanded = 0;
  size_t matches_emitted = 0;
  /// Initialize() wall-clock time: the pivot's candidate scoring plus
  /// stark's top-1 pass or stard's propagation, including the leaf lists
  /// they score on the way.
  double init_wall_ms = 0.0;
  /// Initialize() process-CPU time (CpuTimer): it also counts what other
  /// threads of the process ran meanwhile, such as concurrent requests.
  double init_cpu_ms = 0.0;

  /// Scoring-kernel activity during Initialize() (deltas of the scorer's
  /// KernelStats): F_N pairs pushed through the batch kernel, how many
  /// exited early, and feature evaluations performed vs skipped by the
  /// per-lane caps.
  size_t fn_pairs_scored = 0;
  size_t fn_early_exits = 0;
  size_t fn_feature_evals = 0;
  size_t fn_features_skipped = 0;

  /// True if a cancellation checkpoint fired during this search: some
  /// phase wound down early, so emitted matches are a (still correctly
  /// ordered) prefix of the exact result. Never set without a
  /// Options::cancel token.
  bool cancelled = false;

  /// Accumulates the countable counters (wall/CPU times are summed too,
  /// so aggregate stats report totals across stars).
  void Merge(const StarSearchStats& o) {
    pivot_candidates += o.pivot_candidates;
    enumerators_built += o.enumerators_built;
    messages_sent += o.messages_sent;
    nodes_expanded += o.nodes_expanded;
    matches_emitted += o.matches_emitted;
    init_wall_ms += o.init_wall_ms;
    init_cpu_ms += o.init_cpu_ms;
    fn_pairs_scored += o.fn_pairs_scored;
    fn_early_exits += o.fn_early_exits;
    fn_feature_evals += o.fn_feature_evals;
    fn_features_skipped += o.fn_features_skipped;
    cancelled |= o.cancelled;
  }
};

/// Builds the StarQuery view of a whole star-shaped QueryGraph.
/// Precondition: q.IsStar().
query::StarQuery MakeStarQuery(const query::QueryGraph& q);

/// Top-k evaluation of one star (sub)query: a monotone star match stream
/// that rank joins consume directly (§VI) through CachedStarStream. Every
/// strategy produces identical results; they differ only in how much work
/// identifying the pivot set costs.
///
/// Contract: Next() emits matches in non-increasing score order (ties in
/// ascending pivot id); UpperBound() between pulls bounds every
/// not-yet-emitted match and never increases while the stream is live.
/// After a cancellation the emitted prefix stays valid, stats().cancelled
/// is set, and UpperBound() REMAINS a sound bound on every unseen match —
/// it may jump UP once at the moment of cancellation (a wound-down build
/// falls back to an a-priori cap), never down. Certificate readers rely
/// on this post-cancellation soundness.
class StarSearch {
 public:
  struct Options {
    StarStrategy strategy = StarStrategy::kStard;
    /// If > 0, per-pivot candidate lists are pruned for a top-k_hint
    /// workload (Prop. 3); pulling more than k_hint matches *pivoted at
    /// one node* is then not supported. 0 = no pruning (exact streams of
    /// any length, required by rank joins).
    size_t k_hint = 0;
    /// α-scheme ownership weights (§VI-A): node_weights[u] is the fraction
    /// of query node u's F_N that this star's ranking function owns. Empty
    /// = all 1 (standalone star query). Joining streams whose per-node
    /// weights sum to 1 yields exactly the Eq. 2 score.
    std::vector<double> node_weights;
    /// Cooperative cancellation (deadline and/or explicit cancel). When it
    /// fires, initialization phases wind down early and Next() reports
    /// exhaustion; matches already emitted remain valid, making the stream
    /// a prefix of the exact one. Must outlive the search. nullptr = run
    /// to completion.
    const Cancellation* cancel = nullptr;
  };

  /// The scorer must outlive the search; `star.edges` must all be incident
  /// to `star.pivot` in scorer's query graph. Edges are internally
  /// reordered into canonical record order (query_canonical.h), so the
  /// emitted stream — scores, tie order, everything — is invariant under
  /// edge insertion order; star() reflects the reordering.
  StarSearch(scoring::QueryScorer& scorer, query::StarQuery star,
             Options options);

  /// The next-best match of the star, or nullopt when no more matches
  /// satisfy the thresholds. Scores never increase across calls.
  std::optional<StarMatch> Next();

  /// Upper bound on the score of any not-yet-returned match.
  double UpperBound();

  /// Convenience: the best k matches (Fig. 5's stark procedure).
  std::vector<StarMatch> TopK(size_t k);

  /// The reserve's (pivot, bound) pairs in reserve order (bound desc,
  /// pivot asc), after initializing the search: stark's exact top-1
  /// scores, stard's §V-B estimates, or the hybrid's closed-form bounds.
  /// Reading them changes nothing; tests pin the estimates with it.
  std::vector<std::pair<graph::NodeId, double>> PivotBounds();

  /// Expands a star match to a (partial) match of the full query graph.
  GraphMatch ToGraphMatch(const StarMatch& m) const;

  const query::StarQuery& star() const { return star_; }
  const StarSearchStats& stats() const { return stats_; }

 private:
  struct ReserveEntry {
    double bound = 0.0;  // stark: exact top-1; stard: upper-bound estimate
    graph::NodeId pivot = graph::kInvalidNode;
    double pivot_score = 0.0;
  };

  /// One thread's leaf-list scratch (defined in star_search.cc).
  struct LeafListScratch;

  struct QueueEntry {
    double score;
    size_t enumerator_index;
    graph::NodeId pivot;
    // Score ties break toward the smaller pivot id (priority_queue pops
    // the largest element, so the comparison is inverted). This makes the
    // emitted stream the canonical (score desc, pivot asc) merge of the
    // per-pivot streams, a pure function of the canonical star — the
    // invariant reuse-cache replay relies on.
    bool operator<(const QueueEntry& o) const {
      if (score != o.score) return score < o.score;
      return pivot > o.pivot;
    }
  };

  double NodeWeight(int query_node) const {
    return options_.node_weights.empty()
               ? 1.0
               : options_.node_weights[query_node];
  }

  void Initialize();
  void InitializeStark();
  void InitializeStard();
  void InitializeHybrid();
  /// Moves reserve pivots into the active queue while one could beat the
  /// best queued match.
  void ActivateReserve();

  /// A-priori weighted star cap, independent of any candidate list:
  /// NodeWeight(u) * maxF_N(u) per star node (1.0 for label-scored nodes
  /// — Eq. 1 is normalized — or wildcard_node_score) plus MaxEdgeScore per
  /// edge. This bounds every match of the star no matter what a wound-down
  /// initialization failed to build, which makes UpperBound() sound after
  /// a cancellation: an interrupted InitializeStark/InitializeStard leaves
  /// a partial reserve, an interrupted activation drops the pivot it was
  /// building, and after a scorer truncation a leaf list can miss
  /// candidates, so a PeekScore can understate — the structural
  /// queue/reserve maximum alone can then sit BELOW a real unseen match,
  /// which a certificate reader (rank-join thresholds, the serve-layer
  /// QualityCertificate) must never observe.
  double AprioriBound();

  /// Exact per-pivot leaf lists via a depth-(d-1) BFS around the pivot
  /// (each leaf candidate w gets max over incident edges (x,w,r) with
  /// dist(v,x) = delta of NodeScore + RelationScore(r) * lambda^delta),
  /// built into `scratch.lists[0 .. s)`, one entry per node, in no
  /// particular order; with `first_only`, each list holds just its first
  /// entry under (total desc, node asc). Returns false, with the lists
  /// incomplete, when some leaf has no candidate (the pivot has no match)
  /// or a cancellation checkpoint fired (stats.cancelled is then set).
  /// Counters accumulate into `stats`. A leaf's score table is built on
  /// its first offer, from the list the scorer's plan built (DESIGN.md
  /// "Arc-consistent candidate lists"); the walk credited here stops at
  /// the plan's support radius.
  bool FillLeafLists(graph::NodeId pivot, bool first_only,
                     StarSearchStats& stats, LeafListScratch& scratch);
  /// The calling thread's scratch, sized to the graph once and reused.
  static LeafListScratch& ThreadLeafLists();

  /// An enumerator over the lists FillLeafLists left in `scratch`.
  std::unique_ptr<PivotEnumerator> MakeEnumerator(
      graph::NodeId pivot, double pivot_score, StarSearchStats& stats,
      const LeafListScratch& scratch);
  /// The pivot's enumerator over its leaf lists; nullptr when it has no
  /// match (or the build was cancelled).
  std::unique_ptr<PivotEnumerator> BuildEnumerator(graph::NodeId pivot,
                                                   double pivot_score,
                                                   StarSearchStats& stats);

  /// The pivot's exact top-1 score, bitwise what the enumerator's first
  /// PeekScore() returns, without building it unless the state it pops
  /// first collides under injectivity; nullopt when it has no match (or
  /// the build was cancelled).
  std::optional<double> TopOneScore(graph::NodeId pivot, double pivot_score,
                                    StarSearchStats& stats);

  scoring::QueryScorer& scorer_;
  query::StarQuery star_;
  Options options_;
  std::vector<int> leaf_nodes_;  // query node per star edge
  CancelChecker cancel_check_;   // owning-thread checkpoints

  bool initialized_ = false;
  std::vector<ReserveEntry> reserve_;  // sorted descending by bound
  size_t reserve_pos_ = 0;
  std::vector<std::unique_ptr<PivotEnumerator>> active_;
  std::priority_queue<QueueEntry> queue_;
  StarSearchStats stats_;
  /// Score of the last emitted match (+inf before the first emission).
  /// The stream is monotone, so after a pure search-level cancellation
  /// (complete candidate lists) this bounds every unseen match and
  /// tightens the a-priori cap in UpperBound().
  double last_emitted_score_ = std::numeric_limits<double>::infinity();
  bool apriori_ready_ = false;
  double apriori_bound_ = 0.0;
};

}  // namespace star::core

#endif  // STAR_CORE_STAR_SEARCH_H_
