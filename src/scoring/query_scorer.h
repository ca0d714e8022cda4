#ifndef STAR_SCORING_QUERY_SCORER_H_
#define STAR_SCORING_QUERY_SCORER_H_

#include <cstdint>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/deadline.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/query_graph.h"
#include "scoring/match_config.h"
#include "text/ensemble.h"

namespace star::scoring {

/// A node candidate with its online-computed matching score F_N.
struct ScoredCandidate {
  graph::NodeId node = graph::kInvalidNode;
  double score = 0.0;
};

/// Counters of bound-driven candidate retrieval: how much of the
/// retrieval pool was skipped by node score caps instead of being fully
/// scored. Accumulated across every non-wildcard Candidates() call of the
/// scorer.
struct RetrievalStats {
  /// Always 0: retrieval walks pools, not postings blocks. Kept for
  /// perfbench's scoring.blocks_skipped_fraction, which reads both.
  uint64_t blocks_considered = 0;
  uint64_t blocks_skipped = 0;       ///< always 0 (see blocks_considered)
  uint64_t nodes_considered = 0;     ///< pool nodes seen
  uint64_t nodes_bound_skipped = 0;  ///< dropped by a bound before scoring
  uint64_t nodes_scored = 0;         ///< nodes handed to bulk scoring

  void Merge(const RetrievalStats& o) {
    blocks_considered += o.blocks_considered;
    blocks_skipped += o.blocks_skipped;
    nodes_considered += o.nodes_considered;
    nodes_bound_skipped += o.nodes_bound_skipped;
    nodes_scored += o.nodes_scored;
  }
};

/// How one query node's candidate list was scored: its retrieval pool
/// thresholded and cut, before the plan's arc-consistency pass (DESIGN.md
/// "Arc-consistent candidate lists"). The serve layer's degradation
/// certificate reads it.
struct ScoredListInfo {
  /// The list was scored by this scorer. A list the plan never scored (it
  /// stopped at an empty list first) reads false.
  bool scored = false;
  /// Best F_N kept; where the plan's pre-scoring filter dropped pool nodes
  /// unscored, raised to the largest RetrievalNodeBound among them (the
  /// wildcard score for a wildcard). 0 when nothing was kept or dropped.
  double top_score = 0.0;
  /// Worst F_N kept (the cut boundary; 0 if none).
  double cut_score = 0.0;
  /// Entries the threshold and the cut kept.
  size_t size = 0;
};

/// Memoized candidate list type: pmr so per-query transient storage can
/// live on a request arena (common/arena.h). A default-constructed
/// CandidateList uses the global default resource, so code outside the
/// arena'd query path is unaffected.
using CandidateList = std::pmr::vector<ScoredCandidate>;

/// Per-query scoring session: binds one QueryGraph to one KnowledgeGraph
/// and computes every F_N / F_E *online* (the paper's central constraint —
/// no score is precomputed or indexed). Within the query it memoizes what
/// the engines read: candidate lists, their score tables and the relation
/// tables (and, for the baselines, walk balls and pairwise F_E).
///
/// All algorithms (stark, stard, starjoin, graphTA, BP, brute force) score
/// through this class, so they optimize the identical objective.
///
/// Concurrency contract
/// --------------------
/// The scorer is owned and driven by ONE thread: its memos fill on read,
/// so no method is safe to call concurrently. Concurrent requests each
/// build their own scorer; what they share (graph, index, ensemble) is
/// immutable, and the kernel's scratch is thread_local.
class QueryScorer {
 public:
  /// `index` may be null, in which case candidate retrieval scans all of V
  /// (the paper's O(|V|) base case). All referenced objects must outlive
  /// the scorer. `arena`, when given, backs the scorer's per-query
  /// transient state (candidate lists, walk-ball scratch) — it must
  /// outlive the scorer and must not be Reset() while the scorer lives;
  /// null falls back to the global default resource.
  QueryScorer(const graph::KnowledgeGraph& g, const query::QueryGraph& q,
              const text::SimilarityEnsemble& ensemble,
              const MatchConfig& config,
              const graph::LabelIndex* index = nullptr,
              common::MonotonicArena* arena = nullptr);

  /// F_N(u, v): Eq. 1 score of mapping query node u to data node v,
  /// bitwise ensemble.Score() (one exact-mode lane of the batch kernel per
  /// call, not memoized: the engines read candidate lists, and only the
  /// brute-force oracle and ExplainMatch score single pairs). Wildcard
  /// nodes score `config.wildcard_node_score` for every v.
  double NodeScore(int query_node, graph::NodeId v) const;

  /// Candidate matches of query node u: nodes with F_N >= node_threshold,
  /// sorted by descending score, truncated to config.max_candidates.
  /// When an index is attached, non-wildcard retrieval is index-backed
  /// (token/type postings), which defines the candidate semantics for
  /// *all* algorithms in the library. A non-wildcard node takes one
  /// bound-driven walk over its RetrievalPool (DESIGN.md "Bound-driven
  /// retrieval"); a typed wildcard scores its whole pool and cuts it; an
  /// untyped wildcard, which scores wildcard_node_score on every node,
  /// holds every node of the graph in id order (never cut), or none under
  /// the threshold.
  ///
  /// The first call builds every node's own list in one plan (DESIGN.md
  /// "Arc-consistent candidate lists"): each list above is reduced to its
  /// largest arc-consistent subset under the support radius R, the largest
  /// h <= max(d, 1) with h = 1 or PathDecay(h) >= edge_threshold. An entry
  /// v stays when the list of each of the node's query neighbours holds a
  /// member s that v reaches by a walk of 1..R hops (s != v under
  /// injectivity), in the same order. Every match uses only such entries,
  /// since a query edge maps to such a walk. Two rules loosen the filter,
  /// so it still drops nothing a match uses: an untyped wildcard's list is
  /// filtered only at R = 1 (else it is every node, and offers every
  /// node), and at R >= 3 an entry needs only a graph neighbour (not
  /// itself under injectivity). When a list of a connected query ends
  /// empty (it has no match), every list is empty.
  const CandidateList& Candidates(int query_node) const;

  /// The MatchConfig::sample_rate pool predicate: whether node v survives
  /// deterministic seeded sampling. Pure function of (seed, v, rate) —
  /// exposed so the serve layer's degradation certificate and tests can
  /// reproduce the sampled universe exactly.
  static bool SampleKeep(uint64_t seed, graph::NodeId v, double rate);

  /// The retrieval pool of `query_node`: the node ids Candidates() would
  /// bulk-score, before any scoring or filtering (one
  /// RankedCandidates(label, type, max_retrieval) call for a labelled node
  /// with an index, where cap 0 is the whole token-and-type union;
  /// typed-wildcard postings; or the full-scan iota; then the sampling
  /// predicate). Pure — never touches the candidate memo. `shares_token`
  /// receives the RankedCandidates retrieval facts aligned with the pool
  /// (index-backed labelled pools; left empty otherwise). For a non-wildcard
  /// node, Candidates() is exactly the pool's nodes with Score() >=
  /// node_threshold, ordered by (score desc, node asc) and cut at
  /// max_candidates — the list the differential harness's fn-oracle check
  /// rebuilds.
  std::vector<graph::NodeId> RetrievalPool(
      int query_node, std::vector<uint8_t>* shares_token) const;

  /// How `query_node`'s list was scored (see ScoredListInfo). Never
  /// triggers computation.
  const ScoredListInfo& ScoredInfo(int query_node) const {
    return scored_[query_node];
  }

  /// Membership score in Candidates(query_node): F_N if v is a candidate,
  /// -1 otherwise (also for kInvalidNode). The first call per query node
  /// builds a flat open-addressing table over the list (the first entry
  /// of a node wins); later calls are one probe sequence. At R >= 2
  /// untyped wildcards short-circuit: every node matches at the wildcard
  /// score, or none when the list is empty.
  double CandidateScore(int query_node, graph::NodeId v) const;

  /// Relation-label similarity of mapping query edge e to a data edge with
  /// relation id `relation`: bitwise ensemble.Score(edge label, relation
  /// name). Wildcard query relations score 1. The first call for an edge
  /// fills its whole RelationScoresAll table.
  double RelationScore(int query_edge, uint32_t relation) const;

  /// Dense similarity table for a query edge: entry r is
  /// RelationScore(query_edge, r) for every relation id in the graph,
  /// scored in kBatchLanes-wide calls of the exact-mode batch kernel.
  /// Computed once; afterwards RelationScore is a pure array lookup.
  /// Empty for wildcard-relation edges (they score 1).
  const std::vector<double>& RelationScoresAll(int query_edge) const;

  /// F_E of a walk match of length `hops` >= 2: the pure geometric decay
  /// lambda^(hops-1) (the paper's §V-B example F = lambda^(h-1)); a direct
  /// edge (hops == 1) scores its RelationScore instead. This form is
  /// symmetric in the two endpoints, so a query edge scores the same
  /// regardless of which endpoint a decomposition picks as pivot.
  double PathDecay(int hops) const;

  /// Largest achievable RelationScore for this query edge over all
  /// relations present in the graph (1 for wildcard edges). Used for
  /// upper bounds.
  double MaxRelationScore(int query_edge) const;

  /// Largest achievable F_E for the edge under the configured d.
  double MaxEdgeScore(int query_edge) const;

  /// Full pairwise F_E of mapping query edge e to the node pair (a, b):
  /// the max of direct-edge relation similarity and the multi-hop decay of
  /// the shortest walk (length in [2, d]) connecting them; entries below
  /// edge_threshold don't count. Returns -1 when a and b have no valid
  /// connection. Symmetric in (a, b). Memoized; used by the baselines
  /// (graphTA expansion, BP pairwise potentials, brute force).
  double PairEdgeScore(int query_edge, graph::NodeId a, graph::NodeId b) const;

  /// Smallest walk length in [2, d] from a to b (0 if none). Memoized per
  /// source node — this doubles as graphTA's "neighbor cache".
  int FirstWalkLength(graph::NodeId a, graph::NodeId b) const;

  /// All nodes reachable from `a` by a walk of length in [2, d], mapped to
  /// their smallest such length. The returned reference is owned by a
  /// bounded memo; it is invalidated by the next WalkBall call. Empty when
  /// d < 2.
  const std::unordered_map<graph::NodeId, int>& WalkBall(graph::NodeId a) const;

  /// Perfect-match upper bound of a full query match: one per node (1.0 or
  /// the wildcard score) plus MaxEdgeScore per edge.
  double ScoreUpperBound() const;

  const graph::KnowledgeGraph& graph() const { return graph_; }
  const query::QueryGraph& query() const { return query_; }
  const MatchConfig& config() const { return config_; }
  const graph::LabelIndex* index() const { return index_; }

  /// Attaches a cooperative cancellation token (nullable; must outlive
  /// the scorer's use). The bulk scoring paths (Candidates / BulkScore)
  /// poll it and wind down early once it fires: candidate lists built
  /// after that point may be truncated — but never contain a wrong score
  /// (an entry left unscored stays 0.0, below every positive threshold) —
  /// and every such wind-down sets the sticky truncated() flag so the run
  /// reports itself partial instead of posing as complete.
  void set_cancellation(const Cancellation* cancel) { cancel_ = cancel; }

  /// True once any cancellation checkpoint fired inside this scorer — some
  /// candidate list or bulk-score result may be truncated. Monotone and
  /// sticky. StarFramework folds
  /// this into FrameworkStats.cancelled so a truncated run can never be
  /// reported as a complete answer even when the engine's own amortized
  /// checkpoints all missed the expiry.
  bool truncated() const { return truncated_; }

  /// Batch-kernel counters accumulated across every F_N evaluation this
  /// scorer performed (relation tables are not counted).
  const text::KernelStats& kernel_stats() const { return kernel_stats_; }

  /// Bound-driven retrieval counters (empty when only wildcard nodes were
  /// retrieved).
  const RetrievalStats& retrieval_stats() const { return retrieval_stats_; }

  /// Memory resource backing the scorer's per-query transient state (the
  /// request arena when one was given, else the default resource). Engine
  /// code may place the query's transient containers here; the arena is
  /// single-threaded (see common/arena.h).
  std::pmr::memory_resource* transient_resource() const { return mem_; }

 private:
  /// Ontology type id for a type name (-1 if no ontology / unknown).
  int OntologyType(std::string_view type_name) const;

  /// Builds candidate_scores_[query_node] from its list.
  void BuildCandidateScoreTable(int query_node) const;

  /// Scores `query_node`'s list from `pool` (its RetrievalPool, or a
  /// filtered part of it) into `out`: thresholded, sorted by (score desc,
  /// node asc) and cut at max_candidates. Not for an untyped wildcard,
  /// whose list the plan builds itself.
  void ScoreList(int query_node, const std::vector<graph::NodeId>& pool,
                 const std::vector<uint8_t>& shares_token,
                 CandidateList* out) const;

  /// The plan (DESIGN.md "Arc-consistent candidate lists"): builds every
  /// node's list, filters each against its neighbours' lists until they
  /// are arc-consistent, and sets planned_.
  void PlanLists() const;

  /// Bulk F_N of `query_node` against every node in `nodes` (Candidates'
  /// scoring step), index-aligned with the input, against a candidate
  /// threshold. Entries < threshold may be truncated upper bounds. Nodes
  /// are gathered into kBatchLanes-wide lanes, each full batch scored in
  /// one ScoreBatchAgainstThreshold call, and a (label, type) pair
  /// repeated within the call is scored once (the kernel is deterministic,
  /// so the copied score is exact). `shares_token` (nullable, aligned with
  /// `nodes`) passes retrieval facts to the batch kernel's disjoint-token
  /// caps.
  std::vector<double> BulkScore(int query_node,
                                const std::vector<graph::NodeId>& nodes,
                                double threshold,
                                const uint8_t* shares_token = nullptr) const;

  // --- Bound-driven retrieval ---
  //
  // Candidates() for a non-wildcard query node walks its retrieval pool
  // instead of scoring everything and truncating. The walk keeps the
  // candidate top list as a bounded heap on the total order (score desc,
  // node asc) whose running max_candidates-th score is the threshold
  // theta, scores survivors in deterministic fixed-size waves through
  // BulkScore, and produces the list CandidatesFromScore rebuilds from
  // Score() — see DESIGN.md "Bound-driven retrieval" for the soundness
  // and tie-safety argument.

  /// Bounds each node of `pool` by RetrievalNodeBound, with its retrieval
  /// fact when `shares_token` (aligned with `pool`, or empty) has one. A
  /// pool that can fill max_candidates is sorted by cap (cap desc, id asc)
  /// and the walk stops at the first node whose cap cannot reach theta; a
  /// smaller pool keeps theta at node_threshold, so it skips each such
  /// node unsorted and scores the rest in one wave.
  void PrunedRetrievePool(int query_node,
                          const std::vector<graph::NodeId>& pool,
                          const std::vector<uint8_t>& shares_token,
                          CandidateList* out) const;

  /// The current pruning threshold: the heap's worst kept score once it
  /// holds max_candidates entries, node_threshold before that (and always,
  /// when max_candidates is 0).
  double RetrievalTheta(const CandidateList& heap) const;

  /// Folds one scored wave into the bounded heap (entries below
  /// node_threshold are dropped; sub-threshold kernel bounds never enter).
  void MergeScoredWave(const std::vector<graph::NodeId>& wave,
                       const std::vector<double>& scores,
                       CandidateList* heap) const;

  const graph::KnowledgeGraph& graph_;
  const query::QueryGraph& query_;
  const text::SimilarityEnsemble& ensemble_;
  MatchConfig config_;
  const graph::LabelIndex* index_;
  const Cancellation* cancel_ = nullptr;
  // Resource for per-query transient state; declared before every pmr
  // member so their constructors can bind to it. Never null.
  std::pmr::memory_resource* mem_;

  // Ontology ids resolved once: per query node and per graph type id.
  std::vector<int> query_node_onto_type_;
  std::vector<int> graph_type_onto_type_;
  // Derived-view reuse across query elements (per-query scope): edge_rep_[e]
  // aliases relation-similarity memos by (wildcard, relation label), and
  // prepared_idx_[u] dedupes kernel views by label text — each view is
  // built once per query rather than once per query node. Aliased reads
  // are bitwise identical to unaliased ones, so results are unchanged.
  std::vector<int> edge_rep_;
  std::vector<uint32_t> prepared_idx_;
  // Query-side kernel views, one per UNIQUE query label, built eagerly in
  // the constructor (immutable afterwards). Indexed through prepared_idx_.
  std::vector<text::SimilarityEnsemble::PreparedLabelBatch> prepared_store_;
  // For typed wildcard query nodes: the required graph type id (-1 = none
  // matches / untyped wildcard).
  std::vector<int32_t> wildcard_graph_type_;
  // The plan's support radius R (see Candidates()).
  int radius_ = 1;

  // Candidate lists per query node, each its own (a list depends on the
  // node's neighbours too), all built by one plan.
  mutable std::vector<CandidateList> candidates_;
  mutable bool planned_ = false;
  mutable std::vector<ScoredListInfo> scored_;
  // CandidateScore tables, per query node: open addressing
  // with linear probing over a power-of-two slot array at least twice the
  // list size, so every probe sequence ends at an empty slot (node ==
  // kInvalidNode, score -1). v's probe starts at the top bits of v times
  // the golden ratio (Fibonacci hashing).
  struct CandidateSlot {
    graph::NodeId node = graph::kInvalidNode;
    double score = -1.0;
  };
  struct CandidateScoreTable {
    std::pmr::vector<CandidateSlot> slots;
    int shift = 63;  // 64 - log2(slots.size())

    /// Index of v's slot, or of the empty slot that ends v's probe.
    size_t Probe(graph::NodeId v) const {
      size_t i = (uint64_t{v} * 0x9e3779b97f4a7c15ULL) >> shift;
      while (slots[i].node != v && slots[i].node != graph::kInvalidNode) {
        i = (i + 1) & (slots.size() - 1);
      }
      return i;
    }
  };
  mutable std::vector<CandidateScoreTable> candidate_scores_;
  mutable std::vector<bool> candidate_scores_ready_;
  mutable std::vector<double> max_relation_score_;
  mutable std::vector<bool> max_relation_ready_;
  // Dense per-edge relation-similarity tables (RelationScoresAll), the
  // only relation memo: filled whole on the edge's first RelationScore.
  mutable std::vector<std::vector<double>> relation_table_;
  mutable std::vector<bool> relation_table_ready_;
  // Walk-ball memo: node -> (reachable node -> smallest walk length in
  // [2, d]). Bounded: once the stored pair count passes kWalkBallCacheLimit
  // the cache is dropped and rebuilt on demand (d-balls of hub-adjacent
  // nodes can cover much of the graph).
  static constexpr size_t kWalkBallCacheLimit = 4'000'000;
  mutable std::unordered_map<graph::NodeId,
                             std::unordered_map<graph::NodeId, int>>
      walk_ball_cache_;
  mutable size_t walk_ball_pairs_ = 0;
  // WalkBall traversal scratch: epoch-stamped per-node marks (|V| flat
  // array, one epoch per BFS layer — no per-call hash maps) and the two
  // frontier buffers. Owning-thread only, like WalkBall itself.
  mutable std::pmr::vector<uint32_t> walk_mark_;
  mutable uint32_t walk_epoch_ = 0;
  mutable std::pmr::vector<graph::NodeId> walk_layer_;
  mutable std::pmr::vector<graph::NodeId> walk_next_;
  mutable std::vector<std::unordered_map<uint64_t, double>> pair_edge_cache_;
  mutable text::KernelStats kernel_stats_;
  mutable RetrievalStats retrieval_stats_;
  // Sticky truncation flag (see truncated()).
  mutable bool truncated_ = false;
};

}  // namespace star::scoring

#endif  // STAR_SCORING_QUERY_SCORER_H_
