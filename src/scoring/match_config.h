#ifndef STAR_SCORING_MATCH_CONFIG_H_
#define STAR_SCORING_MATCH_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace star::scoring {

/// Global matching semantics shared by every search algorithm in the
/// library (STAR, graphTA, BP, brute force), so comparisons are apples to
/// apples.
///
/// The aggregate score of a match is Eq. 2:
///   F(phi(Q)) = sum_v F_N(v, phi(v)) + sum_e F_E(e, phi_d(e))
/// with the edge-path similarity over walks of length h <= d between the
/// two endpoint matches:
///   F_E = max( relsim(e, r) over direct edges r   [h = 1],
///              lambda^(h-1) for each reachable h in [2, d] ).
/// A one-hop match scores plain relation similarity; longer connections
/// decay geometrically per §V-B's example F = lambda^(h-1). The form is
/// symmetric in the endpoints, so scores are decomposition-invariant.
struct MatchConfig {
  /// Node matches with F_N below this are not candidates (the paper's
  /// per-node "good match" threshold, §II).
  double node_threshold = 0.35;

  /// Edge/path matches with F_E below this are rejected.
  double edge_threshold = 0.05;

  /// Geometric path decay lambda in (0, 1].
  double lambda = 0.5;

  /// Edge-to-path bound d (d = 1 is plain subgraph matching).
  int d = 1;

  /// Candidate cutoff n' per query node (0 = unlimited): only the best n'
  /// candidates by F_N are retained (§V-A "a cutoff threshold will be
  /// applied to retain a few candidate nodes").
  size_t max_candidates = 0;

  /// Retrieval cutoff (0 = unlimited): at most this many index-retrieved
  /// nodes are scored with the (expensive, online) Eq. 1 ensemble, chosen
  /// by the index's cheap rarity pre-ranking. Keeps node matching a small
  /// fraction of query time, as the paper's indices do. Only applies when
  /// a LabelIndex is attached.
  size_t max_retrieval = 0;

  /// F_N granted to wildcard ('?') query nodes for any data node.
  double wildcard_node_score = 1.0;

  /// Enforce one-to-one node mapping (§II's matching function). When
  /// false, leaf matches may collide (the paper's simplified exposition).
  bool enforce_injective = true;

  /// Deterministic candidate-pool sampling (serve-layer degradation,
  /// level 2 of the shedding ladder): when sample_rate < 1, each node id
  /// in a query node's retrieval pool is kept iff
  /// splitmix64(sample_seed ^ id) / 2^64 < sample_rate. The predicate is
  /// a pure function of (seed, id), so the same config produces the same
  /// pools on every engine. Wildcard query nodes are never sampled (they
  /// have no pool). Both fields are result-affecting and included in
  /// StarOptionsFingerprint.
  double sample_rate = 1.0;
  uint64_t sample_seed = 0;

  /// True when the sampling predicate is active.
  bool sampling() const { return sample_rate < 1.0; }
};

}  // namespace star::scoring

#endif  // STAR_SCORING_MATCH_CONFIG_H_
