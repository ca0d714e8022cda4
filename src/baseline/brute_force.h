#ifndef STAR_BASELINE_BRUTE_FORCE_H_
#define STAR_BASELINE_BRUTE_FORCE_H_

#include <cstddef>
#include <vector>

#include "core/match.h"
#include "scoring/query_scorer.h"

namespace star::baseline {

/// Exhaustive top-k reference: enumerates every (optionally injective)
/// mapping of query nodes to their candidate sets, scores it with the
/// exact Eq. 2 semantics (QueryScorer::PairEdgeScore for edges), and keeps
/// the k best. Exponential — the correctness oracle for tests on small
/// graphs, never a competitor in benchmarks.
///
/// A mapping is valid iff every node score passes node_threshold (wildcards
/// pass when wildcard_node_score does) and every query edge has a
/// connection with F_E >= edge_threshold within d.
///
/// MatchConfig coverage: every option is honored with the engines'
/// semantics — node thresholds and cutoffs via BruteForceDomain, lambda/d
/// and the edge threshold via PairEdgeScore, and injectivity. The domains
/// never read Candidates(), so the plan's reduction of the lists (at every
/// d) is checked against the full enumeration, not assumed by it.
std::vector<core::GraphMatch> BruteForceTopK(scoring::QueryScorer& scorer,
                                             size_t k);

/// Query node u's brute-force domain, built from the scorer's
/// RetrievalPool and NodeScore alone: the pool nodes whose F_N reaches
/// node_threshold, ordered by (score desc, node asc) and cut at
/// max_candidates (an untyped wildcard, whose pool is every node, is never
/// cut) — u's candidate list before the plan's reduction.
std::vector<scoring::ScoredCandidate> BruteForceDomain(
    const scoring::QueryScorer& scorer, int u);

/// Number of valid matches in total (diagnostics for tests).
size_t BruteForceCountMatches(scoring::QueryScorer& scorer);

}  // namespace star::baseline

#endif  // STAR_BASELINE_BRUTE_FORCE_H_
