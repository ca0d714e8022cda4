#ifndef STAR_TESTING_DIFFERENTIAL_H_
#define STAR_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "graph/knowledge_graph.h"
#include "query/query_graph.h"
#include "scoring/query_scorer.h"
#include "testing/fuzz_case.h"
#include "text/ensemble.h"

namespace star::testing {

/// One failed check. `check` is a stable kind tag (the shrinker matches on
/// it), `cell` names the matrix cell, `detail` is human-readable.
struct Violation {
  std::string check;
  std::string cell;
  std::string detail;
};

/// Which parts of the matrix to run. The defaults are the full matrix;
/// the shrinker narrows them to the failing region for speed.
struct RunnerOptions {
  bool run_oracle = true;
  /// graphTA always; BP only on acyclic non-injective cases (its exactness
  /// domain).
  bool run_baselines = true;
  bool run_metamorphic = true;
  bool run_reuse = true;
  bool run_deadline = true;
  /// Anytime/degraded certificate cells: re-run the reference strategy at
  /// degradation levels {1, 2, 3} (or the case's pinned level) plus the
  /// deadline-truncated level-0 cells, build each run's QualityCertificate,
  /// and check it against the brute-force truth — the certified bound must
  /// dominate the true score at rank guaranteed_prefix+1, and the
  /// guaranteed prefix must be bitwise equal to the exact run's prefix.
  bool run_certificates = true;
  /// Skip the brute-force cell when the product of candidate-list sizes
  /// exceeds this (the oracle is exponential; the generator keeps cases
  /// under the guard, but shrinking intermediates may not be).
  double max_oracle_states = 4e6;
};

struct CaseOutcome {
  std::vector<Violation> violations;
  size_t cells_run = 0;
  bool oracle_ran = false;
  /// Stars the reference base run decomposed the query into (1 = no join).
  size_t num_stars = 0;

  bool ok() const { return violations.empty(); }
  /// First violation rendered as "check @ cell: detail" ("" when ok).
  std::string Summary() const;
};

/// Runs the full differential + metamorphic matrix on one case:
///
///  - BruteForce oracle vs stark/stard/hybrid (framework) score identity;
///  - graphTA (always) and BP (acyclic, non-injective) agreement;
///  - fn-oracle: every candidate list equals the arc-consistent closure
///    of the one rebuilt from SimilarityEnsemble::Score() (CheckFnOracle
///    below) under the base config and under every degraded cell's
///    effective config;
///  - bitwise identity of reuse cold/warm/invalidated runs (with optional
///    bug injection between cold and warm);
///  - deadline cells: pre-expired => empty + cancelled; tight => bitwise
///    prefix of the undeadlined run;
///  - certificate cells: degraded runs (shedding-ladder levels) and
///    deadline-truncated runs carry QualityCertificates whose bound
///    dominates the oracle's true next-rank score and whose guaranteed
///    prefix is bitwise exact;
///  - metamorphic relations needing no oracle: query node/edge permutation
///    invariance, TopK(k) prefix-of TopK(k+3), graph node-id relabeling
///    invariance, threshold/lambda/d monotonicity, and star-stream upper
///    bound monotonicity.
///
/// Deterministic given (case, options) except the tight-deadline cell,
/// whose *checks* are timing-independent (the contract holds wherever the
/// expiry lands).
CaseOutcome RunDifferentialCase(const FuzzCase& c, const RunnerOptions& opts);

/// Query node u's candidate list rebuilt from SimilarityEnsemble::Score()
/// over scorer.RetrievalPool(u): the pool nodes whose Score() reaches
/// node_threshold, ordered by (score desc, node asc) and cut at
/// max_candidates, with ontology types resolved as the scorer resolves
/// them. `u` must not be a wildcard; `ensemble` must be the scorer's.
std::vector<scoring::ScoredCandidate> CandidatesFromScore(
    const scoring::QueryScorer& scorer,
    const text::SimilarityEnsemble& ensemble, int u);

/// The largest arc-consistent subsets of `lists` (one per node of q) under
/// the walk rule of radius R = `radius`: each entry v kept reaches a
/// member s of the list of each of its node's query neighbours by a walk
/// of 1..R hops, with s != v under `injective`. Two rules loosen it: an
/// untyped wildcard's list is filtered only at R = 1 (above, it offers
/// every node), and at R >= 3 an entry needs only a neighbour (not itself
/// under `injective`). When q is connected and a list ends empty, every
/// list is emptied. A plain fixpoint loop over per-node walk layers,
/// independent of the scorer's plan.
void ArcConsistentClosure(
    const graph::KnowledgeGraph& g, const query::QueryGraph& q,
    bool injective, int radius,
    std::vector<std::vector<scoring::ScoredCandidate>>* lists);

/// The support radius of the scorer's config, from its definition: the
/// largest h <= max(d, 1) with h = 1 or PathDecay(h) >= edge_threshold.
int SupportRadius(const scoring::QueryScorer& scorer);

/// Every node's candidate list rebuilt without the scorer's list code, as
/// it stands before the plan's reduction: CandidatesFromScore for a
/// labelled node, baseline::BruteForceDomain for a wildcard (its F_N is a
/// type check).
std::vector<std::vector<scoring::ScoredCandidate>> UnreducedCandidateLists(
    const scoring::QueryScorer& scorer,
    const text::SimilarityEnsemble& ensemble);

/// The fn-oracle check, run by RunDifferentialCase on the base config and
/// on each degraded cell's: appends one "fn-oracle" violation to `out`
/// for each node u of the scorer's query whose scorer.Candidates(u)
/// differs in an id or a score bit from the ArcConsistentClosure, at the
/// config's SupportRadius, of the UnreducedCandidateLists.
void CheckFnOracle(const scoring::QueryScorer& scorer,
                   const text::SimilarityEnsemble& ensemble,
                   const std::string& cell, CaseOutcome* out);

/// CheckFnOracle's comparison of query node u's list: appends one
/// "fn-oracle" violation to `out` when `got` differs from the reference
/// `want` in its length, an id or a score bit.
void CheckCandidateList(const query::QueryGraph& q, int u,
                        std::span<const scoring::ScoredCandidate> got,
                        std::span<const scoring::ScoredCandidate> want,
                        const std::string& cell, CaseOutcome* out);

}  // namespace star::testing

#endif  // STAR_TESTING_DIFFERENTIAL_H_
