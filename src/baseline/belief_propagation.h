#ifndef STAR_BASELINE_BELIEF_PROPAGATION_H_
#define STAR_BASELINE_BELIEF_PROPAGATION_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "core/match.h"
#include "scoring/query_scorer.h"

namespace star::baseline {

/// Options for the BP baseline.
struct BpOptions {
  /// Loopy iterations for cyclic queries (trees use exact DP instead).
  size_t max_iterations = 25;
  /// Candidates per variable (largest-F_N prefix of the candidate list);
  /// 0 = unlimited.
  size_t domain_cap = 0;
  /// Wall-clock cap in ms (0 = none) on the whole TopK call, checked
  /// before every MAP and inside its message loops: TopK returns the
  /// matches found so far and sets stats().timed_out when exceeded
  /// (benchmark harness safety). An interrupted MAP yields nothing.
  double budget_ms = 0.0;
};

struct BpStats {
  size_t map_calls = 0;
  size_t message_updates = 0;
  bool timed_out = false;
};

/// The belief-propagation top-k matcher used as the second baseline
/// ([2], [14] in the paper): query nodes become random variables over
/// their candidate matches, F_N the unary and F_E the pairwise potential,
/// and top-k matching becomes (k-best) MAP inference by max-sum message
/// passing.
///
/// Exact for acyclic queries (a rooted dynamic program computes the MAP;
/// Lawler partitioning on top yields the exact k best, as the paper notes
/// BP does for acyclic queries). For cyclic queries, loopy max-sum with a
/// greedy conditioned decode — no completeness guarantee, also matching
/// the paper's characterization.
///
/// Note: like the paper's BP, the model is pairwise and cannot express the
/// global one-to-one constraint; candidate assignments violating
/// injectivity are filtered after decoding when the config enforces it.
class BeliefPropagation {
 public:
  BeliefPropagation(scoring::QueryScorer& scorer, BpOptions options)
      : scorer_(scorer), options_(options) {}

  /// Top-k matches in descending score order.
  std::vector<core::GraphMatch> TopK(size_t k);

  const BpStats& stats() const { return stats_; }

 private:
  struct Constraints {
    // forced[u] >= 0 pins variable u to domain index forced[u];
    // forbidden[u] is a bitmap over domain indices.
    std::vector<int> forced;
    std::vector<std::vector<bool>> forbidden;
  };

  /// MAP assignment (domain indices per variable) under constraints, or
  /// nullopt if infeasible. Exact on trees; loopy approximation otherwise.
  /// Polls `budget` first and inside the message loops; once it fires,
  /// returns nullopt with stats().timed_out set.
  std::optional<std::pair<std::vector<int>, double>> Map(
      const Constraints& constraints, CancelChecker& budget);

  std::optional<std::pair<std::vector<int>, double>> MapTree(
      const Constraints& constraints, CancelChecker& budget);
  std::optional<std::pair<std::vector<int>, double>> MapLoopy(
      const Constraints& constraints, CancelChecker& budget);

  /// True, with stats().timed_out set, once `budget` has fired.
  bool OutOfBudget(CancelChecker& budget);

  /// Eq. 2 score of a domain-index assignment (-inf if an edge fails).
  double ScoreAssignment(const std::vector<int>& assignment) const;

  void BuildDomains();

  scoring::QueryScorer& scorer_;
  BpOptions options_;
  BpStats stats_;
  // domains_[u][j] = (node, F_N) of the j-th candidate of variable u.
  std::vector<std::vector<scoring::ScoredCandidate>> domains_;
};

}  // namespace star::baseline

#endif  // STAR_BASELINE_BELIEF_PROPAGATION_H_
