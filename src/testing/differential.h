#ifndef STAR_TESTING_DIFFERENTIAL_H_
#define STAR_TESTING_DIFFERENTIAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "testing/fuzz_case.h"

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
  bool run_thread_kernel_matrix = true;
  /// Re-run every strategy over a kCompressed rebuild of the case's graph
  /// and index; results must be bitwise identical to the flat base cells.
  bool run_layout = true;
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
///  - bitwise identity across {1,4} threads x kernel on/off per strategy;
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

}  // namespace star::testing

#endif  // STAR_TESTING_DIFFERENTIAL_H_
