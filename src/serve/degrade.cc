#include "serve/degrade.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace star::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

int ChooseDegradationLevel(const DegradePolicy& policy, size_t queue_depth,
                           size_t max_queue) {
  if (!policy.enable || max_queue == 0) return 0;
  const double occ =
      static_cast<double>(queue_depth) / static_cast<double>(max_queue);
  if (occ >= kL3QueueFrac) return 3;
  if (occ >= kL2QueueFrac) return 2;
  if (occ >= kL1QueueFrac) return 1;
  return 0;
}

void ApplyDegradation(const DegradePolicy& policy, int level,
                      core::StarOptions* star) {
  if (level <= 0) return;
  scoring::MatchConfig& m = star->match;
  if (policy.l1_max_candidates > 0) {
    m.max_candidates = m.max_candidates == 0
                           ? policy.l1_max_candidates
                           : std::min(m.max_candidates,
                                      policy.l1_max_candidates);
  }
  if (level >= 2) {
    m.sample_rate = std::min(m.sample_rate, kL2SampleRate);
    m.sample_seed = policy.sample_seed;
  }
  if (level >= 3) {
    m.d = std::min(m.d, 1);
  }
}

core::QualityCertificate BuildCertificate(
    const query::QueryGraph& q, const core::StarOptions& nominal,
    const core::StarOptions& effective, int level,
    const core::FrameworkStats& stats,
    const std::vector<core::GraphMatch>& matches) {
  core::QualityCertificate cert;
  cert.degradation_level = level;

  if (level == 0) {
    // The engine's ordered-prefix contract: everything returned IS the
    // exact leading prefix, and residual_bound caps everything beyond it.
    cert.guaranteed_prefix = matches.size();
    cert.score_bound = stats.residual_bound;
    cert.exact = !stats.cancelled && cert.score_bound < kInf;
    return cert;
  }

  // Degraded run. Without the per-node candidate digests (a run that never
  // built a scorer, e.g. one that expired pre-retrieval) nothing can be
  // certified beyond the trivial statement.
  const size_t n = static_cast<size_t>(q.node_count());
  if (stats.node_candidates.size() != n) {
    return cert;  // prefix 0, bound +inf
  }

  // Per-node caps against the NOMINAL search space. keep[u] bounds the
  // best F_N any nominal match can realize at u through a candidate the
  // effective run kept; drop[u] bounds it through a candidate the
  // effective run excluded (only meaningful where affected[u]).
  const scoring::MatchConfig& em = effective.match;
  const scoring::MatchConfig& nm = nominal.match;
  const bool cut_tightened =
      em.max_candidates != 0 &&
      (nm.max_candidates == 0 || em.max_candidates < nm.max_candidates);
  std::vector<double> keep(n, 0.0);
  std::vector<double> drop(n, 0.0);
  std::vector<bool> affected(n, false);
  double keep_sum = 0.0;
  bool any_affected = false;
  for (size_t u = 0; u < n; ++u) {
    const core::NodeCandidateInfo& info = stats.node_candidates[u];
    if (info.wildcard) {
      keep[u] = em.wildcard_node_score;  // never sampled
      // A typed wildcard's list is cut like any other (F_N all ties, so
      // the cut keeps the id-ascending head); an untyped wildcard's list
      // holds every node and is never cut. The rule stays conservative: a
      // tightened cut makes any wildcard whose list was not computed, or
      // reached the cut, a drop source.
      if (cut_tightened && (!info.computed || info.cut_applied)) {
        drop[u] = em.wildcard_node_score;
        affected[u] = true;
        any_affected = true;
      }
    } else if (!info.computed) {
      keep[u] = 1.0;  // F_N is Eq. 1-normalized
      // An uncomputed list cannot have excluded anything (the star plan
      // never consulted it), so it is not a drop source.
    } else if (info.sampled) {
      // Sampling excludes pool nodes regardless of score: the nominal
      // best candidate may be among the dropped, so both caps are the
      // perfect score.
      keep[u] = 1.0;
      drop[u] = 1.0;
      affected[u] = true;
      any_affected = true;
    } else {
      // Cut-only lists are prefixes of the nominal list, so the kept top
      // IS the nominal top, and anything the tightened cutoff dropped
      // scores at or below the cut boundary.
      keep[u] = info.top_score;
      if (cut_tightened && info.cut_applied) {
        drop[u] = info.cut_score;
        affected[u] = true;
        any_affected = true;
      }
    }
    keep_sum += keep[u];
  }
  // F_E is capped by 1 (relation similarity and the geometric decay both
  // live in [0, 1]).
  const double edge_cap = static_cast<double>(q.edge_count());
  // The cap bounds below sum per-term maxima in THIS order, while a
  // nominal match's score sums its (dominated, term-by-term) addends in
  // the engine's association; the two roundings can disagree by a few
  // ulps. Absorb that with an explicit slack far above the worst-case
  // summation error and far below any score granularity that matters.
  const double fp_slack =
      std::ldexp(static_cast<double>(n + q.edge_count() + 2), -40) *
      std::max(1.0, keep_sum + edge_cap);

  const bool d_reduced = em.d < nm.d;
  const bool star_forced = q.IsStar();
  if (d_reduced || !star_forced) {
    // Either nominal-valid matches exist that no per-node drop argument
    // covers (reduced d: all nodes kept, the connecting walk invisible),
    // or the degraded decomposition may differ from the nominal one and
    // shared matches need not score bit-identically. Certify only the
    // global cap, which dominates every nominal match outright.
    cert.score_bound = keep_sum + edge_cap + fp_slack;
    return cert;
  }

  if (!any_affected) {
    // The degraded knobs never bit (no list reached the tightened cutoff,
    // no sampling): the effective search space equals the nominal one and
    // the forced single-star plan is identical, so this run IS a nominal
    // run — full level-0 semantics apply.
    cert.guaranteed_prefix = matches.size();
    cert.score_bound = stats.residual_bound;
    cert.exact = !stats.cancelled && cert.score_bound < kInf;
    return cert;
  }

  // A nominal match missing from the effective search space maps at least
  // one node to an excluded candidate; everything else it can do is
  // bounded by the kept caps. A nominal match INSIDE the effective space
  // but not emitted is bounded by the engine's residual.
  double drop_bound = -kInf;
  for (size_t u = 0; u < n; ++u) {
    if (!affected[u]) continue;
    drop_bound = std::max(drop_bound, drop[u] + (keep_sum - keep[u]));
  }
  drop_bound += edge_cap + fp_slack;
  double bound = std::max(stats.residual_bound, drop_bound);

  // Leading strictly-descending run of returned scores above the bound:
  // provably the exact nominal prefix (any nominal match outside it
  // scores <= bound or appears later in this very list with a strictly
  // smaller score). A trailing equal-score pair is ambiguous under the
  // nominal tie order, so the run stops before it.
  size_t p = 0;
  while (p < matches.size() && matches[p].score > bound &&
         (p == 0 || matches[p - 1].score > matches[p].score)) {
    ++p;
  }
  if (p > 0 && p < matches.size() &&
      !(matches[p - 1].score > matches[p].score)) {
    --p;
  }
  // Returned matches beyond the prefix are themselves "not guaranteed";
  // the bound must dominate them too (the list is score-descending).
  if (p < matches.size()) bound = std::max(bound, matches[p].score);
  cert.guaranteed_prefix = p;
  cert.score_bound = bound;
  return cert;
}

}  // namespace star::serve
