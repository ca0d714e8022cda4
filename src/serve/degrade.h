#ifndef STAR_SERVE_DEGRADE_H_
#define STAR_SERVE_DEGRADE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/certificate.h"
#include "core/framework.h"
#include "core/match.h"
#include "query/query_graph.h"

namespace star::serve {

/// Accuracy-first load shedding (DESIGN.md "Graceful degradation"): under
/// queue pressure the service trades answer quality for admission capacity
/// BEFORE it sheds requests. Each level composes the previous one's knobs:
///
///   level 1  candidate cutoff tightened to l1_max_candidates
///   level 2  + deterministic seeded pool sampling at kL2SampleRate
///   level 3  + edge-to-path bound reduced to d = 1
///
/// Each level engages at a fixed queue occupancy (kL1QueueFrac below).
///
/// kOverloaded remains only for an absolutely full queue — a saturated
/// service first answers everyone approximately (each answer carrying a
/// QualityCertificate that says exactly how approximate), and rejects only
/// what even the deepest level cannot absorb.
struct DegradePolicy {
  /// Master switch; false preserves the historical reject-only behavior.
  bool enable = false;

  /// Level-1 candidate cutoff (per query node). 0 disables the tightening
  /// (level 1 then only marks the response as degraded).
  size_t l1_max_candidates = 64;

  /// Seed of the deterministic sampling predicate. Fixed per service so
  /// identical degraded requests stay coalescable and cacheable.
  uint64_t sample_seed = 0x5eedf00dULL;
};

/// Queue-occupancy fractions (of ServiceOptions::max_queue) at which
/// levels 1, 2 and 3 engage.
inline constexpr double kL1QueueFrac = 0.50;
inline constexpr double kL2QueueFrac = 0.75;
inline constexpr double kL3QueueFrac = 0.90;

/// Level-2 retrieval-pool keep probability (see MatchConfig::sample_rate).
inline constexpr double kL2SampleRate = 0.5;

/// Deepest rung of the shedding ladder.
inline constexpr int kMaxDegradationLevel = 3;

/// The degradation level a request admitted at `queue_depth` (of
/// `max_queue` capacity) executes at. 0 when shedding is disabled or the
/// queue is shallow; monotone in queue_depth.
int ChooseDegradationLevel(const DegradePolicy& policy, size_t queue_depth,
                           size_t max_queue);

/// Applies `level`'s knobs to `star` (cumulative: level 3 includes 1 and
/// 2). Level 0 is a no-op. Every touched knob is part of
/// StarOptionsFingerprint, so reuse/star caches segregate degraded state
/// automatically.
void ApplyDegradation(const DegradePolicy& policy, int level,
                      core::StarOptions* star);

/// Derives the response's QualityCertificate from a finished run.
///
/// `nominal` is the service's configured StarOptions (the semantics the
/// certificate speaks about), `effective` the possibly-degraded options
/// the run actually used, and `stats`/`matches` that run's outputs. The
/// certified bound combines two ingredients:
///
///  - the engine's residual bound (FrameworkStats::residual_bound): what
///    any unemitted match of the EFFECTIVE search space can score;
///  - the degradation drop bound: what any nominal-valid match excluded
///    from the effective search space can score. A match excluded by the
///    tightened cutoff maps some node to a candidate at or below that
///    node's cut boundary (lists are score-descending, and the tightened
///    list is a prefix of the nominal one); a match excluded by sampling
///    or by reduced d is only capped by the perfect per-node scores.
///
/// The guaranteed prefix is non-zero only where bitwise equality with the
/// nominal run is provable: always for level 0 (the engine's ordered-
/// prefix contract), and for degraded runs only on structurally-forced
/// single-star queries (q.IsStar(): the decomposition cannot depend on
/// candidate lists, so shared matches score bit-identically) with
/// unreduced d — there the leading strictly-descending run of returned
/// scores above the bound is provably the exact nominal prefix. Strict
/// descent matters: an equal-score tie could legally be ordered either
/// way by the nominal run.
core::QualityCertificate BuildCertificate(
    const query::QueryGraph& q, const core::StarOptions& nominal,
    const core::StarOptions& effective, int level,
    const core::FrameworkStats& stats,
    const std::vector<core::GraphMatch>& matches);

}  // namespace star::serve

#endif  // STAR_SERVE_DEGRADE_H_
