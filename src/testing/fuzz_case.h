#ifndef STAR_TESTING_FUZZ_CASE_H_
#define STAR_TESTING_FUZZ_CASE_H_

#include <cstdint>
#include <string>

#include "core/framework.h"
#include "graph/knowledge_graph.h"
#include "query/query_graph.h"
#include "scoring/match_config.h"

namespace star::testing {

/// A deliberately planted defect, used to prove the harness detects and
/// shrinks real bugs end to end (the checks run against the true engine
/// pipeline; only the named component is perturbed).
enum class BugInjection {
  kNone = 0,
  /// serve::StarCache::CorruptTopListScoresForTest between the cold and
  /// warm reuse runs: warm replays then emit perturbed scores, which the
  /// warm==cold differential cell must flag.
  kWarmTopListScores,
  /// serve::StarCache::CorruptCandidateScoresForTest between cold and
  /// warm: seeded candidate lists carry perturbed F_N, breaking warm
  /// bitwise identity.
  kWarmCandidateScores,
};

const char* BugInjectionName(BugInjection b);

/// One self-contained fuzz input: a concrete graph, query, and matching
/// configuration. Everything the differential matrix varies per cell
/// (strategy, threads, kernel, reuse mode, deadline mode) is derived by
/// the runner; everything that changes *results* lives here.
struct FuzzCase {
  /// Seed this case was generated from (provenance; replays keep it).
  uint64_t seed = 0;
  /// Profile name the case came from ("manual" for hand-built cases).
  std::string profile = "manual";

  graph::KnowledgeGraph graph;
  query::QueryGraph query;
  scoring::MatchConfig config;
  /// Rank-join score split and decomposition knobs (result-affecting).
  double alpha = 0.5;
  core::DecompositionOptions decomposition;
  size_t k = 5;
  /// Whether a LabelIndex is attached (retrieval semantics differ).
  bool with_index = true;
  /// Whether the ensemble carries corpus context: the built-in synonyms
  /// and ontology, and a tf-idf model fitted on the graph's labels.
  /// Without it the synonym, tf-idf and ontology features have weight 0.
  bool context = false;
  /// Tight-deadline cell budget in ms (0 disables the tight cell; the
  /// pre-expired cell always runs).
  double tight_deadline_ms = 0.0;
  /// Degradation level for the certificate cells: 0 runs the default
  /// {1, 2, 3} ladder sweep, a nonzero value pins the cells to that one
  /// level (the shrinker narrows to the failing level; replays carry it).
  int degrade = 0;
  BugInjection inject = BugInjection::kNone;

  /// One-line human description for logs.
  std::string Describe() const;
};

/// Parameter ranges the case generator draws from. Every field is a
/// closed range or probability; a (profile, seed) pair fully determines
/// the case, so any run is reproducible from its seed alone.
struct FuzzProfile {
  std::string name = "default";

  // --- graph shape ---
  size_t min_nodes = 16, max_nodes = 40;
  /// Edges = nodes * factor drawn from [min, max].
  double edge_factor_min = 1.4, edge_factor_max = 2.6;
  size_t num_types = 6;
  size_t num_relations = 8;
  /// Token pool per label part; small pools collide labels, which is what
  /// produces exact F_N ties (the historic bug magnet).
  size_t token_pool_min = 6, token_pool_max = 14;
  /// Relabels the generated graph's nodes with the mixed vocabulary of
  /// VocabularyProfile() (see there). Off, the generated labels stay.
  bool vocabulary = false;
  /// Share of cases whose ensemble carries context (FuzzCase::context),
  /// picked by a hash of the seed that draws nothing from the generator.
  double context_share = 0.3;
  double degree_skew_min = 0.4, degree_skew_max = 1.2;

  // --- query shape ---
  int min_query_nodes = 2, max_query_nodes = 4;
  /// Shape mix: star with prob 1 - path_prob - cyclic_prob.
  double path_prob = 0.25, cyclic_prob = 0.2;
  double variable_fraction = 0.25;  // wildcard slots
  double label_noise = 0.4;
  double partial_label = 0.35;
  double keep_relation = 0.5;
  double keep_type = 0.5;

  // --- matching semantics ---
  double node_threshold_min = 0.2, node_threshold_max = 0.45;
  double edge_threshold_min = 0.0, edge_threshold_max = 0.15;
  double lambda_min = 0.3, lambda_max = 0.9;
  int max_d = 3;
  /// Probability of a candidate cutoff (then uniform in [2, 6]).
  double cutoff_prob = 0.3;
  /// Probability of a retrieval cutoff when an index is attached, and
  /// its range.
  double retrieval_cutoff_prob = 0.2;
  size_t max_retrieval_min = 4, max_retrieval_max = 12;
  double injective_prob = 0.7;
  double with_index_prob = 0.7;

  // --- workload ---
  size_t min_k = 1, max_k = 8;
  /// Probability the case gets a tight-deadline cell, and its budget range.
  double tight_deadline_prob = 0.0;
  double tight_deadline_min_ms = 0.05, tight_deadline_max_ms = 1.0;
  /// Probability the case pins its certificate cells to one forced
  /// degradation level (uniform in [1, 3]); otherwise the full ladder
  /// sweep runs.
  double forced_degrade_prob = 0.0;
};

/// The default smoke profile: small graphs, mixed query shapes, oracle
/// always feasible.
FuzzProfile SmokeProfile();

/// Tiny token pools and loose thresholds: exact score ties everywhere.
FuzzProfile TieHeavyProfile();

/// TieHeavy plus a guaranteed max_candidates cutoff: the truncation cut
/// lands inside tie runs, stressing bound-driven retrieval's tie-exact
/// heap against the score-everything reference.
FuzzProfile TieCutProfile();

/// Adds tight-deadline cells on slightly larger graphs so expiries fire
/// mid-run (prefix-contract coverage).
FuzzProfile DeadlineProfile();

/// Tight deadlines plus forced degradation levels on oracle-feasible
/// graphs: every case exercises the anytime/degraded certificate cells
/// (bound soundness against the brute-force truth, guaranteed-prefix
/// bitwise identity) under the exact conditions a shedding service hits.
FuzzProfile OverloadProfile();

/// Node labels mixing built-in thesaurus terms (one and several tokens),
/// the digit, roman-numeral and number-word forms of numerals, tokens of
/// the generated labels, and repeated tokens: the vocabulary on which the
/// synonym and numeral-aware features, and the kernel's caps for them,
/// take both values. Typed queries, large type lists and ranked pools put
/// labels that share no query token into the scored pools.
FuzzProfile VocabularyProfile();

/// Path and cyclic queries of 5-6 nodes on small graphs: nearly every case
/// runs a rank join of two or more stars, most of them under the
/// brute-force oracle.
FuzzProfile JoinsProfile();

/// Profile by name ("smoke", "ties", "tiecut", "deadline", "overload",
/// "vocabulary", "joins"); falls back to smoke.
FuzzProfile ProfileByName(const std::string& name);

/// Deterministically generates the case for (profile, seed).
FuzzCase MakeFuzzCase(const FuzzProfile& profile, uint64_t seed);

/// Structural deep copy of a graph (KnowledgeGraph is move-only; the
/// shrinker and replay tooling rebuild modified copies through this).
graph::KnowledgeGraph CopyGraph(const graph::KnowledgeGraph& g);

/// Deep copy of a case (graph rebuilt via CopyGraph).
FuzzCase CopyCase(const FuzzCase& c);

}  // namespace star::testing

#endif  // STAR_TESTING_FUZZ_CASE_H_
