#include "testing/fuzz_case.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "graph/graph_generator.h"
#include "query/workload.h"

namespace star::testing {

const char* BugInjectionName(BugInjection b) {
  switch (b) {
    case BugInjection::kNone: return "none";
    case BugInjection::kWarmTopListScores: return "warm-toplist";
  }
  return "none";
}

std::string FuzzCase::Describe() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "seed=%llu |V|=%zu |E|=%zu q=%d/%d k=%zu d=%d nt=%.3f et=%.3f "
                "lambda=%.3f cut=%zu inj=%d idx=%d ctx=%d dl=%.2fms dg=%d "
                "bug=%s",
                static_cast<unsigned long long>(seed), graph.node_count(),
                graph.edge_count(), query.node_count(), query.edge_count(), k,
                config.d, config.node_threshold, config.edge_threshold,
                config.lambda, config.max_candidates,
                config.enforce_injective ? 1 : 0, with_index ? 1 : 0,
                context ? 1 : 0, tight_deadline_ms, degrade,
                BugInjectionName(inject));
  return buf;
}

FuzzProfile SmokeProfile() { return FuzzProfile{}; }

FuzzProfile TieHeavyProfile() {
  FuzzProfile p;
  p.name = "ties";
  // Tiny token pools collide labels; collided labels have identical F_N,
  // so candidate lists, star streams, and rank joins are full of exact
  // ties — the regime where tie-break determinism bugs live.
  p.token_pool_min = 3;
  p.token_pool_max = 6;
  p.num_types = 3;
  p.num_relations = 4;
  p.node_threshold_min = 0.15;
  p.node_threshold_max = 0.3;
  p.edge_threshold_max = 0.05;
  p.label_noise = 0.2;
  p.partial_label = 0.6;
  p.cutoff_prob = 0.5;  // cutoffs + ties stress deterministic truncation
  return p;
}

FuzzProfile DeadlineProfile() {
  FuzzProfile p;
  p.name = "deadline";
  p.min_nodes = 30;
  p.max_nodes = 70;
  p.edge_factor_min = 2.0;
  p.edge_factor_max = 3.0;
  p.max_query_nodes = 5;
  p.tight_deadline_prob = 1.0;
  p.tight_deadline_min_ms = 0.02;
  p.tight_deadline_max_ms = 1.5;
  return p;
}

FuzzProfile TieCutProfile() {
  FuzzProfile p = TieHeavyProfile();
  p.name = "tiecut";
  // Every case gets a small max_candidates cutoff on a tie-saturated
  // score distribution, so the cut routinely lands inside a run of equal
  // scores — the adversarial regime for bound-driven retrieval, whose
  // heap must reproduce the deterministic (score desc, id asc) truncation
  // byte for byte while skipping nodes.
  p.cutoff_prob = 1.0;
  p.with_index_prob = 0.9;  // mostly index pools, some full-scan pools
  p.retrieval_cutoff_prob = 0.3;
  p.token_pool_min = 2;
  p.token_pool_max = 4;
  return p;
}

FuzzProfile OverloadProfile() {
  FuzzProfile p;
  p.name = "overload";
  // Graph sizes stay in the smoke range so the brute-force oracle is
  // almost always feasible: the certificate cells' bound-dominance check
  // needs the true score ladder.
  p.min_nodes = 18;
  p.max_nodes = 44;
  p.edge_factor_min = 1.6;
  p.edge_factor_max = 2.8;
  // Nominal cutoffs collide with the degraded (tighter) ones: the drop
  // bound must stay sound whether the ladder tightens an existing cut or
  // introduces the first one.
  p.cutoff_prob = 0.6;
  p.tight_deadline_prob = 0.5;
  p.tight_deadline_min_ms = 0.05;
  p.tight_deadline_max_ms = 1.0;
  p.forced_degrade_prob = 0.75;
  return p;
}

FuzzProfile VocabularyProfile() {
  FuzzProfile p;
  p.name = "vocabulary";
  p.vocabulary = true;
  // Typed queries over few types, and ranked pools (the only ones that
  // carry retrieval facts), put labels that share no query token into the
  // scored pools. A synonym or numeral match adds one feature weight to
  // such a label's low F_N, so low thresholds, small queries and large k
  // keep it in the answers.
  p.num_types = 3;
  p.keep_type = 0.8;
  p.with_index_prob = 0.9;
  p.retrieval_cutoff_prob = 0.8;
  p.max_retrieval_min = 8;
  p.max_retrieval_max = 40;
  p.node_threshold_min = 0.01;
  p.node_threshold_max = 0.15;
  p.max_query_nodes = 3;
  p.min_k = 4;
  p.max_k = 16;
  p.partial_label = 0.5;
  p.context_share = 0.8;  // the synonym feature needs the context
  return p;
}

FuzzProfile JoinsProfile() {
  FuzzProfile p;
  p.name = "joins";
  // Path and cyclic queries of 5-6 nodes decompose into two or three
  // stars (a few draws on a sparse corner of the graph still come out
  // star-shaped), so nearly every case runs the left-deep rank-join
  // pipeline; small graphs keep the brute-force oracle feasible on most of
  // them. Candidate cutoffs and k up to 16 vary where the k-th join result
  // lands within the inputs, and so how deep each rank join reads.
  p.min_nodes = 16;
  p.max_nodes = 32;
  p.min_query_nodes = 5;
  p.max_query_nodes = 6;
  p.path_prob = 0.5;
  p.cyclic_prob = 0.5;
  p.cutoff_prob = 0.6;
  p.min_k = 2;
  p.max_k = 16;
  return p;
}

FuzzProfile ProfileByName(const std::string& name) {
  if (name == "ties") return TieHeavyProfile();
  if (name == "tiecut") return TieCutProfile();
  if (name == "deadline") return DeadlineProfile();
  if (name == "overload") return OverloadProfile();
  if (name == "vocabulary") return VocabularyProfile();
  if (name == "joins") return JoinsProfile();
  return SmokeProfile();
}

namespace {

/// A VocabularyProfile() node label: one to three pieces, each a thesaurus
/// term, a numeral form or a token of the generated label, some repeated.
std::string VocabularyLabel(std::string_view generated, Rng& rng) {
  static constexpr const char* kTerms[] = {
      "teacher", "Educator", "tutor",  "film",           "movie",
      "motion picture",      "director", "movie maker",  "award",
      "prize",   "city",     "Town",   "place of birth", "born"};
  static constexpr const char* kNumerals[] = {
      "2", "ii", "II", "two", "3", "iii", "Three", "10", "x", "ten",
      "20", "xx", "21"};
  // A quarter of the labels are one numeral form (not "21"): every token
  // of a query label drawn from one is a numeral, and labels of equal
  // value share no token.
  if (rng.Chance(0.25)) return kNumerals[rng.Below(std::size(kNumerals) - 1)];
  const std::vector<std::string> tokens = SplitTokens(generated);
  std::string label;
  const uint64_t pieces = 1 + rng.Below(3);
  for (uint64_t i = 0; i < pieces; ++i) {
    std::string piece;
    switch (rng.Below(3)) {
      case 0:
        piece = kTerms[rng.Below(std::size(kTerms))];
        break;
      case 1:
        piece = kNumerals[rng.Below(std::size(kNumerals))];
        break;
      default:
        piece = tokens.empty() ? "x" : tokens[rng.Below(tokens.size())];
        break;
    }
    if (!label.empty()) label += ' ';
    label += piece;
    if (rng.Chance(0.15)) label += " " + piece;
  }
  return label;
}

/// A copy of `g` whose node labels are label(NodeLabel(v)), in node order.
template <typename LabelFn>
graph::KnowledgeGraph RebuildGraph(const graph::KnowledgeGraph& g,
                                   LabelFn&& label) {
  graph::KnowledgeGraph::Builder b;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.node_count());
       ++v) {
    const int32_t t = g.NodeType(v);
    b.AddNode(label(g.NodeLabel(v)), std::string(g.TypeName(t)));
  }
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.edge_count());
       ++e) {
    b.AddEdge(g.EdgeSrc(e), g.EdgeDst(e), g.RelationName(g.EdgeRelation(e)));
  }
  return std::move(b).Build();
}

double UniformIn(Rng& rng, double lo, double hi) {
  return lo + (hi - lo) * rng.NextDouble();
}

size_t SizeIn(Rng& rng, size_t lo, size_t hi) {
  return lo + static_cast<size_t>(rng.Below(hi - lo + 1));
}

/// A coin of probability p that is a pure function of the seed: a
/// splitmix64 hash, so it draws nothing from the case generator's stream
/// and every other draw of a seed is the same either way.
bool SeedChance(uint64_t seed, double p) {
  uint64_t x = (seed ^ 0xC0C0A5E5ULL) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  x ^= x >> 31;
  return static_cast<double>(x >> 11) * 0x1.0p-53 < p;
}

}  // namespace

FuzzCase MakeFuzzCase(const FuzzProfile& profile, uint64_t seed) {
  // Independent sub-streams so a tweak to one draw doesn't shift every
  // later decision (keeps shrunk cases comparable to their parents).
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);

  FuzzCase c;
  c.seed = seed;
  c.profile = profile.name;
  c.context = SeedChance(seed, profile.context_share);

  graph::GeneratorConfig gc;
  gc.num_nodes = SizeIn(rng, profile.min_nodes, profile.max_nodes);
  gc.num_edges = static_cast<size_t>(
      static_cast<double>(gc.num_nodes) *
      UniformIn(rng, profile.edge_factor_min, profile.edge_factor_max));
  gc.num_types = profile.num_types;
  gc.num_relations = profile.num_relations;
  gc.token_pool = SizeIn(rng, profile.token_pool_min, profile.token_pool_max);
  gc.degree_skew =
      UniformIn(rng, profile.degree_skew_min, profile.degree_skew_max);
  gc.seed = rng.Next();
  c.graph = graph::GenerateGraph(gc);
  if (profile.vocabulary) {
    // A stream of its own: the generator's draws below stay as they are.
    Rng vocabulary(seed ^ 0x70CAB5EEDULL);
    c.graph = RebuildGraph(c.graph, [&](std::string_view generated) {
      return VocabularyLabel(generated, vocabulary);
    });
  }

  query::WorkloadOptions wo;
  wo.variable_fraction = profile.variable_fraction;
  wo.label_noise = profile.label_noise;
  wo.partial_label = profile.partial_label;
  wo.keep_relation = profile.keep_relation;
  wo.keep_type = profile.keep_type;
  query::WorkloadGenerator wg(c.graph, rng.Next());
  const int qn =
      static_cast<int>(SizeIn(rng, static_cast<size_t>(profile.min_query_nodes),
                              static_cast<size_t>(profile.max_query_nodes)));
  const double shape = rng.NextDouble();
  if (shape < profile.cyclic_prob && qn >= 3) {
    c.query = wg.RandomGraphQuery(qn, qn + 1, wo);  // one extra edge: a cycle
  } else if (shape < profile.cyclic_prob + profile.path_prob && qn >= 2) {
    c.query = wg.RandomPathQuery(qn, wo);
  } else {
    c.query = wg.RandomStarQuery(qn, wo);
  }

  c.config.node_threshold =
      UniformIn(rng, profile.node_threshold_min, profile.node_threshold_max);
  c.config.edge_threshold =
      UniformIn(rng, profile.edge_threshold_min, profile.edge_threshold_max);
  c.config.lambda = UniformIn(rng, profile.lambda_min, profile.lambda_max);
  c.config.d = 1 + static_cast<int>(rng.Below(
                       static_cast<uint64_t>(std::max(1, profile.max_d))));
  c.config.enforce_injective = rng.Chance(profile.injective_prob);
  if (rng.Chance(profile.cutoff_prob)) {
    c.config.max_candidates = SizeIn(rng, 2, 6);
  }
  c.with_index = rng.Chance(profile.with_index_prob);
  if (c.with_index && rng.Chance(profile.retrieval_cutoff_prob)) {
    c.config.max_retrieval =
        SizeIn(rng, profile.max_retrieval_min, profile.max_retrieval_max);
  }
  c.k = SizeIn(rng, profile.min_k, profile.max_k);
  c.decomposition.seed = rng.Next();
  c.alpha = UniformIn(rng, 0.2, 0.8);
  if (rng.Chance(profile.tight_deadline_prob)) {
    c.tight_deadline_ms = UniformIn(rng, profile.tight_deadline_min_ms,
                                    profile.tight_deadline_max_ms);
  }
  if (rng.Chance(profile.forced_degrade_prob)) {
    c.degrade = 1 + static_cast<int>(rng.Below(3));
  }
  return c;
}

graph::KnowledgeGraph CopyGraph(const graph::KnowledgeGraph& g) {
  return RebuildGraph(g, [](std::string_view l) { return std::string(l); });
}

FuzzCase CopyCase(const FuzzCase& c) {
  FuzzCase out;
  out.seed = c.seed;
  out.profile = c.profile;
  out.graph = CopyGraph(c.graph);
  out.query = c.query;
  out.config = c.config;
  out.alpha = c.alpha;
  out.decomposition = c.decomposition;
  out.k = c.k;
  out.with_index = c.with_index;
  out.context = c.context;
  out.tight_deadline_ms = c.tight_deadline_ms;
  out.degrade = c.degrade;
  out.inject = c.inject;
  return out;
}

}  // namespace star::testing
