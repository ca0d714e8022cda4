#include "testing/differential.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/belief_propagation.h"
#include "baseline/brute_force.h"
#include "baseline/graph_ta.h"
#include "common/deadline.h"
#include "common/random.h"
#include "core/framework.h"
#include "core/star_search.h"
#include "graph/label_index.h"
#include "query/query_graph.h"
#include "scoring/query_scorer.h"
#include "serve/degrade.h"
#include "serve/star_cache.h"
#include "text/ensemble.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::testing {

std::string CaseOutcome::Summary() const {
  if (violations.empty()) return "";
  const Violation& v = violations.front();
  return v.check + " @ " + v.cell + ": " + v.detail;
}

namespace {

/// Same tolerance the existing identity tests use for cross-algorithm
/// score agreement (ties are broken arbitrarily across engines, so only
/// score sequences compare — never mappings).
constexpr double kEps = 1e-9;

std::string StrPrintf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

struct EngineResult {
  std::vector<core::GraphMatch> matches;
  core::FrameworkStats stats;
};

/// One matrix cell fully specified: the runner mutates copies of this to
/// derive every cell from the case's base configuration.
struct RunSpec {
  const graph::KnowledgeGraph* graph = nullptr;
  const graph::LabelIndex* index = nullptr;  // null = no-index semantics
  const query::QueryGraph* query = nullptr;
  scoring::MatchConfig config;
  core::StarStrategy strategy = core::StarStrategy::kStard;
  double alpha = 0.5;
  core::DecompositionOptions decomposition;
  size_t k = 5;
  core::ReuseCache* reuse = nullptr;
  const Cancellation* cancel = nullptr;
};

EngineResult Run(const text::SimilarityEnsemble& ensemble, const RunSpec& s) {
  core::StarOptions o;
  o.strategy = s.strategy;
  o.match = s.config;
  o.decomposition = s.decomposition;
  o.alpha = s.alpha;
  o.reuse = s.reuse;
  core::StarFramework fw(*s.graph, ensemble, s.index, o);
  EngineResult r;
  r.matches = fw.TopK(*s.query, s.k, s.cancel);
  r.stats = fw.last_stats();
  return r;
}

std::vector<double> Scores(const std::vector<core::GraphMatch>& ms) {
  std::vector<double> s;
  s.reserve(ms.size());
  for (const auto& m : ms) s.push_back(m.score);
  return s;
}

std::string DescribeMatch(const core::GraphMatch& m) {
  std::string out = StrPrintf("%.17g <-", m.score);
  for (const graph::NodeId v : m.mapping) {
    out += StrPrintf(" %d", static_cast<int>(v));
  }
  return out;
}

void AddViolation(CaseOutcome* out, std::string check, std::string cell,
                  std::string detail) {
  out->violations.push_back(
      Violation{std::move(check), std::move(cell), std::move(detail)});
}

/// Structural invariants every engine result must satisfy regardless of
/// which cell produced it.
void CheckWellFormed(const std::string& cell, const EngineResult& r,
                     const FuzzCase& c, bool expect_complete_run,
                     CaseOutcome* out) {
  if (r.matches.size() > c.k) {
    AddViolation(out, "shape", cell,
                 StrPrintf("returned %zu matches for k=%zu", r.matches.size(),
                           c.k));
  }
  double prev = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < r.matches.size(); ++i) {
    const auto& m = r.matches[i];
    if (m.mapping.size() != static_cast<size_t>(c.query.node_count())) {
      AddViolation(out, "shape", cell,
                   StrPrintf("match %zu maps %zu of %d query nodes", i,
                             m.mapping.size(), c.query.node_count()));
      return;
    }
    if (!m.Complete()) {
      AddViolation(out, "completeness", cell,
                   StrPrintf("match %zu has unmapped query nodes: %s", i,
                             DescribeMatch(m).c_str()));
    }
    if (c.config.enforce_injective && !m.Injective()) {
      AddViolation(out, "injectivity", cell,
                   StrPrintf("match %zu repeats a data node: %s", i,
                             DescribeMatch(m).c_str()));
    }
    if (m.score > prev) {
      AddViolation(out, "ordering", cell,
                   StrPrintf("score increased at rank %zu: %.17g after %.17g",
                             i, m.score, prev));
    }
    prev = m.score;
    for (size_t j = 0; j < i; ++j) {
      if (r.matches[j].mapping == m.mapping) {
        AddViolation(out, "duplicate", cell,
                     StrPrintf("ranks %zu and %zu share a mapping: %s", j, i,
                               DescribeMatch(m).c_str()));
        break;
      }
    }
  }
  if (expect_complete_run && r.stats.cancelled) {
    AddViolation(out, "spurious-cancel", cell,
                 "cancelled flag set without a cancellation token");
  }
}

/// Bitwise identity (exact double equality + identical mappings): the
/// contract between cells of the SAME strategy (retrieval, reuse,
/// k-prefix, deadline truncation), where tie decisions must replay
/// exactly.
bool SameMatch(const core::GraphMatch& a, const core::GraphMatch& b) {
  return a.score == b.score && a.mapping == b.mapping;
}

void CheckBitwiseEqual(const std::string& check, const std::string& cell,
                       const std::vector<core::GraphMatch>& ref,
                       const std::vector<core::GraphMatch>& got,
                       CaseOutcome* out) {
  if (ref.size() != got.size()) {
    AddViolation(out, check, cell,
                 StrPrintf("size %zu vs reference %zu", got.size(),
                           ref.size()));
    return;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (!SameMatch(ref[i], got[i])) {
      AddViolation(
          out, check, cell,
          StrPrintf("rank %zu differs: got %s, reference %s", i,
                    DescribeMatch(got[i]).c_str(),
                    DescribeMatch(ref[i]).c_str()));
      return;
    }
  }
}

/// `got` must be a bitwise prefix of `full`.
void CheckBitwisePrefix(const std::string& check, const std::string& cell,
                        const std::vector<core::GraphMatch>& full,
                        const std::vector<core::GraphMatch>& got,
                        CaseOutcome* out) {
  if (got.size() > full.size()) {
    AddViolation(out, check, cell,
                 StrPrintf("prefix longer (%zu) than reference (%zu)",
                           got.size(), full.size()));
    return;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!SameMatch(full[i], got[i])) {
      AddViolation(
          out, check, cell,
          StrPrintf("prefix rank %zu differs: got %s, reference %s", i,
                    DescribeMatch(got[i]).c_str(),
                    DescribeMatch(full[i]).c_str()));
      return;
    }
  }
}

/// Score-sequence agreement within eps — the cross-engine comparison (tie
/// order and therefore mappings legitimately differ).
void CheckScoresNear(const std::string& check, const std::string& cell,
                     const std::vector<double>& ref,
                     const std::vector<double>& got, CaseOutcome* out) {
  if (ref.size() != got.size()) {
    AddViolation(out, check, cell,
                 StrPrintf("size %zu vs reference %zu", got.size(),
                           ref.size()));
    return;
  }
  for (size_t i = 0; i < ref.size(); ++i) {
    if (std::abs(ref[i] - got[i]) > kEps) {
      AddViolation(out, check, cell,
                   StrPrintf("rank %zu score %.17g vs reference %.17g", i,
                             got[i], ref[i]));
      return;
    }
  }
}

/// Recomputes each match's score from first principles through a fresh
/// scorer: every mapped node must be a candidate, every query edge must
/// have a valid connection, and the parts must sum to the reported score,
/// which may not exceed the scorer's perfect-match cap. Catches "agrees
/// with itself but wrong" bugs that pure differential cells cannot.
void CheckValidity(const std::string& cell,
                   const std::vector<core::GraphMatch>& matches,
                   scoring::QueryScorer& scorer, CaseOutcome* out) {
  const query::QueryGraph& q = scorer.query();
  const double cap = scorer.ScoreUpperBound();
  for (size_t i = 0; i < matches.size(); ++i) {
    const auto& m = matches[i];
    if (m.score > cap + kEps) {
      AddViolation(out, "score-bound", cell,
                   StrPrintf("match %zu scores %.17g above the upper bound "
                             "%.17g",
                             i, m.score, cap));
    }
    if (m.mapping.size() != static_cast<size_t>(q.node_count())) continue;
    double sum = 0.0;
    bool valid = true;
    for (int u = 0; u < q.node_count() && valid; ++u) {
      const double s = scorer.CandidateScore(u, m.mapping[u]);
      if (s < 0.0) {
        AddViolation(out, "validity", cell,
                     StrPrintf("match %zu maps query node %d to non-candidate "
                               "%d: %s",
                               i, u, static_cast<int>(m.mapping[u]),
                               DescribeMatch(m).c_str()));
        valid = false;
        break;
      }
      sum += s;
    }
    for (int e = 0; e < q.edge_count() && valid; ++e) {
      const auto& qe = q.edge(e);
      const double fe =
          scorer.PairEdgeScore(e, m.mapping[qe.u], m.mapping[qe.v]);
      if (fe < 0.0) {
        AddViolation(out, "validity", cell,
                     StrPrintf("match %zu has no valid connection for query "
                               "edge %d: %s",
                               i, e, DescribeMatch(m).c_str()));
        valid = false;
        break;
      }
      sum += fe;
    }
    if (valid && std::abs(sum - m.score) > kEps) {
      AddViolation(out, "validity", cell,
                   StrPrintf("match %zu reports %.17g, recomputes to %.17g",
                             i, m.score, sum));
    }
  }
}

/// Rebuilds q with node and edge insertion order permuted and edge
/// endpoints randomly flipped — semantically the identical query.
query::QueryGraph PermuteQuery(const query::QueryGraph& q, Rng& rng) {
  const int n = q.node_count();
  std::vector<int> perm(n);  // perm[old] = new index
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  std::vector<int> inv(n);
  for (int i = 0; i < n; ++i) inv[perm[i]] = i;
  query::QueryGraph nq;
  for (int ni = 0; ni < n; ++ni) {
    const auto& node = q.node(inv[ni]);
    if (node.wildcard) {
      nq.AddWildcardNode(node.type_name);
    } else {
      nq.AddNode(node.label, node.type_name);
    }
  }
  std::vector<int> eorder(q.edge_count());
  std::iota(eorder.begin(), eorder.end(), 0);
  rng.Shuffle(eorder);
  for (const int e : eorder) {
    const auto& qe = q.edge(e);
    int u = perm[qe.u];
    int v = perm[qe.v];
    if (rng.Chance(0.5)) std::swap(u, v);
    nq.AddEdge(u, v, qe.wildcard_relation ? "" : qe.relation);
  }
  return nq;
}

/// Rebuilds g with node ids permuted (labels, types, and edges preserved;
/// edge insertion order kept so only the id space changes).
graph::KnowledgeGraph RelabelGraph(const graph::KnowledgeGraph& g, Rng& rng) {
  const size_t n = g.node_count();
  std::vector<graph::NodeId> perm(n);  // perm[old] = new id
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  std::vector<graph::NodeId> inv(n);
  for (size_t i = 0; i < n; ++i) inv[perm[i]] = static_cast<graph::NodeId>(i);
  graph::KnowledgeGraph::Builder b;
  for (size_t ni = 0; ni < n; ++ni) {
    const graph::NodeId old = inv[ni];
    const int32_t t = g.NodeType(old);
    b.AddNode(std::string(g.NodeLabel(old)), std::string(g.TypeName(t)));
  }
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.edge_count());
       ++e) {
    b.AddEdge(perm[g.EdgeSrc(e)], perm[g.EdgeDst(e)],
              g.RelationName(g.EdgeRelation(e)));
  }
  return std::move(b).Build();
}

struct Strat {
  core::StarStrategy s;
  const char* name;
};
constexpr Strat kStrategies[] = {
    {core::StarStrategy::kStark, "stark"},
    {core::StarStrategy::kStard, "stard"},
    {core::StarStrategy::kHybrid, "hybrid"},
};
// Index of the reference strategy (the paper's default engine) in
// kStrategies; every cross-engine cell compares against its base run.
constexpr size_t kRefStrategy = 1;

}  // namespace

std::vector<scoring::ScoredCandidate> CandidatesFromScore(
    const scoring::QueryScorer& scorer,
    const text::SimilarityEnsemble& ensemble, int u) {
  const query::QueryNode& qn = scorer.query().node(u);
  const graph::KnowledgeGraph& g = scorer.graph();
  const scoring::MatchConfig& cfg = scorer.config();
  const text::TypeOntology* ontology = ensemble.context().ontology;
  const auto onto_type = [&](std::string_view type_name) {
    return type_name.empty() || ontology == nullptr
               ? -1
               : ontology->FindType(type_name);
  };
  const int query_type = onto_type(qn.type_name);
  std::vector<uint8_t> shares_token;
  std::vector<scoring::ScoredCandidate> list;
  for (const graph::NodeId v : scorer.RetrievalPool(u, &shares_token)) {
    const double s = ensemble.Score(qn.label, g.NodeLabel(v), query_type,
                                    onto_type(g.TypeName(g.NodeType(v))));
    if (s >= cfg.node_threshold) list.push_back({v, s});
  }
  std::sort(list.begin(), list.end(),
            [](const scoring::ScoredCandidate& a,
               const scoring::ScoredCandidate& b) {
              return a.score > b.score ||
                     (a.score == b.score && a.node < b.node);
            });
  if (cfg.max_candidates > 0 && list.size() > cfg.max_candidates) {
    list.resize(cfg.max_candidates);
  }
  return list;
}

void ArcConsistentClosure(
    const graph::KnowledgeGraph& g, const query::QueryGraph& q,
    bool injective, int radius,
    std::vector<std::vector<scoring::ScoredCandidate>>* lists) {
  const auto untyped = [&](int u) {
    return q.node(u).wildcard && q.node(u).type_name.empty();
  };
  // Whether v reaches a node s != v (any s without injectivity) that
  // `in_support` accepts by a walk of 1..radius hops, found layer by
  // layer: W_0 = {v}, W_h = N(W_{h-1}). From radius 3 on, a neighbour
  // other than v (any neighbour without injectivity) is enough.
  const auto supported = [&](graph::NodeId v, const auto& in_support) {
    if (radius >= 3) {
      for (const auto& nb : g.Neighbors(v)) {
        if (!injective || nb.node != v) return true;
      }
      return false;
    }
    std::set<graph::NodeId> layer = {v};
    for (int h = 1; h <= radius; ++h) {
      std::set<graph::NodeId> next;
      for (const graph::NodeId x : layer) {
        for (const auto& nb : g.Neighbors(x)) next.insert(nb.node);
      }
      layer = std::move(next);
      for (const graph::NodeId s : layer) {
        if ((!injective || s != v) && in_support(s)) return true;
      }
    }
    return false;
  };
  // Plain fixpoint: sweep every edge both ways until no list changes. An
  // untyped wildcard's list is filtered only at radius 1; above it, it
  // offers every node.
  const auto filtered = [&](int u) { return radius == 1 || !untyped(u); };
  bool changed = true;
  while (changed) {
    changed = false;
    for (int e = 0; e < q.edge_count(); ++e) {
      for (const bool forward : {true, false}) {
        const int u = forward ? q.edge(e).u : q.edge(e).v;
        const int y = q.OtherEnd(e, u);
        if (!filtered(u)) continue;
        std::vector<graph::NodeId> support;
        for (const auto& c : (*lists)[y]) support.push_back(c.node);
        std::sort(support.begin(), support.end());
        const auto in_support = [&](graph::NodeId s) {
          return !filtered(y) ||
                 std::binary_search(support.begin(), support.end(), s);
        };
        const size_t before = (*lists)[u].size();
        std::erase_if((*lists)[u], [&](const scoring::ScoredCandidate& c) {
          return !supported(c.node, in_support);
        });
        changed |= (*lists)[u].size() != before;
      }
    }
  }
  // A connected query with an empty list has no match.
  const bool none = std::any_of(lists->begin(), lists->end(),
                                [](const auto& list) { return list.empty(); });
  if (none && q.IsConnected()) {
    for (auto& list : *lists) list.clear();
  }
}

int SupportRadius(const scoring::QueryScorer& scorer) {
  int radius = 1;
  for (int h = 2; h <= scorer.config().d; ++h) {
    if (scorer.PathDecay(h) >= scorer.config().edge_threshold) radius = h;
  }
  return radius;
}

std::vector<std::vector<scoring::ScoredCandidate>> UnreducedCandidateLists(
    const scoring::QueryScorer& scorer,
    const text::SimilarityEnsemble& ensemble) {
  const query::QueryGraph& q = scorer.query();
  std::vector<std::vector<scoring::ScoredCandidate>> lists(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    lists[u] = q.node(u).wildcard ? baseline::BruteForceDomain(scorer, u)
                                  : CandidatesFromScore(scorer, ensemble, u);
  }
  return lists;
}

void CheckFnOracle(const scoring::QueryScorer& scorer,
                   const text::SimilarityEnsemble& ensemble,
                   const std::string& cell, CaseOutcome* out) {
  const query::QueryGraph& q = scorer.query();
  std::vector<std::vector<scoring::ScoredCandidate>> reference =
      UnreducedCandidateLists(scorer, ensemble);
  ArcConsistentClosure(scorer.graph(), q, scorer.config().enforce_injective,
                       SupportRadius(scorer), &reference);
  for (int u = 0; u < q.node_count(); ++u) {
    CheckCandidateList(q, u, scorer.Candidates(u), reference[u], cell, out);
  }
}

void CheckCandidateList(const query::QueryGraph& q, int u,
                        std::span<const scoring::ScoredCandidate> got,
                        std::span<const scoring::ScoredCandidate> want,
                        const std::string& cell, CaseOutcome* out) {
  const size_t n = std::min(want.size(), got.size());
  size_t i = 0;
  while (i < n && got[i].node == want[i].node &&
         std::bit_cast<uint64_t>(got[i].score) ==
             std::bit_cast<uint64_t>(want[i].score)) {
    ++i;
  }
  if (i == n && want.size() == got.size()) return;
  std::string detail = StrPrintf(
      "query node %d \"%s\": %zu candidates, the reference gives %zu", u,
      q.node(u).label.c_str(), got.size(), want.size());
  if (i < n) {
    detail += StrPrintf(
        "; position %zu is %d @ %a, the reference gives %d @ %a", i,
        static_cast<int>(got[i].node), got[i].score,
        static_cast<int>(want[i].node), want[i].score);
  }
  AddViolation(out, "fn-oracle", cell, std::move(detail));
}

CaseOutcome RunDifferentialCase(const FuzzCase& c, const RunnerOptions& opts) {
  CaseOutcome out;
  if (c.query.node_count() == 0 || c.graph.node_count() == 0) return out;

  // Context cases score with every feature family live: the built-in
  // synonyms and ontology, and a tf-idf model fitted on this graph's
  // labels. Every cell shares the one ensemble.
  text::SynonymDictionary synonyms;
  text::TypeOntology ontology;
  text::TfIdfModel tfidf;
  text::SimilarityEnsemble::Context context;
  if (c.context) {
    synonyms = text::SynonymDictionary::BuiltIn();
    ontology = text::TypeOntology::BuiltIn();
    for (graph::NodeId v = 0; v < c.graph.node_count(); ++v) {
      tfidf.AddDocument(c.graph.NodeLabel(v));
    }
    tfidf.Finalize();
    context.synonyms = &synonyms;
    context.tfidf = &tfidf;
    context.ontology = &ontology;
  }
  const text::SimilarityEnsemble ensemble(context);
  std::unique_ptr<graph::LabelIndex> index;
  if (c.with_index) index = std::make_unique<graph::LabelIndex>(c.graph);

  RunSpec base_spec;
  base_spec.graph = &c.graph;
  base_spec.index = index.get();
  base_spec.query = &c.query;
  base_spec.config = c.config;
  base_spec.alpha = c.alpha;
  base_spec.decomposition = c.decomposition;
  base_spec.k = c.k;

  // --- Base cells: every strategy, no reuse/deadline ---
  EngineResult base[3];
  for (size_t i = 0; i < 3; ++i) {
    RunSpec spec = base_spec;
    spec.strategy = kStrategies[i].s;
    base[i] = Run(ensemble, spec);
    ++out.cells_run;
    CheckWellFormed(std::string(kStrategies[i].name) + "/base", base[i], c,
                    /*expect_complete_run=*/true, &out);
  }
  const std::vector<double> ref_scores = Scores(base[kRefStrategy].matches);
  out.num_stars = base[kRefStrategy].stats.num_stars;
  for (size_t i = 0; i < 3; ++i) {
    if (i == kRefStrategy) continue;
    CheckScoresNear("strategy-diff",
                    std::string(kStrategies[i].name) + "/base", ref_scores,
                    Scores(base[i].matches), &out);
  }

  {
    scoring::QueryScorer vscorer(c.graph, c.query, ensemble, base_spec.config,
                                 index.get());
    CheckFnOracle(vscorer, ensemble, "candidates", &out);
    for (size_t i = 0; i < 3; ++i) {
      CheckValidity(std::string(kStrategies[i].name) + "/base",
                    base[i].matches, vscorer, &out);
    }
  }

  // --- Reuse cells: cold -> warm -> invalidated, all bitwise vs base ---
  if (opts.run_reuse) {
    for (size_t i = 0; i < 3; ++i) {
      serve::StarCache cache(256);
      RunSpec spec = base_spec;
      spec.strategy = kStrategies[i].s;
      spec.reuse = &cache;

      const EngineResult cold = Run(ensemble, spec);
      ++out.cells_run;
      CheckBitwiseEqual("reuse-cold",
                        StrPrintf("%s/reuse=cold", kStrategies[i].name),
                        base[i].matches, cold.matches, &out);

      if (c.inject == BugInjection::kWarmTopListScores) {
        cache.CorruptTopListScoresForTest(0.25);
      }
      const EngineResult warm = Run(ensemble, spec);
      ++out.cells_run;
      CheckBitwiseEqual("reuse-warm",
                        StrPrintf("%s/reuse=warm", kStrategies[i].name),
                        base[i].matches, warm.matches, &out);

      cache.Invalidate();
      const EngineResult inval = Run(ensemble, spec);
      ++out.cells_run;
      CheckBitwiseEqual("reuse-invalidated",
                        StrPrintf("%s/reuse=invalidated", kStrategies[i].name),
                        base[i].matches, inval.matches, &out);
    }
  }

  // --- Deadline cells ---
  if (opts.run_deadline) {
    {
      const Cancellation expired{Deadline::Expired()};
      RunSpec spec = base_spec;
      spec.cancel = &expired;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      if (!r.matches.empty()) {
        AddViolation(&out, "deadline-expired", "stard/deadline=expired",
                     StrPrintf("pre-expired deadline returned %zu matches",
                               r.matches.size()));
      }
      if (!r.stats.cancelled) {
        AddViolation(&out, "deadline-expired", "stard/deadline=expired",
                     "cancelled flag not set on pre-expired deadline");
      }
    }
    {
      Cancellation cancelled_now;
      cancelled_now.Cancel();
      RunSpec spec = base_spec;
      spec.cancel = &cancelled_now;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      if (!r.matches.empty() || !r.stats.cancelled) {
        AddViolation(&out, "cancel-immediate", "stard/cancelled",
                     StrPrintf("pre-cancelled run returned %zu matches, "
                               "cancelled=%d",
                               r.matches.size(), r.stats.cancelled ? 1 : 0));
      }
    }
    if (c.tight_deadline_ms > 0.0) {
      const Cancellation tight{Deadline::AfterMillis(c.tight_deadline_ms)};
      RunSpec spec = base_spec;
      spec.cancel = &tight;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::string cell = "stard/deadline=tight";
      CheckWellFormed(cell, r, c, /*expect_complete_run=*/false, &out);
      if (r.stats.cancelled) {
        CheckBitwisePrefix("deadline-prefix", cell,
                           base[kRefStrategy].matches, r.matches, &out);
      } else {
        CheckBitwiseEqual("deadline-complete", cell,
                          base[kRefStrategy].matches, r.matches, &out);
      }
    }
  }

  // --- Oracle + baseline cells (shared scorer: identical memo semantics,
  // and the oracle's domains double as its cost estimate) ---
  std::unique_ptr<scoring::QueryScorer> oscorer;
  double states = std::numeric_limits<double>::infinity();
  if (opts.run_oracle || opts.run_baselines || opts.run_certificates) {
    oscorer = std::make_unique<scoring::QueryScorer>(
        c.graph, c.query, ensemble, base_spec.config, index.get());
    states = 1.0;
    for (int u = 0; u < c.query.node_count(); ++u) {
      states *= static_cast<double>(
          baseline::BruteForceDomain(*oscorer, u).size());
    }
  }
  const bool oracle_feasible =
      oscorer != nullptr && states <= opts.max_oracle_states;
  if (opts.run_oracle && oracle_feasible) {
    const auto oracle = baseline::BruteForceTopK(*oscorer, c.k);
    out.oracle_ran = true;
    ++out.cells_run;
    CheckScoresNear("oracle-diff", "oracle", Scores(oracle), ref_scores,
                    &out);
  }
  if (opts.run_baselines && oracle_feasible) {
    baseline::GraphTa ta(*oscorer, /*budget_ms=*/0.0);
    const auto got = ta.TopK(c.k);
    ++out.cells_run;
    CheckScoresNear("graphta-diff", "graphta", ref_scores, Scores(got),
                    &out);
  }
  // BP is exact only for acyclic queries without the global injectivity
  // constraint (its model is pairwise) — its documented exactness domain.
  if (opts.run_baselines && oracle_feasible && c.query.IsTree() &&
      !base_spec.config.enforce_injective) {
    baseline::BeliefPropagation bp(*oscorer, baseline::BpOptions{});
    const auto got = bp.TopK(c.k);
    ++out.cells_run;
    CheckScoresNear("bp-diff", "bp", ref_scores, Scores(got), &out);
  }

  // --- Certificate cells: every anytime (deadline-truncated) and degraded
  // (shedding-ladder) answer must carry a sound QualityCertificate ---
  // Soundness is graded against the brute-force truth: the certified bound
  // must dominate the true (nominal-semantics) score at rank
  // guaranteed_prefix+1, and the guaranteed prefix must be bitwise equal
  // to the exact reference run's prefix. Oracle top-(k+1) covers rank
  // prefix+1 for every prefix the engine can claim (prefix <= k).
  if (opts.run_certificates) {
    std::vector<core::GraphMatch> truth;
    if (oracle_feasible) {
      truth = baseline::BruteForceTopK(*oscorer, c.k + 1);
    }
    core::StarOptions nominal;
    nominal.strategy = kStrategies[kRefStrategy].s;
    nominal.match = base_spec.config;
    nominal.decomposition = base_spec.decomposition;
    nominal.alpha = base_spec.alpha;

    const auto check_certificate = [&](const std::string& cell,
                                       const core::StarOptions& effective,
                                       int level, const EngineResult& r) {
      const core::QualityCertificate cert = serve::BuildCertificate(
          c.query, nominal, effective, level, r.stats, r.matches);
      if (cert.guaranteed_prefix > r.matches.size()) {
        AddViolation(&out, "cert-prefix", cell,
                     StrPrintf("guaranteed prefix %zu longer than the %zu "
                               "returned matches",
                               cert.guaranteed_prefix, r.matches.size()));
        return;
      }
      // Guaranteed prefix: bitwise equal to the exact reference run's.
      const std::vector<core::GraphMatch> prefix(
          r.matches.begin(), r.matches.begin() + cert.guaranteed_prefix);
      CheckBitwisePrefix("cert-prefix", cell, base[kRefStrategy].matches,
                         prefix, &out);
      // An exact certificate claims the whole list is the true top-k.
      if (cert.exact) {
        CheckBitwiseEqual("cert-exact", cell, base[kRefStrategy].matches,
                          r.matches, &out);
      }
      // Bound soundness: nothing outside the guaranteed prefix can beat
      // the certified bound. truth[prefix] is the best such match.
      if (oracle_feasible && truth.size() > cert.guaranteed_prefix) {
        const double next_true = truth[cert.guaranteed_prefix].score;
        if (cert.score_bound < next_true - kEps) {
          AddViolation(&out, "cert-bound", cell,
                       StrPrintf("certified bound %.17g below true rank-%zu "
                                 "score %.17g",
                                 cert.score_bound, cert.guaranteed_prefix + 1,
                                 next_true));
        }
      }
    };

    // Level-0 anytime cells: the base run's certificate is exact, and a
    // deadline-truncated run's certificate covers what it did not emit.
    check_certificate("stard/cert=base", nominal, 0, base[kRefStrategy]);
    if (c.tight_deadline_ms > 0.0) {
      const Cancellation tight{Deadline::AfterMillis(c.tight_deadline_ms)};
      RunSpec spec = base_spec;
      spec.cancel = &tight;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::string cell = "stard/cert=deadline";
      CheckWellFormed(cell, r, c, /*expect_complete_run=*/false, &out);
      if (r.stats.cancelled) {
        CheckBitwisePrefix("deadline-prefix", cell,
                           base[kRefStrategy].matches, r.matches, &out);
      }
      check_certificate(cell, nominal, 0, r);
    }

    // Degraded cells: the shedding ladder's knobs, same policy values a
    // saturated QueryService applies. l1_max_candidates is small enough to
    // actually bite on fuzz-scale graphs.
    serve::DegradePolicy policy;
    policy.enable = true;
    policy.l1_max_candidates = 3;
    policy.sample_seed = c.seed * 0x9E3779B97F4A7C15ULL + 0xC2B2AE3D27D4EB4FULL;
    std::vector<int> levels;
    if (c.degrade != 0) {
      levels.push_back(c.degrade);
    } else {
      levels = {1, 2, 3};
    }
    for (const int level : levels) {
      core::StarOptions effective = nominal;
      serve::ApplyDegradation(policy, level, &effective);
      RunSpec spec = base_spec;
      spec.config = effective.match;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::string cell = StrPrintf("stard/cert=degrade-l%d", level);
      CheckWellFormed(cell, r, c, /*expect_complete_run=*/true, &out);
      // Every degraded match must be valid under the EFFECTIVE semantics
      // (kept candidates only, reduced-d edge scores), and the degraded
      // candidate lists (level 1's cut, level 2's sampled pools) must be
      // the ones Score() rebuilds.
      {
        scoring::QueryScorer escorer(c.graph, c.query, ensemble,
                                     effective.match, index.get());
        CheckFnOracle(escorer, ensemble, cell, &out);
        CheckValidity(cell, r.matches, escorer, &out);
      }
      check_certificate(cell, effective, level, r);
    }
  }

  // --- Metamorphic relations (no oracle needed) ---
  if (opts.run_metamorphic) {
    Rng mrng(c.seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);

    // M1: query node/edge insertion order and edge orientation are
    // presentation only — scores must be invariant. Only without cutoffs:
    // truncation keeps a pivot-dependent candidate subset, and the pivot
    // choice is insertion-order-dependent, so truncated results
    // legitimately differ across presentations.
    if (c.query.node_count() >= 2 && c.config.max_candidates == 0 &&
        c.config.max_retrieval == 0) {
      const query::QueryGraph pq = PermuteQuery(c.query, mrng);
      RunSpec spec = base_spec;
      spec.query = &pq;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      CheckScoresNear("meta-permutation", "stard/permuted-query", ref_scores,
                      Scores(r.matches), &out);
    }

    // M2: the top-k score sequence is a bitwise prefix of the top-(k+3)
    // one. Scores only: tie selection is k-dependent in the rank join
    // (more pulls happen before the threshold stop), so mappings may
    // permute within an exact-score tie group across k.
    {
      RunSpec spec = base_spec;
      spec.k = c.k + 3;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::vector<double> big = Scores(r.matches);
      if (ref_scores.size() > big.size()) {
        AddViolation(&out, "meta-kprefix", "stard/k+3",
                     StrPrintf("k=%zu returned %zu matches but k=%zu only %zu",
                               c.k, ref_scores.size(), c.k + 3, big.size()));
      } else {
        for (size_t i = 0; i < ref_scores.size(); ++i) {
          if (ref_scores[i] != big[i]) {
            AddViolation(&out, "meta-kprefix", "stard/k+3",
                         StrPrintf("score rank %zu: %.17g (k=%zu) vs %.17g "
                                   "(k=%zu)",
                                   i, ref_scores[i], c.k, big[i], c.k + 3));
            break;
          }
        }
      }
    }

    // M3: node-id relabeling changes nothing but the id space — score
    // sequences must be invariant. Gated on no cutoffs: with a candidate
    // cutoff, exact F_N ties at the truncation boundary are legitimately
    // broken by node id, so relabeling may keep a different (equal-scoring
    // at F_N, different connectivity) candidate.
    if (c.config.max_candidates == 0 && c.config.max_retrieval == 0) {
      const graph::KnowledgeGraph rg = RelabelGraph(c.graph, mrng);
      std::unique_ptr<graph::LabelIndex> ridx;
      if (c.with_index) ridx = std::make_unique<graph::LabelIndex>(rg);
      RunSpec spec = base_spec;
      spec.graph = &rg;
      spec.index = ridx.get();
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      CheckScoresNear("meta-relabel", "stard/relabeled-graph", ref_scores,
                      Scores(r.matches), &out);
    }

    // M4a: raising lambda only raises multi-hop F_E — every match stays
    // valid with a non-decreasing score, so rank-wise scores and the match
    // count must not drop.
    auto check_monotone_up = [&](const char* check, const char* cell,
                                 const scoring::MatchConfig& cfg2) {
      RunSpec spec = base_spec;
      spec.config = cfg2;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::vector<double> got = Scores(r.matches);
      if (got.size() < ref_scores.size()) {
        AddViolation(&out, check, cell,
                     StrPrintf("match count dropped: %zu vs %zu", got.size(),
                               ref_scores.size()));
        return;
      }
      for (size_t i = 0; i < ref_scores.size(); ++i) {
        if (got[i] < ref_scores[i] - kEps) {
          AddViolation(&out, check, cell,
                       StrPrintf("rank %zu score dropped: %.17g vs %.17g", i,
                                 got[i], ref_scores[i]));
          return;
        }
      }
    };
    if (c.config.lambda < 1.0) {
      scoring::MatchConfig cfg2 = base_spec.config;
      cfg2.lambda = std::min(1.0, cfg2.lambda + 0.1);
      check_monotone_up("meta-monotone-lambda", "stard/lambda+0.1", cfg2);
    }
    if (c.config.d < 4) {
      scoring::MatchConfig cfg2 = base_spec.config;
      cfg2.d += 1;
      check_monotone_up("meta-monotone-d", "stard/d+1", cfg2);
    }

    // M4b: raising thresholds shrinks the valid-match set and never raises
    // a surviving match's score — rank-wise scores and count must not grow.
    {
      scoring::MatchConfig cfg2 = base_spec.config;
      cfg2.node_threshold += 0.1;
      cfg2.edge_threshold += 0.05;
      RunSpec spec = base_spec;
      spec.config = cfg2;
      const EngineResult r = Run(ensemble, spec);
      ++out.cells_run;
      const std::vector<double> got = Scores(r.matches);
      const char* cell = "stard/thresholds-raised";
      if (got.size() > ref_scores.size()) {
        AddViolation(&out, "meta-monotone-threshold", cell,
                     StrPrintf("match count grew: %zu vs %zu", got.size(),
                               ref_scores.size()));
      } else {
        for (size_t i = 0; i < got.size(); ++i) {
          if (got[i] > ref_scores[i] + kEps) {
            AddViolation(
                &out, "meta-monotone-threshold", cell,
                StrPrintf("rank %zu score grew: %.17g vs %.17g", i, got[i],
                          ref_scores[i]));
            break;
          }
        }
      }
    }

    // M5: star streams must keep their rank-join contract — after every
    // pull, UpperBound() caps the next emission and never exceeds the
    // score just returned.
    if (c.query.IsStar()) {
      scoring::QueryScorer sscorer(c.graph, c.query, ensemble,
                                   base_spec.config, index.get());
      const query::StarQuery star = core::MakeStarQuery(c.query);
      for (size_t i = 0; i < 3; ++i) {
        core::StarSearch::Options so;
        so.strategy = kStrategies[i].s;
        core::StarSearch search(sscorer, star, so);
        ++out.cells_run;
        const std::string cell =
            StrPrintf("%s/star-stream", kStrategies[i].name);
        double prev = std::numeric_limits<double>::infinity();
        double prev_bound = std::numeric_limits<double>::infinity();
        for (size_t pulls = 0; pulls < 3 * c.k + 8; ++pulls) {
          const auto m = search.Next();
          if (!m) break;
          if (m->score > prev) {
            AddViolation(&out, "meta-upperbound", cell,
                         StrPrintf("stream score increased: %.17g after "
                                   "%.17g",
                                   m->score, prev));
            break;
          }
          if (m->score > prev_bound + kEps) {
            AddViolation(&out, "meta-upperbound", cell,
                         StrPrintf("emission %.17g above advertised bound "
                                   "%.17g",
                                   m->score, prev_bound));
            break;
          }
          const double bound = search.UpperBound();
          if (bound > m->score + kEps) {
            AddViolation(&out, "meta-upperbound", cell,
                         StrPrintf("bound %.17g above last emission %.17g",
                                   bound, m->score));
            break;
          }
          prev = m->score;
          prev_bound = bound;
        }
      }
    }
  }

  return out;
}

}  // namespace star::testing
