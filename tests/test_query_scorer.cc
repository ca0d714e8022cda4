#include "scoring/query_scorer.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include <gtest/gtest.h>

#include "graph/graph_generator.h"
#include "query/workload.h"
#include "test_helpers.h"
#include "testing/differential.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::scoring {
namespace {

using star::testing::MovieGraph;
using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

struct Fixture {
  graph::KnowledgeGraph g = MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index{g};
  query::QueryGraph q;
};

TEST(QueryScorerTest, NodeScoreExactAndPartial) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad Pitt");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_DOUBLE_EQ(scorer.NodeScore(u, 0), 1.0);  // exact
  const double partial = scorer.NodeScore(u, 1);  // Brad Garrett
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
}

TEST(QueryScorerTest, NodeScoreMatchesScoreBitwise) {
  // Typed nodes, thesaurus terms, numerals and repeated labels under full
  // context (synonyms, tf-idf, ontology): NodeScore, one exact-mode lane of
  // the batch kernel, must return Score()'s bits for every pair, with the
  // ontology types resolved from the type names.
  graph::KnowledgeGraph::Builder b;
  const std::pair<const char*, const char*> nodes[] = {
      {"Brad Pitt", "Actor"},     {"brad pitt", "Person"},
      {"Brad Garrett", "Actor"},  {"movie", "Film"},
      {"motion picture", "Work"}, {"Part II", "Film"},
      {"Part 2", "Documentary"},  {"teacher", ""},
      {"educator", "Person"},     {"Rocky Three", "Film"},
      {"", "Film"},               {"- . -", "Gadget"},
      {"JFK", "Politician"},      {"12 km", ""},
      {"Brad Pitt", "Director"}};
  for (const auto& [label, type] : nodes) b.AddNode(label, type);
  for (graph::NodeId v = 0; v + 1 < std::size(nodes); ++v) {
    b.AddEdge(v, v + 1, "knows");
  }
  const graph::KnowledgeGraph g = std::move(b).Build();
  const text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  const text::TypeOntology ontology = text::TypeOntology::BuiltIn();
  text::TfIdfModel tfidf;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    tfidf.AddDocument(g.NodeLabel(v));
  }
  tfidf.Finalize();
  text::SimilarityEnsemble::Context ctx;
  ctx.synonyms = &synonyms;
  ctx.tfidf = &tfidf;
  ctx.ontology = &ontology;
  const text::SimilarityEnsemble ensemble(ctx);

  query::QueryGraph q;
  q.AddNode("Brad Pitt", "Person");
  q.AddNode("film", "Film");
  q.AddNode("Part two", "");
  q.AddNode("instructor", "Agent");
  q.AddNode("brad", "Gadget");  // a type the ontology does not know
  q.AddNode("Brad Pitt", "Actor");
  for (int u = 0; u + 1 < q.node_count(); ++u) q.AddEdge(u, u + 1, "knows");
  const auto onto_type = [&](std::string_view name) {
    return name.empty() ? -1 : ontology.FindType(name);
  };
  const QueryScorer scorer(g, q, ensemble, TestConfig());
  for (int u = 0; u < q.node_count(); ++u) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const double want = ensemble.Score(q.node(u).label, g.NodeLabel(v),
                                         onto_type(q.node(u).type_name),
                                         onto_type(g.TypeName(g.NodeType(v))));
      EXPECT_EQ(std::bit_cast<uint64_t>(scorer.NodeScore(u, v)),
                std::bit_cast<uint64_t>(want))
          << "u=" << u << " v=" << v;
    }
  }
}

TEST(QueryScorerTest, CandidatesSortedAndThresholded) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad");
  auto cfg = TestConfig();
  cfg.node_threshold = 0.3;
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, cfg, &fx.index);
  const auto& cands = scorer.Candidates(u);
  ASSERT_FALSE(cands.empty());
  for (size_t i = 1; i < cands.size(); ++i) {
    EXPECT_LE(cands[i].score, cands[i - 1].score);
  }
  for (const auto& c : cands) EXPECT_GE(c.score, 0.3);
}

TEST(QueryScorerTest, MaxCandidatesCutoff) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad");
  auto cfg = TestConfig();
  cfg.max_candidates = 1;
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, cfg, &fx.index);
  EXPECT_EQ(scorer.Candidates(u).size(), 1u);
}

TEST(QueryScorerTest, WildcardCandidates) {
  Fixture fx;
  const int any = fx.q.AddWildcardNode();
  const int typed = fx.q.AddWildcardNode("Actor");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_EQ(scorer.Candidates(any).size(), fx.g.node_count());
  EXPECT_EQ(scorer.Candidates(typed).size(), 3u);  // the three actors
  EXPECT_DOUBLE_EQ(scorer.NodeScore(any, 5), 1.0);
  EXPECT_DOUBLE_EQ(scorer.NodeScore(typed, 0), 1.0);   // Brad Pitt: Actor
  EXPECT_DOUBLE_EQ(scorer.NodeScore(typed, 4), 0.0);   // Troy: Film
}

// An untyped wildcard scores wildcard_node_score on every node, so its
// list is every node of V in id order whatever max_candidates is, and none
// when the wildcard score is under the threshold; CandidateScore agrees.
// With and without an index.
TEST(QueryScorerTest, UntypedWildcardListIsEveryNode) {
  const auto g = SmallRandomGraph(/*seed=*/31, /*nodes=*/40, /*edges=*/80);
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int any = q.AddWildcardNode();
  const graph::LabelIndex* const indexes[] = {&index, nullptr};
  for (const double wildcard_score : {1.0, 0.5, 0.2}) {
    for (const size_t max_candidates :
         {size_t{0}, size_t{3}, g.node_count() + 7}) {
      for (const graph::LabelIndex* idx : indexes) {
        MatchConfig cfg = TestConfig();
        cfg.wildcard_node_score = wildcard_score;
        cfg.max_candidates = max_candidates;
        const bool matches = wildcard_score >= cfg.node_threshold;
        const QueryScorer scorer(g, q, ensemble, cfg, idx);
        const CandidateList& got = scorer.Candidates(any);
        const std::string cell = "score=" + std::to_string(wildcard_score) +
                                 " k=" + std::to_string(max_candidates) +
                                 (idx == nullptr ? " no-index" : " index");
        ASSERT_EQ(got.size(), matches ? g.node_count() : 0u) << cell;
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].node, i) << cell << " position " << i;
          EXPECT_EQ(got[i].score, wildcard_score) << cell << " position " << i;
        }
        for (graph::NodeId v = 0; v < g.node_count(); ++v) {
          EXPECT_EQ(scorer.CandidateScore(any, v),
                    matches ? wildcard_score : -1.0)
              << cell << " node " << v;
        }
        EXPECT_FALSE(scorer.truncated()) << cell;
      }
    }
  }
}

TEST(QueryScorerTest, CandidateScoreMembership) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad Pitt");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_DOUBLE_EQ(scorer.CandidateScore(u, 0), 1.0);
  // Academy Award shares no token with "Brad Pitt": not a candidate.
  EXPECT_LT(scorer.CandidateScore(u, 6), 0.0);
}

// CandidateScore's flat table against a linear scan of Candidates(u), for
// every node of the graph and kInvalidNode, over the plan's reduced lists
// at d = 1 and d = 2 (radius 2 here). Two query nodes share a signature
// (same label and type) and a neighbour: each has its own list, and the
// two are equal. One leaf is an untyped wildcard, which short-circuits at
// radius 2 only.
TEST(CandidateScoreTableTest, MatchesLinearScanOfCandidates) {
  graph::GeneratorConfig gc;
  gc.num_nodes = 400;
  gc.num_edges = 1200;
  gc.num_types = 5;
  gc.num_relations = 6;
  gc.token_pool = 8;
  gc.seed = 5;
  const graph::KnowledgeGraph g = graph::GenerateGraph(gc);
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int pivot = q.AddNode(std::string(g.NodeLabel(7)));
  const int twin_a = q.AddNode(std::string(g.NodeLabel(11)));
  const int twin_b = q.AddNode(std::string(g.NodeLabel(11)));
  const int any = q.AddWildcardNode();
  graph::NodeId typed_node = 0;
  while (g.NodeType(typed_node) < 0) ++typed_node;
  const int typed =
      q.AddWildcardNode(std::string(g.TypeName(g.NodeType(typed_node))));
  for (const int leaf : {twin_a, twin_b, any, typed}) q.AddEdge(pivot, leaf);
  for (const int d : {1, 2}) {
    QueryScorer scorer(g, q, ensemble, TestConfig(d), &index);
    ASSERT_EQ(star::testing::SupportRadius(scorer), d);
    const bool short_circuit = d >= 2;
    const auto scan = [&](int u, graph::NodeId v) {
      if (short_circuit && u == any) {
        return scorer.config().wildcard_node_score;
      }
      for (const ScoredCandidate& c : scorer.Candidates(u)) {
        if (c.node == v) return c.score;
      }
      return -1.0;
    };
    size_t members = 0;
    for (int u = 0; u < q.node_count(); ++u) {
      for (graph::NodeId v = 0; v < g.node_count(); ++v) {
        const double got = scorer.CandidateScore(u, v);
        EXPECT_EQ(got, scan(u, v)) << "d=" << d << " u=" << u << " v=" << v;
        if (got >= 0.0) ++members;
      }
      EXPECT_EQ(scorer.CandidateScore(u, graph::kInvalidNode),
                short_circuit && u == any
                    ? scorer.config().wildcard_node_score
                    : -1.0)
          << "d=" << d << " u=" << u;
    }
    // Both present and absent nodes were probed.
    EXPECT_GT(members, 100u) << "d=" << d;
    const CandidateList& list_a = scorer.Candidates(twin_a);
    const CandidateList& list_b = scorer.Candidates(twin_b);
    EXPECT_NE(&list_a, &list_b) << "d=" << d;
    EXPECT_FALSE(list_a.empty()) << "d=" << d;
    ASSERT_EQ(list_a.size(), list_b.size()) << "d=" << d;
    for (size_t i = 0; i < list_a.size(); ++i) {
      EXPECT_EQ(list_a[i].node, list_b[i].node) << "d=" << d << " " << i;
      EXPECT_EQ(list_a[i].score, list_b[i].score) << "d=" << d << " " << i;
    }
  }
}

TEST(QueryScorerTest, TruncatedCandidatesEqualFullSortPrefix) {
  // The max_candidates cut (nth_element + prefix sort) must agree with the
  // full sort under the (score desc, node asc) total order; an untyped
  // wildcard's list is never cut. The list is the arc-consistent closure
  // of those prefixes, at radius d here.
  const auto g = SmallRandomGraph(/*seed=*/23, /*nodes=*/48, /*edges=*/96);
  query::WorkloadGenerator wg(g, /*seed=*/9);
  const auto q = wg.RandomStarQuery(3, query::WorkloadOptions{});
  ScorerFixture full(g, q, TestConfig(/*d=*/2), /*with_index=*/false);
  const std::vector<std::vector<ScoredCandidate>> sorted =
      star::testing::UnreducedCandidateLists(*full.scorer, full.ensemble);
  std::vector<std::vector<ScoredCandidate>> prefixes(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    const bool untyped = q.node(u).wildcard && q.node(u).type_name.empty();
    const size_t keep =
        untyped ? sorted[u].size() : std::min<size_t>(sorted[u].size(), 5);
    prefixes[u].assign(sorted[u].begin(), sorted[u].begin() + keep);
  }
  for (const int d : {1, 2}) {
    auto cut_cfg = TestConfig(d);
    cut_cfg.max_candidates = 5;
    ScorerFixture cut(g, q, cut_cfg, /*with_index=*/false);
    std::vector<std::vector<ScoredCandidate>> want = prefixes;
    star::testing::ArcConsistentClosure(g, q, cut_cfg.enforce_injective,
                                        /*radius=*/d, &want);
    for (int u = 0; u < q.node_count(); ++u) {
      const CandidateList& got = cut.scorer->Candidates(u);
      ASSERT_EQ(got.size(), want[u].size()) << "d=" << d << " u=" << u;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, want[u][i].node)
            << "d=" << d << " u=" << u << " position " << i;
        EXPECT_EQ(got[i].score, want[u][i].score)  // bitwise
            << "d=" << d << " u=" << u << " position " << i;
      }
    }
  }
}

TEST(QueryScorerTest, RelationScores) {
  Fixture fx;
  const int a = fx.q.AddNode("A");
  const int b = fx.q.AddNode("B");
  const int exact = fx.q.AddEdge(a, b, "actedIn");
  const int wild = fx.q.AddEdge(a, b);
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  const auto rel = static_cast<uint32_t>(fx.g.FindRelationId("actedIn"));
  EXPECT_DOUBLE_EQ(scorer.RelationScore(exact, rel), 1.0);
  EXPECT_DOUBLE_EQ(scorer.RelationScore(wild, rel), 1.0);
  const auto won = static_cast<uint32_t>(fx.g.FindRelationId("won"));
  EXPECT_LT(scorer.RelationScore(exact, won), 1.0);
  EXPECT_DOUBLE_EQ(scorer.MaxRelationScore(wild), 1.0);
  EXPECT_DOUBLE_EQ(scorer.MaxRelationScore(exact), 1.0);  // exists in graph
}

// The dense relation tables come from the exact-mode batch kernel in
// kBatchLanes-wide calls. 13 relations end in a ragged 5-lane call; two
// query edges share a label (one aliased table); one edge is a wildcard;
// one name fills the 64-byte word of the bit-parallel features and one
// name and one edge label run past it.
TEST(QueryScorerTest, RelationTablesMatchScoreBitwise) {
  const std::vector<std::string> relations = {
      "actedIn",   "acted_in",  "actsIn",     "directed",   "directedBy",
      "bornIn",    "birthPlace", "wonAward",  "award",      "locatedIn",
      "livesIn",
      "hasAVeryLongRelationNameThatRunsPastTheSixtyFourByteMachineWords",
      "has_a_very_long_relation_name_that_runs_past_the_sixty_four_byte_word"};
  ASSERT_NE(relations.size() % text::SimilarityEnsemble::kBatchLanes, 0u);
  graph::KnowledgeGraph::Builder b;
  const auto hub = b.AddNode("Hub", "Thing");
  for (const auto& r : relations) {
    b.AddEdge(hub, b.AddNode("Leaf " + r, "Thing"), r);
  }
  const auto g = std::move(b).Build();
  ASSERT_EQ(g.relation_count(), relations.size());

  query::QueryGraph q;
  const int pivot = q.AddNode("Hub");
  std::vector<int> edges;
  const std::vector<std::string> labels = {
      "acted in", "acted in", "", "won award",
      "has a very long relation name that runs past the sixty four byte word"};
  for (const std::string& label : labels) {
    edges.push_back(q.AddEdge(pivot, q.AddNode("Leaf"), label));
  }
  ASSERT_TRUE(q.edge(edges[2]).wildcard_relation);

  text::SimilarityEnsemble ensemble;
  const graph::LabelIndex index(g);
  QueryScorer scorer(g, q, ensemble, TestConfig(), &index);
  for (int u = 0; u < q.node_count(); ++u) scorer.Candidates(u);
  const text::KernelStats before = scorer.kernel_stats();
  for (size_t i = 0; i < edges.size(); ++i) {
    const query::QueryEdge& qe = q.edge(edges[i]);
    double best = 0.0;
    for (uint32_t r = 0; r < g.relation_count(); ++r) {
      const double expected =
          qe.wildcard_relation ? 1.0
                               : ensemble.Score(qe.relation, g.RelationName(r));
      EXPECT_EQ(scorer.RelationScore(edges[i], r), expected)
          << "edge " << i << " relation " << g.RelationName(r);
      best = std::max(best, expected);
    }
    EXPECT_EQ(scorer.MaxRelationScore(edges[i]), best) << "edge " << i;
  }
  // F_E evaluations are not F_N evaluations: the kernel counters only
  // count node scoring.
  EXPECT_EQ(scorer.kernel_stats().pairs, before.pairs);
  EXPECT_EQ(scorer.kernel_stats().features_evaluated,
            before.features_evaluated);
  EXPECT_GT(before.pairs, 0u);
}

TEST(QueryScorerTest, EdgeScoreDecaysWithHops) {
  Fixture fx;
  const int a = fx.q.AddNode("A");
  const int b = fx.q.AddNode("B");
  const int e = fx.q.AddEdge(a, b);
  auto cfg = TestConfig(3);
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, cfg, &fx.index);
  // A direct edge scores its relation similarity (1 for a wildcard
  // relation), a walk of h >= 2 hops lambda^(h-1).
  EXPECT_DOUBLE_EQ(scorer.RelationScore(e, 0), 1.0);
  EXPECT_DOUBLE_EQ(scorer.PathDecay(2), 0.5);
  EXPECT_DOUBLE_EQ(scorer.PathDecay(3), 0.25);
  EXPECT_DOUBLE_EQ(scorer.MaxEdgeScore(e), 1.0);
}

TEST(QueryScorerTest, PairEdgeScoreDirectAndWalk) {
  Fixture fx;
  const int a = fx.q.AddNode("A");
  const int b = fx.q.AddNode("B");
  const int e = fx.q.AddEdge(a, b);
  {
    QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(1), &fx.index);
    // Brad Pitt - Troy: direct edge, wildcard relation -> 1.0.
    EXPECT_DOUBLE_EQ(scorer.PairEdgeScore(e, 0, 4), 1.0);
    // Brad Pitt - Academy Award: 2 hops, but d = 1 -> invalid.
    EXPECT_LT(scorer.PairEdgeScore(e, 0, 6), 0.0);
  }
  {
    QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(2), &fx.index);
    // With d = 2 the two-hop walk scores lambda.
    EXPECT_DOUBLE_EQ(scorer.PairEdgeScore(e, 0, 6), 0.5);
    // Symmetric.
    EXPECT_DOUBLE_EQ(scorer.PairEdgeScore(e, 6, 0), 0.5);
    // Direct connections keep relation score 1.0 (better than decay).
    EXPECT_DOUBLE_EQ(scorer.PairEdgeScore(e, 0, 4), 1.0);
  }
}

TEST(QueryScorerTest, WalkBallSmallestLengths) {
  Fixture fx;
  fx.q.AddNode("A");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(3), &fx.index);
  const auto& ball = scorer.WalkBall(0);  // Brad Pitt
  // Academy Award is 2 hops away (via Boyhood).
  ASSERT_TRUE(ball.count(6));
  EXPECT_EQ(ball.at(6), 2);
  // United States is 2 hops (via Los Angeles).
  ASSERT_TRUE(ball.count(9));
  EXPECT_EQ(ball.at(9), 2);
}

// Reference implementation of the WalkBall contract (all nodes reachable
// by a walk of length in [2, d], mapped to the smallest such length), as
// the pre-flat-array code computed it: a fresh hash-set layered BFS per
// call. A node may reappear in several layers; the smallest layer wins.
std::unordered_map<graph::NodeId, int> NaiveWalkBall(
    const graph::KnowledgeGraph& g, graph::NodeId a, int d) {
  std::unordered_map<graph::NodeId, int> ball;
  if (d < 2) return ball;
  std::unordered_set<graph::NodeId> layer;
  for (const auto& nb : g.Neighbors(a)) layer.insert(nb.node);
  for (int h = 2; h <= d && !layer.empty(); ++h) {
    std::unordered_set<graph::NodeId> next;
    for (const graph::NodeId x : layer) {
      for (const auto& nb : g.Neighbors(x)) {
        if (next.insert(nb.node).second) ball.try_emplace(nb.node, h);
      }
    }
    layer = std::move(next);
  }
  return ball;
}

TEST(QueryScorerTest, WalkBallMatchesNaiveReference) {
  const auto g = star::testing::SmallRandomGraph(/*seed=*/57);
  query::QueryGraph q;
  q.AddNode("A");
  for (const int d : {2, 3}) {
    text::SimilarityEnsemble ensemble;
    QueryScorer scorer(g, q, ensemble, TestConfig(d), nullptr);
    for (graph::NodeId a = 0; a < g.node_count(); ++a) {
      const auto expected = NaiveWalkBall(g, a, d);
      const auto& ball = scorer.WalkBall(a);
      ASSERT_EQ(ball.size(), expected.size()) << "a=" << a << " d=" << d;
      for (const auto& [v, h] : expected) {
        const auto it = ball.find(v);
        ASSERT_NE(it, ball.end()) << "a=" << a << " d=" << d << " v=" << v;
        EXPECT_EQ(it->second, h) << "a=" << a << " d=" << d << " v=" << v;
      }
    }
    // Repeated calls hit the memo and stay consistent.
    const auto first = scorer.WalkBall(0);
    EXPECT_EQ(scorer.WalkBall(0), first);
  }
}

TEST(QueryScorerTest, ScoreUpperBound) {
  Fixture fx;
  const int a = fx.q.AddNode("A");
  const int b = fx.q.AddWildcardNode();
  fx.q.AddEdge(a, b);
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_DOUBLE_EQ(scorer.ScoreUpperBound(), 3.0);
}

TEST(QueryScorerTest, NoIndexScansAllNodes) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad Pitt");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), nullptr);
  const auto& cands = scorer.Candidates(u);
  ASSERT_FALSE(cands.empty());
  EXPECT_EQ(cands[0].node, 0u);
  EXPECT_DOUBLE_EQ(cands[0].score, 1.0);
}

TEST(QueryScorerTest, CancelledCandidatesNotMemoizedAndTruncationRecorded) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_FALSE(scorer.truncated());

  Cancellation cancelled;
  cancelled.Cancel();
  scorer.set_cancellation(&cancelled);
  EXPECT_TRUE(scorer.Candidates(u).empty());
  // The cancelled early-return must be visible (truncated) and must not
  // memoize the empty list as this node's definitive candidate set.
  EXPECT_TRUE(scorer.truncated());

  scorer.set_cancellation(nullptr);
  EXPECT_FALSE(scorer.Candidates(u).empty());
  // The flag is sticky: once any checkpoint fired, the session stays
  // marked so no caller can report its output as complete.
  EXPECT_TRUE(scorer.truncated());
}

// ---------------------------------------------------------------------------
// The plan (DESIGN.md "Arc-consistent candidate lists").
// ---------------------------------------------------------------------------

/// Node ids of a candidate list, in list order.
template <typename List>
std::vector<graph::NodeId> Ids(const List& list) {
  std::vector<graph::NodeId> ids;
  for (const ScoredCandidate& c : list) ids.push_back(c.node);
  return ids;
}

/// The lists a scorer must end with: the harness's closure, at the
/// config's radius, of the lists rebuilt from Score() under the config.
std::vector<std::vector<ScoredCandidate>> Closure(
    const graph::KnowledgeGraph& g, const query::QueryGraph& q,
    const text::SimilarityEnsemble& ensemble, const MatchConfig& cfg,
    const graph::LabelIndex* index) {
  const QueryScorer reference(g, q, ensemble, cfg, index);
  std::vector<std::vector<ScoredCandidate>> lists =
      star::testing::UnreducedCandidateLists(reference, ensemble);
  star::testing::ArcConsistentClosure(g, q, cfg.enforce_injective,
                                      star::testing::SupportRadius(reference),
                                      &lists);
  return lists;
}

/// Every list bitwise against the closure.
void ExpectLists(const QueryScorer& scorer,
                 const std::vector<std::vector<ScoredCandidate>>& want,
                 const std::string& cell) {
  for (int u = 0; u < scorer.query().node_count(); ++u) {
    const CandidateList& got = scorer.Candidates(u);
    ASSERT_EQ(got.size(), want[u].size()) << cell << " u=" << u;
    for (size_t i = 0; i < got.size(); ++i) {
      const std::string where = cell + " u=" + std::to_string(u) + " " +
                                std::to_string(i);
      EXPECT_EQ(got[i].node, want[u][i].node) << where;
      EXPECT_EQ(got[i].score, want[u][i].score) << where;
    }
  }
}

// A path y - x, y - z whose closure takes two rounds. y is built first,
// against x's pool, which holds X2 ("Ada Smith", under the threshold), so
// Y2 survives; x's list then drops Y2's support, and z's Z2, supported by
// Y2 alone, must go in a second round.
TEST(CandidatePlanTest, ClosureNeedsASecondRound) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId x1 = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId x2 = b.AddNode("Ada Smith", "Person");
  const graph::NodeId y1 = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId y2 = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId z1 = b.AddNode("Carl Gauss", "Person");
  const graph::NodeId z2 = b.AddNode("Carl Gauss", "Person");
  b.AddEdge(x1, y1, "knows");
  b.AddEdge(x2, y2, "knows");
  b.AddEdge(y1, z1, "knows");
  b.AddEdge(y2, z2, "knows");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int y = q.AddNode("Homer Simpson");
  const int x = q.AddNode("Ada Lovelace");
  const int z = q.AddNode("Carl Gauss");
  q.AddEdge(y, x);
  q.AddEdge(y, z);
  MatchConfig cfg = TestConfig(/*d=*/1);
  cfg.node_threshold = 0.9;
  const QueryScorer scorer(g, q, ensemble, cfg, &index);
  std::vector<uint8_t> shares;
  const std::vector<graph::NodeId> x_pool = scorer.RetrievalPool(x, &shares);
  ASSERT_NE(std::find(x_pool.begin(), x_pool.end(), x2), x_pool.end());
  EXPECT_EQ(Ids(scorer.Candidates(x)), std::vector<graph::NodeId>{x1});
  EXPECT_EQ(Ids(scorer.Candidates(y)), std::vector<graph::NodeId>{y1});
  EXPECT_EQ(Ids(scorer.Candidates(z)), std::vector<graph::NodeId>{z1});
  // z was scored with both Carls; the second round removed Z2.
  EXPECT_EQ(scorer.ScoredInfo(z).size, 2u);
  ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), "two rounds");
}

// Two `?` nodes share a signature but not their neighbours: each keeps
// its own list, the neighbours of its own labelled node's candidates.
TEST(CandidatePlanTest, TwinWildcardsKeepTheirOwnLists) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId ada = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId homer = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId london = b.AddNode("London", "City");
  const graph::NodeId engine = b.AddNode("Analytical Engine", "Thing");
  const graph::NodeId springfield = b.AddNode("Springfield", "City");
  b.AddEdge(ada, homer, "knows");
  b.AddEdge(ada, london, "livesIn");
  b.AddEdge(ada, engine, "designed");
  b.AddEdge(homer, springfield, "livesIn");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int any_a = q.AddWildcardNode();
  const int a = q.AddNode("Ada Lovelace");
  const int h = q.AddNode("Homer Simpson");
  const int any_h = q.AddWildcardNode();
  q.AddEdge(any_a, a);
  q.AddEdge(a, h);
  q.AddEdge(h, any_h);
  MatchConfig cfg = TestConfig(/*d=*/1);
  cfg.node_threshold = 0.9;
  const QueryScorer scorer(g, q, ensemble, cfg, &index);
  EXPECT_EQ(Ids(scorer.Candidates(any_a)),
            (std::vector<graph::NodeId>{homer, london, engine}));
  EXPECT_EQ(Ids(scorer.Candidates(any_h)),
            (std::vector<graph::NodeId>{ada, springfield}));
  for (const graph::NodeId v : {london, springfield}) {
    EXPECT_EQ(scorer.CandidateScore(any_a, v) >= 0.0, v == london);
    EXPECT_EQ(scorer.CandidateScore(any_h, v) >= 0.0, v == springfield);
  }
  ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), "twins");
}

// A data self-loop supports its node only with injectivity off: the two
// query nodes of an edge then map to that one node.
TEST(CandidatePlanTest, SelfLoopSupportsOnlyWithoutInjectivity) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId port = b.AddNode("Port Town", "City");
  const graph::NodeId lone = b.AddNode("Port Town", "City");
  const graph::NodeId farm = b.AddNode("Qwxv Farm", "Thing");
  b.AddEdge(port, port, "nearBy");
  b.AddEdge(lone, farm, "owns");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int town = q.AddNode("Port Town");
  const int near = q.AddNode("Port Town");
  q.AddEdge(town, near, "nearBy");
  for (const bool injective : {true, false}) {
    MatchConfig cfg = TestConfig(/*d=*/1, injective);
    cfg.node_threshold = 0.9;
    const QueryScorer scorer(g, q, ensemble, cfg, &index);
    const std::vector<graph::NodeId> want =
        injective ? std::vector<graph::NodeId>{}
                  : std::vector<graph::NodeId>{port};
    EXPECT_EQ(Ids(scorer.Candidates(town)), want) << injective;
    EXPECT_EQ(Ids(scorer.Candidates(near)), want) << injective;
    ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index),
                "injective=" + std::to_string(injective));
  }
}

// A pool that can fill max_candidates is scored and cut before it is
// filtered: which nodes make the cut depends on the whole pool. Filtering
// first would let the third Ada into the two-entry list.
TEST(CandidatePlanTest, APoolThatFillsTheCutIsFilteredAfterIt) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId exact = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId near = b.AddNode("Ada Lovelace Byron", "Person");
  const graph::NodeId far = b.AddNode("Ada Lovelace Byron King", "Person");
  const graph::NodeId homer = b.AddNode("Homer Simpson", "Person");
  b.AddEdge(near, homer, "knows");
  b.AddEdge(far, homer, "knows");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int ada = q.AddNode("Ada Lovelace");
  const int h = q.AddNode("Homer Simpson");
  q.AddEdge(ada, h);
  MatchConfig cfg = TestConfig(/*d=*/1);
  cfg.max_candidates = 2;
  const QueryScorer scorer(g, q, ensemble, cfg, &index);
  const std::vector<ScoredCandidate> cut =
      star::testing::CandidatesFromScore(scorer, ensemble, ada);
  ASSERT_EQ(Ids(cut), (std::vector<graph::NodeId>{exact, near}));
  EXPECT_EQ(Ids(scorer.Candidates(ada)), std::vector<graph::NodeId>{near});
  EXPECT_EQ(Ids(scorer.Candidates(h)), std::vector<graph::NodeId>{homer});
  // The digest is the cut list as scored.
  EXPECT_EQ(scorer.ScoredInfo(ada).size, 2u);
  EXPECT_EQ(scorer.ScoredInfo(ada).top_score, cut[0].score);
  ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), "cut");
}

// An empty list stops the plan: a connected query has no match, every
// list is empty, and the lists after it are never scored.
TEST(CandidatePlanTest, AnEmptyListStopsThePlan) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId ada = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId homer = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId carl = b.AddNode("Carl Gauss", "Person");
  b.AddEdge(homer, carl, "knows");
  b.AddEdge(ada, b.AddNode("London", "City"), "livesIn");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int a = q.AddNode("Ada Lovelace");
  const int h = q.AddNode("Homer Simpson");
  const int c = q.AddNode("Carl Gauss");
  q.AddEdge(a, h);
  q.AddEdge(h, c);
  MatchConfig cfg = TestConfig(/*d=*/1);
  cfg.node_threshold = 0.9;
  const QueryScorer scorer(g, q, ensemble, cfg, &index);
  for (int u = 0; u < q.node_count(); ++u) {
    EXPECT_TRUE(scorer.Candidates(u).empty()) << "u=" << u;
  }
  // Ada, built first, lost her only candidate to the filter unscored; its
  // bound still caps what the list could have held.
  EXPECT_TRUE(scorer.ScoredInfo(a).scored);
  EXPECT_EQ(scorer.ScoredInfo(a).size, 0u);
  EXPECT_GE(scorer.ScoredInfo(a).top_score, 1.0);
  EXPECT_FALSE(scorer.ScoredInfo(h).scored);
  EXPECT_FALSE(scorer.ScoredInfo(c).scored);
  EXPECT_EQ(scorer.retrieval_stats().nodes_scored, 0u);
  ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), "empty");
}

// Over random path and star queries, at d = 1, 2 and 3, with and without a
// cut, every list the plan builds is bitwise the closure of the lists
// rebuilt from Score(), and the sweep reduces some of them at d = 1 and 2
// (at radius 3 it drops only nodes without a neighbour, and every node of
// this graph has one).
TEST(CandidatePlanTest, RandomQueriesEndWithTheClosure) {
  const auto g = SmallRandomGraph(/*seed=*/41, /*nodes=*/60, /*edges=*/150);
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::WorkloadGenerator wg(g, /*seed=*/3);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.3;
  std::vector<query::QueryGraph> queries;
  for (int i = 0; i < 12; ++i) {
    queries.push_back(i % 2 == 0 ? wg.RandomGraphQuery(4, 4, wo)
                                 : wg.RandomStarQuery(3, wo));
  }
  for (const int d : {1, 2, 3}) {
    size_t reduced = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const query::QueryGraph& q = queries[i];
      for (const size_t max_candidates : {size_t{0}, size_t{3}}) {
        MatchConfig cfg = TestConfig(d);
        cfg.max_candidates = max_candidates;
        const std::string cell = "d=" + std::to_string(d) + " query " +
                                 std::to_string(i) +
                                 " cut=" + std::to_string(max_candidates);
        const QueryScorer plain(g, q, ensemble, cfg, &index);
        ExpectLists(plain, Closure(g, q, ensemble, cfg, &index), cell);
        const auto unreduced =
            star::testing::UnreducedCandidateLists(plain, ensemble);
        for (int u = 0; u < q.node_count(); ++u) {
          reduced += unreduced[u].size() - plain.Candidates(u).size();
        }
      }
    }
    EXPECT_EQ(reduced > 0, d <= 2) << "d=" << d;
  }
}

// A path in the data: Ada 1 - x - Homer 1, and Ada 2 - Homer 2 directly.
// Homer 1 is two hops from an Ada: its walk supports it at d = 2, not at
// d = 1. A plan that dropped a supported node fails here at d = 2.
TEST(CandidatePlanTest, AWalkOfTwoHopsSupportsAtDTwoOnly) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId ada1 = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId x = b.AddNode("Qwxv Jjk", "Thing");
  const graph::NodeId homer1 = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId ada2 = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId homer2 = b.AddNode("Homer Simpson", "Person");
  b.AddEdge(ada1, x, "knows");
  b.AddEdge(x, homer1, "knows");
  b.AddEdge(ada2, homer2, "knows");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int a = q.AddNode("Ada Lovelace");
  const int h = q.AddNode("Homer Simpson");
  q.AddEdge(a, h);
  for (const int d : {1, 2}) {
    MatchConfig cfg = TestConfig(d);
    cfg.node_threshold = 0.9;
    const QueryScorer scorer(g, q, ensemble, cfg, &index);
    const std::string cell = "d=" + std::to_string(d);
    const std::vector<graph::NodeId> adas =
        d == 1 ? std::vector<graph::NodeId>{ada2}
               : std::vector<graph::NodeId>{ada1, ada2};
    const std::vector<graph::NodeId> homers =
        d == 1 ? std::vector<graph::NodeId>{homer2}
               : std::vector<graph::NodeId>{homer1, homer2};
    EXPECT_EQ(Ids(scorer.Candidates(a)), adas) << cell;
    EXPECT_EQ(Ids(scorer.Candidates(h)), homers) << cell;
    ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), cell);
  }
}

// The radius is where walks stop scoring: the largest h <= d whose decay
// lambda^(h-1) reaches edge_threshold. On the path Ada 1 - x - Homer 1 -
// y - z - Homer 3 (and Ada 2 - Homer 2), Homer 1 is two hops from an Ada
// and Homer 3 five. At d = 2 with edge_threshold above lambda the radius
// is 1 and Homer 1 goes; at d = 3 with it between lambda^2 and lambda the
// radius is 2 and Homer 3 goes; at radius 3 a neighbour is enough, so
// Homer 3 stays. A supported node dropped in any cell fails it.
TEST(CandidatePlanTest, TheRadiusStopsWhereWalksStopScoring) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId ada1 = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId x = b.AddNode("Qwxv Jjk", "Thing");
  const graph::NodeId homer1 = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId y = b.AddNode("Zzyq Kkl", "Thing");
  const graph::NodeId z = b.AddNode("Vvbn Mmq", "Thing");
  const graph::NodeId homer3 = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId ada2 = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId homer2 = b.AddNode("Homer Simpson", "Person");
  b.AddEdge(ada1, x, "knows");
  b.AddEdge(x, homer1, "knows");
  b.AddEdge(homer1, y, "knows");
  b.AddEdge(y, z, "knows");
  b.AddEdge(z, homer3, "knows");
  b.AddEdge(ada2, homer2, "knows");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int a = q.AddNode("Ada Lovelace");
  const int h = q.AddNode("Homer Simpson");
  q.AddEdge(a, h);
  struct Cell {
    int d;
    double edge_threshold;
    std::vector<graph::NodeId> homers;
  };
  const Cell cells[] = {
      {2, 0.6, {homer2}},                   // lambda = 0.5 < 0.6: radius 1
      {3, 0.3, {homer1, homer2}},           // 0.25 < 0.3 <= 0.5: radius 2
      {3, 0.2, {homer1, homer3, homer2}},   // 0.2 <= 0.25: radius 3
  };
  for (const Cell& c : cells) {
    MatchConfig cfg = TestConfig(c.d);
    cfg.node_threshold = 0.9;
    cfg.edge_threshold = c.edge_threshold;
    const QueryScorer scorer(g, q, ensemble, cfg, &index);
    const std::string cell = "d=" + std::to_string(c.d) +
                             " edge_threshold=" +
                             std::to_string(c.edge_threshold);
    std::vector<graph::NodeId> got = Ids(scorer.Candidates(h));
    std::sort(got.begin(), got.end());
    std::vector<graph::NodeId> want = c.homers;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << cell;
    ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), cell);
  }
}

// A two-hop walk from a node back to itself (v - x - v) supports it only
// with injectivity off, as a self-loop does at d = 1: the two query nodes
// of the edge then map to v. Neither Port Town is within two hops of the
// other.
TEST(CandidatePlanTest, AWalkBackToItselfSupportsOnlyWithoutInjectivity) {
  graph::KnowledgeGraph::Builder b;
  const graph::NodeId port = b.AddNode("Port Town", "City");
  const graph::NodeId lone = b.AddNode("Port Town", "City");
  b.AddEdge(port, b.AddNode("Qwxv Jjk", "Thing"), "nearBy");
  b.AddEdge(lone, b.AddNode("Qwxv Farm", "Thing"), "owns");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  const text::SimilarityEnsemble ensemble;
  query::QueryGraph q;
  const int town = q.AddNode("Port Town");
  const int near = q.AddNode("Port Town");
  q.AddEdge(town, near);
  for (const int d : {1, 2}) {
    for (const bool injective : {true, false}) {
      MatchConfig cfg = TestConfig(d, injective);
      cfg.node_threshold = 0.9;
      const QueryScorer scorer(g, q, ensemble, cfg, &index);
      const std::string cell = "d=" + std::to_string(d) +
                               " injective=" + std::to_string(injective);
      const std::vector<graph::NodeId> want =
          d == 2 && !injective ? std::vector<graph::NodeId>{port, lone}
                               : std::vector<graph::NodeId>{};
      EXPECT_EQ(Ids(scorer.Candidates(town)), want) << cell;
      EXPECT_EQ(Ids(scorer.Candidates(near)), want) << cell;
      ExpectLists(scorer, Closure(g, q, ensemble, cfg, &index), cell);
    }
  }
}

}  // namespace
}  // namespace star::scoring
