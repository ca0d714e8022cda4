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

TEST(QueryScorerTest, CandidateScoreMembership) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad Pitt");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_DOUBLE_EQ(scorer.CandidateScore(u, 0), 1.0);
  // Academy Award shares no token with "Brad Pitt": not a candidate.
  EXPECT_LT(scorer.CandidateScore(u, 6), 0.0);
}

// CandidateScore's flat table against a linear scan of Candidates(u), for
// every node of the graph and kInvalidNode. Two query nodes share a
// representative (same label and type), and one leaf is an untyped
// wildcard, which short-circuits.
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
  const auto scan = [&](const QueryScorer& scorer, int u, graph::NodeId v) {
    if (u == any) return scorer.config().wildcard_node_score;
    for (const ScoredCandidate& c : scorer.Candidates(u)) {
      if (c.node == v) return c.score;
    }
    return -1.0;
  };
  QueryScorer scorer(g, q, ensemble, TestConfig(), &index);
  size_t members = 0;
  for (int u = 0; u < q.node_count(); ++u) {
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      const double got = scorer.CandidateScore(u, v);
      EXPECT_EQ(got, scan(scorer, u, v)) << "u=" << u << " v=" << v;
      if (got >= 0.0 && u != any) ++members;
    }
    EXPECT_EQ(scorer.CandidateScore(u, graph::kInvalidNode),
              u == any ? scorer.config().wildcard_node_score : -1.0)
        << "u=" << u;
  }
  // Both present and absent nodes were probed.
  EXPECT_GT(members, 100u);
  EXPECT_EQ(&scorer.Candidates(twin_a), &scorer.Candidates(twin_b));
}

TEST(QueryScorerTest, TruncatedCandidatesEqualFullSortPrefix) {
  // The max_candidates cut (nth_element + prefix sort) must agree with the
  // full sort under the (score desc, node asc) total order.
  const auto g = SmallRandomGraph(/*seed=*/23, /*nodes=*/48, /*edges=*/96);
  query::WorkloadGenerator wg(g, /*seed=*/9);
  const auto q = wg.RandomStarQuery(3, query::WorkloadOptions{});
  const auto full_cfg = TestConfig();
  ScorerFixture full(g, q, full_cfg, /*with_index=*/false);
  auto cut_cfg = full_cfg;
  cut_cfg.max_candidates = 5;
  ScorerFixture cut(g, q, cut_cfg, /*with_index=*/false);
  for (int u = 0; u < q.node_count(); ++u) {
    const CandidateList& expect = full.scorer->Candidates(u);
    const CandidateList& got = cut.scorer->Candidates(u);
    ASSERT_EQ(got.size(), std::min<size_t>(expect.size(), 5)) << "u=" << u;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].node, expect[i].node) << "u=" << u << " position " << i;
      EXPECT_EQ(got[i].score, expect[i].score)  // bitwise
          << "u=" << u << " position " << i;
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
  EXPECT_DOUBLE_EQ(scorer.EdgeScore(e, 0, 1), 1.0);
  EXPECT_DOUBLE_EQ(scorer.EdgeScore(e, 0, 2), 0.5);
  EXPECT_DOUBLE_EQ(scorer.EdgeScore(e, 0, 3), 0.25);
  EXPECT_DOUBLE_EQ(scorer.PathDecay(2), 0.5);
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

TEST(QueryScorerTest, EvaluationCounterGrows) {
  Fixture fx;
  const int u = fx.q.AddNode("Brad Pitt");
  QueryScorer scorer(fx.g, fx.q, fx.ensemble, TestConfig(), &fx.index);
  EXPECT_EQ(scorer.node_score_evaluations(), 0u);
  scorer.NodeScore(u, 1);
  EXPECT_EQ(scorer.node_score_evaluations(), 1u);
  scorer.NodeScore(u, 1);  // memoized
  EXPECT_EQ(scorer.node_score_evaluations(), 1u);
}

}  // namespace
}  // namespace star::scoring
