#include "core/star_search.h"

#include <cmath>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::core {
namespace {

using star::testing::MovieGraph;
using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

std::vector<double> Scores(const std::vector<StarMatch>& ms) {
  std::vector<double> out;
  for (const auto& m : ms) out.push_back(m.score);
  return out;
}

TEST(MakeStarQueryTest, PicksCoveringPivot) {
  query::QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  q.AddEdge(a, b);
  q.AddEdge(a, c);
  const auto star = MakeStarQuery(q);
  EXPECT_EQ(star.pivot, a);
  EXPECT_EQ(star.edges.size(), 2u);
}

TEST(StarSearchTest, MovieGraphTopMatchIsExactEntity) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int pivot = q.AddNode("Brad Pitt", "Actor");
  const int movie = q.AddNode("Boyhood", "Film");
  q.AddEdge(pivot, movie, "actedIn");
  ScorerFixture fx(g, q, TestConfig());
  StarSearch search(*fx.scorer, MakeStarQuery(q), {});
  const auto top = search.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0].pivot), "Brad Pitt");
  ASSERT_EQ(top[0].leaves.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0].leaves[0]), "Boyhood");
  // Exact node matches (1.0 each) plus exact relation match (1.0).
  EXPECT_NEAR(top[0].score, 3.0, 1e-9);
}

TEST(StarSearchTest, DBoundedEdgeReachesAwardThroughMovie) {
  const auto g = MovieGraph();
  // movie maker --(won)-- award, where the director's award connection
  // goes through the movie (2 hops) for Boyhood's Academy Award.
  query::QueryGraph q;
  const int maker = q.AddNode("Richard Linklater", "Director");
  const int award = q.AddNode("Academy Award", "Award");
  q.AddEdge(maker, award);
  {
    // d = 1: only the direct Golden Globe edge qualifies for Richard.
    ScorerFixture fx(g, q, TestConfig(/*d=*/1));
    StarSearch search(*fx.scorer, MakeStarQuery(q), {});
    const auto top = search.TopK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(g.NodeLabel(top[0].pivot), "Richard Linklater");
    EXPECT_EQ(g.NodeLabel(top[0].leaves[0]), "Golden Globe Award");
  }
  {
    // d = 2: the Academy Award (exact label match, via Boyhood) wins:
    // 1.0 + 1.0 + lambda = 2.5 vs Golden Globe's partial label match.
    ScorerFixture fx(g, q, TestConfig(/*d=*/2));
    StarSearch search(*fx.scorer, MakeStarQuery(q), {});
    const auto top = search.TopK(1);
    ASSERT_EQ(top.size(), 1u);
    EXPECT_EQ(g.NodeLabel(top[0].leaves[0]), "Academy Award");
    EXPECT_NEAR(top[0].score, 2.0 + 0.5, 1e-9);
  }
}

TEST(StarSearchTest, ScoresNeverIncrease) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int pivot = q.AddNode("Brad");
  const int movie = q.AddNode("Troy", "Film");
  q.AddEdge(pivot, movie);
  ScorerFixture fx(g, q, TestConfig(2));
  for (const auto strategy : {StarStrategy::kStark, StarStrategy::kStard}) {
    StarSearch::Options so;
    so.strategy = strategy;
    StarSearch search(*fx.scorer, MakeStarQuery(q), so);
    double prev = 1e18;
    while (auto m = search.Next()) {
      EXPECT_LE(m->score, prev + 1e-12);
      prev = m->score;
    }
  }
}

TEST(StarSearchTest, InjectiveMatchesHaveDistinctNodes) {
  const auto g = SmallRandomGraph(3);
  query::WorkloadGenerator wg(g, 99);
  query::WorkloadOptions wo;
  const auto q = wg.RandomStarQuery(4, wo);
  ScorerFixture fx(g, q, TestConfig(2, /*injective=*/true));
  StarSearch search(*fx.scorer, MakeStarQuery(q), {});
  for (const auto& m : search.TopK(20)) {
    std::vector<graph::NodeId> all = m.leaves;
    all.push_back(m.pivot);
    std::sort(all.begin(), all.end());
    EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  }
}

// ---------------------------------------------------------------------------
// Randomized equivalence: stark == stard == brute force, across d, k,
// injectivity, and seeds.
// ---------------------------------------------------------------------------

// gtest names each case after the raw bytes of its EquivCase, so the struct
// must have no padding: padding bytes are uninitialised and would give a case
// a different name from run to run. Hence `injective` is an int (0 or 1).
struct EquivCase {
  int seed;
  int d;
  int injective;
};
static_assert(std::has_unique_object_representations_v<EquivCase>);

class StarEquivalence : public ::testing::TestWithParam<EquivCase> {};

TEST_P(StarEquivalence, MatchesBruteForce) {
  const auto p = GetParam();
  const auto g = SmallRandomGraph(p.seed);
  query::WorkloadGenerator wg(g, p.seed * 31 + 7);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.2;
  const int num_nodes = 2 + (p.seed % 3);
  const auto q = wg.RandomStarQuery(num_nodes, wo);
  ASSERT_TRUE(q.IsStar());
  const auto cfg = TestConfig(p.d, p.injective != 0);
  const size_t k = 5;

  ScorerFixture fx(g, q, cfg);
  const auto expected = baseline::BruteForceTopK(*fx.scorer, k);

  for (const auto strategy : {StarStrategy::kStark, StarStrategy::kStard,
                              StarStrategy::kHybrid}) {
    ScorerFixture fx2(g, q, cfg);
    StarSearch::Options so;
    so.strategy = strategy;
    StarSearch search(*fx2.scorer, MakeStarQuery(q), so);
    const auto got = search.TopK(k);
    ASSERT_EQ(got.size(), expected.size())
        << "strategy=" << static_cast<int>(strategy) << " d=" << p.d
        << " seed=" << p.seed << " q=" << q.ToString();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].score, expected[i].score, 1e-9)
          << "i=" << i << " strategy=" << static_cast<int>(strategy)
          << " d=" << p.d << " seed=" << p.seed << " q=" << q.ToString();
    }
  }
}

std::vector<EquivCase> EquivCases() {
  std::vector<EquivCase> cases;
  for (int seed = 0; seed < 12; ++seed) {
    for (int d = 1; d <= 3; ++d) {
      cases.push_back({seed, d, 1});
      cases.push_back({seed, d, 0});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, StarEquivalence,
                         ::testing::ValuesIn(EquivCases()));

TEST(StarSearchTest, KHintPruningPreservesResults) {
  const auto g = SmallRandomGraph(11);
  query::WorkloadGenerator wg(g, 5);
  const auto q = wg.RandomStarQuery(3, {});
  ScorerFixture fx(g, q, TestConfig(2));
  const size_t k = 4;
  StarSearch::Options exact_opts;
  StarSearch exact(*fx.scorer, MakeStarQuery(q), exact_opts);
  ScorerFixture fx2(g, q, TestConfig(2));
  StarSearch::Options pruned_opts;
  pruned_opts.k_hint = k;
  StarSearch pruned(*fx2.scorer, MakeStarQuery(q), pruned_opts);
  EXPECT_TRUE(star::testing::ScoresMatch(Scores(exact.TopK(k)),
                                         Scores(pruned.TopK(k))));
}

TEST(StarSearchTest, UpperBoundDominatesEmissions) {
  const auto g = SmallRandomGraph(21);
  query::WorkloadGenerator wg(g, 13);
  const auto q = wg.RandomStarQuery(3, {});
  ScorerFixture fx(g, q, TestConfig(2));
  StarSearch::Options so;
  so.strategy = StarStrategy::kStard;
  StarSearch search(*fx.scorer, MakeStarQuery(q), so);
  while (true) {
    const double ub = search.UpperBound();
    const auto m = search.Next();
    if (!m.has_value()) break;
    EXPECT_GE(ub + 1e-9, m->score);
  }
}

TEST(StarSearchTest, StatsArepopulated) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int pivot = q.AddNode("Brad");
  const int movie = q.AddNode("Troy");
  q.AddEdge(pivot, movie);
  {
    ScorerFixture fx(g, q, TestConfig(2));
    StarSearch::Options so;
    so.strategy = StarStrategy::kStark;
    StarSearch s(*fx.scorer, MakeStarQuery(q), so);
    s.TopK(3);
    EXPECT_GT(s.stats().pivot_candidates, 0u);
    EXPECT_GT(s.stats().enumerators_built, 0u);
    EXPECT_GT(s.stats().nodes_expanded, 0u);
    EXPECT_EQ(s.stats().messages_sent, 0u);  // stark sends no messages
  }
  {
    ScorerFixture fx(g, q, TestConfig(2));
    StarSearch::Options so;
    so.strategy = StarStrategy::kStard;
    StarSearch s(*fx.scorer, MakeStarQuery(q), so);
    s.TopK(3);
    EXPECT_GT(s.stats().messages_sent, 0u);
    // stard builds enumerators lazily: no more than candidates.
    EXPECT_LE(s.stats().enumerators_built, s.stats().pivot_candidates);
  }
}

TEST(StarSearchTest, StarkBuildsNoMoreEnumeratorsThanHybrid) {
  const auto g = SmallRandomGraph(31, 60, 140);
  query::WorkloadGenerator wg(g, 17);
  query::WorkloadOptions wo;
  wo.partial_label = 1.0;  // ambiguous pivots -> many candidates
  wo.variable_fraction = 0.0;
  const auto q = wg.RandomStarQuery(3, wo);
  for (const int d : {1, 2}) {
    const auto cfg = TestConfig(d);
    ScorerFixture fx1(g, q, cfg);
    StarSearch::Options stark_opts;
    stark_opts.strategy = StarStrategy::kStark;
    StarSearch stark(*fx1.scorer, MakeStarQuery(q), stark_opts);
    const auto stark_top = stark.TopK(3);

    ScorerFixture fx2(g, q, cfg);
    StarSearch::Options hybrid_opts;
    hybrid_opts.strategy = StarStrategy::kHybrid;
    StarSearch hybrid(*fx2.scorer, MakeStarQuery(q), hybrid_opts);
    const auto hybrid_top = hybrid.TopK(3);

    ASSERT_EQ(stark_top.size(), hybrid_top.size()) << "d=" << d;
    ASSERT_FALSE(stark_top.empty()) << "d=" << d;
    for (size_t i = 0; i < stark_top.size(); ++i) {
      EXPECT_EQ(stark_top[i].score, hybrid_top[i].score) << "d=" << d;
    }
    // Both build enumerators only for the pivots they activate. stark
    // activates by exact top-1 scores, the hybrid by looser closed-form
    // bounds, so stark never needs more (its top-1 pass builds one only
    // for a colliding first state, and this query has none).
    EXPECT_LE(stark.stats().enumerators_built,
              hybrid.stats().enumerators_built)
        << "d=" << d;
    EXPECT_LT(stark.stats().enumerators_built,
              stark.stats().pivot_candidates)
        << "d=" << d;
  }
}

// stark's initialization at d >= 2 scores a leaf only when some pivot
// reaches it: a pivot's top-1 scan stops at its first empty leaf list.
// Here no leaf candidate is within two hops of a pivot candidate, so every
// scan stops at the first leaf in canonical edge order and no other leaf
// is ever scored. (At d <= 1 the first Candidates() call builds every
// list; stard at d >= 2 propagates from every leaf.)
TEST(StarSearchTest, InitScoresLeavesLazily) {
  graph::KnowledgeGraph::Builder b;
  for (const char* town : {"Port Town North", "Port Town South"}) {
    const graph::NodeId t = b.AddNode(town, "City");
    b.AddEdge(t, b.AddNode("Qwxv Jjk", "Thing"), "near");
  }
  const graph::NodeId ada = b.AddNode("Ada Lovelace", "Person");
  const graph::NodeId homer = b.AddNode("Homer Simpson", "Person");
  const graph::NodeId carl = b.AddNode("Carl Gauss", "Person");
  b.AddEdge(ada, homer, "knows");
  b.AddEdge(homer, carl, "knows");
  const auto g = std::move(b).Build();
  query::QueryGraph q;
  const int pivot = q.AddNode("Port Town");
  for (const char* leaf : {"Ada Lovelace", "Homer Simpson", "Carl Gauss"}) {
    q.AddEdge(pivot, q.AddNode(leaf));
  }
  ScorerFixture fx(g, q, TestConfig(/*d=*/2));
  StarSearch::Options so;
  so.strategy = StarStrategy::kStark;
  StarSearch search(*fx.scorer, MakeStarQuery(q), so);
  EXPECT_TRUE(search.TopK(5).empty());
  EXPECT_GE(search.stats().pivot_candidates, 2u);
  const std::vector<int>& edges = search.star().edges;
  ASSERT_EQ(edges.size(), 3u);
  for (size_t i = 0; i < edges.size(); ++i) {
    const int leaf = q.OtherEnd(edges[i], pivot);
    EXPECT_EQ(fx.scorer->ScoredInfo(leaf).scored, i == 0)
        << "leaf " << q.node(leaf).label << " at edge position " << i;
  }
  // Every leaf has candidates: only laziness left them unscored.
  for (int leaf = 1; leaf < q.node_count(); ++leaf) {
    EXPECT_FALSE(fx.scorer->Candidates(leaf).empty()) << "leaf " << leaf;
  }
}

TEST(StarSearchTest, WildcardLeafMatchesAnyNeighbor) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int pivot = q.AddNode("Brad Pitt");
  const int any = q.AddWildcardNode();
  q.AddEdge(pivot, any);
  ScorerFixture fx(g, q, TestConfig(1));
  StarSearch search(*fx.scorer, MakeStarQuery(q), {});
  const auto top = search.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  // Exact pivot (1.0) + wildcard leaf (1.0) + wildcard relation (1.0).
  EXPECT_NEAR(top[0].score, 3.0, 1e-9);
}

}  // namespace
}  // namespace star::core
