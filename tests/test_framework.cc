#include "core/framework.h"

#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::core {
namespace {

using star::testing::MovieGraph;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

StarOptions MakeOptions(scoring::MatchConfig cfg,
                        DecompositionStrategy strategy,
                        StarStrategy engine = StarStrategy::kStard,
                        double alpha = 0.5) {
  StarOptions o;
  o.strategy = engine;
  o.match = cfg;
  o.decomposition.strategy = strategy;
  o.alpha = alpha;
  return o;
}

TEST(StarFrameworkTest, StarQueryBypassesJoin) {
  const auto g = MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  StarFramework fw(g, ensemble, &index, MakeOptions(TestConfig(), DecompositionStrategy::kSimSize));
  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int b = q.AddNode("Troy");
  q.AddEdge(a, b);
  const auto top = fw.TopK(q, 3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(fw.last_stats().num_stars, 1u);
  EXPECT_TRUE(top[0].Complete());
}

TEST(StarFrameworkTest, Figure1StyleQuery) {
  const auto g = MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  // movie maker -- Brad, movie maker -- award, Brad -- movie maker: the
  // intro's example, phrased as a triangle-free 3-node path query.
  query::QueryGraph q;
  const int brad = q.AddNode("Brad");
  const int maker = q.AddWildcardNode("Director");
  const int award = q.AddNode("Award");
  q.AddEdge(brad, maker);
  q.AddEdge(maker, award);
  StarFramework fw(g, ensemble, &index,
                   MakeOptions(TestConfig(2), DecompositionStrategy::kMaxDeg));
  const auto top = fw.TopK(q, 5);
  ASSERT_FALSE(top.empty());
  // The wildcard director with both a Brad co-worker and an award within
  // two hops is Richard Linklater.
  EXPECT_EQ(g.NodeLabel(top[0].mapping[maker]), "Richard Linklater");
}

struct FrameworkCase {
  int seed;
  int d;
  DecompositionStrategy strategy;
  StarStrategy engine;
  double alpha;
};

class FrameworkEquivalence : public ::testing::TestWithParam<FrameworkCase> {};

TEST_P(FrameworkEquivalence, MatchesBruteForceOnGeneralQueries) {
  const auto p = GetParam();
  const auto g = SmallRandomGraph(p.seed, 20, 44);
  query::WorkloadGenerator wg(g, p.seed * 17 + 3);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;  // keep brute force small
  // Draw until the query needs a join: connected, 3+ nodes, not a star.
  // The first draw usually qualifies, so most cells keep their query.
  query::QueryGraph q = wg.RandomGraphQuery(4, 5, wo);
  for (int draw = 1; !q.IsConnected() || q.node_count() < 3 || q.IsStar();
       ++draw) {
    ASSERT_LT(draw, 50) << "no general query in 50 draws, seed=" << p.seed;
    q = wg.RandomGraphQuery(4, 5, wo);
  }
  const auto cfg = TestConfig(p.d);
  const size_t k = 5;

  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  scoring::QueryScorer oracle_scorer(g, q, ensemble, cfg, &index);
  const auto expected = baseline::BruteForceTopK(oracle_scorer, k);

  StarFramework fw(g, ensemble, &index,
                   MakeOptions(cfg, p.strategy, p.engine, p.alpha));
  const auto got = fw.TopK(q, k);
  ASSERT_EQ(got.size(), expected.size())
      << "seed=" << p.seed << " d=" << p.d << " q=" << q.ToString();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, expected[i].score, 1e-9)
        << "i=" << i << " seed=" << p.seed << " d=" << p.d
        << " strat=" << static_cast<int>(p.strategy)
        << " alpha=" << p.alpha << " q=" << q.ToString();
    EXPECT_TRUE(got[i].Complete());
    EXPECT_TRUE(got[i].Injective());
  }
  EXPECT_GE(fw.last_stats().num_stars, 2u);
  EXPECT_GT(fw.last_stats().total_depth, 0u);
}

std::vector<FrameworkCase> FrameworkCases() {
  std::vector<FrameworkCase> cases;
  const DecompositionStrategy strategies[] = {
      DecompositionStrategy::kRand, DecompositionStrategy::kMaxDeg,
      DecompositionStrategy::kSimSize, DecompositionStrategy::kSimTop,
      DecompositionStrategy::kSimDec};
  int i = 0;
  for (int seed = 1; seed <= 10; ++seed) {
    for (int d = 1; d <= 2; ++d) {
      const auto strategy = strategies[i++ % 5];
      const double alpha = 0.1 + 0.2 * (i % 5);
      const auto engine =
          i % 2 == 0 ? StarStrategy::kStark : StarStrategy::kStard;
      cases.push_back({seed, d, strategy, engine, alpha});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FrameworkEquivalence,
                         ::testing::ValuesIn(FrameworkCases()));

TEST(StarFrameworkTest, AlphaDoesNotChangeResults) {
  const auto g = SmallRandomGraph(77, 20, 40);
  query::WorkloadGenerator wg(g, 8);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q = wg.RandomGraphQuery(4, 4, wo);
  if (q.IsStar()) GTEST_SKIP();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  std::vector<double> reference;
  for (const double alpha : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    StarFramework fw(
        g, ensemble, &index,
        MakeOptions(TestConfig(1), DecompositionStrategy::kSimSize,
                    StarStrategy::kStard, alpha));
    const auto got = fw.TopK(q, 4);
    std::vector<double> scores;
    for (const auto& m : got) scores.push_back(m.score);
    if (reference.empty()) {
      reference = scores;
    } else {
      ASSERT_TRUE(star::testing::ScoresMatch(reference, scores, 1e-9))
          << "alpha=" << alpha;
    }
  }
}

TEST(StarFrameworkTest, EmptyQueryYieldsNothing) {
  const auto g = MovieGraph();
  text::SimilarityEnsemble ensemble;
  StarFramework fw(g, ensemble, nullptr,
                   MakeOptions(TestConfig(), DecompositionStrategy::kMaxDeg));
  EXPECT_TRUE(fw.TopK(query::QueryGraph(), 5).empty());
}

TEST(StarFrameworkTest, SingleNodeQuery) {
  const auto g = MovieGraph();
  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  StarFramework fw(g, ensemble, &index,
                   MakeOptions(TestConfig(), DecompositionStrategy::kMaxDeg));
  query::QueryGraph q;
  q.AddNode("Brad Pitt");
  const auto top = fw.TopK(q, 2);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(g.NodeLabel(top[0].mapping[0]), "Brad Pitt");
  EXPECT_NEAR(top[0].score, 1.0, 1e-9);
}

}  // namespace
}  // namespace star::core
