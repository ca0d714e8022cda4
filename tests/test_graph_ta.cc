#include "baseline/graph_ta.h"

#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "core/framework.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::baseline {
namespace {

using star::testing::MovieGraph;
using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

TEST(GraphTaTest, ExactEntityLookup) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int b = q.AddNode("Troy");
  q.AddEdge(a, b, "actedIn");
  ScorerFixture fx(g, q, TestConfig());
  GraphTa ta(*fx.scorer);
  const auto top = ta.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0].mapping[a]), "Brad Pitt");
  EXPECT_EQ(g.NodeLabel(top[0].mapping[b]), "Troy");
  EXPECT_NEAR(top[0].score, 3.0, 1e-9);
}

// "Brad" and "Award" are two hops apart through a film (Brad Pitt -
// Boyhood - Academy Award, Brad Garrett - Troy - Golden Globe Award), so
// the query has matches at d = 2 and graphTA has work to count.
TEST(GraphTaTest, StatsTrackWork) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad");
  const int b = q.AddNode("Award");
  q.AddEdge(a, b);
  ScorerFixture fx(g, q, TestConfig(2));
  GraphTa ta(*fx.scorer);
  EXPECT_FALSE(ta.TopK(3).empty());
  EXPECT_GT(ta.stats().cursor_steps, 0u);
  EXPECT_GT(ta.stats().expansions, 0u);
  EXPECT_GT(ta.stats().partial_states, 0u);
}

struct TaCase {
  int seed;
  int d;
  bool star_query;
  bool injective;
};

class GraphTaEquivalence : public ::testing::TestWithParam<TaCase> {};

TEST_P(GraphTaEquivalence, MatchesBruteForce) {
  const auto p = GetParam();
  const auto g = SmallRandomGraph(p.seed, 20, 40);
  query::WorkloadGenerator wg(g, p.seed * 13 + 1);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q = p.star_query ? wg.RandomStarQuery(3, wo)
                              : wg.RandomGraphQuery(4, 4, wo);
  const auto cfg = TestConfig(p.d, p.injective);
  const size_t k = 5;

  ScorerFixture fx(g, q, cfg);
  const auto expected = BruteForceTopK(*fx.scorer, k);
  ScorerFixture fx2(g, q, cfg);
  GraphTa ta(*fx2.scorer);
  const auto got = ta.TopK(k);
  ASSERT_EQ(got.size(), expected.size())
      << "seed=" << p.seed << " d=" << p.d << " q=" << q.ToString();
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].score, expected[i].score, 1e-9)
        << "i=" << i << " seed=" << p.seed << " q=" << q.ToString();
  }
}

std::vector<TaCase> TaCases() {
  std::vector<TaCase> cases;
  for (int seed = 0; seed < 8; ++seed) {
    cases.push_back({seed, 1, seed % 2 == 0, true});
    cases.push_back({seed, 2, seed % 2 == 1, true});
    if (seed % 3 == 0) cases.push_back({seed, 1, true, false});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, GraphTaEquivalence,
                         ::testing::ValuesIn(TaCases()));

TEST(GraphTaTest, AgreesWithStarFrameworkOnGeneralQuery) {
  const auto g = SmallRandomGraph(42, 22, 44);
  query::WorkloadGenerator wg(g, 9);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q = wg.RandomGraphQuery(4, 5, wo);
  const auto cfg = TestConfig(2);
  const size_t k = 6;

  ScorerFixture fx(g, q, cfg);
  GraphTa ta(*fx.scorer);
  const auto ta_result = ta.TopK(k);

  text::SimilarityEnsemble ensemble;
  graph::LabelIndex index(g);
  core::StarOptions opts;
  opts.match = cfg;
  core::StarFramework fw(g, ensemble, &index, opts);
  const auto star_result = fw.TopK(q, k);

  ASSERT_EQ(ta_result.size(), star_result.size());
  for (size_t i = 0; i < ta_result.size(); ++i) {
    EXPECT_NEAR(ta_result[i].score, star_result[i].score, 1e-9) << "i=" << i;
  }
}

TEST(GraphTaTest, EmptyQueryAndZeroK) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  ScorerFixture fx(g, q, TestConfig());
  GraphTa ta(*fx.scorer);
  EXPECT_TRUE(ta.TopK(5).empty());
  query::QueryGraph q2;
  q2.AddNode("Brad");
  ScorerFixture fx2(g, q2, TestConfig());
  GraphTa ta2(*fx2.scorer);
  EXPECT_TRUE(ta2.TopK(0).empty());
}

}  // namespace
}  // namespace star::baseline
