#include "core/decomposition.h"

#include <vector>

#include <gtest/gtest.h>

#include "query/workload.h"
#include "test_helpers.h"

namespace star::core {
namespace {

using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

query::QueryGraph TriangleQuery() {
  query::QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  q.AddEdge(a, c);
  return q;
}

query::QueryGraph DoubleStarQuery() {
  // Two hubs joined by a bridge: 0-1, 0-2, 0-3, 3-4, 3-5.
  query::QueryGraph q;
  for (int i = 0; i < 6; ++i) {
    std::string label = "n";
    label += std::to_string(i);
    q.AddNode(label);
  }
  q.AddEdge(0, 1);
  q.AddEdge(0, 2);
  q.AddEdge(0, 3);
  q.AddEdge(3, 4);
  q.AddEdge(3, 5);
  return q;
}

TEST(DecompositionTest, StarQueryIsSingleStar) {
  query::QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  q.AddEdge(a, b);
  q.AddEdge(a, c);
  DecompositionOptions opts;
  const auto stars = DecomposeQuery(q, opts, nullptr);
  ASSERT_EQ(stars.size(), 1u);
  EXPECT_EQ(stars[0].pivot, a);
  EXPECT_TRUE(IsValidDecomposition(q, stars));
}

TEST(DecompositionTest, SingleNodeQuery) {
  query::QueryGraph q;
  q.AddNode("A");
  DecompositionOptions opts;
  const auto stars = DecomposeQuery(q, opts, nullptr);
  ASSERT_EQ(stars.size(), 1u);
  EXPECT_TRUE(stars[0].edges.empty());
  EXPECT_TRUE(IsValidDecomposition(q, stars));
}

TEST(DecompositionTest, TriangleNeedsTwoStars) {
  const auto q = TriangleQuery();
  for (const auto strategy :
       {DecompositionStrategy::kRand, DecompositionStrategy::kMaxDeg,
        DecompositionStrategy::kSimSize}) {
    DecompositionOptions opts;
    opts.strategy = strategy;
    const auto stars = DecomposeQuery(q, opts, nullptr);
    EXPECT_TRUE(IsValidDecomposition(q, stars))
        << "strategy=" << static_cast<int>(strategy);
    // A triangle's minimum vertex cover has size 2; the enumerating
    // strategies must find it, the greedy ones must stay valid.
    if (strategy == DecompositionStrategy::kSimSize) {
      EXPECT_EQ(stars.size(), 2u);
    }
  }
}

TEST(DecompositionTest, DoubleStarUsesHubs) {
  const auto q = DoubleStarQuery();
  DecompositionOptions opts;
  opts.strategy = DecompositionStrategy::kSimSize;
  const auto stars = DecomposeQuery(q, opts, nullptr);
  ASSERT_EQ(stars.size(), 2u);
  EXPECT_TRUE(IsValidDecomposition(q, stars));
  // The two hubs 0 and 3 are the unique minimum cover.
  std::vector<int> pivots = {stars[0].pivot, stars[1].pivot};
  std::sort(pivots.begin(), pivots.end());
  EXPECT_EQ(pivots, (std::vector<int>{0, 3}));
}

TEST(DecompositionTest, SimSizeBalancesSharedEdges) {
  const auto q = DoubleStarQuery();
  DecompositionOptions opts;
  opts.strategy = DecompositionStrategy::kSimSize;
  const auto stars = DecomposeQuery(q, opts, nullptr);
  ASSERT_EQ(stars.size(), 2u);
  // 5 edges over two stars: balanced split is 3/2 (the bridge edge 0-3
  // goes to the smaller star).
  const size_t a = stars[0].edges.size();
  const size_t b = stars[1].edges.size();
  EXPECT_EQ(a + b, 5u);
  EXPECT_LE(std::max(a, b) - std::min(a, b), 1u);
}

TEST(DecompositionTest, SampledStrategiesProduceValidDecompositions) {
  const auto g = SmallRandomGraph(17, 24, 50);
  query::WorkloadGenerator wg(g, 3);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q = wg.RandomGraphQuery(5, 6, wo);
  ScorerFixture fx(g, q, TestConfig());
  for (const auto strategy :
       {DecompositionStrategy::kSimTop, DecompositionStrategy::kSimDec}) {
    DecompositionOptions opts;
    opts.strategy = strategy;
    const auto stars = DecomposeQuery(q, opts, fx.scorer.get());
    EXPECT_TRUE(IsValidDecomposition(q, stars))
        << "strategy=" << static_cast<int>(strategy);
  }
}

class DecompositionValidity
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DecompositionValidity, AllStrategiesAllSeeds) {
  const int seed = std::get<0>(GetParam());
  const int strat = std::get<1>(GetParam());
  const auto g = SmallRandomGraph(seed, 24, 50);
  query::WorkloadGenerator wg(g, seed + 100);
  query::WorkloadOptions wo;
  const auto q = wg.RandomGraphQuery(3 + seed % 4, 4 + seed % 4, wo);
  ScorerFixture fx(g, q, TestConfig());
  DecompositionOptions opts;
  opts.strategy = static_cast<DecompositionStrategy>(strat);
  opts.seed = seed;
  const auto stars = DecomposeQuery(q, opts, fx.scorer.get());
  EXPECT_TRUE(IsValidDecomposition(q, stars))
      << "seed=" << seed << " strat=" << strat << " q=" << q.ToString();
}

INSTANTIATE_TEST_SUITE_P(Sweep, DecompositionValidity,
                         ::testing::Combine(::testing::Range(0, 10),
                                            ::testing::Range(0, 5)));

TEST(DecompositionTest, ValidityCheckerRejectsBadDecompositions) {
  const auto q = TriangleQuery();
  // Missing edge coverage.
  EXPECT_FALSE(IsValidDecomposition(q, {query::StarQuery{0, {0}}}));
  // Double coverage.
  EXPECT_FALSE(IsValidDecomposition(
      q, {query::StarQuery{0, {0, 2}}, query::StarQuery{1, {0, 1}}}));
  // Edge not incident to pivot (edge 1 = (1,2), pivot 0).
  EXPECT_FALSE(IsValidDecomposition(
      q, {query::StarQuery{0, {0, 1, 2}}}));
  // Empty star.
  EXPECT_FALSE(IsValidDecomposition(
      q, {query::StarQuery{0, {0, 2}}, query::StarQuery{1, {1}},
          query::StarQuery{2, {}}}));
}

TEST(DecompositionTest, LargeQueryFallsBackToGreedy) {
  // A 20-node path exceeds max_enumeration_nodes=16.
  query::QueryGraph q;
  for (int i = 0; i < 20; ++i) {
    std::string label = "n";
    label += std::to_string(i);
    q.AddNode(label);
  }
  for (int i = 1; i < 20; ++i) q.AddEdge(i - 1, i);
  DecompositionOptions opts;
  opts.strategy = DecompositionStrategy::kSimSize;
  const auto stars = DecomposeQuery(q, opts, nullptr);
  EXPECT_TRUE(IsValidDecomposition(q, stars));
}

}  // namespace
}  // namespace star::core
