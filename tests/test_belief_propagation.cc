#include "baseline/belief_propagation.h"

#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::baseline {
namespace {

using star::testing::MovieGraph;
using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

TEST(BeliefPropagationTest, ExactEntityLookup) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int b = q.AddNode("Troy");
  q.AddEdge(a, b, "actedIn");
  ScorerFixture fx(g, q, TestConfig());
  BeliefPropagation bp(*fx.scorer, {});
  const auto top = bp.TopK(1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0].mapping[a]), "Brad Pitt");
  EXPECT_NEAR(top[0].score, 3.0, 1e-9);
}

// The paper: "For acyclic queries, BP outputs the exact top-k matches."
class BpTreeExactness : public ::testing::TestWithParam<int> {};

TEST_P(BpTreeExactness, ExactOnTrees) {
  const int seed = GetParam();
  const auto g = SmallRandomGraph(seed, 18, 36);
  query::WorkloadGenerator wg(g, seed * 7 + 5);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q =
      seed % 2 == 0 ? wg.RandomStarQuery(3, wo) : wg.RandomPathQuery(3, wo);
  if (!q.IsTree()) GTEST_SKIP();
  for (const bool injective : {true, false}) {
    const auto cfg = TestConfig(seed % 2 + 1, injective);
    const size_t k = 4;
    ScorerFixture fx(g, q, cfg);
    const auto expected = BruteForceTopK(*fx.scorer, k);
    ScorerFixture fx2(g, q, cfg);
    BeliefPropagation bp(*fx2.scorer, {});
    const auto got = bp.TopK(k);
    ASSERT_EQ(got.size(), expected.size())
        << "seed=" << seed << " injective=" << injective
        << " q=" << q.ToString();
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].score, expected[i].score, 1e-9)
          << "i=" << i << " seed=" << seed << " injective=" << injective;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BpTreeExactness, ::testing::Range(0, 10));

TEST(BeliefPropagationTest, CyclicQueriesReturnValidMatches) {
  const auto g = SmallRandomGraph(5, 20, 44);
  query::WorkloadGenerator wg(g, 23);
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.0;
  const auto q = wg.RandomGraphQuery(4, 5, wo);
  if (q.IsTree()) GTEST_SKIP();
  const auto cfg = TestConfig(1);
  ScorerFixture fx(g, q, cfg);
  BeliefPropagation bp(*fx.scorer, {});
  const auto got = bp.TopK(5);
  // No completeness guarantee, but everything returned must be a valid
  // match no better than the true optimum.
  ScorerFixture fx2(g, q, cfg);
  const auto best = BruteForceTopK(*fx2.scorer, 1);
  for (const auto& m : got) {
    EXPECT_TRUE(m.Complete());
    EXPECT_TRUE(m.Injective());
    if (!best.empty()) {
      EXPECT_LE(m.score, best[0].score + 1e-9);
    }
  }
}

TEST(BeliefPropagationTest, DomainCapLimitsDomains) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad");
  const int b = q.AddWildcardNode();
  q.AddEdge(a, b);
  // d = 2 so that even a tiny domain cap leaves connectable candidates
  // (the two Brads are two hops apart through Troy).
  ScorerFixture fx(g, q, TestConfig(2));
  BpOptions opts;
  opts.domain_cap = 2;
  BeliefPropagation bp(*fx.scorer, opts);
  const auto got = bp.TopK(3);
  EXPECT_FALSE(got.empty());
}

TEST(BeliefPropagationTest, StatsCountMapCalls) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int b = q.AddNode("Boyhood");
  q.AddEdge(a, b);
  ScorerFixture fx(g, q, TestConfig());
  BeliefPropagation bp(*fx.scorer, {});
  bp.TopK(2);
  EXPECT_GT(bp.stats().map_calls, 0u);
  EXPECT_GT(bp.stats().message_updates, 0u);
  EXPECT_FALSE(bp.stats().timed_out);
}

// The budget starts on entry to TopK, so a spent budget stops the call
// before its first MAP: one tree MAP at d = 3 can otherwise outlast the
// whole budget.
TEST(BeliefPropagationTest, BudgetCoversTheFirstMap) {
  const auto g = MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int b = q.AddNode("Boyhood");
  q.AddEdge(a, b);
  ScorerFixture fx(g, q, TestConfig());
  BpOptions opts;
  opts.budget_ms = 1e-6;
  BeliefPropagation bp(*fx.scorer, opts);
  EXPECT_TRUE(bp.TopK(2).empty());
  EXPECT_TRUE(bp.stats().timed_out);
  EXPECT_EQ(bp.stats().map_calls, 0u);
  EXPECT_EQ(bp.stats().message_updates, 0u);
}

}  // namespace
}  // namespace star::baseline
