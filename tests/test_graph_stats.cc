#include "graph/graph_stats.h"

#include <gtest/gtest.h>

#include "graph/graph_generator.h"
#include "test_helpers.h"

namespace star::graph {
namespace {

TEST(GraphStatsTest, MovieGraphBasics) {
  const auto g = star::testing::MovieGraph();
  const auto s = ComputeGraphStats(g);
  EXPECT_EQ(s.nodes, g.node_count());
  EXPECT_EQ(s.edges, g.edge_count());
  EXPECT_EQ(s.types, g.type_count());
  EXPECT_EQ(s.connected_components, 1u);
  EXPECT_EQ(s.largest_component, g.node_count());
  EXPECT_GE(s.degree.max, s.degree.mean);
  EXPECT_GE(s.degree.mean, 1.0);
  // Sum of degrees = 2|E| -> mean = 2|E|/|V|.
  EXPECT_NEAR(s.degree.mean, 2.0 * g.edge_count() / g.node_count(), 1e-9);
}

TEST(GraphStatsTest, EmptyGraph) {
  KnowledgeGraph::Builder b;
  const auto s = ComputeGraphStats(std::move(b).Build());
  EXPECT_EQ(s.nodes, 0u);
  EXPECT_EQ(s.connected_components, 0u);
}

TEST(GraphStatsTest, DisconnectedComponentsCounted) {
  KnowledgeGraph::Builder b;
  const auto a = b.AddNode("A");
  const auto c = b.AddNode("B");
  b.AddNode("isolated");
  b.AddEdge(a, c, "r");
  const auto s = ComputeGraphStats(std::move(b).Build());
  EXPECT_EQ(s.connected_components, 2u);
  EXPECT_EQ(s.largest_component, 2u);
  EXPECT_EQ(s.degree.min, 0u);
}

TEST(GraphStatsTest, TopTypesAndRelations) {
  const auto g = star::testing::MovieGraph();
  const auto s = ComputeGraphStats(g, 2);
  ASSERT_EQ(s.top_types.size(), 2u);
  EXPECT_EQ(s.top_types[0].first, "Actor");  // three actors
  EXPECT_EQ(s.top_types[0].second, 3u);
  ASSERT_FALSE(s.top_relations.empty());
  EXPECT_EQ(s.top_relations[0].first, "actedIn");  // four actedIn edges
  EXPECT_EQ(s.top_relations[0].second, 4u);
}

TEST(GraphStatsTest, GeneratedGraphIsHeavyTailed) {
  GeneratorConfig cfg;
  cfg.num_nodes = 3000;
  cfg.num_edges = 12000;
  cfg.degree_skew = 0.9;
  const auto g = GenerateGraph(cfg);
  const auto s = ComputeGraphStats(g);
  // Hubs: p99 well above the median, and a clearly unequal distribution.
  EXPECT_GT(s.degree.p99, 3 * s.degree.median);
  EXPECT_GT(s.degree.gini, 0.3);
  EXPECT_EQ(s.connected_components, 1u);  // backbone
}

TEST(GraphStatsTest, DegreeHistogramCoversAllNodes) {
  const auto g = star::testing::SmallRandomGraph(3);
  const auto hist = DegreeHistogram(g);
  size_t total = 0;
  for (const size_t c : hist) total += c;
  EXPECT_EQ(total, g.node_count());
  ASSERT_FALSE(hist.empty());
}

TEST(GraphStatsTest, GiniIsZeroForRegularGraph) {
  // A cycle: every node has degree 2.
  KnowledgeGraph::Builder b;
  for (int i = 0; i < 10; ++i) {
    std::string label = "n";
    label += std::to_string(i);
    b.AddNode(label);
  }
  for (int i = 0; i < 10; ++i) {
    b.AddEdge(i, (i + 1) % 10, "r");
  }
  const auto s = ComputeGraphStats(std::move(b).Build());
  EXPECT_NEAR(s.degree.gini, 0.0, 1e-9);
  EXPECT_EQ(s.degree.min, s.degree.max);
}

}  // namespace
}  // namespace star::graph
