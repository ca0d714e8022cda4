// The read-only data plane: Build() must leave no capacity slack behind in
// the graph or its index, and the loader must round-trip a large graph.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "test_helpers.h"

namespace star {
namespace {

using graph::KnowledgeGraph;
using graph::LabelIndex;
using star::testing::SmallRandomGraph;

void ExpectSameStructure(const KnowledgeGraph& a, const KnowledgeGraph& b) {
  ASSERT_EQ(a.node_count(), b.node_count());
  ASSERT_EQ(a.edge_count(), b.edge_count());
  ASSERT_EQ(a.type_count(), b.type_count());
  ASSERT_EQ(a.relation_count(), b.relation_count());
  for (graph::NodeId v = 0; v < a.node_count(); ++v) {
    EXPECT_EQ(a.NodeLabel(v), b.NodeLabel(v)) << "node " << v;
    EXPECT_EQ(a.NodeType(v), b.NodeType(v)) << "node " << v;
    ASSERT_EQ(a.Degree(v), b.Degree(v)) << "node " << v;
    const auto na = a.Neighbors(v);
    const auto nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "node " << v;
    for (size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]) << "node " << v << " entry " << i;
    }
  }
  for (graph::EdgeId e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.EdgeSrc(e), b.EdgeSrc(e));
    EXPECT_EQ(a.EdgeDst(e), b.EdgeDst(e));
    EXPECT_EQ(a.EdgeRelation(e), b.EdgeRelation(e));
  }
}

TEST(DataLayoutTest, BuildLeavesNoCapacitySlack) {
  // Builder::Build() must hand back exactly-sized arrays (the peak-memory
  // fix): every owned vector's capacity == size.
  const auto g = SmallRandomGraph(/*seed=*/3);
  EXPECT_EQ(g.Footprint().capacity_slack, 0u) << "graph";
  const LabelIndex index(g);
  EXPECT_EQ(index.MemoryFootprint().capacity_slack, 0u) << "index";
}

TEST(DataLayoutTest, GraphIoRoundTripsLargeGraph) {
  // The loader slurps + pre-reserves; a ~100k-edge graph must come back
  // structurally identical and slack-free.
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 20000;
  cfg.num_edges = 100000;
  cfg.seed = 4242;
  const auto g = graph::GenerateGraph(cfg);
  std::ostringstream out;
  ASSERT_TRUE(graph::SaveGraph(g, out).ok());
  std::istringstream in(out.str());
  auto loaded = graph::LoadGraph(in);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  EXPECT_EQ(loaded->Footprint().capacity_slack, 0u);
  ExpectSameStructure(*loaded, g);
}

}  // namespace
}  // namespace star
