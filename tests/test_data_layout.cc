// Layout transparency: the compressed (delta-varint) data plane must be
// indistinguishable from the flat one at every API boundary — neighbor
// lists, index retrieval, and end-to-end top-k (bitwise scores, same
// order) — while the footprint reports show it actually saves bytes and
// Build() leaves no capacity slack behind.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "graph/graph_generator.h"
#include "graph/graph_io.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/workload.h"
#include "test_helpers.h"
#include "text/ensemble.h"

namespace star {
namespace {

using graph::GraphLayout;
using graph::KnowledgeGraph;
using graph::LabelIndex;
using star::testing::MovieGraph;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

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

TEST(DataLayoutTest, CompressedNeighborsMatchFlat) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const auto flat = SmallRandomGraph(seed, /*nodes=*/60, /*edges=*/180);
    const auto comp = graph::CloneWithLayout(flat, GraphLayout::kCompressed);
    ASSERT_EQ(flat.layout(), GraphLayout::kFlat);
    ASSERT_EQ(comp.layout(), GraphLayout::kCompressed);
    ExpectSameStructure(flat, comp);
  }
}

TEST(DataLayoutTest, NestedNeighborViewsStayValid) {
  // Owning decoded views must survive nested Neighbors() calls (the pool
  // hands out distinct buffers, not one shared scratch).
  const auto g = graph::CloneWithLayout(MovieGraph(), GraphLayout::kCompressed);
  const auto flat = MovieGraph();
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    const auto outer = g.Neighbors(v);
    const auto outer_flat = flat.Neighbors(v);
    for (size_t i = 0; i < outer.size(); ++i) {
      const auto inner = g.Neighbors(outer[i].node);
      const auto inner_flat = flat.Neighbors(outer_flat[i].node);
      ASSERT_EQ(inner.size(), inner_flat.size());
      for (size_t j = 0; j < inner.size(); ++j) {
        EXPECT_EQ(inner[j], inner_flat[j]);
      }
      // Re-check the outer view after the nested decode used the pool.
      EXPECT_EQ(outer[i], outer_flat[i]);
    }
  }
}

TEST(DataLayoutTest, LabelIndexRetrievalIsLayoutInvariant) {
  const auto g = SmallRandomGraph(/*seed=*/7, /*nodes=*/80, /*edges=*/200);
  const auto cg = graph::CloneWithLayout(g, GraphLayout::kCompressed);
  const LabelIndex flat(g, GraphLayout::kFlat);
  const LabelIndex comp(cg, GraphLayout::kCompressed);
  ASSERT_EQ(flat.token_count(), comp.token_count());

  std::vector<std::string> probes;
  for (graph::NodeId v = 0; v < g.node_count(); v += 7) {
    probes.emplace_back(g.NodeLabel(v));
  }
  // Misspelled / partial probes exercise the fuzzy trigram path.
  probes.insert(probes.end(), {"", "zz", "abc", "abcd", "node", "labl"});

  for (const auto& probe : probes) {
    EXPECT_EQ(flat.CandidatesByLabel(probe), comp.CandidatesByLabel(probe))
        << probe;
    EXPECT_EQ(flat.FuzzyTokens(probe), comp.FuzzyTokens(probe)) << probe;
    EXPECT_EQ(flat.Postings(probe), comp.Postings(probe)) << probe;
    for (const int32_t type : {-1, 0, 2}) {
      EXPECT_EQ(flat.Candidates(probe, type), comp.Candidates(probe, type));
      for (const size_t cap : {size_t{0}, size_t{5}}) {
        EXPECT_EQ(flat.RankedCandidates(probe, type, cap),
                  comp.RankedCandidates(probe, type, cap))
            << probe << " type=" << type << " cap=" << cap;
      }
    }
  }
  for (int32_t t = -1; t < static_cast<int32_t>(g.type_count()) + 1; ++t) {
    EXPECT_EQ(flat.CandidatesByType(t), comp.CandidatesByType(t));
  }
}

TEST(DataLayoutTest, TopKIsBitwiseIdenticalAcrossLayouts) {
  const auto g = SmallRandomGraph(/*seed=*/19, /*nodes=*/48, /*edges=*/120);
  const auto cg = graph::CloneWithLayout(g, GraphLayout::kCompressed);
  const LabelIndex flat_idx(g, GraphLayout::kFlat);
  const LabelIndex comp_idx(cg, GraphLayout::kCompressed);
  text::SimilarityEnsemble ensemble;

  query::WorkloadGenerator wg(g, /*seed=*/23);
  const auto q = wg.RandomStarQuery(4, query::WorkloadOptions{});

  for (const auto strategy :
       {core::StarStrategy::kStark, core::StarStrategy::kStard,
        core::StarStrategy::kHybrid}) {
    for (const bool kernel : {false, true}) {
      for (const bool batch : {false, true}) {
        if (batch && !kernel) continue;  // batch requires the kernel
        core::StarOptions so;
        so.strategy = strategy;
        so.match = TestConfig(/*d=*/2);
        so.match.use_scoring_kernel = kernel;
        so.match.use_batch_kernel = batch;
        core::StarFramework flat_fw(g, ensemble, &flat_idx, so);
        core::StarFramework comp_fw(cg, ensemble, &comp_idx, so);
        const auto a = flat_fw.TopK(q, 10);
        const auto b = comp_fw.TopK(q, 10);
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          EXPECT_EQ(a[i].mapping, b[i].mapping) << "rank " << i;
          EXPECT_EQ(a[i].score, b[i].score) << "rank " << i;  // bitwise
        }
      }
    }
  }
}

TEST(DataLayoutTest, BuildLeavesNoCapacitySlack) {
  // Builder::Build() must hand back exactly-sized arrays (the peak-memory
  // fix): every owned vector's capacity == size in both layouts.
  for (const auto layout : {GraphLayout::kFlat, GraphLayout::kCompressed}) {
    const auto g =
        graph::CloneWithLayout(SmallRandomGraph(/*seed=*/3), layout);
    EXPECT_EQ(g.Footprint().capacity_slack, 0u) << "graph";
    const LabelIndex index(g, layout);
    EXPECT_EQ(index.MemoryFootprint().capacity_slack, 0u) << "index";
  }
}

TEST(DataLayoutTest, CompressedFootprintIsSmaller) {
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 2000;
  cfg.num_edges = 12000;
  cfg.seed = 99;
  const auto flat = graph::GenerateGraph(cfg);
  const auto comp = graph::CloneWithLayout(flat, GraphLayout::kCompressed);
  const auto ff = flat.Footprint();
  const auto cf = comp.Footprint();
  EXPECT_LT(cf.csr_bytes, ff.csr_bytes);
  EXPECT_LT(cf.total(), ff.total());

  const LabelIndex flat_idx(flat, GraphLayout::kFlat);
  const LabelIndex comp_idx(comp, GraphLayout::kCompressed);
  EXPECT_LT(comp_idx.MemoryFootprint().postings_bytes,
            flat_idx.MemoryFootprint().postings_bytes);
  EXPECT_LT(comp_idx.MemoryFootprint().total(),
            flat_idx.MemoryFootprint().total());
}

TEST(DataLayoutTest, GraphIoRoundTripsLargeGraphInBothLayouts) {
  // The loader slurps + pre-reserves; a ~100k-edge graph must come back
  // structurally identical (and slack-free) under either layout.
  graph::GeneratorConfig cfg;
  cfg.num_nodes = 20000;
  cfg.num_edges = 100000;
  cfg.seed = 4242;
  const auto g = graph::GenerateGraph(cfg);
  std::ostringstream out;
  ASSERT_TRUE(graph::SaveGraph(g, out).ok());
  const std::string text = out.str();

  for (const auto layout : {GraphLayout::kFlat, GraphLayout::kCompressed}) {
    std::istringstream in(text);
    auto loaded = graph::LoadGraph(in, layout);
    ASSERT_TRUE(loaded.ok()) << loaded.status().message();
    EXPECT_EQ(loaded->layout(), layout);
    EXPECT_EQ(loaded->node_count(), g.node_count());
    EXPECT_EQ(loaded->edge_count(), g.edge_count());
    EXPECT_EQ(loaded->Footprint().capacity_slack, 0u);
    // Spot-check structure (full compare is the flat cell below).
    for (graph::NodeId v = 0; v < loaded->node_count(); v += 997) {
      EXPECT_EQ(loaded->NodeLabel(v), g.NodeLabel(v));
      EXPECT_EQ(loaded->Degree(v), g.Degree(v));
    }
  }
  std::istringstream in(text);
  auto flat_loaded = graph::LoadGraph(in);
  ASSERT_TRUE(flat_loaded.ok());
  ExpectSameStructure(*flat_loaded, g);
}

}  // namespace
}  // namespace star
