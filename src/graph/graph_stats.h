#ifndef STAR_GRAPH_GRAPH_STATS_H_
#define STAR_GRAPH_GRAPH_STATS_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/knowledge_graph.h"

namespace star::graph {

/// Summary of the (undirected) degree distribution.
struct DegreeStats {
  size_t min = 0;
  size_t max = 0;
  double mean = 0.0;
  double median = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  /// Gini coefficient of the degree distribution in [0, 1); higher means
  /// heavier hubs (real KGs sit well above Erdős–Rényi graphs).
  double gini = 0.0;
};

/// Dataset-level statistics (the Table 1 columns plus structure checks
/// used to validate the synthetic generators against real-KG shape).
struct GraphStats {
  size_t nodes = 0;
  size_t edges = 0;
  size_t types = 0;
  size_t relations = 0;
  DegreeStats degree;
  size_t connected_components = 0;
  size_t largest_component = 0;
  /// Most frequent node types / relation labels with their counts.
  std::vector<std::pair<std::string, size_t>> top_types;
  std::vector<std::pair<std::string, size_t>> top_relations;
  /// Resident bytes per structure.
  GraphFootprint footprint;
};

/// Computes all statistics in O(|V| + |E|) (plus sorting for percentiles).
GraphStats ComputeGraphStats(const KnowledgeGraph& g, size_t top_n = 5);

/// Log2-bucketed degree histogram: bucket i counts nodes with degree in
/// [2^i, 2^(i+1)). Power-law graphs decay roughly linearly in log-log.
std::vector<size_t> DegreeHistogram(const KnowledgeGraph& g);

}  // namespace star::graph

#endif  // STAR_GRAPH_GRAPH_STATS_H_
