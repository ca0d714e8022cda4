#ifndef STAR_CORE_MATCH_H_
#define STAR_CORE_MATCH_H_

#include <vector>

#include "graph/knowledge_graph.h"
#include "query/query_graph.h"

namespace star::core {

/// A match of a star (sub)query: the pivot's data node, one data node per
/// covered query edge's leaf (aligned with StarQuery::edges), and the
/// aggregate score (pivot F_N + per-leaf F_N + per-edge F_E).
struct StarMatch {
  graph::NodeId pivot = graph::kInvalidNode;
  std::vector<graph::NodeId> leaves;
  double score = 0.0;
};

/// A match of a full query graph: mapping[u] is the data node matched to
/// query node u (kInvalidNode if unmapped), plus the Eq. 2 score.
struct GraphMatch {
  std::vector<graph::NodeId> mapping;
  double score = 0.0;

  /// True if every query node is mapped.
  bool Complete() const {
    for (const graph::NodeId v : mapping) {
      if (v == graph::kInvalidNode) return false;
    }
    return true;
  }

  /// True if no two query nodes map to the same data node (ignoring
  /// unmapped slots).
  bool Injective() const;
};

inline bool GraphMatch::Injective() const {
  for (size_t i = 0; i < mapping.size(); ++i) {
    if (mapping[i] == graph::kInvalidNode) continue;
    for (size_t j = i + 1; j < mapping.size(); ++j) {
      if (mapping[i] == mapping[j]) return false;
    }
  }
  return true;
}

}  // namespace star::core

#endif  // STAR_CORE_MATCH_H_
