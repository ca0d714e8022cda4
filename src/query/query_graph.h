#ifndef STAR_QUERY_QUERY_GRAPH_H_
#define STAR_QUERY_QUERY_GRAPH_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace star::query {

/// Most nodes a query may have: rank joins track the query nodes each
/// stream covers in a 64-bit mask.
inline constexpr int kMaxQueryNodes = 64;

/// A query node: a keyword/entity description plus an optional type name.
/// A wildcard node ("?") places no content constraint (F_N == 1 for any
/// data node); it is matched purely through structure.
struct QueryNode {
  std::string label;
  std::string type_name;  // empty = untyped
  bool wildcard = false;
};

/// A query edge between node indices; an empty / wildcard relation matches
/// any relation label with similarity 1.
struct QueryEdge {
  int u = -1;
  int v = -1;
  std::string relation;
  bool wildcard_relation = true;
};

/// A small labeled query graph Q = (V_Q, E_Q) (§II). Node indices are dense
/// ints. The graph is undirected for matching purposes (an edge (u,v)
/// constrains connectivity between the matches of u and v).
class QueryGraph {
 public:
  QueryGraph() = default;

  /// Adds a node with a content label and optional type; returns its index.
  int AddNode(std::string label, std::string type_name = "");

  /// Adds a wildcard ("?") node; returns its index.
  int AddWildcardNode(std::string type_name = "");

  /// Adds an undirected edge; empty relation = wildcard. Self-loops and
  /// parallel edges are accepted here and rejected by Validate().
  int AddEdge(int u, int v, std::string relation = "");

  /// Replaces node u's type constraint (used by the parser when a later
  /// occurrence of a node adds a type).
  void SetNodeType(int u, std::string type_name) {
    nodes_[u].type_name = std::move(type_name);
  }

  /// Replaces node u's content label (used by the serve layer's
  /// typo-tolerant query rewrite). The wildcard flag is unchanged.
  void SetNodeLabel(int u, std::string label) {
    nodes_[u].label = std::move(label);
  }

  int node_count() const { return static_cast<int>(nodes_.size()); }
  int edge_count() const { return static_cast<int>(edges_.size()); }

  const QueryNode& node(int i) const { return nodes_[i]; }
  const QueryEdge& edge(int i) const { return edges_[i]; }
  const std::vector<QueryNode>& nodes() const { return nodes_; }
  const std::vector<QueryEdge>& edges() const { return edges_; }

  /// Indices of edges incident to node u.
  const std::vector<int>& IncidentEdges(int u) const { return incident_[u]; }

  /// Degree of node u in the query graph.
  int Degree(int u) const { return static_cast<int>(incident_[u].size()); }

  /// The other endpoint of edge e relative to u.
  int OtherEnd(int e, int u) const {
    return edges_[e].u == u ? edges_[e].v : edges_[e].u;
  }

  /// True if all nodes are reachable from node 0 (or the graph is empty).
  bool IsConnected() const;

  /// The one definition of the query shapes the engine answers exactly:
  /// 1 to kMaxQueryNodes nodes, no self-loop, at most one edge per node
  /// pair, and connected. Returns InvalidArgument naming the first broken
  /// rule, Ok otherwise.
  Status Validate() const;

  /// True if the query is a star: some node is an endpoint of every edge
  /// and there are no parallel edges between the same pair.
  /// Single-node/single-edge queries are stars.
  bool IsStar() const;

  /// True if the query is acyclic (a tree/forest).
  bool IsTree() const;

  /// For a star query: the index of a valid pivot (center). Prefers the
  /// node covering all edges with maximum degree; -1 if not a star.
  int StarPivot() const;

  /// Human-readable one-line description for logs and examples.
  std::string ToString() const;

 private:
  std::vector<QueryNode> nodes_;
  std::vector<QueryEdge> edges_;
  std::vector<std::vector<int>> incident_;
};

/// A star query view over a QueryGraph: a pivot node plus the query edges
/// it covers. Used both for whole star queries and for star subqueries
/// produced by decomposition (the edges are a subset of the parent query's
/// edges in the latter case).
struct StarQuery {
  /// Index of the pivot node in the parent query graph.
  int pivot = -1;
  /// Parent-query edge indices covered by this star (all incident to pivot).
  std::vector<int> edges;
};

}  // namespace star::query

#endif  // STAR_QUERY_QUERY_GRAPH_H_
