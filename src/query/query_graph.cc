#include "query/query_graph.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace star::query {

int QueryGraph::AddNode(std::string label, std::string type_name) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(QueryNode{std::move(label), std::move(type_name), false});
  incident_.emplace_back();
  return id;
}

int QueryGraph::AddWildcardNode(std::string type_name) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(QueryNode{"?", std::move(type_name), true});
  incident_.emplace_back();
  return id;
}

int QueryGraph::AddEdge(int u, int v, std::string relation) {
  assert(u >= 0 && u < node_count() && v >= 0 && v < node_count());
  const int id = static_cast<int>(edges_.size());
  const bool wildcard = relation.empty() || relation == "?";
  edges_.push_back(QueryEdge{u, v, std::move(relation), wildcard});
  incident_[u].push_back(id);
  incident_[v].push_back(id);
  return id;
}

bool QueryGraph::IsConnected() const {
  if (nodes_.empty()) return true;
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<int> stack = {0};
  seen[0] = true;
  int count = 0;
  while (!stack.empty()) {
    const int u = stack.back();
    stack.pop_back();
    ++count;
    for (const int e : incident_[u]) {
      const int w = OtherEnd(e, u);
      if (!seen[w]) {
        seen[w] = true;
        stack.push_back(w);
      }
    }
  }
  return count == node_count();
}

Status QueryGraph::Validate() const {
  if (nodes_.empty()) return Status::InvalidArgument("query has no nodes");
  if (node_count() > kMaxQueryNodes) {
    return Status::InvalidArgument("query exceeds " +
                                   std::to_string(kMaxQueryNodes) +
                                   " nodes (rank-join coverage mask limit)");
  }
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(edges_.size());
  for (const QueryEdge& e : edges_) {
    if (e.u == e.v) {
      return Status::InvalidArgument("query node " + std::to_string(e.u) +
                                     " has a self-loop edge");
    }
    pairs.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
  }
  std::sort(pairs.begin(), pairs.end());
  const auto dup = std::adjacent_find(pairs.begin(), pairs.end());
  if (dup != pairs.end()) {
    return Status::InvalidArgument(
        "query nodes " + std::to_string(dup->first) + " and " +
        std::to_string(dup->second) + " are joined by more than one edge");
  }
  if (!IsConnected()) return Status::InvalidArgument("query is disconnected");
  return Status::Ok();
}

bool QueryGraph::IsStar() const { return StarPivot() >= 0; }

int QueryGraph::StarPivot() const {
  if (!IsConnected()) return -1;
  if (edge_count() == 0) return node_count() == 1 ? 0 : -1;
  int best = -1;
  for (int u = 0; u < node_count(); ++u) {
    if (Degree(u) != edge_count()) continue;
    // u covers all edges; require distinct leaf endpoints (no multi-edge).
    std::vector<int> leaves;
    for (const int e : incident_[u]) leaves.push_back(OtherEnd(e, u));
    std::sort(leaves.begin(), leaves.end());
    if (std::adjacent_find(leaves.begin(), leaves.end()) != leaves.end()) {
      continue;
    }
    if (best < 0 || Degree(u) > Degree(best)) best = u;
  }
  return best;
}

bool QueryGraph::IsTree() const {
  return IsConnected() && edge_count() == node_count() - 1;
}

std::string QueryGraph::ToString() const {
  std::string out = "Q(" + std::to_string(node_count()) + "," +
                    std::to_string(edge_count()) + "){";
  for (int i = 0; i < node_count(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(i) + ":" + (nodes_[i].wildcard ? "?" : nodes_[i].label);
    if (!nodes_[i].type_name.empty()) out += "/" + nodes_[i].type_name;
  }
  out += "; ";
  for (int e = 0; e < edge_count(); ++e) {
    if (e > 0) out += ", ";
    out += std::to_string(edges_[e].u) + "-" + std::to_string(edges_[e].v);
    if (!edges_[e].wildcard_relation) out += ":" + edges_[e].relation;
  }
  out += "}";
  return out;
}

}  // namespace star::query
