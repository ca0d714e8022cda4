#include "query/workload.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "text/weight_learning.h"

namespace star::query {

using graph::KnowledgeGraph;
using graph::Neighbor;
using graph::NodeId;

WorkloadGenerator::WorkloadGenerator(const KnowledgeGraph& g, uint64_t seed)
    : graph_(g), rng_(seed) {}

NodeId WorkloadGenerator::PickNodeWithDegree(size_t min_degree) {
  const size_t n = graph_.node_count();
  for (int attempt = 0; attempt < 256; ++attempt) {
    const NodeId v = static_cast<NodeId>(rng_.Below(n));
    if (graph_.Degree(v) >= min_degree) return v;
  }
  // Fallback: scan for the first satisfying node.
  for (NodeId v = 0; v < n; ++v) {
    if (graph_.Degree(v) >= min_degree) return v;
  }
  return static_cast<NodeId>(rng_.Below(n));
}

void WorkloadGenerator::FillNode(QueryGraph& q, NodeId v, bool force_concrete,
                                 const WorkloadOptions& options) {
  const double var_frac = std::clamp(options.variable_fraction, 0.0, 0.5);
  if (!force_concrete && rng_.Chance(var_frac)) {
    // Variable node; optionally still typed (DBPSB templates type many
    // variables, e.g. "?x a dbo:Person").
    const bool typed = rng_.Chance(options.keep_type) &&
                       graph_.NodeType(v) >= 0;
    q.AddWildcardNode(
        typed ? std::string(graph_.TypeName(graph_.NodeType(v))) : "");
    return;
  }
  std::string label(graph_.NodeLabel(v));
  if (rng_.Chance(options.partial_label)) {
    const auto tokens = SplitTokens(label);
    if (tokens.size() > 1) label = tokens[rng_.Below(tokens.size())];
  }
  if (rng_.Chance(options.label_noise)) {
    label = text::PerturbLabel(label, rng_);
  }
  const bool typed =
      rng_.Chance(options.keep_type) && graph_.NodeType(v) >= 0;
  q.AddNode(std::move(label),
            typed ? std::string(graph_.TypeName(graph_.NodeType(v))) : "");
}

QueryGraph WorkloadGenerator::RandomStarQuery(int num_nodes,
                                              const WorkloadOptions& options) {
  const int leaves = std::max(1, num_nodes - 1);
  const NodeId pivot = PickNodeWithDegree(leaves);
  QueryGraph q;
  // Pivot is always concrete so the query is anchored (templates anchor at
  // least half of the nodes).
  FillNode(q, pivot, /*force_concrete=*/true, options);

  // Distinct leaf neighbors, shuffled.
  const auto pivot_nbrs = graph_.Neighbors(pivot);
  std::vector<Neighbor> nbrs(pivot_nbrs.begin(), pivot_nbrs.end());
  rng_.Shuffle(nbrs);
  std::unordered_set<NodeId> used = {pivot};
  int added = 0;
  for (const Neighbor& nb : nbrs) {
    if (added == leaves) break;
    if (!used.insert(nb.node).second) continue;
    FillNode(q, nb.node, /*force_concrete=*/false, options);
    const std::string rel = rng_.Chance(options.keep_relation)
                                ? graph_.RelationName(nb.relation)
                                : "";
    q.AddEdge(0, q.node_count() - 1, rel);
    ++added;
  }
  return q;
}

QueryGraph WorkloadGenerator::RandomPathQuery(int num_nodes,
                                              const WorkloadOptions& options) {
  QueryGraph q;
  NodeId cur = PickNodeWithDegree(1);
  FillNode(q, cur, /*force_concrete=*/true, options);
  std::unordered_set<NodeId> used = {cur};
  for (int i = 1; i < num_nodes; ++i) {
    // Step to an unused neighbor.
    const auto cur_nbrs = graph_.Neighbors(cur);
    std::vector<Neighbor> nbrs(cur_nbrs.begin(), cur_nbrs.end());
    rng_.Shuffle(nbrs);
    const Neighbor* next = nullptr;
    for (const Neighbor& nb : nbrs) {
      if (!used.count(nb.node)) {
        next = &nb;
        break;
      }
    }
    if (next == nullptr) break;  // dead end; return the shorter path
    FillNode(q, next->node, /*force_concrete=*/false, options);
    const std::string rel = rng_.Chance(options.keep_relation)
                                ? graph_.RelationName(next->relation)
                                : "";
    q.AddEdge(i - 1, i, rel);
    used.insert(next->node);
    cur = next->node;
  }
  return q;
}

QueryGraph WorkloadGenerator::RandomGraphQuery(int num_nodes, int num_edges,
                                               const WorkloadOptions& options) {
  // Grow a connected node sample by random expansion.
  std::vector<NodeId> sample;
  std::unordered_map<NodeId, int> index_of;
  const NodeId seed_node = PickNodeWithDegree(2);
  sample.push_back(seed_node);
  index_of[seed_node] = 0;
  while (static_cast<int>(sample.size()) < num_nodes) {
    // Expand from a random sampled node.
    const NodeId from = sample[rng_.Below(sample.size())];
    const auto from_nbrs = graph_.Neighbors(from);
    std::vector<Neighbor> nbrs(from_nbrs.begin(), from_nbrs.end());
    rng_.Shuffle(nbrs);
    bool grew = false;
    for (const Neighbor& nb : nbrs) {
      if (!index_of.count(nb.node)) {
        index_of[nb.node] = static_cast<int>(sample.size());
        sample.push_back(nb.node);
        grew = true;
        break;
      }
    }
    if (!grew) {
      // This node is saturated; a different one may still expand. Detect a
      // fully saturated sample by scanning all of them once. The scan
      // draws nothing from the RNG. A one-node sample gets here only when
      // the seed node's neighbours are all itself (a self-loop), and then
      // stays one node.
      bool any = false;
      for (const NodeId s : sample) {
        for (const Neighbor& nb : graph_.Neighbors(s)) {
          if (!index_of.count(nb.node)) {
            any = true;
            break;
          }
        }
        if (any) break;
      }
      if (!any) break;
    }
  }

  // Collect all data edges inside the sample; keep a spanning set first,
  // then extra edges (cycles) until num_edges is reached.
  struct SampleEdge {
    int u, v;
    std::string relation;
  };
  std::vector<SampleEdge> inside;
  std::unordered_set<uint64_t> seen_pairs;
  for (const NodeId s : sample) {
    for (const Neighbor& nb : graph_.Neighbors(s)) {
      const auto it = index_of.find(nb.node);
      if (it == index_of.end()) continue;
      const int a = index_of[s];
      const int b = it->second;
      if (a == b) continue;
      const uint64_t key = a < b
                               ? (static_cast<uint64_t>(a) << 32) | b
                               : (static_cast<uint64_t>(b) << 32) | a;
      if (!seen_pairs.insert(key).second) continue;
      inside.push_back({a, b, graph_.RelationName(nb.relation)});
    }
  }
  rng_.Shuffle(inside);

  // Kruskal-style spanning selection.
  std::vector<int> parent(sample.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = static_cast<int>(i);
  const auto find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<SampleEdge> chosen;
  std::vector<SampleEdge> extra;
  for (const auto& e : inside) {
    const int ru = find(e.u);
    const int rv = find(e.v);
    if (ru != rv) {
      parent[ru] = rv;
      chosen.push_back(e);
    } else {
      extra.push_back(e);
    }
  }
  for (const auto& e : extra) {
    if (static_cast<int>(chosen.size()) >= num_edges) break;
    chosen.push_back(e);
  }

  QueryGraph q;
  for (size_t i = 0; i < sample.size(); ++i) {
    FillNode(q, sample[i], /*force_concrete=*/i == 0, options);
  }
  for (const auto& e : chosen) {
    q.AddEdge(e.u, e.v,
              rng_.Chance(options.keep_relation) ? e.relation : "");
  }
  return q;
}

std::vector<QueryGraph> WorkloadGenerator::StarWorkload(
    int count, int min_nodes, int max_nodes, const WorkloadOptions& options) {
  std::vector<QueryGraph> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    const int n = static_cast<int>(rng_.Uniform(min_nodes, max_nodes));
    out.push_back(RandomStarQuery(n, options));
  }
  return out;
}

std::vector<QueryGraph> WorkloadGenerator::GraphWorkload(
    int count, int num_nodes, int num_edges, const WorkloadOptions& options) {
  std::vector<QueryGraph> out;
  out.reserve(count);
  for (int i = 0; i < count; ++i) {
    out.push_back(RandomGraphQuery(num_nodes, num_edges, options));
  }
  return out;
}

}  // namespace star::query
