#include "baseline/graph_ta.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

namespace star::baseline {

using core::GraphMatch;
using graph::NodeId;
using query::QueryGraph;

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

std::string MappingKey(const std::vector<NodeId>& mapping) {
  return std::string(reinterpret_cast<const char*>(mapping.data()),
                     mapping.size() * sizeof(NodeId));
}

/// BFS order over the query graph rooted at `root` (connected queries).
std::vector<int> QueryBfsOrder(const QueryGraph& q, int root) {
  std::vector<int> order = {root};
  std::vector<bool> seen(q.node_count(), false);
  seen[root] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    for (const int e : q.IncidentEdges(order[i])) {
      const int w = q.OtherEnd(e, order[i]);
      if (!seen[w]) {
        seen[w] = true;
        order.push_back(w);
      }
    }
  }
  return order;
}

}  // namespace

bool GraphTa::OverBudget() {
  if (budget_ms_ <= 0.0 || stats_.timed_out) return stats_.timed_out;
  // Check sparsely: ElapsedMillis has syscall cost.
  if ((stats_.partial_states & 0x3F) == 0 &&
      timer_.ElapsedMillis() > budget_ms_) {
    stats_.timed_out = true;
  }
  return stats_.timed_out;
}

double GraphTa::Threshold(size_t k) const {
  return heap_.size() < k ? kNegInf : heap_.front().score;
}

void GraphTa::Offer(const std::vector<NodeId>& mapping, double score,
                    size_t k) {
  if (!seen_matches_.insert(MappingKey(mapping)).second) return;
  ++stats_.matches_generated;
  const auto cmp = [](const GraphMatch& a, const GraphMatch& b) {
    return a.score > b.score;
  };
  if (heap_.size() < k) {
    heap_.push_back(GraphMatch{mapping, score});
    std::push_heap(heap_.begin(), heap_.end(), cmp);
  } else if (score > heap_.front().score) {
    std::pop_heap(heap_.begin(), heap_.end(), cmp);
    heap_.back() = GraphMatch{mapping, score};
    std::push_heap(heap_.begin(), heap_.end(), cmp);
  }
}

void GraphTa::Complete(const std::vector<int>& order, size_t depth,
                       std::vector<NodeId>& mapping, double score,
                       double optimistic_rest, size_t k) {
  ++stats_.partial_states;
  if (OverBudget()) return;
  const QueryGraph& q = scorer_.query();
  const scoring::MatchConfig& cfg = scorer_.config();
  if (depth == order.size()) {
    Offer(mapping, score, k);
    return;
  }
  const int u = order[depth];
  // Anchor: an already-assigned query neighbor (exists by BFS order).
  int anchor = -1;
  for (const int e : q.IncidentEdges(u)) {
    const int other = q.OtherEnd(e, u);
    if (mapping[other] != graph::kInvalidNode) {
      anchor = other;
      break;
    }
  }
  const NodeId av = mapping[anchor];
  // Extension candidates: the d-bounded ball around the anchor's match
  // (optimization (a): the ball is memoized in the scorer).
  std::vector<NodeId> pool;
  {
    std::unordered_map<NodeId, bool> uniq;
    for (const auto& nb : scorer_.graph().Neighbors(av)) {
      if (uniq.emplace(nb.node, true).second) pool.push_back(nb.node);
    }
    for (const auto& [w, h] : scorer_.WalkBall(av)) {
      if (uniq.emplace(w, true).second) pool.push_back(w);
    }
  }

  // Score each extension (optimization (b): sort descending before
  // recursing so better branches are explored first and tighten θ early).
  struct Extension {
    NodeId node;
    double delta;
  };
  std::vector<Extension> extensions;
  (void)optimistic_rest;  // the remainder bound is recomputed below
  for (const NodeId w : pool) {
    if (cfg.enforce_injective &&
        std::find(mapping.begin(), mapping.end(), w) != mapping.end()) {
      continue;
    }
    double delta = scorer_.CandidateScore(u, w);  // shared candidacy rule
    if (delta < 0.0) continue;
    bool ok = true;
    for (const int e : q.IncidentEdges(u)) {
      const int other = q.OtherEnd(e, u);
      if (mapping[other] == graph::kInvalidNode) continue;
      const double fe = scorer_.PairEdgeScore(e, mapping[other], w);
      if (fe < 0.0) {
        ok = false;
        break;
      }
      delta += fe;
    }
    if (!ok) continue;
    extensions.push_back({w, delta});
  }
  std::sort(extensions.begin(), extensions.end(),
            [](const Extension& a, const Extension& b) {
              return a.delta > b.delta;
            });

  // Upper bound of everything below this depth.
  double rest = 0.0;
  for (size_t i = depth + 1; i < order.size(); ++i) {
    const int x = order[i];
    rest += q.node(x).wildcard ? cfg.wildcard_node_score : 1.0;
    for (const int e : q.IncidentEdges(x)) {
      const int other = q.OtherEnd(e, x);
      // Count each edge at the depth where its later endpoint lands.
      const auto pos_other = std::find(order.begin(), order.end(), other);
      if (static_cast<size_t>(pos_other - order.begin()) < i) {
        rest += scorer_.MaxEdgeScore(e);
      }
    }
  }
  for (const Extension& ext : extensions) {
    if (score + ext.delta + rest < Threshold(k)) break;  // sorted: all worse
    mapping[u] = ext.node;
    Complete(order, depth + 1, mapping, score + ext.delta, 0.0, k);
    mapping[u] = graph::kInvalidNode;
  }
}

void GraphTa::Expand(int u, NodeId v, size_t k) {
  ++stats_.expansions;
  const QueryGraph& q = scorer_.query();
  const std::vector<int> order = QueryBfsOrder(q, u);
  std::vector<NodeId> mapping(q.node_count(), graph::kInvalidNode);
  const double score = scorer_.CandidateScore(u, v);  // shared candidacy
  if (score < 0.0) return;
  mapping[u] = v;
  Complete(order, 1, mapping, score, 0.0, k);
}

std::vector<GraphMatch> GraphTa::TopK(size_t k) {
  const QueryGraph& q = scorer_.query();
  const int n = q.node_count();
  if (n == 0 || k == 0) return {};
  timer_.Restart();

  // Sorted candidate list per query node (Fig. 2 lines 1-4).
  std::vector<const scoring::CandidateList*> lists(n);
  for (int u = 0; u < n; ++u) lists[u] = &scorer_.Candidates(u);

  double max_edges_total = 0.0;
  for (int e = 0; e < q.edge_count(); ++e) {
    max_edges_total += scorer_.MaxEdgeScore(e);
  }

  // Wildcard nodes are never used as expansion seeds: every match also
  // contains each concrete node's candidate, so iterating the concrete
  // lists alone is complete, and wildcard lists (constant score 1.0) would
  // seed an expansion per graph node for nothing. The bound below still
  // accounts for them. Fully-wildcard queries fall back to node 0.
  std::vector<int> seed_nodes;
  for (int u = 0; u < n; ++u) {
    if (!q.node(u).wildcard) seed_nodes.push_back(u);
  }
  if (seed_nodes.empty()) seed_nodes.push_back(0);

  size_t row = 0;
  while (!stats_.timed_out) {
    bool any_left = false;
    for (const int u : seed_nodes) {
      if (row >= lists[u]->size()) continue;
      any_left = true;
      ++stats_.cursor_steps;
      Expand(u, (*lists[u])[row].node, k);
    }
    if (!any_left) break;
    ++row;
    // If some seed list is exhausted, every match uses a seen candidate
    // there and has been generated; otherwise bound the unseen matches
    // (Fig. 2 line 10): unseen entries in every seed list plus the best
    // possible wildcard and edge contributions.
    bool exhausted = false;
    double u_bound = max_edges_total;
    for (int u = 0; u < n; ++u) {
      if (q.node(u).wildcard &&
          std::find(seed_nodes.begin(), seed_nodes.end(), u) ==
              seed_nodes.end()) {
        u_bound += scorer_.config().wildcard_node_score;
        continue;
      }
      if (row >= lists[u]->size()) {
        exhausted = true;
        break;
      }
      u_bound += (*lists[u])[row].score;
    }
    if (exhausted) break;
    if (heap_.size() >= k && Threshold(k) >= u_bound) break;
  }

  std::sort(heap_.begin(), heap_.end(),
            [](const GraphMatch& a, const GraphMatch& b) {
              return a.score > b.score;
            });
  return heap_;
}

}  // namespace star::baseline
