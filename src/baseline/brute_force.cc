#include "baseline/brute_force.h"

#include <algorithm>
#include <functional>

namespace star::baseline {

using core::GraphMatch;
using graph::NodeId;
using scoring::QueryScorer;

namespace {

/// True when query node u is exempt from candidate-list semantics: the
/// engines score untyped wildcards through CandidateScore's short-circuit
/// (constant wildcard_node_score, no threshold, no cutoff), so the oracle
/// must range them over all of V instead of Candidates(u).
bool UntypedWildcard(const query::QueryGraph& q, int u) {
  return q.node(u).wildcard && q.node(u).type_name.empty();
}

/// Shared enumeration core: calls `emit` for every valid complete match.
void Enumerate(QueryScorer& scorer,
               const std::function<void(const GraphMatch&)>& emit) {
  const query::QueryGraph& q = scorer.query();
  const scoring::MatchConfig& cfg = scorer.config();
  const int n = q.node_count();
  // Bulk-score every query node's candidate list up front: the online F_N
  // evaluations in Candidates() are where brute force spends most of its
  // time before the enumeration even starts. Untyped wildcards never build
  // lists (mirrors the engines' leaf path).
  for (int u = 0; u < n; ++u) {
    if (!UntypedWildcard(q, u)) scorer.Candidates(u);
  }
  // Untyped wildcards range over every data node at the constant wildcard
  // score (the engines' CandidateScore semantics); everything else over its
  // shared candidate list.
  scoring::CandidateList all_nodes;
  for (int u = 0; u < n && all_nodes.empty(); ++u) {
    if (!UntypedWildcard(q, u)) continue;
    all_nodes.reserve(scorer.graph().node_count());
    for (graph::NodeId v = 0;
         v < static_cast<graph::NodeId>(scorer.graph().node_count()); ++v) {
      all_nodes.push_back({v, cfg.wildcard_node_score});
    }
  }
  GraphMatch current;
  current.mapping.assign(n, graph::kInvalidNode);

  std::function<void(int, double)> recurse = [&](int u, double score) {
    if (u == n) {
      current.score = score;
      emit(current);
      return;
    }
    const auto& domain =
        UntypedWildcard(q, u) ? all_nodes : scorer.Candidates(u);
    for (const auto& cand : domain) {
      if (cfg.enforce_injective) {
        bool taken = false;
        for (int prev = 0; prev < u; ++prev) {
          if (current.mapping[prev] == cand.node) {
            taken = true;
            break;
          }
        }
        if (taken) continue;
      }
      // All query edges into already-assigned nodes must connect.
      double delta = cand.score;
      bool ok = true;
      for (const int e : q.IncidentEdges(u)) {
        const int other = q.OtherEnd(e, u);
        if (other >= u) continue;  // not assigned yet
        const double fe =
            scorer.PairEdgeScore(e, current.mapping[other], cand.node);
        if (fe < 0.0) {
          ok = false;
          break;
        }
        delta += fe;
      }
      if (!ok) continue;
      current.mapping[u] = cand.node;
      recurse(u + 1, score + delta);
      current.mapping[u] = graph::kInvalidNode;
    }
  };
  recurse(0, 0.0);
}

}  // namespace

std::vector<GraphMatch> BruteForceTopK(QueryScorer& scorer, size_t k) {
  std::vector<GraphMatch> heap;  // min-heap by score
  const auto cmp = [](const GraphMatch& a, const GraphMatch& b) {
    return a.score > b.score;
  };
  Enumerate(scorer, [&](const GraphMatch& m) {
    if (heap.size() < k) {
      heap.push_back(m);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (!heap.empty() && m.score > heap.front().score) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = m;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  });
  std::sort(heap.begin(), heap.end(),
            [](const GraphMatch& a, const GraphMatch& b) {
              return a.score > b.score;
            });
  return heap;
}

size_t BruteForceCountMatches(QueryScorer& scorer) {
  size_t count = 0;
  Enumerate(scorer, [&](const GraphMatch&) { ++count; });
  return count;
}

std::string BruteForceOracleCheck(const query::QueryGraph& q,
                                  const scoring::MatchConfig& config) {
  bool untyped_wildcard = false;
  for (int u = 0; u < q.node_count(); ++u) {
    if (q.node(u).wildcard && q.node(u).type_name.empty()) {
      untyped_wildcard = true;
      break;
    }
  }
  if (!untyped_wildcard) return "";
  if (config.max_candidates > 0) {
    return "untyped wildcard with max_candidates cutoff: engine semantics "
           "are pivot/leaf position dependent";
  }
  if (config.wildcard_node_score < config.node_threshold) {
    return "untyped wildcard with wildcard_node_score below node_threshold: "
           "engine semantics are pivot/leaf position dependent";
  }
  return "";
}

}  // namespace star::baseline
