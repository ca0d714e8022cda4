#include "baseline/brute_force.h"

#include <algorithm>
#include <functional>

namespace star::baseline {

using core::GraphMatch;
using graph::NodeId;
using scoring::QueryScorer;

std::vector<scoring::ScoredCandidate> BruteForceDomain(
    const QueryScorer& scorer, int u) {
  const query::QueryNode& qn = scorer.query().node(u);
  const scoring::MatchConfig& cfg = scorer.config();
  std::vector<uint8_t> shares_token;
  std::vector<scoring::ScoredCandidate> domain;
  for (const NodeId v : scorer.RetrievalPool(u, &shares_token)) {
    const double s = scorer.NodeScore(u, v);
    if (s >= cfg.node_threshold) domain.push_back({v, s});
  }
  std::sort(domain.begin(), domain.end(),
            [](const scoring::ScoredCandidate& a,
               const scoring::ScoredCandidate& b) {
              return a.score > b.score ||
                     (a.score == b.score && a.node < b.node);
            });
  const bool untyped = qn.wildcard && qn.type_name.empty();
  if (!untyped && cfg.max_candidates > 0 &&
      domain.size() > cfg.max_candidates) {
    domain.resize(cfg.max_candidates);
  }
  return domain;
}

namespace {

/// Shared enumeration core: calls `emit` for every valid complete match.
void Enumerate(QueryScorer& scorer,
               const std::function<void(const GraphMatch&)>& emit) {
  const query::QueryGraph& q = scorer.query();
  const scoring::MatchConfig& cfg = scorer.config();
  const int n = q.node_count();
  std::vector<std::vector<scoring::ScoredCandidate>> domains(n);
  for (int u = 0; u < n; ++u) domains[u] = BruteForceDomain(scorer, u);
  GraphMatch current;
  current.mapping.assign(n, graph::kInvalidNode);

  std::function<void(int, double)> recurse = [&](int u, double score) {
    if (u == n) {
      current.score = score;
      emit(current);
      return;
    }
    for (const auto& cand : domains[u]) {
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

}  // namespace star::baseline
