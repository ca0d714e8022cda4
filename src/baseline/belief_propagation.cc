#include "baseline/belief_propagation.h"

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <set>

namespace star::baseline {

using core::GraphMatch;
using graph::NodeId;
using query::QueryGraph;

namespace {
constexpr double kNegInf = -std::numeric_limits<double>::infinity();
}  // namespace

void BeliefPropagation::BuildDomains() {
  if (!domains_.empty()) return;
  const QueryGraph& q = scorer_.query();
  domains_.resize(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    const scoring::CandidateList& list = scorer_.Candidates(u);
    domains_[u].assign(list.begin(), list.end());
    if (options_.domain_cap > 0 && domains_[u].size() > options_.domain_cap) {
      domains_[u].resize(options_.domain_cap);
    }
  }
}

double BeliefPropagation::ScoreAssignment(
    const std::vector<int>& assignment) const {
  const QueryGraph& q = scorer_.query();
  double score = 0.0;
  for (int u = 0; u < q.node_count(); ++u) {
    score += domains_[u][assignment[u]].score;
  }
  for (int e = 0; e < q.edge_count(); ++e) {
    const double fe =
        scorer_.PairEdgeScore(e, domains_[q.edge(e).u][assignment[q.edge(e).u]].node,
                              domains_[q.edge(e).v][assignment[q.edge(e).v]].node);
    if (fe < 0.0) return kNegInf;
    score += fe;
  }
  return score;
}

bool BeliefPropagation::OutOfBudget(CancelChecker& budget) {
  if (budget.ShouldStop()) stats_.timed_out = true;
  return stats_.timed_out;
}

std::optional<std::pair<std::vector<int>, double>> BeliefPropagation::Map(
    const Constraints& constraints, CancelChecker& budget) {
  if (OutOfBudget(budget)) return std::nullopt;
  ++stats_.map_calls;
  for (const auto& d : domains_) {
    if (d.empty()) return std::nullopt;
  }
  return scorer_.query().IsTree() ? MapTree(constraints, budget)
                                  : MapLoopy(constraints, budget);
}

// Exact max-sum dynamic program on acyclic queries.
std::optional<std::pair<std::vector<int>, double>>
BeliefPropagation::MapTree(const Constraints& constraints,
                           CancelChecker& budget) {
  const QueryGraph& q = scorer_.query();
  const int n = q.node_count();
  // Rooted BFS order (parents precede children).
  std::vector<int> order = {0};
  std::vector<int> parent(n, -1), parent_edge(n, -1);
  std::vector<bool> seen(n, false);
  seen[0] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    const int u = order[i];
    for (const int e : q.IncidentEdges(u)) {
      const int w = q.OtherEnd(e, u);
      if (!seen[w]) {
        seen[w] = true;
        parent[w] = u;
        parent_edge[w] = e;
        order.push_back(w);
      }
    }
  }

  const auto allowed = [&](int u, int j) {
    if (constraints.forced[u] >= 0 && constraints.forced[u] != j) return false;
    return !constraints.forbidden[u][j];
  };

  // Bottom-up tables: best[u][j] = best subtree score with u at index j;
  // choice[u][j][c] = chosen index of the c-th child.
  std::vector<std::vector<double>> best(n);
  std::vector<std::vector<int>> children(n);
  for (int u = 0; u < n; ++u) {
    best[u].assign(domains_[u].size(), 0.0);
  }
  for (int i = 1; i < n; ++i) children[parent[order[i]]].push_back(order[i]);
  std::vector<std::vector<std::vector<int>>> choice(n);

  for (size_t i = order.size(); i-- > 0;) {
    const int u = order[i];
    choice[u].assign(domains_[u].size(),
                     std::vector<int>(children[u].size(), -1));
    for (size_t j = 0; j < domains_[u].size(); ++j) {
      if (!allowed(u, static_cast<int>(j))) {
        best[u][j] = kNegInf;
        continue;
      }
      double total = domains_[u][j].score;
      for (size_t c = 0; c < children[u].size() && total > kNegInf; ++c) {
        const int child = children[u][c];
        const int e = parent_edge[child];
        double best_child = kNegInf;
        int best_idx = -1;
        for (size_t b = 0; b < domains_[child].size(); ++b) {
          if (OutOfBudget(budget)) return std::nullopt;
          ++stats_.message_updates;
          if (best[child][b] == kNegInf) continue;
          const double fe = scorer_.PairEdgeScore(
              e, domains_[u][j].node, domains_[child][b].node);
          if (fe < 0.0) continue;
          const double v = fe + best[child][b];
          if (v > best_child) {
            best_child = v;
            best_idx = static_cast<int>(b);
          }
        }
        if (best_idx < 0) {
          total = kNegInf;
        } else {
          total += best_child;
          choice[u][j][c] = best_idx;
        }
      }
      best[u][j] = total;
    }
  }

  // Root argmax, then top-down back-tracing.
  int root_idx = -1;
  double root_best = kNegInf;
  for (size_t j = 0; j < best[0].size(); ++j) {
    if (best[0][j] > root_best) {
      root_best = best[0][j];
      root_idx = static_cast<int>(j);
    }
  }
  if (root_idx < 0 || root_best == kNegInf) return std::nullopt;
  std::vector<int> assignment(n, -1);
  assignment[0] = root_idx;
  for (const int u : order) {
    for (size_t c = 0; c < children[u].size(); ++c) {
      assignment[children[u][c]] = choice[u][assignment[u]][c];
    }
  }
  return std::make_pair(std::move(assignment), root_best);
}

// Loopy max-sum with a conditioned greedy decode (cyclic queries; no
// optimality guarantee, as in the paper).
std::optional<std::pair<std::vector<int>, double>>
BeliefPropagation::MapLoopy(const Constraints& constraints,
                            CancelChecker& budget) {
  const QueryGraph& q = scorer_.query();
  const int n = q.node_count();

  const auto allowed = [&](int u, int j) {
    if (constraints.forced[u] >= 0 && constraints.forced[u] != j) return false;
    return !constraints.forbidden[u][j];
  };

  // Directed messages per query edge: m[e][0] = u->v, m[e][1] = v->u.
  std::vector<std::array<std::vector<double>, 2>> msg(q.edge_count());
  for (int e = 0; e < q.edge_count(); ++e) {
    msg[e][0].assign(domains_[q.edge(e).v].size(), 0.0);
    msg[e][1].assign(domains_[q.edge(e).u].size(), 0.0);
  }

  const auto incoming = [&](int u, int excluded_edge, size_t j) {
    double sum = 0.0;
    for (const int e : q.IncidentEdges(u)) {
      if (e == excluded_edge) continue;
      const int dir = q.edge(e).v == u ? 0 : 1;  // message flowing into u
      sum += msg[e][dir][j];
    }
    return sum;
  };

  for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
    for (int e = 0; e < q.edge_count(); ++e) {
      for (int dir = 0; dir < 2; ++dir) {
        const int from = dir == 0 ? q.edge(e).u : q.edge(e).v;
        const int to = dir == 0 ? q.edge(e).v : q.edge(e).u;
        auto& out = msg[e][dir];
        double norm = kNegInf;
        for (size_t b = 0; b < domains_[to].size(); ++b) {
          double best = kNegInf;
          for (size_t a = 0; a < domains_[from].size(); ++a) {
            if (OutOfBudget(budget)) return std::nullopt;
            ++stats_.message_updates;
            if (!allowed(from, static_cast<int>(a))) continue;
            const double fe = scorer_.PairEdgeScore(
                e, domains_[from][a].node, domains_[to][b].node);
            if (fe < 0.0) continue;
            const double v = domains_[from][a].score + fe +
                             incoming(from, e, a);
            best = std::max(best, v);
          }
          out[b] = best;
          norm = std::max(norm, best);
        }
        if (norm > kNegInf) {
          for (auto& x : out) {
            if (x > kNegInf) x -= norm;
          }
        }
      }
    }
  }

  // Conditioned decode in BFS order: honor already-fixed neighbors.
  std::vector<int> order = {0};
  std::vector<bool> seen(n, false);
  seen[0] = true;
  for (size_t i = 0; i < order.size(); ++i) {
    for (const int e : q.IncidentEdges(order[i])) {
      const int w = q.OtherEnd(e, order[i]);
      if (!seen[w]) {
        seen[w] = true;
        order.push_back(w);
      }
    }
  }
  std::vector<int> assignment(n, -1);
  for (const int u : order) {
    double best = kNegInf;
    int best_idx = -1;
    for (size_t j = 0; j < domains_[u].size(); ++j) {
      if (!allowed(u, static_cast<int>(j))) continue;
      double v = domains_[u][j].score + incoming(u, -1, j);
      bool ok = true;
      for (const int e : q.IncidentEdges(u)) {
        const int other = q.OtherEnd(e, u);
        if (assignment[other] < 0) continue;
        const double fe = scorer_.PairEdgeScore(
            e, domains_[u][j].node, domains_[other][assignment[other]].node);
        if (fe < 0.0) {
          ok = false;
          break;
        }
        v += fe;
      }
      if (ok && v > best) {
        best = v;
        best_idx = static_cast<int>(j);
      }
    }
    if (best_idx < 0) return std::nullopt;
    assignment[u] = best_idx;
  }
  const double score = ScoreAssignment(assignment);
  if (score == kNegInf) return std::nullopt;
  return std::make_pair(std::move(assignment), score);
}

std::vector<GraphMatch> BeliefPropagation::TopK(size_t k) {
  // The budget covers the whole call, domain building included.
  const Cancellation deadline(options_.budget_ms > 0.0
                                  ? Deadline::AfterMillis(options_.budget_ms)
                                  : Deadline::Infinite());
  CancelChecker budget(&deadline);
  BuildDomains();
  const QueryGraph& q = scorer_.query();
  const int n = q.node_count();
  std::vector<GraphMatch> out;
  if (n == 0 || k == 0) return out;
  for (const auto& d : domains_) {
    if (d.empty()) return out;
  }

  // Lawler partitioning over the MAP oracle: exact k-best on trees.
  struct Node {
    double score;
    std::vector<int> assignment;
    Constraints constraints;
    bool operator<(const Node& o) const { return score < o.score; }
  };
  std::priority_queue<Node> heap;
  Constraints root;
  root.forced.assign(n, -1);
  root.forbidden.resize(n);
  for (int u = 0; u < n; ++u) root.forbidden[u].assign(domains_[u].size(), false);
  if (auto m = Map(root, budget)) {
    heap.push(Node{m->second, std::move(m->first), std::move(root)});
  }
  std::set<std::vector<int>> emitted;
  while (!heap.empty() && out.size() < k && !OutOfBudget(budget)) {
    Node top = heap.top();
    heap.pop();
    if (!emitted.insert(top.assignment).second) continue;
    // Materialize the match; apply the post-hoc injectivity filter.
    GraphMatch gm;
    gm.mapping.resize(n);
    for (int u = 0; u < n; ++u) {
      gm.mapping[u] = domains_[u][top.assignment[u]].node;
    }
    gm.score = top.score;
    if (!scorer_.config().enforce_injective || gm.Injective()) {
      out.push_back(std::move(gm));
    }
    // Partition: children share the prefix and forbid the pivot choice.
    for (int i = 0; i < n; ++i) {
      Constraints child = top.constraints;
      for (int j = 0; j < i; ++j) child.forced[j] = top.assignment[j];
      child.forbidden[i][top.assignment[i]] = true;
      if (child.forced[i] == top.assignment[i]) continue;  // infeasible
      if (auto m = Map(child, budget)) {
        heap.push(Node{m->second, std::move(m->first), std::move(child)});
      } else if (stats_.timed_out) {
        break;
      }
    }
  }
  return out;
}

}  // namespace star::baseline
