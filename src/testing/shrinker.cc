#include "testing/shrinker.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/knowledge_graph.h"
#include "query/query_graph.h"

namespace star::testing {
namespace {

/// The shrink predicate: the candidate must still produce a violation of
/// the SAME check kind (not merely any violation — a reduction that trades
/// the original bug for a different one is not a smaller repro of it).
bool StillFails(const FuzzCase& c, const std::string& target,
                const RunnerOptions& runner) {
  const CaseOutcome o = RunDifferentialCase(c, runner);
  for (const auto& v : o.violations) {
    if (v.check == target) return true;
  }
  return false;
}

query::QueryGraph DropQueryEdge(const query::QueryGraph& q, int drop) {
  query::QueryGraph nq;
  for (int u = 0; u < q.node_count(); ++u) {
    const auto& qn = q.node(u);
    if (qn.wildcard) {
      nq.AddWildcardNode(qn.type_name);
    } else {
      nq.AddNode(qn.label, qn.type_name);
    }
  }
  for (int e = 0; e < q.edge_count(); ++e) {
    if (e == drop) continue;
    const auto& qe = q.edge(e);
    nq.AddEdge(qe.u, qe.v, qe.wildcard_relation ? "" : qe.relation);
  }
  return nq;
}

query::QueryGraph DropQueryNode(const query::QueryGraph& q, int drop) {
  query::QueryGraph nq;
  for (int u = 0; u < q.node_count(); ++u) {
    if (u == drop) continue;
    const auto& qn = q.node(u);
    if (qn.wildcard) {
      nq.AddWildcardNode(qn.type_name);
    } else {
      nq.AddNode(qn.label, qn.type_name);
    }
  }
  const auto remap = [drop](int u) { return u > drop ? u - 1 : u; };
  for (int e = 0; e < q.edge_count(); ++e) {
    const auto& qe = q.edge(e);
    if (qe.u == drop || qe.v == drop) continue;
    nq.AddEdge(remap(qe.u), remap(qe.v),
               qe.wildcard_relation ? "" : qe.relation);
  }
  return nq;
}

/// New graph keeping exactly the nodes with keep[v] (edges touching a
/// dropped node go with it). Queries reference labels, never node ids, so
/// this is always a semantically valid reduction.
graph::KnowledgeGraph FilterGraphNodes(const graph::KnowledgeGraph& g,
                                       const std::vector<bool>& keep) {
  graph::KnowledgeGraph::Builder b;
  std::vector<graph::NodeId> remap(g.node_count(), graph::kInvalidNode);
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.node_count());
       ++v) {
    if (!keep[v]) continue;
    const int32_t t = g.NodeType(v);
    remap[v] = b.AddNode(std::string(g.NodeLabel(v)), std::string(g.TypeName(t)));
  }
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.edge_count());
       ++e) {
    const graph::NodeId s = remap[g.EdgeSrc(e)];
    const graph::NodeId d = remap[g.EdgeDst(e)];
    if (s == graph::kInvalidNode || d == graph::kInvalidNode) continue;
    b.AddEdge(s, d, g.RelationName(g.EdgeRelation(e)));
  }
  return std::move(b).Build();
}

graph::KnowledgeGraph DropGraphEdgeRange(const graph::KnowledgeGraph& g,
                                         size_t lo, size_t hi) {
  graph::KnowledgeGraph::Builder b;
  for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g.node_count());
       ++v) {
    const int32_t t = g.NodeType(v);
    b.AddNode(std::string(g.NodeLabel(v)), std::string(g.TypeName(t)));
  }
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.edge_count());
       ++e) {
    if (e >= lo && e < hi) continue;
    b.AddEdge(g.EdgeSrc(e), g.EdgeDst(e), g.RelationName(g.EdgeRelation(e)));
  }
  return std::move(b).Build();
}

}  // namespace

ShrinkResult ShrinkCase(const FuzzCase& c, const std::string& target_check,
                        const ShrinkOptions& opts) {
  ShrinkResult res;
  res.minimal = CopyCase(c);

  const auto budget = [&] { return res.attempts < opts.max_attempts; };
  // Evaluates one candidate; on success it becomes the new minimum.
  const auto try_accept = [&](FuzzCase cand) {
    if (!budget()) return false;
    ++res.attempts;
    if (!StillFails(cand, target_check, opts.runner)) return false;
    res.minimal = std::move(cand);
    ++res.reductions;
    return true;
  };

  bool progress = true;
  while (progress && budget()) {
    progress = false;

    // --- k: halve while the failure survives ---
    while (res.minimal.k > 1 && budget()) {
      FuzzCase cand = CopyCase(res.minimal);
      cand.k = std::max<size_t>(1, cand.k / 2);
      if (!try_accept(std::move(cand))) break;
      progress = true;
    }

    // --- query edges (connectivity-preserving) ---
    for (int e = res.minimal.query.edge_count() - 1; e >= 0 && budget();
         --e) {
      query::QueryGraph nq = DropQueryEdge(res.minimal.query, e);
      if (!nq.IsConnected()) continue;
      FuzzCase cand = CopyCase(res.minimal);
      cand.query = std::move(nq);
      if (try_accept(std::move(cand))) progress = true;
    }

    // --- query leaf nodes ---
    for (int u = res.minimal.query.node_count() - 1;
         u >= 0 && res.minimal.query.node_count() > 1 && budget(); --u) {
      if (res.minimal.query.Degree(u) > 1) continue;
      query::QueryGraph nq = DropQueryNode(res.minimal.query, u);
      if (nq.node_count() == 0 || !nq.IsConnected()) continue;
      FuzzCase cand = CopyCase(res.minimal);
      cand.query = std::move(nq);
      if (try_accept(std::move(cand))) progress = true;
    }

    // --- graph nodes: remove chunks, halving the chunk size ---
    for (size_t chunk = std::max<size_t>(1, res.minimal.graph.node_count() / 2);
         chunk >= 1 && budget(); chunk /= 2) {
      const size_t n = res.minimal.graph.node_count();
      for (size_t start = 0; start < n && budget(); start += chunk) {
        if (res.minimal.graph.node_count() <= 1) break;
        if (start >= res.minimal.graph.node_count()) break;
        std::vector<bool> keep(res.minimal.graph.node_count(), true);
        const size_t end =
            std::min(start + chunk, res.minimal.graph.node_count());
        for (size_t v = start; v < end; ++v) keep[v] = false;
        FuzzCase cand = CopyCase(res.minimal);
        cand.graph = FilterGraphNodes(res.minimal.graph, keep);
        if (cand.graph.node_count() == 0) continue;
        if (try_accept(std::move(cand))) progress = true;
      }
      if (chunk == 1) break;
    }

    // --- graph edges: same chunked removal over edge ids ---
    for (size_t chunk = std::max<size_t>(1, res.minimal.graph.edge_count() / 2);
         chunk >= 1 && budget(); chunk /= 2) {
      const size_t n = res.minimal.graph.edge_count();
      for (size_t start = 0; start < n && budget(); start += chunk) {
        if (start >= res.minimal.graph.edge_count()) break;
        const size_t end =
            std::min(start + chunk, res.minimal.graph.edge_count());
        FuzzCase cand = CopyCase(res.minimal);
        cand.graph = DropGraphEdgeRange(res.minimal.graph, start, end);
        if (try_accept(std::move(cand))) progress = true;
      }
      if (chunk == 1) break;
    }

    // --- config simplifications, one knob at a time ---
    const auto try_config = [&](auto mutate) {
      if (!budget()) return;
      FuzzCase cand = CopyCase(res.minimal);
      mutate(cand);
      if (try_accept(std::move(cand))) progress = true;
    };
    if (res.minimal.config.max_candidates > 0) {
      try_config([](FuzzCase& f) { f.config.max_candidates = 0; });
    }
    if (res.minimal.config.max_retrieval > 0) {
      try_config([](FuzzCase& f) { f.config.max_retrieval = 0; });
    }
    if (res.minimal.with_index) {
      try_config([](FuzzCase& f) {
        f.with_index = false;
        f.config.max_retrieval = 0;
      });
    }
    if (res.minimal.config.d > 1) {
      try_config([](FuzzCase& f) { f.config.d = 1; });
    }
    if (res.minimal.tight_deadline_ms > 0.0) {
      try_config([](FuzzCase& f) { f.tight_deadline_ms = 0.0; });
    }
    // Pin the degradation-ladder sweep to a single level: a pinned level
    // runs one certificate cell instead of three, and the replay records
    // which level failed.
    if (res.minimal.degrade == 0 && target_check.rfind("cert", 0) == 0) {
      for (const int l : {1, 2, 3}) {
        try_config([l](FuzzCase& f) { f.degrade = l; });
        if (res.minimal.degrade != 0) break;
      }
    }
    if (res.minimal.config.enforce_injective) {
      try_config([](FuzzCase& f) { f.config.enforce_injective = false; });
    }
  }
  return res;
}

}  // namespace star::testing
