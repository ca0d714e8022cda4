// Serving-layer demo: stand up a serve::QueryService over a small movie
// graph and show the three behaviors a production front end needs —
// admission-controlled concurrent execution, the normalized-query result
// cache (a reordered-but-identical query hits), and per-request deadlines
// that degrade to partial results instead of unbounded latency.
//
//   $ ./serve_demo

#include <cstdio>
#include <future>
#include <vector>

#include "common/deadline.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/query_graph.h"
#include "serve/query_service.h"
#include "text/ensemble.h"

using star::Deadline;
using star::graph::KnowledgeGraph;
using star::graph::LabelIndex;
using star::query::QueryGraph;
using star::serve::QueryRequest;
using star::serve::QueryResponse;
using star::serve::QueryService;
using star::serve::ServiceOptions;
using star::serve::ServiceStats;
using star::text::SimilarityEnsemble;

namespace {

KnowledgeGraph BuildMovieGraph() {
  KnowledgeGraph::Builder b;
  const auto brad_pitt = b.AddNode("Brad Pitt", "Actor");
  const auto brad_garrett = b.AddNode("Brad Garrett", "Actor");
  const auto richard = b.AddNode("Richard Linklater", "Director");
  const auto troy = b.AddNode("Troy", "Film");
  const auto boyhood = b.AddNode("Boyhood", "Film");
  const auto oscar = b.AddNode("Academy Award", "Award");
  const auto globe = b.AddNode("Golden Globe Award", "Award");
  b.AddEdge(brad_pitt, troy, "actedIn");
  b.AddEdge(brad_garrett, troy, "actedIn");
  b.AddEdge(brad_pitt, boyhood, "actedIn");
  b.AddEdge(richard, boyhood, "directed");
  b.AddEdge(boyhood, oscar, "won");
  b.AddEdge(richard, globe, "won");
  b.AddEdge(troy, globe, "nominatedFor");
  return std::move(b).Build();
}

/// "Which movie maker worked with Brad and won an award?" (Figure 1).
QueryGraph BradAwardQuery() {
  QueryGraph q;
  const int brad = q.AddNode("Brad");
  const int maker = q.AddWildcardNode("Director");
  const int award = q.AddNode("Award");
  q.AddEdge(brad, maker);
  q.AddEdge(maker, award);
  return q;
}

/// The same question, nodes/edges added in a different order — e.g. a
/// second client phrasing it bottom-up. Must hit the same cache entry.
QueryGraph BradAwardQueryReordered() {
  QueryGraph q;
  const int award = q.AddNode("Award");
  const int maker = q.AddWildcardNode("Director");
  const int brad = q.AddNode("Brad");
  q.AddEdge(maker, award);
  q.AddEdge(brad, maker);
  return q;
}

void Describe(const char* what, const QueryResponse& r) {
  std::printf("%-28s %-18s matches=%zu cache_hit=%s partial=%s exec=%.2fms\n",
              what, r.status.ToString().c_str(), r.matches.size(),
              r.cache_hit ? "yes" : "no", r.partial ? "yes" : "no", r.exec_ms);
}

}  // namespace

int main() {
  const KnowledgeGraph g = BuildMovieGraph();
  SimilarityEnsemble ensemble;
  LabelIndex index(g);

  ServiceOptions options;
  options.star.match.d = 2;  // awards reachable through a movie
  options.star.match.node_threshold = 0.25;
  options.max_inflight = 2;
  QueryService service(g, ensemble, &index, options);

  std::printf("-- concurrent clients ------------------------------------\n");
  std::vector<std::future<QueryResponse>> inflight;
  for (int i = 0; i < 4; ++i) {
    QueryRequest req;
    req.query = BradAwardQuery();
    req.k = 3;
    inflight.push_back(service.Submit(std::move(req)));
  }
  for (auto& f : inflight) Describe("submit", f.get());

  std::printf("-- normalized-query cache --------------------------------\n");
  QueryRequest reordered;
  reordered.query = BradAwardQueryReordered();
  reordered.k = 3;
  Describe("reordered query", service.Execute(std::move(reordered)));

  std::printf("-- deadlines ---------------------------------------------\n");
  QueryRequest expired;
  expired.query = BradAwardQuery();
  expired.k = 3;
  expired.use_cache = false;
  expired.deadline = Deadline::Expired();
  Describe("already-expired deadline", service.Execute(std::move(expired)));

  const ServiceStats stats = service.stats();
  std::printf("-- service stats -----------------------------------------\n");
  std::printf("submitted=%llu completed=%llu deadline_exceeded=%llu "
              "cache_hit_rate=%.2f\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.deadline_exceeded),
              stats.cache_hit_rate());
  return 0;
}
