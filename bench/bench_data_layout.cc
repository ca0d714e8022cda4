// Flat vs compressed data-plane layout: resident footprint and decode
// throughput, with the layout-transparency contract checked in-bench.
//
// Three measurements on the DBpediaLike preset, per layout:
//
//   1. footprint: resident bytes of the graph CSR + string pool + edge
//      arrays and of the label index (dictionaries + postings arenas),
//      from KnowledgeGraph::Footprint() / LabelIndex::MemoryFootprint().
//   2. candidate-gen: RankedCandidates() over every workload query label
//      (the retrieval path that streams postings through PostingsCursor).
//   3. expansion: full adjacency sweeps (the d-hop expansion decode path;
//      flat borrows the CSR span, compressed decodes delta-varints).
//
// Identity gate: both layouts must return byte-identical candidate lists
// and bitwise-identical top-k (3 strategies) — any mismatch, or a
// compressed footprint that fails to beat flat, exits nonzero. Output is
// one JSON object (committed as BENCH_layout.json).
//
// Usage: bench_data_layout [--quick]
//   --quick shrinks the dataset/workload for CI smoke runs.
//
// Environment overrides (also see bench_util.h):
//   STAR_BENCH_NODES    dataset size (default 20000; --quick 4000)
//   STAR_BENCH_QUERIES  star queries per workload (default 8; --quick 3)

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

namespace star::bench {
namespace {

struct LayoutSide {
  const graph::KnowledgeGraph* graph = nullptr;
  const graph::LabelIndex* index = nullptr;
  graph::GraphFootprint gf;
  graph::IndexFootprint xf;
  double candidate_ms = 0.0;
  double expansion_ms = 0.0;
  size_t candidates = 0;
  size_t edges_decoded = 0;
};

/// Query-label probes: every non-wildcard label of the workload.
std::vector<std::string> Probes(const std::vector<query::QueryGraph>& queries) {
  std::vector<std::string> out;
  for (const auto& q : queries) {
    for (int u = 0; u < q.node_count(); ++u) {
      if (!q.node(u).wildcard) out.push_back(q.node(u).label);
    }
  }
  return out;
}

void RunCandidateGen(LayoutSide& s, const std::vector<std::string>& probes,
                     size_t cap, int repeats) {
  WallTimer t;
  for (int r = 0; r < repeats; ++r) {
    for (const auto& p : probes) {
      s.candidates += s.index->RankedCandidates(p, /*type=*/-1, cap).size();
    }
  }
  s.candidate_ms = t.ElapsedMillis();
}

void RunExpansion(LayoutSide& s, int repeats) {
  WallTimer t;
  size_t sink = 0;
  for (int r = 0; r < repeats; ++r) {
    for (graph::NodeId v = 0; v < s.graph->node_count(); ++v) {
      for (const graph::Neighbor& nb : s.graph->Neighbors(v)) {
        sink += nb.node;
        ++s.edges_decoded;
      }
    }
  }
  s.expansion_ms = t.ElapsedMillis();
  if (sink == 0xdeadbeef) std::printf("%zu", sink);  // keep the sweep alive
}

/// Byte-identical candidate lists and bitwise-identical top-k across the
/// two layouts, over every strategy.
bool IdentitySweep(const Dataset& d, const LayoutSide& flat,
                   const LayoutSide& comp,
                   const std::vector<query::QueryGraph>& queries,
                   const std::vector<std::string>& probes, size_t cap) {
  bool ok = true;
  for (const auto& p : probes) {
    ok &= flat.index->RankedCandidates(p, -1, cap) ==
          comp.index->RankedCandidates(p, -1, cap);
    ok &= flat.index->CandidatesByLabel(p) == comp.index->CandidatesByLabel(p);
  }
  for (const auto strategy :
       {core::StarStrategy::kStark, core::StarStrategy::kStard,
        core::StarStrategy::kHybrid}) {
    core::StarOptions so;
    so.strategy = strategy;
    so.match = BenchConfig(/*d=*/2);
    for (const auto& q : queries) {
      core::StarFramework ffw(*flat.graph, *d.ensemble, flat.index, so);
      core::StarFramework cfw(*comp.graph, *d.ensemble, comp.index, so);
      const auto a = ffw.TopK(q, 20);
      const auto b = cfw.TopK(q, 20);
      if (a.size() != b.size()) {
        ok = false;
        continue;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        ok &= a[i].mapping == b[i].mapping && a[i].score == b[i].score;
      }
    }
  }
  return ok;
}

void PrintSide(const char* name, const LayoutSide& s, bool last) {
  std::printf("  \"%s\": {\n", name);
  std::printf("    \"graph_bytes\": {\"csr\": %zu, \"labels\": %zu, \"edges\": %zu, \"dicts\": %zu, \"total\": %zu, \"slack\": %zu},\n",
              s.gf.csr_bytes, s.gf.label_bytes, s.gf.edge_bytes,
              s.gf.dict_bytes, s.gf.total(), s.gf.capacity_slack);
  std::printf("    \"index_bytes\": {\"tokens\": %zu, \"postings\": %zu, \"types\": %zu, \"trigrams\": %zu, \"total\": %zu, \"slack\": %zu},\n",
              s.xf.token_bytes, s.xf.postings_bytes, s.xf.type_bytes,
              s.xf.trigram_bytes, s.xf.total(), s.xf.capacity_slack);
  std::printf("    \"resident_bytes\": %zu,\n", s.gf.total() + s.xf.total());
  std::printf("    \"candidate_gen\": {\"ms\": %.1f, \"candidates\": %zu},\n",
              s.candidate_ms, s.candidates);
  std::printf("    \"expansion\": {\"ms\": %.1f, \"edges_decoded\": %zu, \"medges_per_s\": %.1f}\n",
              s.expansion_ms, s.edges_decoded,
              s.expansion_ms > 0
                  ? static_cast<double>(s.edges_decoded) / s.expansion_ms / 1e3
                  : 0.0);
  std::printf("  }%s\n", last ? "" : ",");
}

}  // namespace
}  // namespace star::bench

int main(int argc, char** argv) {
  using namespace star;
  using namespace star::bench;

  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const size_t nodes = EnvSize("STAR_BENCH_NODES", quick ? 4000 : 20000);
  const size_t num_queries = EnvSize("STAR_BENCH_QUERIES", quick ? 3 : 8);
  const int repeats = quick ? 2 : 5;

  const Dataset d = MakeDataset(graph::DBpediaLike(nodes));
  const graph::KnowledgeGraph compressed =
      graph::CloneWithLayout(d.graph, graph::GraphLayout::kCompressed);
  const graph::LabelIndex compressed_index(compressed,
                                           graph::GraphLayout::kCompressed);

  LayoutSide flat;
  flat.graph = &d.graph;
  flat.index = d.index.get();
  LayoutSide comp;
  comp.graph = &compressed;
  comp.index = &compressed_index;
  flat.gf = d.graph.Footprint();
  flat.xf = d.index->MemoryFootprint();
  comp.gf = compressed.Footprint();
  comp.xf = compressed_index.MemoryFootprint();

  query::WorkloadGenerator wg(d.graph, /*seed=*/71);
  std::vector<query::QueryGraph> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(wg.RandomStarQuery(4, BenchWorkloadOptions()));
  }
  const auto probes = Probes(queries);
  const size_t cap = BenchConfig(2).max_retrieval;

  RunCandidateGen(flat, probes, cap, repeats);
  RunCandidateGen(comp, probes, cap, repeats);
  RunExpansion(flat, repeats);
  RunExpansion(comp, repeats);

  const bool identical = IdentitySweep(d, flat, comp, queries, probes, cap);
  const size_t flat_bytes = flat.gf.total() + flat.xf.total();
  const size_t comp_bytes = comp.gf.total() + comp.xf.total();
  const bool smaller = comp_bytes < flat_bytes;
  const bool ok = identical && smaller;

  std::printf("{\n");
  std::printf("  \"bench\": \"data_layout\",\n");
  PrintHostJson();
  std::printf("  \"dataset\": {\"name\": \"%s\", \"nodes\": %zu, \"edges\": %zu},\n",
              d.name.c_str(), d.graph.node_count(), d.graph.edge_count());
  std::printf("  \"workload\": {\"queries\": %zu, \"probes\": %zu, \"repeats\": %d, \"quick\": %s},\n",
              num_queries, probes.size(), repeats, quick ? "true" : "false");
  PrintSide("flat", flat, /*last=*/false);
  PrintSide("compressed", comp, /*last=*/false);
  std::printf("  \"reduction\": {\"resident_bytes_saved\": %zu, \"percent\": %.1f},\n",
              flat_bytes - (smaller ? comp_bytes : flat_bytes),
              flat_bytes > 0
                  ? 100.0 * (1.0 - static_cast<double>(comp_bytes) /
                                       static_cast<double>(flat_bytes))
                  : 0.0);
  std::printf("  \"identity\": {\"layouts_identical\": %s, \"compressed_smaller\": %s}\n",
              identical ? "true" : "false", smaller ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr, "identity: %s\n",
               ok ? "layouts bit-identical, compressed footprint smaller"
                  : "FAILURE — layout divergence or no footprint win");
  return ok ? 0 : 1;
}
