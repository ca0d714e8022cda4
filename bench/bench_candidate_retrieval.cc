// Bound-driven candidate retrieval vs score-everything retrieval
// (DESIGN.md "Bound-driven retrieval"): per-selectivity-class wall time,
// candidates fully scored, and block skip counters, with the bitwise
// identity contract checked in-bench.
//
// Three probe classes over the DBpediaLike preset, each a single-node
// query retrieved through the block-max walk (max_retrieval = 0, so the
// postings union itself is the retrieval set):
//
//   1. selective: exact node labels — theta reaches the top scores after
//      the first waves and most blocks are skipped outright.
//   2. partial:   first label token only — broader unions, mid thetas.
//   3. fuzzy:     misspelled token — trigram-expanded unions, the
//      weakest bounds (worst case for pruning).
//
// Identity gate: for every probe the pruned candidate list must be
// byte-identical to the unpruned one (ids AND score bits, including the
// deterministic tie cut). Reduction gate: on the selective class the
// pruned path must fully score at least 3x fewer candidates than the
// unpruned path (1.5x under --quick, whose 5x smaller unions barely
// clear the first waves). Any violation exits nonzero. Output is one
// JSON object (committed as BENCH_candidates.json).
//
// Usage: bench_candidate_retrieval [--quick]
//   --quick shrinks the dataset/probe count for CI smoke runs.
//
// Environment overrides (also see bench_util.h):
//   STAR_BENCH_NODES   dataset size (default 20000; --quick 4000)
//   STAR_BENCH_PROBES  probes per class (default 12; --quick 4)

#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"

namespace star::bench {
namespace {

struct ClassResult {
  const char* name = "";
  double off_ms = 0.0;
  double on_ms = 0.0;
  size_t pool_off = 0;        // candidates retrieved without pruning
  // "Fully scored" = kernel pairs that survived every upper-bound early
  // exit and ran the complete feature sweep (pairs - early_exits). The
  // pruned path both scores fewer nodes AND hands the kernel a far higher
  // threshold (theta instead of node_threshold), so its lane caps reject
  // most survivors cheaply too.
  size_t full_off = 0;
  size_t full_on = 0;
  scoring::RetrievalStats stats;  // pruned-path counters
  bool identical = true;
};

/// The most-duplicated labels of the graph (count desc, label asc): the
/// "Brad Pitt" ambiguity regime, where an exact query label has many
/// perfect matches and theta saturates within the first wave.
std::vector<std::string> AmbiguousLabels(const graph::KnowledgeGraph& g,
                                         size_t count) {
  std::map<std::string, size_t> freq;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    ++freq[std::string(g.NodeLabel(v))];
  }
  std::vector<std::pair<size_t, std::string>> ranked;
  ranked.reserve(freq.size());
  for (auto& [label, c] : freq) ranked.push_back({c, label});
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  std::vector<std::string> out;
  for (size_t i = 0; i < count && i < ranked.size(); ++i) {
    out.push_back(ranked[i].second);
  }
  return out;
}

std::vector<std::string> MakeProbes(const graph::KnowledgeGraph& g,
                                    const char* klass, size_t count) {
  std::vector<std::string> out = AmbiguousLabels(g, count);
  if (std::strcmp(klass, "partial") == 0) {
    for (auto& label : out) label = label.substr(0, label.find(' '));
  } else if (std::strcmp(klass, "fuzzy") == 0) {
    for (auto& label : out) label = label.substr(0, label.find(' ')) + "x";
  }
  return out;
}

ClassResult RunClass(const Dataset& d, const char* klass,
                     const std::vector<std::string>& probes,
                     scoring::MatchConfig cfg, int repeats) {
  ClassResult r;
  r.name = klass;
  for (const auto& label : probes) {
    query::QueryGraph q;
    const int u = q.AddNode(label);
    r.pool_off += repeats * d.index->Candidates(label, /*type=*/-1).size();

    std::vector<scoring::ScoredCandidate> reference;
    {
      cfg.use_pruned_retrieval = false;
      WallTimer t;
      for (int rep = 0; rep < repeats; ++rep) {
        scoring::QueryScorer scorer(d.graph, q, *d.ensemble, cfg,
                                    d.index.get());
        const auto& c = scorer.Candidates(u);
        if (rep == 0) reference.assign(c.begin(), c.end());
        const auto& ks = scorer.kernel_stats();
        r.full_off += ks.pairs - ks.early_exits;
      }
      r.off_ms += t.ElapsedMillis();
    }
    {
      cfg.use_pruned_retrieval = true;
      WallTimer t;
      for (int rep = 0; rep < repeats; ++rep) {
        scoring::QueryScorer scorer(d.graph, q, *d.ensemble, cfg,
                                    d.index.get());
        const auto& c = scorer.Candidates(u);
        if (rep == 0) {
          r.identical &= c.size() == reference.size();
          for (size_t i = 0; r.identical && i < c.size(); ++i) {
            r.identical &= c[i].node == reference[i].node &&
                           c[i].score == reference[i].score;
          }
        }
        r.stats.Merge(scorer.retrieval_stats());
        const auto& ks = scorer.kernel_stats();
        r.full_on += ks.pairs - ks.early_exits;
      }
      r.on_ms += t.ElapsedMillis();
    }
  }
  return r;
}

double FullScoreReduction(const ClassResult& r) {
  return r.full_on > 0 ? static_cast<double>(r.full_off) /
                             static_cast<double>(r.full_on)
                       : 0.0;
}

void PrintClass(const ClassResult& r, bool last) {
  std::printf("  \"%s\": {\n", r.name);
  std::printf(
      "    \"unpruned\": {\"ms\": %.1f, \"pool\": %zu, "
      "\"fully_scored\": %zu},\n",
      r.off_ms, r.pool_off, r.full_off);
  std::printf(
      "    \"pruned\": {\"ms\": %.1f, \"waved\": %zu, \"fully_scored\": %zu, "
      "\"blocks_considered\": %zu, \"blocks_skipped\": %zu, "
      "\"nodes_considered\": %zu, \"nodes_deduped\": %zu, "
      "\"nodes_bound_skipped\": %zu},\n",
      r.on_ms, r.stats.nodes_scored, r.full_on, r.stats.blocks_considered,
      r.stats.blocks_skipped, r.stats.nodes_considered,
      r.stats.nodes_deduped, r.stats.nodes_bound_skipped);
  std::printf("    \"fully_scored_reduction\": %.1f,\n",
              FullScoreReduction(r));
  std::printf("    \"speedup\": %.2f,\n",
              r.on_ms > 0 ? r.off_ms / r.on_ms : 0.0);
  std::printf("    \"identical\": %s\n", r.identical ? "true" : "false");
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
  const size_t num_probes = EnvSize("STAR_BENCH_PROBES", quick ? 4 : 12);
  const int repeats = quick ? 1 : 3;

  const Dataset d = MakeDataset(graph::DBpediaLike(nodes));

  // Block-max walk over the postings union itself (no rarity pre-cap),
  // truncated to a top-k-search-sized candidate list.
  scoring::MatchConfig cfg = BenchConfig(/*d=*/2);
  cfg.max_retrieval = 0;
  cfg.max_candidates = 20;

  std::vector<ClassResult> results;
  for (const char* klass : {"selective", "partial", "fuzzy"}) {
    results.push_back(RunClass(d, klass,
                               MakeProbes(d.graph, klass, num_probes),
                               cfg, repeats));
  }

  bool identical = true;
  for (const auto& r : results) identical &= r.identical;
  const double sel_reduction = FullScoreReduction(results[0]);
  // The 3x acceptance gate holds at full scale; the CI --quick smoke runs
  // a 5x smaller graph whose unions barely clear the first waves, so it
  // gates at a correspondingly smaller reduction.
  const double gate = quick ? 1.5 : 3.0;
  const bool reduced = sel_reduction >= gate;
  const bool ok = identical && reduced;

  std::printf("{\n");
  std::printf("  \"bench\": \"candidate_retrieval\",\n");
  PrintHostJson();
  std::printf(
      "  \"dataset\": {\"name\": \"%s\", \"nodes\": %zu, \"edges\": %zu},\n",
      d.name.c_str(), d.graph.node_count(), d.graph.edge_count());
  std::printf(
      "  \"workload\": {\"probes_per_class\": %zu, \"repeats\": %d, "
      "\"max_candidates\": %zu, \"quick\": %s},\n",
      num_probes, repeats, cfg.max_candidates, quick ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    PrintClass(results[i], /*last=*/false);
  }
  std::printf(
      "  \"identity\": {\"all_classes_identical\": %s, "
      "\"selective_reduction\": %.1f, \"reduction_gate\": %.1f, "
      "\"reduction_gate_met\": %s}\n",
      identical ? "true" : "false", sel_reduction, gate,
      reduced ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr, "identity: %s (selective reduction %.1fx, gate %.1fx)\n",
               ok ? "pruned lists bit-identical, reduction gate met"
                  : "FAILURE — retrieval divergence or insufficient reduction",
               sel_reduction, gate);
  return ok ? 0 : 1;
}
