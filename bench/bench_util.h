#ifndef STAR_BENCH_BENCH_UTIL_H_
#define STAR_BENCH_BENCH_UTIL_H_

// Shared scaffolding for the per-figure benchmark binaries: graph + context
// construction, a uniform engine runner, and fixed-width table printing.
//
// Every binary prints the rows of one paper table/figure. Scales are
// laptop-sized (see DESIGN.md): the goal is the *shape* of each comparison
// (who wins, by what factor, where crossovers fall), not absolute numbers.
//
// Each query runs on the calling thread.
//
// Environment overrides:
//   STAR_BENCH_NODES    graph size (default per binary)
//   STAR_BENCH_QUERIES  queries per workload (default per binary)

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baseline/belief_propagation.h"
#include "baseline/graph_ta.h"
#include "common/timer.h"
#include "core/framework.h"
#include "graph/graph_generator.h"
#include "graph/knowledge_graph.h"
#include "graph/label_index.h"
#include "query/query_graph.h"
#include "query/workload.h"
#include "scoring/match_config.h"
#include "scoring/query_scorer.h"
#include "text/ensemble.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::bench {

inline size_t EnvSize(const char* name, size_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::strtoul(v, nullptr, 10) : fallback;
}

/// Compiler id + version of the build that produced this binary.
inline std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + std::to_string(__clang_major__) + "." +
         std::to_string(__clang_minor__) + "." +
         std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  return std::string("gcc ") + std::to_string(__GNUC__) + "." +
         std::to_string(__GNUC_MINOR__) + "." +
         std::to_string(__GNUC_PATCHLEVEL__);
#else
  return "unknown";
#endif
}

/// One-line JSON object describing the host and build that produced a
/// measurement. Committed BENCH_*.json numbers are only comparable within
/// a host class, so every emitter includes this verbatim — in particular
/// `hardware_threads` is what qualifies (or disqualifies) any throughput
/// claim the surrounding numbers appear to make.
/// STAR_BENCH_BUILD_TYPE / STAR_BENCH_BUILD_FLAGS are baked in by
/// bench/CMakeLists.txt; they fall back to "unknown" for ad-hoc builds.
inline std::string HostJson() {
#if !defined(STAR_BENCH_BUILD_TYPE)
#define STAR_BENCH_BUILD_TYPE "unknown"
#endif
#if !defined(STAR_BENCH_BUILD_FLAGS)
#define STAR_BENCH_BUILD_FLAGS "unknown"
#endif
  std::string s = "{\"hardware_threads\": ";
  s += std::to_string(std::thread::hardware_concurrency());
  s += ", \"compiler\": \"" + CompilerString() + "\"";
  s += ", \"build_type\": \"" STAR_BENCH_BUILD_TYPE "\"";
  s += ", \"flags\": \"" STAR_BENCH_BUILD_FLAGS "\"}";
  return s;
}

/// Prints the shared `"host"` member for a top-level JSON object.
inline void PrintHostJson() {
  std::printf("  \"host\": %s,\n", HostJson().c_str());
}

/// Owns a generated graph plus everything the scorers need.
struct Dataset {
  std::string name;
  graph::KnowledgeGraph graph;
  std::unique_ptr<graph::LabelIndex> index;
  text::SynonymDictionary synonyms;
  text::TypeOntology ontology;
  text::TfIdfModel tfidf;
  std::unique_ptr<text::SimilarityEnsemble> ensemble;

  Dataset(std::string dataset_name, graph::KnowledgeGraph g)
      : name(std::move(dataset_name)),
        graph(std::move(g)),
        synonyms(text::SynonymDictionary::BuiltIn()),
        ontology(text::TypeOntology::BuiltIn()) {
    index = std::make_unique<graph::LabelIndex>(graph);
    for (graph::NodeId v = 0; v < graph.node_count(); ++v) {
      tfidf.AddDocument(graph.NodeLabel(v));
    }
    tfidf.Finalize();
    text::SimilarityEnsemble::Context ctx;
    ctx.synonyms = &synonyms;
    ctx.ontology = &ontology;
    ctx.tfidf = &tfidf;
    ensemble = std::make_unique<text::SimilarityEnsemble>(ctx);
  }
};

inline Dataset MakeDataset(const graph::GeneratorConfig& config) {
  WallTimer t;
  Dataset d(config.name, graph::GenerateGraph(config));
  std::fprintf(stderr, "[setup] %s: %zu nodes, %zu edges (%.1fs)\n",
               d.name.c_str(), d.graph.node_count(), d.graph.edge_count(),
               t.ElapsedSeconds());
  return d;
}

/// Benchmark-wide default matching semantics.
inline scoring::MatchConfig BenchConfig(int d) {
  scoring::MatchConfig cfg;
  cfg.d = d;
  cfg.node_threshold = 0.40;
  cfg.edge_threshold = 0.05;
  cfg.lambda = 0.5;
  cfg.max_candidates = 4000;
  cfg.max_retrieval = 4000;
  return cfg;
}

/// True when `a` and `b` hold the same matches in the same order: equal
/// mappings and bit-identical scores (the identity gates' test).
inline bool SameMatches(const std::vector<core::GraphMatch>& a,
                        const std::vector<core::GraphMatch>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].mapping != b[i].mapping ||
        std::bit_cast<uint64_t>(a[i].score) !=
            std::bit_cast<uint64_t>(b[i].score)) {
      return false;
    }
  }
  return true;
}

/// DBPSB-style workload defaults (§VII-A): <= 50% variables, noisy labels.
inline query::WorkloadOptions BenchWorkloadOptions() {
  query::WorkloadOptions wo;
  wo.variable_fraction = 0.25;
  wo.label_noise = 0.5;
  wo.partial_label = 0.5;  // ambiguous "Brad"-style keywords (Example 1)
  wo.keep_relation = 0.5;
  wo.keep_type = 0.5;
  return wo;
}

enum class Engine { kStark, kStard, kGraphTa, kBp };

inline const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kStark: return "stark";
    case Engine::kStard: return "stard";
    case Engine::kGraphTa: return "graphTA";
    case Engine::kBp: return "BP";
  }
  return "?";
}

struct RunOptions {
  size_t k = 20;
  /// Per-query wall-clock cap for the baselines (0 = none). STAR engines
  /// never need one.
  double budget_ms = 5000.0;
  size_t bp_domain_cap = 500;
  core::DecompositionStrategy decomposition =
      core::DecompositionStrategy::kSimDec;
  double alpha = 0.5;
};

struct WorkloadStats {
  StatAccumulator per_query_ms;
  size_t matches = 0;
  size_t timeouts = 0;
  StatAccumulator depth;        // per-star search depth (join workloads)
  StatAccumulator depth_stddev;  // per-query across-star depth deviation
};

/// Runs one query through one engine and appends to `ws`.
inline void RunQuery(Engine engine, const Dataset& d,
                     const scoring::MatchConfig& match,
                     const query::QueryGraph& q, const RunOptions& opts,
                     WorkloadStats& ws) {
  WallTimer timer;
  switch (engine) {
    case Engine::kStark:
    case Engine::kStard: {
      core::StarOptions so;
      so.strategy = engine == Engine::kStark ? core::StarStrategy::kStark
                                             : core::StarStrategy::kStard;
      so.match = match;
      so.alpha = opts.alpha;
      so.decomposition.strategy = opts.decomposition;
      core::StarFramework fw(d.graph, *d.ensemble, d.index.get(), so);
      ws.matches += fw.TopK(q, opts.k).size();
      const auto& st = fw.last_stats();
      for (const size_t dep : st.star_depths) ws.depth.Add(double(dep));
      if (st.star_depths.size() > 1) {
        StatAccumulator per_star;
        for (const size_t dep : st.star_depths) per_star.Add(double(dep));
        ws.depth_stddev.Add(per_star.StdDev());
      }
      break;
    }
    case Engine::kGraphTa: {
      scoring::QueryScorer scorer(d.graph, q, *d.ensemble, match,
                                  d.index.get());
      baseline::GraphTa ta(scorer, opts.budget_ms);
      ws.matches += ta.TopK(opts.k).size();
      ws.timeouts += ta.stats().timed_out;
      break;
    }
    case Engine::kBp: {
      scoring::QueryScorer scorer(d.graph, q, *d.ensemble, match,
                                  d.index.get());
      baseline::BpOptions bpo;
      bpo.domain_cap = opts.bp_domain_cap;
      bpo.budget_ms = opts.budget_ms;
      baseline::BeliefPropagation bp(scorer, bpo);
      ws.matches += bp.TopK(opts.k).size();
      ws.timeouts += bp.stats().timed_out;
      break;
    }
  }
  ws.per_query_ms.Add(timer.ElapsedMillis());
}

inline WorkloadStats RunWorkload(Engine engine, const Dataset& d,
                                 const scoring::MatchConfig& match,
                                 const std::vector<query::QueryGraph>& queries,
                                 const RunOptions& opts) {
  WorkloadStats ws;
  for (const auto& q : queries) RunQuery(engine, d, match, q, opts, ws);
  return ws;
}

inline const char* DecompositionName(core::DecompositionStrategy s) {
  switch (s) {
    case core::DecompositionStrategy::kRand: return "Rand";
    case core::DecompositionStrategy::kMaxDeg: return "MaxDeg";
    case core::DecompositionStrategy::kSimSize: return "SimSize";
    case core::DecompositionStrategy::kSimTop: return "SimTop";
    case core::DecompositionStrategy::kSimDec: return "SimDec";
  }
  return "?";
}

inline void PrintRule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void PrintTitle(const std::string& title) {
  PrintRule();
  std::printf("%s\n", title.c_str());
  PrintRule();
}

}  // namespace star::bench

#endif  // STAR_BENCH_BENCH_UTIL_H_
