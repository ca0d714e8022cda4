// The batch scoring kernel vs the canonical Score() path, with the
// bit-identity contract checked in-bench. Two parts on the DBpediaLike
// preset:
//
//   1. timing: per pair, one query label against every graph label —
//      Score(), and the batch kernel (query side prepared once,
//      allocation-free data side, kBatchLanes lanes a call) in exact mode
//      and against the candidate threshold; in bulk, every query node's
//      candidate list without and with the label index, built from
//      Score() over the scorer's retrieval pool
//      (testing::CandidatesFromScore) and by QueryScorer::Candidates().
//   2. identity: Score() against the canonical Features()·weights sum,
//      and the batch kernel against Score() bitwise, over (query label,
//      graph label), (relation label, relation name) and (label, label)
//      pairs with labels of 63..130 bytes — both sides of the 64-byte
//      word of the bit-parallel alignment features — and pairs of labels
//      with repeated tokens, numeral forms and thesaurus terms, the
//      vocabulary of the kernel's token table and its synonym and numeral
//      features; every query node's real RankedCandidates pool
//      batch-scored with its retrieval facts (shares_token) at the
//      threshold, where accepted values must be Score() bitwise and
//      rejected pairs truly below; and the timed candidate lists, which
//      must agree in ids and score bits.
//
// Any mismatch fails the run (nonzero exit). Output is one JSON object so
// runs can be committed/diffed (BENCH_scoring.json).
//
// Environment overrides (also see bench_util.h):
//   STAR_BENCH_NODES    dataset size (default 20000)
//   STAR_BENCH_QUERIES  star queries per workload (default 6)

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "testing/differential.h"

namespace star::bench {
namespace {

struct PairBench {
  size_t pairs = 0;
  double score_ms = 0.0;
  double kernel_exact_ms = 0.0;
  double kernel_thresh_ms = 0.0;
  text::KernelStats stats;
};

/// Outcome of the untimed identity sweeps.
struct Identity {
  size_t pairs = 0;
  bool features_sum = true;      // Score() == Features()·weights (1e-12)
  bool exact_bitwise = true;     // both kernels' exact mode == Score()
  bool accepted_bitwise = true;  // accepted values == Score(), others below
  size_t pool_pairs = 0;           // retrieval-pool lanes scored with facts
  size_t pool_disjoint_pairs = 0;  // ... of which share no query token
  bool pool_facts_sound = true;    // the accepted_bitwise rule on those
};

/// Non-wildcard query labels of a workload, deduplicated by position.
std::vector<std::string> QueryLabels(
    const std::vector<query::QueryGraph>& queries) {
  std::vector<std::string> labels;
  for (const auto& q : queries) {
    for (int u = 0; u < q.node_count(); ++u) {
      if (!q.node(u).wildcard) labels.push_back(q.node(u).label);
    }
  }
  return labels;
}

/// Every graph label through the batch kernel, kBatchLanes at a time.
double KernelPass(const text::SimilarityEnsemble& e,
                  const text::SimilarityEnsemble::PreparedLabelBatch& p,
                  const std::vector<std::string_view>& data, double threshold,
                  text::KernelStats* stats) {
  constexpr size_t kLanes = text::SimilarityEnsemble::kBatchLanes;
  double sink = 0.0;
  double out[kLanes];
  for (size_t lo = 0; lo < data.size(); lo += kLanes) {
    const size_t count = std::min(kLanes, data.size() - lo);
    e.ScoreBatchAgainstThreshold(p, data.data() + lo, count, threshold, -1,
                                 nullptr, out, stats);
    for (size_t l = 0; l < count; ++l) sink += out[l];
  }
  return sink;
}

PairBench RunPairBench(const Dataset& d,
                       const std::vector<std::string>& labels,
                       double threshold) {
  const text::SimilarityEnsemble& e = *d.ensemble;
  PairBench r;
  std::vector<text::SimilarityEnsemble::PreparedLabelBatch> prepared;
  prepared.reserve(labels.size());
  for (const auto& l : labels) prepared.push_back(e.Prepare(l));
  std::vector<std::string_view> data;
  for (graph::NodeId v = 0; v < d.graph.node_count(); ++v) {
    data.push_back(d.graph.NodeLabel(v));
  }

  // Timed passes. The canonical path re-derives the query side per pair;
  // the kernel passes share the views prepared once above.
  {
    WallTimer t;
    double sink = 0.0;
    for (const auto& l : labels) {
      for (const std::string_view label : data) sink += e.Score(l, label);
    }
    r.score_ms = t.ElapsedMillis();
    if (sink < 0) std::printf("%f", sink);  // keep the loop alive
  }
  {
    WallTimer t;
    double sink = 0.0;
    for (const auto& p : prepared) {
      sink += KernelPass(e, p, data, text::SimilarityEnsemble::kNoThreshold,
                         nullptr);
    }
    r.kernel_exact_ms = t.ElapsedMillis();
    if (sink < 0) std::printf("%f", sink);
  }
  {
    WallTimer t;
    double sink = 0.0;
    for (const auto& p : prepared) {
      sink += KernelPass(e, p, data, threshold, &r.stats);
    }
    r.kernel_thresh_ms = t.ElapsedMillis();
    if (sink < 0) std::printf("%f", sink);
  }
  r.pairs = labels.size() * data.size();
  return r;
}

/// A thresholded kernel value is sound when it is Score() bitwise if
/// accepted and the canonical score is truly below the threshold if not.
bool Sound(double value, double canonical, double threshold) {
  return value >= threshold ? value == canonical : canonical < threshold;
}

/// Untimed identity sweep over queries x data: Score() against the
/// canonical Features()·weights sum (case-insensitively equal non-empty
/// labels score exactly 1), and the batch kernel against Score() in exact
/// and thresholded mode.
void SweepIdentity(const text::SimilarityEnsemble& e,
                   const std::vector<std::string>& queries,
                   const std::vector<std::string_view>& data,
                   double threshold, Identity* id) {
  using text::SimilarityEnsemble;
  constexpr size_t kLanes = SimilarityEnsemble::kBatchLanes;
  for (const std::string& q : queries) {
    const auto batch = e.Prepare(q);
    const std::string q_lower = ToLower(q);
    for (size_t lo = 0; lo < data.size(); lo += kLanes) {
      const size_t count = std::min(kLanes, data.size() - lo);
      double batch_exact[kLanes], batch_thresh[kLanes];
      e.ScoreBatchAgainstThreshold(batch, data.data() + lo, count,
                                   SimilarityEnsemble::kNoThreshold, -1,
                                   nullptr, batch_exact);
      e.ScoreBatchAgainstThreshold(batch, data.data() + lo, count, threshold,
                                   -1, nullptr, batch_thresh);
      for (size_t l = 0; l < count; ++l) {
        const std::string_view d = data[lo + l];
        const double canonical = e.Score(q, d);
        double sum = 0.0;
        const std::vector<double> f = e.Features(q, d);
        for (int i = 0; i < SimilarityEnsemble::kFeatureCount; ++i) {
          sum += e.weights()[i] * f[i];
        }
        if (!q.empty() && q_lower == ToLower(d)) sum = 1.0;
        id->features_sum &= std::abs(canonical - sum) <= 1e-12;
        id->exact_bitwise &= batch_exact[l] == canonical;
        id->accepted_bitwise &= Sound(batch_thresh[l], canonical, threshold);
        ++id->pairs;
      }
    }
  }
}

/// Sweep over real retrieval pools: each non-wildcard query node's
/// RankedCandidates pool at the retrieval cap, batch-scored at the
/// threshold with the pool's retrieval facts and the ontology types
/// QueryScorer passes, checked against Score() with the same types.
void SweepPools(const Dataset& d,
                const std::vector<query::QueryGraph>& queries,
                double threshold, size_t cap, Identity* id) {
  using text::SimilarityEnsemble;
  constexpr size_t kLanes = SimilarityEnsemble::kBatchLanes;
  const SimilarityEnsemble& e = *d.ensemble;
  const graph::KnowledgeGraph& g = d.graph;
  const auto onto_type = [&](std::string_view name) {
    return name.empty() ? -1 : d.ontology.FindType(name);
  };
  for (const auto& q : queries) {
    for (int u = 0; u < q.node_count(); ++u) {
      const query::QueryNode& qn = q.node(u);
      if (qn.wildcard) continue;
      const int32_t gt =
          qn.type_name.empty() ? -1 : g.FindTypeId(qn.type_name);
      std::vector<uint8_t> shares;
      const auto pool = d.index->RankedCandidates(qn.label, gt, cap, &shares);
      const auto batch = e.Prepare(qn.label);
      const int query_type = onto_type(qn.type_name);
      for (size_t lo = 0; lo < pool.size(); lo += kLanes) {
        const size_t count = std::min(kLanes, pool.size() - lo);
        std::string_view labels[kLanes];
        int types[kLanes];
        for (size_t l = 0; l < count; ++l) {
          const graph::NodeId v = pool[lo + l];
          labels[l] = g.NodeLabel(v);
          const int32_t t = g.NodeType(v);
          types[l] = t >= 0 ? onto_type(g.TypeName(t)) : -1;
        }
        double out[kLanes];
        e.ScoreBatchAgainstThreshold(batch, labels, count, threshold,
                                     query_type, types, out, nullptr,
                                     shares.data() + lo);
        for (size_t l = 0; l < count; ++l) {
          const double canonical =
              e.Score(qn.label, labels[l], query_type, types[l]);
          id->pool_facts_sound &= Sound(out[l], canonical, threshold);
          ++id->pool_pairs;
          if (shares[lo + l] == 0) ++id->pool_disjoint_pairs;
        }
      }
    }
  }
}

/// `count` labels of 63, 64, 65, 80 and 130 bytes, cut from consecutive
/// graph labels joined by spaces: both sides of the 64-byte word.
std::vector<std::string> LongLabels(const graph::KnowledgeGraph& g,
                                    size_t count) {
  static constexpr size_t kLengths[] = {63, 64, 65, 80, 130};
  std::vector<std::string> out;
  graph::NodeId v = 0;
  for (size_t i = 0; i < count; ++i) {
    std::string s;
    const size_t len = kLengths[i % std::size(kLengths)];
    while (s.size() < len) {
      s += g.NodeLabel(v);
      s += ' ';
      v = (v + 1) % static_cast<graph::NodeId>(g.node_count());
    }
    s.resize(len);
    out.push_back(std::move(s));
  }
  return out;
}

/// Labels with repeated tokens, the digit, roman-numeral and number-word
/// forms of numerals, and one- and multi-token thesaurus terms, alone and
/// around the first graph labels' tokens.
std::vector<std::string> VocabularyLabels(const graph::KnowledgeGraph& g) {
  std::vector<std::string> out = {
      "Part II",        "part 2",          "Part Two",     "III",
      "3",              "three",           "xx 20",        "rob rob rob",
      "film film movie", "motion picture", "picture motion",
      "movie maker",    "place of birth",  "teacher educator tutor",
      "--film__teacher..", "Teacher 2 two ii"};
  static constexpr const char* kSuffixes[] = {" ii", " 2", " two", " film",
                                              " motion picture"};
  for (graph::NodeId v = 0; v < std::min<size_t>(40, g.node_count()); ++v) {
    const std::string label(g.NodeLabel(v));
    const std::vector<std::string> tokens = SplitTokens(label);
    out.push_back(label + kSuffixes[v % std::size(kSuffixes)]);
    if (!tokens.empty()) out.push_back(tokens[0] + " " + label);
  }
  return out;
}

/// The five pair sweeps: query labels against every graph label,
/// relation labels against every relation name, long labels against long
/// and short ones, vocabulary labels against themselves and graph labels,
/// and the query nodes' retrieval pools with their facts.
Identity RunIdentity(const Dataset& d, const std::vector<std::string>& labels,
                     const std::vector<query::QueryGraph>& queries,
                     double threshold, size_t retrieval_cap) {
  const text::SimilarityEnsemble& e = *d.ensemble;
  const graph::KnowledgeGraph& g = d.graph;
  Identity id;
  std::vector<std::string_view> node_labels;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    node_labels.push_back(g.NodeLabel(v));
  }
  SweepIdentity(e, labels, node_labels, threshold, &id);

  std::vector<std::string> relation_labels;
  std::vector<std::string_view> relation_names;
  for (uint32_t r = 0; r < g.relation_count(); ++r) {
    relation_labels.push_back(g.RelationName(r));
    relation_names.push_back(g.RelationName(r));
  }
  for (const auto& q : queries) {
    for (int e_idx = 0; e_idx < q.edge_count(); ++e_idx) {
      if (!q.edge(e_idx).wildcard_relation) {
        relation_labels.push_back(q.edge(e_idx).relation);
      }
    }
  }
  SweepIdentity(e, relation_labels, relation_names, threshold, &id);

  std::vector<std::string> long_queries = LongLabels(g, 40);
  std::vector<std::string_view> long_data(long_queries.begin(),
                                          long_queries.end());
  long_data.insert(long_data.end(), node_labels.begin(),
                   node_labels.begin() +
                       std::min<size_t>(256, node_labels.size()));
  long_queries.insert(long_queries.end(), labels.begin(), labels.end());
  SweepIdentity(e, long_queries, long_data, threshold, &id);

  const std::vector<std::string> vocabulary = VocabularyLabels(g);
  std::vector<std::string_view> vocabulary_data(vocabulary.begin(),
                                                vocabulary.end());
  vocabulary_data.insert(vocabulary_data.end(), node_labels.begin(),
                         node_labels.begin() +
                             std::min<size_t>(256, node_labels.size()));
  SweepIdentity(e, vocabulary, vocabulary_data, threshold, &id);
  SweepPools(d, queries, threshold, retrieval_cap, &id);
  return id;
}

struct BulkBench {
  double score_ms = 0.0;
  double kernel_ms = 0.0;
  bool identical = true;
  size_t candidates = 0;
};

/// Every non-wildcard query node's candidate list, built from Score()
/// over the scorer's retrieval pool and then by Candidates() on the batch
/// kernel, each with a fresh scorer per query (online scoring is the
/// measured cost). The two lists must agree in ids and score bits.
BulkBench RunBulkBench(const Dataset& d,
                       const std::vector<query::QueryGraph>& queries,
                       bool with_index) {
  BulkBench r;
  const auto cfg = BenchConfig(/*d=*/2);
  const graph::LabelIndex* index = with_index ? d.index.get() : nullptr;
  for (const auto& q : queries) {
    std::vector<std::vector<scoring::ScoredCandidate>> want(q.node_count());
    {
      WallTimer t;
      const scoring::QueryScorer scorer(d.graph, q, *d.ensemble, cfg, index);
      for (int u = 0; u < q.node_count(); ++u) {
        if (q.node(u).wildcard) continue;
        want[size_t(u)] = testing::CandidatesFromScore(scorer, *d.ensemble, u);
      }
      r.score_ms += t.ElapsedMillis();
    }
    {
      WallTimer t;
      const scoring::QueryScorer scorer(d.graph, q, *d.ensemble, cfg, index);
      for (int u = 0; u < q.node_count(); ++u) {
        if (q.node(u).wildcard) continue;
        const auto& got = scorer.Candidates(u);
        const auto& w = want[size_t(u)];
        r.identical &= std::equal(
            got.begin(), got.end(), w.begin(), w.end(),
            [](const scoring::ScoredCandidate& a,
               const scoring::ScoredCandidate& b) {
              return a.node == b.node && a.score == b.score;
            });
        r.candidates += got.size();
      }
      r.kernel_ms += t.ElapsedMillis();
    }
  }
  return r;
}

double NsPerPair(double ms, size_t pairs) {
  return pairs > 0 ? ms * 1e6 / static_cast<double>(pairs) : 0.0;
}

double Speedup(double base_ms, double ms) {
  return ms > 0 ? base_ms / ms : 0.0;
}

}  // namespace
}  // namespace star::bench

int main() {
  using namespace star;
  using namespace star::bench;

  const size_t nodes = EnvSize("STAR_BENCH_NODES", 20000);
  const size_t num_queries = EnvSize("STAR_BENCH_QUERIES", 6);
  const Dataset d = MakeDataset(graph::DBpediaLike(nodes));
  const double threshold = BenchConfig(2).node_threshold;

  query::WorkloadGenerator wg(d.graph, /*seed=*/71);
  std::vector<query::QueryGraph> queries;
  for (size_t i = 0; i < num_queries; ++i) {
    queries.push_back(wg.RandomStarQuery(4, BenchWorkloadOptions()));
  }
  const auto labels = QueryLabels(queries);

  const PairBench pair = RunPairBench(d, labels, threshold);
  const Identity identity = RunIdentity(d, labels, queries, threshold,
                                        BenchConfig(2).max_retrieval);
  const BulkBench scan = RunBulkBench(d, queries, /*with_index=*/false);
  const BulkBench indexed = RunBulkBench(d, queries, /*with_index=*/true);

  const bool ok = identity.features_sum && identity.exact_bitwise &&
                  identity.accepted_bitwise && identity.pool_facts_sound &&
                  scan.identical && indexed.identical;

  std::printf("{\n");
  std::printf("  \"bench\": \"scoring_kernel\",\n");
  PrintHostJson();
  std::printf("  \"dataset\": {\"name\": \"%s\", \"nodes\": %zu, \"edges\": %zu},\n",
              d.name.c_str(), d.graph.node_count(), d.graph.edge_count());
  std::printf("  \"workload\": {\"queries\": %zu, \"query_labels\": %zu, \"threshold\": %.2f},\n",
              num_queries, labels.size(), threshold);
  std::printf("  \"per_pair\": {\n");
  std::printf("    \"pairs\": %zu,\n", pair.pairs);
  std::printf("    \"score_ns\": %.1f,\n", NsPerPair(pair.score_ms, pair.pairs));
  std::printf("    \"kernel_exact_ns\": %.1f,\n",
              NsPerPair(pair.kernel_exact_ms, pair.pairs));
  std::printf("    \"kernel_thresholded_ns\": %.1f,\n",
              NsPerPair(pair.kernel_thresh_ms, pair.pairs));
  std::printf("    \"speedup_exact\": %.2f,\n",
              Speedup(pair.score_ms, pair.kernel_exact_ms));
  std::printf("    \"speedup_thresholded\": %.2f\n",
              Speedup(pair.score_ms, pair.kernel_thresh_ms));
  std::printf("  },\n");
  std::printf("  \"kernel_stats\": {\"pairs\": %llu, \"early_exits\": %llu, \"features_evaluated\": %llu, \"features_skipped\": %llu},\n",
              static_cast<unsigned long long>(pair.stats.pairs),
              static_cast<unsigned long long>(pair.stats.early_exits),
              static_cast<unsigned long long>(pair.stats.features_evaluated),
              static_cast<unsigned long long>(pair.stats.features_skipped));
  std::printf("  \"bulk_scan\": {\"score_ms\": %.1f, \"kernel_ms\": %.1f, \"speedup\": %.2f, \"candidates\": %zu},\n",
              scan.score_ms, scan.kernel_ms,
              Speedup(scan.score_ms, scan.kernel_ms), scan.candidates);
  std::printf("  \"bulk_indexed\": {\"score_ms\": %.1f, \"kernel_ms\": %.1f, \"speedup\": %.2f, \"candidates\": %zu},\n",
              indexed.score_ms, indexed.kernel_ms,
              Speedup(indexed.score_ms, indexed.kernel_ms),
              indexed.candidates);
  std::printf("  \"identity\": {\"pairs\": %zu, \"features_sum\": %s, \"exact_bitwise\": %s, \"accepted_bitwise\": %s, \"pool_pairs\": %zu, \"pool_disjoint_pairs\": %zu, \"pool_facts_sound\": %s, \"lists_scan_identical\": %s, \"lists_indexed_identical\": %s}\n",
              identity.pairs, identity.features_sum ? "true" : "false",
              identity.exact_bitwise ? "true" : "false",
              identity.accepted_bitwise ? "true" : "false",
              identity.pool_pairs, identity.pool_disjoint_pairs,
              identity.pool_facts_sound ? "true" : "false",
              scan.identical ? "true" : "false",
              indexed.identical ? "true" : "false");
  std::printf("}\n");

  std::fprintf(stderr, "identity: %s\n",
               ok ? "kernel bit-identical to canonical scoring"
                  : "MISMATCH — kernel diverges from canonical scoring");
  return ok ? 0 : 1;
}
