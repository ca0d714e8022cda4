// Bound-driven candidate retrieval (DESIGN.md "Bound-driven retrieval"):
// bitwise identity of the pruned path against the score-everything path
// across engines, thread counts, and postings layouts; adversarial ties
// at the max_candidates cut; and the block/node upper-bound soundness
// contract (a cap must dominate every member it covers).

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/framework.h"
#include "graph/label_index.h"
#include "scoring/query_scorer.h"
#include "test_helpers.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::scoring {
namespace {

using star::testing::MovieGraph;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

std::vector<ScoredCandidate> CandidatesWith(const graph::KnowledgeGraph& g,
                                            const query::QueryGraph& q, int u,
                                            const text::SimilarityEnsemble& ens,
                                            MatchConfig cfg,
                                            const graph::LabelIndex* index,
                                            bool pruned) {
  cfg.use_pruned_retrieval = pruned;
  QueryScorer scorer(g, q, ens, cfg, index);
  const auto& c = scorer.Candidates(u);
  return {c.begin(), c.end()};
}

void ExpectBitwiseEqual(const std::vector<ScoredCandidate>& off,
                        const std::vector<ScoredCandidate>& on,
                        const std::string& cell) {
  ASSERT_EQ(off.size(), on.size()) << cell;
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].node, on[i].node) << cell << " at " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(off[i].score),
              std::bit_cast<uint64_t>(on[i].score))
        << cell << " at " << i;
  }
}

// Pruned candidate lists must be byte-identical to the unpruned ones for
// every (layout, thread count, cutoff, retrieval cap, index presence)
// cell — including partial labels that exercise the fuzzy trigram lists.
TEST(PrunedRetrievalTest, CandidateListsBitwiseIdentical) {
  for (const uint64_t seed : {1u, 7u, 23u}) {
    const graph::KnowledgeGraph g = SmallRandomGraph(seed, 60, 140);
    // One exact label, one partial (first token), one noisy miss.
    const std::string exact(g.NodeLabel(seed % g.node_count()));
    const std::string partial = exact.substr(0, exact.find(' '));
    for (const std::string& label : {exact, partial, partial + "zz"}) {
      query::QueryGraph q;
      const int u = q.AddNode(label);
      text::SimilarityEnsemble ens;
      for (const auto layout :
           {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
        const graph::LabelIndex index(g, layout);
        for (const int threads : {1, 4}) {
          for (const size_t max_candidates : {size_t{0}, size_t{1}, size_t{5}}) {
            for (const size_t max_retrieval : {size_t{0}, size_t{8}}) {
              MatchConfig cfg = TestConfig();
              cfg.threads = threads;
              cfg.max_candidates = max_candidates;
              cfg.max_retrieval = max_retrieval;
              const std::string cell =
                  label + "/layout=" +
                  (layout == graph::GraphLayout::kFlat ? "flat" : "compressed") +
                  "/t=" + std::to_string(threads) +
                  "/k=" + std::to_string(max_candidates) +
                  "/r=" + std::to_string(max_retrieval);
              ExpectBitwiseEqual(
                  CandidatesWith(g, q, u, ens, cfg, &index, false),
                  CandidatesWith(g, q, u, ens, cfg, &index, true), cell);
            }
          }
        }
      }
      // No-index fallback (full scan through the pooled pruner).
      MatchConfig cfg = TestConfig();
      cfg.max_candidates = 3;
      ExpectBitwiseEqual(CandidatesWith(g, q, u, ens, cfg, nullptr, false),
                         CandidatesWith(g, q, u, ens, cfg, nullptr, true),
                         label + "/no-index");
    }
  }
}

// Adversarial tie at the cut: many byte-identical labels score exactly
// 1.0, max_candidates slices inside the tie run. The deterministic
// truncation keeps the smallest ids; the pruned heap must reproduce that
// even though high-id duplicates arrive while the heap is already full.
TEST(PrunedRetrievalTest, TieAtTheCutKeepsSmallestIds) {
  graph::KnowledgeGraph::Builder b;
  for (int i = 0; i < 40; ++i) b.AddNode("Brad Pitt", "Actor");
  for (int i = 0; i < 40; ++i) b.AddNode("Brad Garrett Longname", "Actor");
  const graph::KnowledgeGraph g = std::move(b).Build();

  query::QueryGraph q;
  const int u = q.AddNode("Brad Pitt");
  text::SimilarityEnsemble ens;
  for (const auto layout :
       {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
    const graph::LabelIndex index(g, layout);
    for (const size_t k : {size_t{1}, size_t{7}, size_t{40}, size_t{55}}) {
      MatchConfig cfg = TestConfig();
      cfg.max_candidates = k;
      const auto off = CandidatesWith(g, q, u, ens, cfg, &index, false);
      const auto on = CandidatesWith(g, q, u, ens, cfg, &index, true);
      ExpectBitwiseEqual(off, on, "tie/k=" + std::to_string(k));
      // The exact-match prefix must be ids 0..min(k,40)-1 in order.
      const size_t exact = std::min<size_t>(k, 40);
      ASSERT_GE(on.size(), exact);
      for (size_t i = 0; i < exact; ++i) {
        EXPECT_EQ(on[i].node, static_cast<graph::NodeId>(i));
        EXPECT_DOUBLE_EQ(on[i].score, 1.0);
      }
    }
  }
}

// Soundness property behind every skip decision: a block's cap dominates
// the true ensemble score of every member it covers, and the per-node
// bound dominates that node's score — for every block of every retrieval
// list, in both layouts, on graphs big enough to have multi-block lists.
TEST(PrunedRetrievalTest, BlockAndNodeBoundsDominateMembers) {
  graph::KnowledgeGraph::Builder b;
  // > 2 full blocks of one shared token with wildly varying label shapes.
  for (int i = 0; i < 300; ++i) {
    std::string label = "alpha";
    for (int j = 0; j < i % 7; ++j) label += " tail" + std::to_string(j);
    if (i % 11 == 0) label = "alpha 1234";
    b.AddNode(std::move(label), i % 3 == 0 ? "Thing" : "");
  }
  // Labels without tokens (delimiters only), reachable through their type.
  for (const char* label : {"..", "--", "...", " - ", "_._"}) {
    b.AddNode(label, "Mark");
  }
  const graph::KnowledgeGraph g = std::move(b).Build();

  // Checks every block and node cap of `label`'s retrieval lists against
  // the members' scores; returns the number of blocks walked.
  const auto expect_caps_dominate = [&](const text::SimilarityEnsemble& ens,
                                        const std::string& label,
                                        int32_t type,
                                        const graph::LabelIndex& index) {
    const auto batch = ens.PrepareBatch(label);
    const auto lists = index.RetrievalLists(label, type);
    EXPECT_FALSE(lists.empty()) << label;
    size_t blocks_seen = 0;
    for (const auto& l : lists) {
      for (size_t blk = 0; blk < index.ListBlocks(l); ++blk) {
        ++blocks_seen;
        const double cap =
            ens.RetrievalBlockBound(batch, index.BlockStats(l, blk));
        auto cursor = index.BlockCursor(l, blk);
        uint32_t v;
        size_t members = 0;
        while (cursor.Next(&v)) {
          ++members;
          const double node_cap = ens.RetrievalNodeBound(
              batch, index.NodeLabelLength(v), index.NodeLooksNumeric(v));
          const double score = ens.Score(label, g.NodeLabel(v));
          EXPECT_GE(cap + 1e-9, score)
              << label << " block " << blk << " node " << v;
          EXPECT_GE(node_cap + 1e-9, score) << label << " node " << v;
          EXPECT_GE(cap + 1e-9, node_cap)
              << label << " block " << blk << " node " << v;
        }
        EXPECT_EQ(members, index.BlockSize(l, blk));
      }
    }
    return blocks_seen;
  };

  // A query without tokens against the token-less labels: their tf-idf
  // cosine is 1 (two empty vectors), so the tf-idf cap must be 1 even
  // though the query vectorizes to nothing. Tf-idf-only weights leave no
  // slack in the other caps to hide a zero cap.
  text::TfIdfModel tfidf;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    tfidf.AddDocument(g.NodeLabel(v));
  }
  tfidf.Finalize();
  text::SimilarityEnsemble::Context ctx;
  ctx.tfidf = &tfidf;
  text::SimilarityEnsemble tfidf_only(ctx);
  std::vector<double> w(text::SimilarityEnsemble::kFeatureCount, 0.0);
  w[text::SimilarityEnsemble::kTfIdfCosine] = 1.0;
  tfidf_only.SetWeights(w);

  text::SimilarityEnsemble ens;
  for (const auto layout :
       {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
    const graph::LabelIndex index(g, layout);
    for (const std::string& label :
         {std::string("alpha tail0"), std::string("alpha 1234"),
          std::string("alphaz")}) {
      // The shared "alpha" token must have produced a multi-block list.
      EXPECT_GT(expect_caps_dominate(ens, label, /*type=*/-1, index), 2u)
          << label;
    }
    ASSERT_EQ(tfidf_only.Score("-", ".."), 1.0);
    expect_caps_dominate(tfidf_only, "-", g.FindTypeId("Mark"), index);
  }
}

// Mid-list resume in the compressed layout: concatenating every block
// cursor must reproduce the list exactly (strictly ascending ids, full
// count) — the delta decode depends on the recorded (offset, prev) pair.
TEST(PrunedRetrievalTest, BlockCursorsTileTheListBothLayouts) {
  const graph::KnowledgeGraph g = SmallRandomGraph(5, 400, 900);
  const std::string label(g.NodeLabel(0));
  for (const auto layout :
       {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
    const graph::LabelIndex index(g, layout);
    for (const auto& l : index.RetrievalLists(label, /*type=*/-1)) {
      std::vector<uint32_t> ids;
      for (size_t blk = 0; blk < index.ListBlocks(l); ++blk) {
        auto cursor = index.BlockCursor(l, blk);
        uint32_t v;
        while (cursor.Next(&v)) ids.push_back(v);
      }
      ASSERT_EQ(ids.size(), index.ListCount(l));
      for (size_t i = 1; i < ids.size(); ++i) EXPECT_LT(ids[i - 1], ids[i]);
    }
  }
}

// On a selective query over a large posting union, pruning must actually
// skip work (whole blocks and individually bounded nodes) while staying
// bitwise identical — the counters are the bench's speedup evidence.
TEST(PrunedRetrievalTest, SelectiveQuerySkipsBlocks) {
  graph::KnowledgeGraph::Builder b;
  for (int i = 0; i < 600; ++i) b.AddNode("alpha beta");
  for (int i = 0; i < 600; ++i) {
    b.AddNode("alpha gamma delta epsilon zeta eta theta iota");
  }
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);
  text::SimilarityEnsemble ens;
  query::QueryGraph q;
  const int u = q.AddNode("alpha beta");
  MatchConfig cfg = TestConfig();
  cfg.max_candidates = 5;

  const auto off = CandidatesWith(g, q, u, ens, cfg, &index, false);
  QueryScorer scorer(g, q, ens, cfg, &index);
  const auto& on = scorer.Candidates(u);
  ExpectBitwiseEqual(off, {on.begin(), on.end()}, "selective");

  const auto& stats = scorer.retrieval_stats();
  EXPECT_GT(stats.blocks_considered, 0u);
  EXPECT_GT(stats.blocks_skipped, 0u);
  EXPECT_LT(stats.nodes_scored, g.node_count());
}

// Typed query nodes with a retrieval cap: the RankedCandidates pool mixes
// token hits with type-only entries, whose retrieval facts (no shared
// token) let the batch kernel and the node bound cap the token-only
// features at 0. On the pruned walk, the unpruned path and the sampled
// pool, Candidates() must equal the Score()-only lists
// (use_scoring_kernel = false) bitwise. The synonym- and numeral-heavy
// weighting makes type-only pairs like "movie"/"film" and "two"/"ii"
// candidates through exactly the features whose caps carry query-side
// conditions.
TEST(PrunedRetrievalTest, RetrievalFactsKeepTypedPoolsBitwise) {
  graph::KnowledgeGraph::Builder b;
  const char* film_labels[] = {
      "film",     "Movie",   "motion picture", "picture", "Part II",
      "Part 2",   "ii",      "2",              "two",     "20",
      "xx",       "21",      "Rocky three",    "Rocky 3", "teacher",
      "educator", "- . -",   "alpha beta",     "beta",    "gamma delta"};
  for (int rep = 0; rep < 12; ++rep) {
    for (const char* label : film_labels) b.AddNode(label, "Film");
    b.AddNode("alpha " + std::to_string(rep), "Person");
  }
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);

  text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  text::TypeOntology ontology = text::TypeOntology::BuiltIn();
  text::TfIdfModel tfidf;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    tfidf.AddDocument(g.NodeLabel(v));
  }
  tfidf.Finalize();
  text::SimilarityEnsemble::Context ctx;
  ctx.synonyms = &synonyms;
  ctx.tfidf = &tfidf;
  ctx.ontology = &ontology;
  text::SimilarityEnsemble uniform(ctx);
  text::SimilarityEnsemble heavy(ctx);
  std::vector<double> w(text::SimilarityEnsemble::kFeatureCount, 0.1);
  w[text::SimilarityEnsemble::kSynonym] = 4.0;
  w[text::SimilarityEnsemble::kNumeralAware] = 4.0;
  heavy.SetWeights(w);
  ASSERT_GT(heavy.Score("movie", "film"), TestConfig().node_threshold);
  ASSERT_GT(heavy.Score("two", "ii"), TestConfig().node_threshold);

  query::QueryGraph q;
  std::vector<int> nodes;
  for (const char* label :
       {"movie", "two", "2", "ii", "21", "Part Two", "teacher", "alpha"}) {
    nodes.push_back(q.AddNode(label, "Film"));
  }
  for (const text::SimilarityEnsemble* ens : {&uniform, &heavy}) {
    for (const size_t max_retrieval : {size_t{8}, size_t{1000}}) {
      for (const size_t max_candidates : {size_t{0}, size_t{3}, size_t{1000}}) {
        for (const double sample_rate : {1.0, 0.6}) {
          for (const int threads : {1, 4}) {
            MatchConfig cfg = TestConfig();
            cfg.threads = threads;
            cfg.max_retrieval = max_retrieval;
            cfg.max_candidates = max_candidates;
            cfg.sample_rate = sample_rate;
            cfg.sample_seed = 9;
            MatchConfig reference = cfg;
            reference.use_scoring_kernel = false;
            for (const int u : nodes) {
              const std::string cell =
                  q.node(u).label + (ens == &heavy ? "/heavy" : "/uniform") +
                  "/r=" + std::to_string(max_retrieval) +
                  "/k=" + std::to_string(max_candidates) +
                  "/s=" + std::to_string(sample_rate) +
                  "/t=" + std::to_string(threads);
              const auto want =
                  CandidatesWith(g, q, u, *ens, reference, &index, false);
              ExpectBitwiseEqual(
                  want, CandidatesWith(g, q, u, *ens, cfg, &index, true),
                  cell + "/pruned");
              ExpectBitwiseEqual(
                  want, CandidatesWith(g, q, u, *ens, cfg, &index, false),
                  cell + "/unpruned");
            }
          }
        }
      }
    }
  }
}

// End-to-end: full TopK matches across all three engines, serial and
// parallel, both layouts, must be byte-identical with retrieval pruning
// on and off (scores AND mapped nodes).
TEST(PrunedRetrievalTest, FrameworkTopKBitwiseIdentical) {
  for (const uint64_t seed : {2u, 9u}) {
    const graph::KnowledgeGraph g = SmallRandomGraph(seed, 40, 90);
    query::QueryGraph q;
    const std::string pivot(g.NodeLabel(1));
    const std::string leaf(g.NodeLabel(2));
    const int a = q.AddNode(pivot);
    const int b = q.AddNode(leaf);
    q.AddEdge(a, b);
    for (const auto layout :
         {graph::GraphLayout::kFlat, graph::GraphLayout::kCompressed}) {
      const graph::LabelIndex index(g, layout);
      for (const auto strategy :
           {core::StarStrategy::kStark, core::StarStrategy::kStard,
            core::StarStrategy::kHybrid}) {
        for (const int threads : {1, 4}) {
          core::StarOptions opts;
          opts.strategy = strategy;
          opts.match = TestConfig(2);
          opts.match.threads = threads;
          opts.match.max_candidates = 6;

          text::SimilarityEnsemble ens;
          opts.match.use_pruned_retrieval = false;
          core::StarFramework off_fw(g, ens, &index, opts);
          const auto off = off_fw.TopK(q, 8);

          opts.match.use_pruned_retrieval = true;
          core::StarFramework on_fw(g, ens, &index, opts);
          const auto on = on_fw.TopK(q, 8);

          ASSERT_EQ(off.size(), on.size());
          for (size_t i = 0; i < off.size(); ++i) {
            EXPECT_EQ(std::bit_cast<uint64_t>(off[i].score),
                      std::bit_cast<uint64_t>(on[i].score));
            EXPECT_EQ(off[i].mapping, on[i].mapping);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace star::scoring
