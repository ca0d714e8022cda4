// Bound-driven candidate retrieval (DESIGN.md "Bound-driven retrieval"):
// every candidate list the pool walk returns is bitwise the list rebuilt
// from SimilarityEnsemble::Score() (the fuzz harness's fn-oracle
// reference), across cutoffs, retrieval caps, index presence and sampled
// pools; adversarial ties at the max_candidates cut; the walk's bound
// skips on a selective query; and the node upper-bound soundness contract
// (a cap must dominate the score of every node it covers).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "graph/label_index.h"
#include "scoring/query_scorer.h"
#include "test_helpers.h"
#include "testing/differential.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::scoring {
namespace {

using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

// Every non-wildcard candidate list of `scorer` must equal, in ids and
// score bits, the one CandidatesFromScore rebuilds from Score().
void ExpectMatchesScore(const QueryScorer& scorer,
                        const text::SimilarityEnsemble& ens,
                        const std::string& cell) {
  star::testing::CaseOutcome out;
  star::testing::CheckFnOracle(scorer, ens, cell, &out);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

// Walked candidate lists must be byte-identical to the Score()-built ones
// for every (cutoff, retrieval cap, index presence) cell — including
// partial labels that exercise the fuzzy trigram lists.
TEST(PrunedRetrievalTest, CandidateListsBitwiseIdentical) {
  for (const uint64_t seed : {1u, 7u, 23u}) {
    const graph::KnowledgeGraph g = SmallRandomGraph(seed, 60, 140);
    // One exact label, one partial (first token), one noisy miss.
    const std::string exact(g.NodeLabel(seed % g.node_count()));
    const std::string partial = exact.substr(0, exact.find(' '));
    for (const std::string& label : {exact, partial, partial + "zz"}) {
      query::QueryGraph q;
      q.AddNode(label);
      text::SimilarityEnsemble ens;
      const graph::LabelIndex index(g);
      for (const size_t max_candidates : {size_t{0}, size_t{1}, size_t{5}}) {
        for (const size_t max_retrieval : {size_t{0}, size_t{8}}) {
          MatchConfig cfg = TestConfig();
          cfg.max_candidates = max_candidates;
          cfg.max_retrieval = max_retrieval;
          ExpectMatchesScore(QueryScorer(g, q, ens, cfg, &index), ens,
                             label + "/k=" + std::to_string(max_candidates) +
                                 "/r=" + std::to_string(max_retrieval));
        }
      }
      // No-index fallback (the full scan is the pool).
      MatchConfig cfg = TestConfig();
      cfg.max_candidates = 3;
      ExpectMatchesScore(QueryScorer(g, q, ens, cfg, nullptr), ens,
                         label + "/no-index");
    }
  }
}

// Adversarial tie at the cut: many byte-identical labels score exactly
// 1.0, max_candidates slices inside the tie run. The deterministic
// truncation keeps the smallest ids; the walk's heap must reproduce that
// even though high-id duplicates arrive while the heap is already full.
TEST(PrunedRetrievalTest, TieAtTheCutKeepsSmallestIds) {
  graph::KnowledgeGraph::Builder b;
  for (int i = 0; i < 40; ++i) b.AddNode("Brad Pitt", "Actor");
  for (int i = 0; i < 40; ++i) b.AddNode("Brad Garrett Longname", "Actor");
  const graph::KnowledgeGraph g = std::move(b).Build();

  query::QueryGraph q;
  const int u = q.AddNode("Brad Pitt");
  text::SimilarityEnsemble ens;
  const graph::LabelIndex index(g);
  for (const size_t k : {size_t{1}, size_t{7}, size_t{40}, size_t{55}}) {
    MatchConfig cfg = TestConfig();
    cfg.max_candidates = k;
    const QueryScorer scorer(g, q, ens, cfg, &index);
    ExpectMatchesScore(scorer, ens, "tie/k=" + std::to_string(k));
    const CandidateList& got = scorer.Candidates(u);
    // The exact-match prefix must be ids 0..min(k,40)-1 in order.
    const size_t exact = std::min<size_t>(k, 40);
    ASSERT_GE(got.size(), exact);
    for (size_t i = 0; i < exact; ++i) {
      EXPECT_EQ(got[i].node, static_cast<graph::NodeId>(i));
      EXPECT_DOUBLE_EQ(got[i].score, 1.0);
    }
  }
}

// Soundness property behind every skip decision: the per-node bound, with
// the node's retrieval fact, dominates the true ensemble score of every
// node RankedCandidates(label, type, 0) retrieves.
TEST(PrunedRetrievalTest, NodeBoundsDominateMembers) {
  graph::KnowledgeGraph::Builder b;
  // One shared token with wildly varying label shapes.
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

  // Checks the node cap of every member `label` retrieves against the
  // member's score; returns the number of members checked.
  const auto expect_caps_dominate = [&](const text::SimilarityEnsemble& ens,
                                        const std::string& label,
                                        int32_t type,
                                        const graph::LabelIndex& index) {
    const auto batch = ens.Prepare(label);
    std::vector<uint8_t> facts;
    const std::vector<graph::NodeId> members =
        index.RankedCandidates(label, type, 0, &facts);
    EXPECT_FALSE(members.empty()) << label;
    EXPECT_EQ(facts.size(), members.size()) << label;
    for (size_t i = 0; i < members.size() && i < facts.size(); ++i) {
      const graph::NodeId v = members[i];
      const double cap =
          ens.RetrievalNodeBound(batch, index.NodeLabelLength(v),
                                 index.NodeLooksNumeric(v), facts[i] != 0);
      EXPECT_GE(cap + 1e-9, ens.Score(label, g.NodeLabel(v)))
          << label << " node " << v;
    }
    return members.size();
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
  const graph::LabelIndex index(g);
  for (const std::string& label :
       {std::string("alpha tail0"), std::string("alpha 1234"),
        std::string("alphaz")}) {
    // Every label shape behind the shared "alpha" token is covered.
    EXPECT_GE(expect_caps_dominate(ens, label, /*type=*/-1, index), 300u)
        << label;
  }
  ASSERT_EQ(tfidf_only.Score("-", ".."), 1.0);
  expect_caps_dominate(tfidf_only, "-", g.FindTypeId("Mark"), index);
}

// On a selective query over a large pool, the walk must skip the nodes
// whose cap cannot reach the cut while staying bitwise identical: 600
// exact "alpha beta" labels (cap 1.0, the query's byte length) fill the
// cut at 1.0, so the 600 longer labels are bound-skipped unscored. The
// kernel sees 8 lanes per 128-node wave; the chunk dedup copies the rest.
TEST(PrunedRetrievalTest, SelectiveQuerySkipsNodes) {
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

  const QueryScorer scorer(g, q, ens, cfg, &index);
  ExpectMatchesScore(scorer, ens, "selective");
  EXPECT_EQ(scorer.Candidates(u).size(), 5u);

  const RetrievalStats& stats = scorer.retrieval_stats();
  EXPECT_EQ(stats.nodes_considered, 1200u);
  EXPECT_EQ(stats.nodes_bound_skipped, 600u);
  EXPECT_EQ(stats.nodes_scored, 600u);
  EXPECT_EQ(scorer.kernel_stats().pairs, 40u);
  EXPECT_EQ(stats.blocks_considered, 0u);
  EXPECT_EQ(stats.blocks_skipped, 0u);
}

// Typed query nodes with a retrieval cap: the RankedCandidates pool mixes
// token hits with type-only entries, whose retrieval facts (no shared
// token) let the batch kernel and the node bound cap the token-only
// features at 0. On the full and the sampled pool, Candidates() must
// equal the lists rebuilt from Score() (the fuzz harness's fn-oracle
// check) bitwise. The synonym- and numeral-heavy
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
  for (const char* label :
       {"movie", "two", "2", "ii", "21", "Part Two", "teacher", "alpha"}) {
    q.AddNode(label, "Film");
  }
  for (const text::SimilarityEnsemble* ens : {&uniform, &heavy}) {
    for (const size_t max_retrieval : {size_t{8}, size_t{1000}}) {
      for (const size_t max_candidates : {size_t{0}, size_t{3}, size_t{1000}}) {
        for (const double sample_rate : {1.0, 0.6}) {
          MatchConfig cfg = TestConfig();
          cfg.max_retrieval = max_retrieval;
          cfg.max_candidates = max_candidates;
          cfg.sample_rate = sample_rate;
          cfg.sample_seed = 9;
          const std::string cell =
              std::string(ens == &heavy ? "heavy" : "uniform") +
              "/r=" + std::to_string(max_retrieval) +
              "/k=" + std::to_string(max_candidates) +
              "/s=" + std::to_string(sample_rate);
          ExpectMatchesScore(QueryScorer(g, q, *ens, cfg, &index), *ens, cell);
        }
      }
    }
  }
}

// At max_retrieval = 0 a labelled pool is RankedCandidates' whole union,
// and it carries the retrieval facts a capped pool does: one per pool node,
// as RankedCandidates(label, type, 0) reports them. Type-only and fuzzy
// pool nodes share no query token; under synonym-heavy weights some of
// them are candidates ("film" for "movie"), and every list must still be
// bitwise the one CandidatesFromScore rebuilds from Score().
TEST(PrunedRetrievalTest, UncappedPoolCarriesRetrievalFacts) {
  graph::KnowledgeGraph::Builder b;
  for (const char* label : {"film", "Movie", "motion picture", "Part II",
                            "Part 2", "ii", "two", "teacher", "educator",
                            "alpha beta"}) {
    b.AddNode(label, "Film");
  }
  b.AddNode("movie night", "Event");
  b.AddNode("alpha", "Person");
  const graph::KnowledgeGraph g = std::move(b).Build();
  const graph::LabelIndex index(g);

  text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  text::TfIdfModel tfidf;
  for (graph::NodeId v = 0; v < g.node_count(); ++v) {
    tfidf.AddDocument(g.NodeLabel(v));
  }
  tfidf.Finalize();
  text::SimilarityEnsemble::Context ctx;
  ctx.synonyms = &synonyms;
  ctx.tfidf = &tfidf;
  text::SimilarityEnsemble ens(ctx);
  std::vector<double> w(text::SimilarityEnsemble::kFeatureCount, 0.1);
  w[text::SimilarityEnsemble::kSynonym] = 4.0;
  w[text::SimilarityEnsemble::kNumeralAware] = 4.0;
  ens.SetWeights(w);
  ASSERT_GT(ens.Score("movie", "film"), TestConfig().node_threshold);

  query::QueryGraph q;
  q.AddNode("movie", "Film");
  q.AddNode("two", "Film");
  q.AddNode("moive", "");  // fuzzy only: expands to "movie"
  q.AddNode("alpha", "");
  for (const size_t max_candidates : {size_t{0}, size_t{2}}) {
    MatchConfig cfg = TestConfig();
    cfg.max_candidates = max_candidates;
    const QueryScorer scorer(g, q, ens, cfg, &index);
    size_t tokenless_candidates = 0;
    for (int u = 0; u < q.node_count(); ++u) {
      const query::QueryNode& qn = q.node(u);
      const int32_t type =
          qn.type_name.empty() ? -1 : g.FindTypeId(qn.type_name);
      std::vector<uint8_t> want_facts;
      const std::vector<graph::NodeId> want_pool =
          index.RankedCandidates(qn.label, type, 0, &want_facts);
      std::vector<uint8_t> facts;
      EXPECT_EQ(scorer.RetrievalPool(u, &facts), want_pool) << qn.label;
      EXPECT_EQ(facts, want_facts) << qn.label;

      const std::vector<ScoredCandidate> want =
          star::testing::CandidatesFromScore(scorer, ens, u);
      const CandidateList& got = scorer.Candidates(u);
      ASSERT_EQ(got.size(), want.size()) << qn.label;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].node, want[i].node) << qn.label << " #" << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(got[i].score),
                  std::bit_cast<uint64_t>(want[i].score))
            << qn.label << " #" << i;
        const size_t at = static_cast<size_t>(
            std::find(want_pool.begin(), want_pool.end(), got[i].node) -
            want_pool.begin());
        if (at < want_facts.size() && want_facts[at] == 0) {
          ++tokenless_candidates;
        }
      }
    }
    // The facts reach lists that keep nodes sharing no query token.
    EXPECT_GT(tokenless_candidates, 0u) << "k=" << max_candidates;
  }
}

}  // namespace
}  // namespace star::scoring
