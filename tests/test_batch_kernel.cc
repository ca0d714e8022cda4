// Property tests of the SoA batched scoring kernel (Prepare /
// ScoreBatchAgainstThreshold) and its wiring through QueryScorer's bulk
// path:
//  - per-lane results must be BITWISE equal to Score() whenever accepted,
//    and a sound sub-threshold upper bound otherwise, for every ragged
//    lane count 1..kBatchLanes;
//  - candidate lists must equal the ones rebuilt from Score() (the
//    harness's fn-oracle check), including candidate sets whose size is
//    not a multiple of the lane width, and duplicated data labels
//    straddling the threshold — the per-call (label, type) memo may only
//    ever hold fully evaluated scores, never rejected-lane bounds.

#include <bit>
#include <cstdint>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "query/workload.h"
#include "scoring/query_scorer.h"
#include "test_helpers.h"
#include "testing/differential.h"
#include "text/ensemble.h"
#include "text/similarity.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star {
namespace {

using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;
using text::SimilarityEnsemble;

// Mixes case, digits and every SplitTokens delimiter; avoids "inf"/"nan"
// (see test_scoring_kernel.cc for why).
std::string RandomLabel(Rng& rng, size_t max_len = 12) {
  static const std::string kAlphabet = "abcDEF 12._-";
  std::string s;
  const size_t len = rng.Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.Below(kAlphabet.size())]);
  }
  return s;
}

std::vector<std::string> LabelCorpus(uint64_t seed, size_t n) {
  // The fixed labels include the token table's cases: repeated tokens,
  // split order unlike byte order, numeral forms, one- and multi-token
  // thesaurus terms, and leading, trailing, repeated and only delimiters.
  std::vector<std::string> labels = {
      "",           "Brad Pitt",  "brad pitt", "Brad Garrett",
      "JFK",        "Intl",       "Part II",   "Part 2",
      "12 km",      "12000 m",    "  ",        "a_b-c",
      "aaaa",       "aaab",       "Rocky 3",   "Rocky Three",
      "rob Rob rob", "zeta alpha mid", "part two ii", "motion picture",
      "--film__teacher..", "-_./,",
  };
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) labels.push_back(RandomLabel(rng));
  return labels;
}

/// Context-complete ensemble (synonyms + ontology + tf-idf over the
/// corpus) so every feature family participates in the batch sweep.
struct FullContextEnsemble {
  text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  text::TypeOntology ontology = text::TypeOntology::BuiltIn();
  text::TfIdfModel tfidf;
  std::unique_ptr<SimilarityEnsemble> ensemble;

  explicit FullContextEnsemble(const std::vector<std::string>& corpus) {
    for (const auto& l : corpus) tfidf.AddDocument(l);
    tfidf.Finalize();
    SimilarityEnsemble::Context ctx;
    ctx.synonyms = &synonyms;
    ctx.tfidf = &tfidf;
    ctx.ontology = &ontology;
    ensemble = std::make_unique<SimilarityEnsemble>(ctx);
  }
};

/// Every lane of every ragged batch width against Score(): accepted lanes
/// bitwise equal, rejected lanes truly below.
void ExpectBatchMatchesScore(const SimilarityEnsemble& e,
                             const std::vector<std::string>& corpus) {
  constexpr int kLanes = SimilarityEnsemble::kBatchLanes;
  for (const auto& q : corpus) {
    const auto batch = e.Prepare(q);
    for (const double t : {SimilarityEnsemble::kNoThreshold, 0.05, 0.4, 0.8}) {
      // Ragged widths: every count 1..kBatchLanes, sliding the window so
      // lane composition varies (partial final batches are the common
      // case in a chunked bulk scan).
      for (int count = 1; count <= kLanes; ++count) {
        for (size_t start = 0; start + size_t(count) <= corpus.size();
             start += size_t(count) * 3 + 1) {
          std::vector<std::string_view> views;
          for (int i = 0; i < count; ++i) {
            views.push_back(corpus[start + size_t(i)]);
          }
          double out[SimilarityEnsemble::kBatchLanes];
          e.ScoreBatchAgainstThreshold(batch, views.data(), views.size(), t,
                                       /*query_type=*/-1,
                                       /*data_types=*/nullptr, out);
          for (int i = 0; i < count; ++i) {
            const std::string& d = corpus[start + size_t(i)];
            const double exact = e.Score(q, d);
            if (t == SimilarityEnsemble::kNoThreshold || out[i] >= t) {
              EXPECT_EQ(out[i], exact)
                  << "q=\"" << q << "\" d=\"" << d << "\" t=" << t
                  << " count=" << count << " lane=" << i;
            } else {
              // Rejected lanes: a sound upper bound — the true score must
              // genuinely be below the threshold (no false rejects).
              EXPECT_LT(exact, t) << "q=\"" << q << "\" d=\"" << d
                                  << "\" t=" << t << " bound=" << out[i];
            }
          }
        }
      }
    }
  }
}

TEST(BatchKernelTest, RaggedLanesMatchScoreBitwise) {
  ExpectBatchMatchesScore(SimilarityEnsemble(), LabelCorpus(211, 40));
}

TEST(BatchKernelTest, FullContextRaggedLanesMatchScoreBitwise) {
  const auto corpus = LabelCorpus(212, 40);
  FullContextEnsemble full(corpus);
  ExpectBatchMatchesScore(*full.ensemble, corpus);
}

TEST(BatchKernelTest, TokenlessLabelsKeepTheTfIdfCap) {
  // Two labels without tokens have tf-idf cosine 1 (two empty vectors),
  // so a query that vectorizes to nothing must still cap the feature at
  // 1. Tf-idf-only weights leave no slack in the other caps to hide a
  // zero cap: Score("-", ".") is 1 here.
  const std::vector<std::string> corpus = {"-",  ".",     "..",   " ", "",
                                           "_-", "alpha", "beta", "alpha beta"};
  text::TfIdfModel tfidf;
  for (const auto& l : corpus) tfidf.AddDocument(l);
  tfidf.Finalize();
  SimilarityEnsemble::Context ctx;
  ctx.tfidf = &tfidf;
  SimilarityEnsemble e(ctx);
  std::vector<double> w(SimilarityEnsemble::kFeatureCount, 0.0);
  w[SimilarityEnsemble::kTfIdfCosine] = 1.0;
  e.SetWeights(w);
  ASSERT_EQ(e.Score("-", "."), 1.0);
  ExpectBatchMatchesScore(e, corpus);
}

TEST(BatchKernelTest, TypedLanesMatchScoreBitwise) {
  // With ontology types attached per lane, the type feature participates;
  // the batch path must still agree with Score() bitwise.
  const auto corpus = LabelCorpus(213, 20);
  FullContextEnsemble full(corpus);
  const SimilarityEnsemble& e = *full.ensemble;
  const int person = full.ontology.FindType("Person");
  const int film = full.ontology.FindType("Film");
  const int types[4] = {person, film, -1, person};
  const auto batch = e.Prepare("Brad Pitt");
  const std::string_view data[4] = {"Brad Garrett", "Troy", "Boyhood",
                                    "brad pitt"};
  for (const double t : {SimilarityEnsemble::kNoThreshold, 0.3, 0.6}) {
    double out[SimilarityEnsemble::kBatchLanes];
    e.ScoreBatchAgainstThreshold(batch, data, 4, t, person, types, out);
    for (int i = 0; i < 4; ++i) {
      const double exact = e.Score("Brad Pitt", data[i], person, types[i]);
      if (t == SimilarityEnsemble::kNoThreshold || out[i] >= t) {
        EXPECT_EQ(out[i], exact) << "lane " << i << " t=" << t;
      } else {
        EXPECT_LT(exact, t) << "lane " << i << " t=" << t;
      }
    }
  }
}

TEST(BatchKernelTest, BatchStatsCountEveryLane) {
  SimilarityEnsemble e;
  text::KernelStats stats;
  const auto batch = e.Prepare("Benjamin Button");
  const std::string_view data[5] = {"Benjamin Button", "Benjamin B.", "zzzz",
                                    "", "qqqq qqqq"};
  double out[SimilarityEnsemble::kBatchLanes];
  e.ScoreBatchAgainstThreshold(batch, data, 5, /*threshold=*/0.9, -1, nullptr,
                               out, &stats);
  EXPECT_EQ(stats.pairs, 5u);
  // "zzzz" & co. cannot reach 0.9: bound rejection must fire and skip
  // feature evaluations for those lanes.
  EXPECT_GT(stats.early_exits, 0u);
  EXPECT_GT(stats.features_skipped, 0u);
}

// ---------------------------------------------------------------------
// Retrieval facts (shares_token): a lane whose label shares no token with
// the query may have its token-only features capped at 0. The pairs are
// found independently of the kernel, and the caps must only ever pin
// exact zeros: with the facts, the kernel keeps the same lanes with the
// same bits as without them.
// ---------------------------------------------------------------------

std::set<std::string> TokenSet(std::string_view label) {
  const auto tokens = SplitTokens(ToLower(label));
  return {tokens.begin(), tokens.end()};
}

bool SharesToken(const std::set<std::string>& a,
                 const std::set<std::string>& b) {
  for (const auto& t : a) {
    if (b.count(t) != 0) return true;
  }
  return false;
}

/// Random labels plus the adversarial ones: delimiter-only labels,
/// repeated tokens, numerals and number words around 20, thesaurus terms,
/// bytes >= 0x80, and labels of 63-65 bytes.
std::vector<std::string> FactCorpus(uint64_t seed) {
  std::vector<std::string> labels = {
      "",        "-",         " . ",         "__",        "--../,",
      "ab ab ab", "ab ab",    "cd ab cd",    "ab",        "ii",
      "two",     "2",         "20",          "21",        "xx",
      "XX",      "one",       "1",           "Part II",   "Part 2",
      "Part 21", "Rocky III", "Rocky three", "film",      "Movie",
      "motion picture",       "picture show", "teacher",  "tutor",
      "teacher ii", "educator two", "caf\xc3\xa9", "\xe9t\xe9 \xe9t\xe9",
      "\x80\x81 \xff",         "Brad Pitt",   "brad",      "Bradd Pit",
  };
  Rng rng(seed);
  for (const size_t len : {63u, 64u, 65u}) {
    for (int k = 0; k < 2; ++k) {
      std::string s = RandomLabel(rng, 2 * len);
      s.resize(len, k == 0 ? 'x' : ' ');
      labels.push_back(std::move(s));
    }
  }
  for (int k = 0; k < 24; ++k) labels.push_back(RandomLabel(rng));
  return labels;
}

TEST(BatchKernelTest, RetrievalFactsCapOnlyExactZeros) {
  using E = SimilarityEnsemble;
  const auto corpus = FactCorpus(214);
  FullContextEnsemble full(corpus);
  // Uniform weights, then each capped feature alone: one-hot weights leave
  // no slack elsewhere, so a cap that zeroes a positive feature flips its
  // lane at every threshold below the feature's value.
  const E::Feature capped[] = {E::kTokenJaccard,      E::kTokenDice,
                               E::kTokenOverlap,      E::kTokenSequenceEdit,
                               E::kTfIdfCosine,       E::kSynonym,
                               E::kNumeralAware};
  std::vector<std::vector<double>> weightings = {
      std::vector<double>(E::kFeatureCount, 1.0)};
  for (const E::Feature f : capped) {
    weightings.emplace_back(E::kFeatureCount, 0.0);
    weightings.back()[f] = 1.0;
  }
  const text::SynonymDictionary& dict = full.synonyms;
  size_t disjoint_pairs = 0, synonym_pairs = 0, numeral_pairs = 0;
  for (const auto& weights : weightings) {
    SimilarityEnsemble e(full.ensemble->context());
    e.SetWeights(weights);
    for (const auto& q : corpus) {
      const auto q_tokens = TokenSet(q);
      const auto batch = e.Prepare(q);
      // The query-side conditions, derived here from their definitions.
      bool synonym_cond = dict.GroupOfLower(ToLower(q)) < 0;
      bool numeral_cond = false;
      for (const auto& t : q_tokens) {
        synonym_cond = synonym_cond && dict.GroupOfLower(t) < 0;
        bool numeral_string = false;
        for (int v = 1; v <= 20; ++v) {
          numeral_string = numeral_string || t == std::to_string(v);
        }
        numeral_cond = numeral_cond ||
                       (text::NumeralTokenValue(t) == 0 && !numeral_string);
      }
      std::vector<uint8_t> shares(corpus.size());
      for (size_t i = 0; i < corpus.size(); ++i) {
        const std::string& d = corpus[i];
        shares[i] = SharesToken(q_tokens, TokenSet(d)) ? 1 : 0;
        if (shares[i] != 0 || q_tokens.empty()) continue;
        ++disjoint_pairs;
        const auto f = e.Features(q, d);
        const std::string pair = "q=\"" + q + "\" d=\"" + d + "\"";
        for (const E::Feature always :
             {E::kTokenJaccard, E::kTokenDice, E::kTokenOverlap,
              E::kTokenSequenceEdit, E::kTfIdfCosine}) {
          EXPECT_EQ(f[always], 0.0) << pair << " feature " << always;
        }
        if (synonym_cond) {
          EXPECT_EQ(f[E::kSynonym], 0.0) << pair;
        } else if (f[E::kSynonym] > 0.0) {
          ++synonym_pairs;
        }
        if (numeral_cond) {
          EXPECT_EQ(f[E::kNumeralAware], 0.0) << pair;
        } else if (f[E::kNumeralAware] > 0.0) {
          ++numeral_pairs;
        }
        EXPECT_GE(e.RetrievalNodeBound(batch, d.size(), text::LooksNumeric(d),
                                       /*shares_token=*/false) +
                      1e-9,
                  e.Score(q, d))
            << pair;
      }
      constexpr size_t kLanes = E::kBatchLanes;
      for (const double t : {0.2, 0.4, 0.6}) {
        for (size_t lo = 0; lo < corpus.size(); lo += kLanes) {
          const size_t count = std::min(kLanes, corpus.size() - lo);
          std::string_view lanes[kLanes];
          for (size_t l = 0; l < count; ++l) lanes[l] = corpus[lo + l];
          double plain[kLanes], with_facts[kLanes];
          e.ScoreBatchAgainstThreshold(batch, lanes, count, t, -1, nullptr,
                                       plain);
          e.ScoreBatchAgainstThreshold(batch, lanes, count, t, -1, nullptr,
                                       with_facts, nullptr,
                                       shares.data() + lo);
          for (size_t l = 0; l < count; ++l) {
            const std::string pair = "q=\"" + q + "\" d=\"" +
                                     corpus[lo + l] +
                                     "\" t=" + std::to_string(t);
            ASSERT_EQ(with_facts[l] >= t, plain[l] >= t) << pair;
            if (plain[l] >= t) {
              EXPECT_EQ(std::bit_cast<uint64_t>(with_facts[l]),
                        std::bit_cast<uint64_t>(plain[l]))
                  << pair;
            } else {
              EXPECT_LT(e.Score(q, corpus[lo + l]), t) << pair;
            }
          }
        }
      }
    }
  }
  // The corpus must exercise both sides of each query-side condition.
  EXPECT_GT(disjoint_pairs, 1000u);
  EXPECT_GT(synonym_pairs, 0u);
  EXPECT_GT(numeral_pairs, 0u);
}

// ---------------------------------------------------------------------
// The kernel's token table is per thread and serves one prepared label at
// a time. Interleaved labels, a scope that passes the size bound, and
// concurrent requests bulk-scoring on pool workers must all keep Score()'s
// bits.
// ---------------------------------------------------------------------

TEST(TokenTableScopeTest, InterleavedLabelsKeepScoreBits) {
  const auto corpus = LabelCorpus(215, 40);
  FullContextEnsemble full(corpus);
  const SimilarityEnsemble& e = *full.ensemble;
  // The two labels share tokens, so a table left bound to one of them
  // gives the other's lanes wrong ids.
  const std::string a = "Part II teacher", b = "teacher film part";
  const auto batch_a = e.Prepare(a);
  const auto batch_b = e.Prepare(b);
  constexpr double kExact = SimilarityEnsemble::kNoThreshold;
  for (const auto& d : corpus) {
    const std::string_view lane = d;
    double out = 0.0;
    // A, B, A on this thread.
    e.ScoreBatchAgainstThreshold(batch_a, &lane, 1, kExact, -1, nullptr, &out);
    EXPECT_EQ(out, e.Score(a, d)) << d;
    e.ScoreBatchAgainstThreshold(batch_b, &lane, 1, kExact, -1, nullptr, &out);
    EXPECT_EQ(out, e.Score(b, d)) << d;
    e.ScoreBatchAgainstThreshold(batch_a, &lane, 1, kExact, -1, nullptr, &out);
    EXPECT_EQ(out, e.Score(a, d)) << d;
  }
}

TEST(TokenTableScopeTest, TableIsClearedPastItsBound) {
  const SimilarityEnsemble e;
  const std::string q = "alpha beta gamma";
  const auto prepared = e.Prepare(q);
  // Each label brings two new tokens, each with a Monge-Elkan row of
  // query_count + 1 = 4 doubles: 10 units a lane, so the scope passes
  // the bound after about 3,300 lanes.
  constexpr size_t kPerLane = 10;
  size_t previous = 0, peak = 0;
  int clears = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string d = "t";
    d += std::to_string(i);
    d += " alpha u";
    d += std::to_string(i);
    const std::string_view lane = d;
    double out = 0.0;
    e.ScoreBatchAgainstThreshold(prepared, &lane, 1,
                                 SimilarityEnsemble::kNoThreshold, -1, nullptr,
                                 &out);
    ASSERT_EQ(out, e.Score(q, d)) << d;
    const size_t size = SimilarityEnsemble::ThreadTokenTableSize();
    if (size < previous) ++clears;
    previous = size;
    peak = std::max(peak, size);
  }
  EXPECT_EQ(clears, 1);
  EXPECT_LE(peak, SimilarityEnsemble::kTokenTableBound + kPerLane);
}

TEST(TokenTableScopeTest, BulkScoreOnWorkerThreadsKeepsScoreBits) {
  // Four pool workers each bulk-score the same labels through their own
  // scorer at once, as four service requests do: each worker's token
  // table serves its own scorer's prepared labels. Labels over a small
  // vocabulary, so each table sees repeats; the two query nodes score in
  // both orders, so scopes change on every worker. With no index and a
  // node threshold of 0, Candidates() scores every node and keeps it.
  static const char* const kTokens[] = {"teacher", "film", "Part", "ii",
                                        "2",       "two",  "zeta", "alpha"};
  Rng rng(216);
  graph::KnowledgeGraph::Builder b;
  std::vector<graph::NodeId> nodes;
  for (int i = 0; i < 300; ++i) {
    std::string label = kTokens[rng.Below(8)];
    for (uint64_t t = rng.Below(3); t > 0; --t) {
      label += rng.Below(2) == 0 ? " " : "-";
      label += kTokens[rng.Below(8)];
    }
    nodes.push_back(b.AddNode(label, "Thing"));
  }
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    b.AddEdge(nodes[i], nodes[i + 1], "rel");
  }
  const auto g = std::move(b).Build();
  query::QueryGraph q;
  q.AddNode("Part two teacher");
  q.AddNode("alpha film ii");
  q.AddEdge(0, 1, "rel");
  const SimilarityEnsemble ensemble;
  std::vector<std::vector<double>> expected(
      2, std::vector<double>(g.node_count(), -1.0));
  for (const int u : {0, 1}) {
    for (const graph::NodeId v : nodes) {
      expected[u][v] = ensemble.Score(q.node(u).label, g.NodeLabel(v));
    }
  }

  constexpr int kWorkers = 4;
  ThreadPool::Global().EnsureWorkers(kWorkers);
  std::latch start(kWorkers), done(kWorkers);
  std::vector<size_t> wrong(kWorkers, 0), scored(kWorkers, 0);
  for (int w = 0; w < kWorkers; ++w) {
    ThreadPool::Global().Submit([&, w] {
      start.arrive_and_wait();
      for (const int first : {0, 1}) {
        auto cfg = TestConfig(/*d=*/1);
        cfg.node_threshold = 0.0;
        scoring::QueryScorer scorer(g, q, ensemble, cfg);
        for (const int u : {first, 1 - first}) {
          for (const scoring::ScoredCandidate& c : scorer.Candidates(u)) {
            ++scored[w];
            if (c.score != expected[u][c.node]) ++wrong[w];
          }
        }
      }
      done.count_down();
    });
  }
  done.wait();
  for (int w = 0; w < kWorkers; ++w) {
    EXPECT_EQ(wrong[w], 0u) << "worker " << w;
    EXPECT_EQ(scored[w], 2 * 2 * nodes.size()) << "worker " << w;
  }
}

// ---------------------------------------------------------------------
// End-to-end: every candidate list QueryScorer builds through the batch
// kernel must equal the list rebuilt from Score() — the fuzz harness's
// fn-oracle check — including lists whose size is not a multiple of the
// lane width.
// ---------------------------------------------------------------------

void ExpectCandidatesMatchScore(const scoring::QueryScorer& scorer,
                                const SimilarityEnsemble& ensemble) {
  star::testing::CaseOutcome out;
  star::testing::CheckFnOracle(scorer, ensemble, "candidates", &out);
  EXPECT_TRUE(out.ok()) << out.Summary();
}

TEST(BatchKernelTest, RaggedCandidateListsMatchScore) {
  // 13 and 27 nodes: full scans end in ragged tail batches (13 = 8+5,
  // 27 = 3*8+3), the case a lane-count bug would corrupt.
  for (const size_t nodes : {13u, 27u, 40u}) {
    const auto g = SmallRandomGraph(/*seed=*/61 + nodes, nodes, nodes * 2);
    query::WorkloadGenerator wg(g, /*seed=*/37);
    const auto q = wg.RandomStarQuery(4, query::WorkloadOptions{});
    for (const bool with_index : {false, true}) {
      ScorerFixture fx(g, q, TestConfig(/*d=*/2), with_index);
      ExpectCandidatesMatchScore(*fx.scorer, fx.ensemble);
    }
  }
}

TEST(BatchKernelParallelDeterminismTest,
     DuplicateSubThresholdLabelsStayIdentical) {
  // Many repeated labels straddling the node threshold: the bulk path's
  // per-call (label, type) memo sees the same key in accepted and
  // rejected lanes. If a rejected lane's truncated bound ever leaked into
  // the memo (or an accepted score were dropped), the duplicate positions
  // would diverge from the list rebuilt from Score().
  graph::KnowledgeGraph::Builder b;
  std::vector<graph::NodeId> nodes;
  for (int i = 0; i < 9; ++i) nodes.push_back(b.AddNode("Brad Pitt", "Actor"));
  for (int i = 0; i < 9; ++i) nodes.push_back(b.AddNode("Brandt", "Actor"));
  for (int i = 0; i < 9; ++i) nodes.push_back(b.AddNode("zzzz", "Actor"));
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    b.AddEdge(nodes[i], nodes[i + 1], "knows");
  }
  const auto g = std::move(b).Build();

  query::QueryGraph q;
  const int a = q.AddNode("Brad Pitt");
  const int c = q.AddWildcardNode("");
  q.AddEdge(a, c, "knows");

  for (const bool with_index : {false, true}) {
    auto cfg = TestConfig(/*d=*/1);
    cfg.node_threshold = 0.40;  // "Brandt" near, "zzzz" far below
    ScorerFixture fx(g, q, cfg, with_index);
    ExpectCandidatesMatchScore(*fx.scorer, fx.ensemble);
    // Every "Brad Pitt" node is a candidate.
    EXPECT_GE(fx.scorer->Candidates(a).size(), 9u);
  }
}

}  // namespace
}  // namespace star
