// Property tests of the scoring kernel, one lane at a time: exact-mode
// and accepted thresholded scores must be BITWISE equal to Score() and to
// the naive Features()-dot-weights sum, rejected pairs must truly be below
// the threshold, and the kernel's counters must reach the star search
// stats. test_batch_kernel.cc covers ragged lane batches.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/star_search.h"
#include "query/workload.h"
#include "scoring/query_scorer.h"
#include "test_helpers.h"
#include "text/ensemble.h"
#include "text/similarity.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star {
namespace {

using core::StarSearch;
using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;
using text::SimilarityEnsemble;

// The pair alphabet deliberately mixes case, digits and every SplitTokens
// delimiter; it avoids spelling "inf"/"nan" (strtod would parse those, a
// known corner where the guarded Score() fast path and the raw feature
// vector differ — the kernel mirrors Score()).
std::string RandomLabel(Rng& rng, size_t max_len = 12) {
  static const std::string kAlphabet = "abcDEF 12._-";
  std::string s;
  const size_t len = rng.Below(max_len + 1);
  for (size_t i = 0; i < len; ++i) {
    s.push_back(kAlphabet[rng.Below(kAlphabet.size())]);
  }
  return s;
}

std::vector<std::pair<std::string, std::string>> PairCorpus(uint64_t seed,
                                                            size_t n) {
  // Hand-picked corners first: empties, case-only differences, acronyms,
  // numerals, quantities, years, near-duplicates.
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"", ""},
      {"", "a"},
      {"a", ""},
      {"Brad Pitt", "Brad Pitt"},
      {"Brad Pitt", "brad pitt"},
      {"Brad Pitt", "Brad Garrett"},
      {"JFK", "John Fitzgerald Kennedy"},
      {"Intl", "International"},
      {"Part II", "Part 2"},
      {"Rocky Three", "Rocky 3"},
      {"12 km", "12000 m"},
      {"1994-06-23", "June 1994"},
      {"  ", "  "},
      {"a_b-c", "a b.c"},
      {"aaaa", "aaab"},
  };
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    pairs.emplace_back(RandomLabel(rng), RandomLabel(rng));
  }
  // Mutated near-pairs: same label twice, or with one edit.
  for (size_t i = 0; i < n / 2; ++i) {
    std::string a = RandomLabel(rng);
    std::string b = a;
    if (!b.empty() && rng.Below(2) == 0) b[rng.Below(b.size())] = 'z';
    pairs.emplace_back(std::move(a), std::move(b));
  }
  return pairs;
}

/// Owns the corpus-level context so ensembles with every feature active
/// can be built in one line.
struct FullContextEnsemble {
  text::SynonymDictionary synonyms = text::SynonymDictionary::BuiltIn();
  text::TypeOntology ontology = text::TypeOntology::BuiltIn();
  text::TfIdfModel tfidf;
  std::unique_ptr<SimilarityEnsemble> ensemble;

  explicit FullContextEnsemble(
      const std::vector<std::pair<std::string, std::string>>& corpus) {
    for (const auto& [a, b] : corpus) {
      tfidf.AddDocument(a);
      tfidf.AddDocument(b);
    }
    tfidf.Finalize();
    SimilarityEnsemble::Context ctx;
    ctx.synonyms = &synonyms;
    ctx.tfidf = &tfidf;
    ctx.ontology = &ontology;
    ensemble = std::make_unique<SimilarityEnsemble>(ctx);
  }
};

// One lane of the batch kernel against `threshold`.
double KernelScore(const SimilarityEnsemble& e,
                   const SimilarityEnsemble::PreparedLabelBatch& prepared,
                   std::string_view d, double threshold,
                   text::KernelStats* stats = nullptr) {
  double out = 0.0;
  e.ScoreBatchAgainstThreshold(prepared, &d, 1, threshold, /*query_type=*/-1,
                               /*data_types=*/nullptr, &out, stats);
  return out;
}

// The naive Eq. 1 evaluation: the full feature vector dotted with the
// weights, accumulated in canonical feature order.
double NaiveDot(const SimilarityEnsemble& e, const std::string& q,
                const std::string& d) {
  const std::vector<double> f = e.Features(q, d);
  const std::vector<double>& w = e.weights();
  double s = 0.0;
  for (int i = 0; i < SimilarityEnsemble::kFeatureCount; ++i) s += w[i] * f[i];
  return s;
}

void ExpectExactModeMatchesScore(const SimilarityEnsemble& e,
                                 uint64_t corpus_seed) {
  for (const auto& [q, d] : PairCorpus(corpus_seed, 200)) {
    const double kernel =
        KernelScore(e, e.Prepare(q), d, SimilarityEnsemble::kNoThreshold);
    const double score = e.Score(q, d);
    EXPECT_EQ(kernel, score) << "q=\"" << q << "\" d=\"" << d << "\"";
  }
}

void ExpectThresholdedSemantics(const SimilarityEnsemble& e,
                                uint64_t corpus_seed) {
  for (const auto& [q, d] : PairCorpus(corpus_seed, 150)) {
    const auto prepared = e.Prepare(q);
    const double exact = e.Score(q, d);
    for (const double t : {0.05, 0.2, 0.35, 0.5, 0.8, 1.0}) {
      const double r = KernelScore(e, prepared, d, t);
      if (r >= t) {
        // Accepted results are the exact canonical score, bitwise.
        EXPECT_EQ(r, exact) << "q=\"" << q << "\" d=\"" << d << "\" t=" << t;
      } else {
        // Rejected results may be truncated bounds, but the pair's true
        // score must genuinely be below the threshold (no false rejects).
        EXPECT_LT(exact, t) << "q=\"" << q << "\" d=\"" << d << "\" t=" << t;
      }
    }
  }
}

TEST(ScoringKernelTest, ExactModeMatchesScoreBitwise) {
  ExpectExactModeMatchesScore(SimilarityEnsemble(), /*corpus_seed=*/101);
  const auto corpus = PairCorpus(/*seed=*/102, 200);
  FullContextEnsemble full(corpus);
  ExpectExactModeMatchesScore(*full.ensemble, /*corpus_seed=*/102);
}

TEST(ScoringKernelTest, AcceptedScoresMatchNaiveFeatureDot) {
  const auto corpus = PairCorpus(/*seed=*/103, 200);
  FullContextEnsemble full(corpus);
  const SimilarityEnsemble& e = *full.ensemble;
  for (const auto& [q, d] : corpus) {
    // Score() (and the kernel) shortcut case-insensitive equality to 1.0;
    // the feature dot has no such shortcut, so skip those pairs.
    if (!q.empty() && text::CaseInsensitiveMatch(q, d) == 1.0) continue;
    const double kernel =
        KernelScore(e, e.Prepare(q), d, SimilarityEnsemble::kNoThreshold);
    EXPECT_EQ(kernel, NaiveDot(e, q, d)) << "q=\"" << q << "\" d=\"" << d
                                         << "\"";
  }
}

TEST(ScoringKernelTest, ThresholdedAcceptsExactRejectsTrulyBelow) {
  ExpectThresholdedSemantics(SimilarityEnsemble(), /*corpus_seed=*/104);
  const auto corpus = PairCorpus(/*seed=*/105, 150);
  FullContextEnsemble full(corpus);
  ExpectThresholdedSemantics(*full.ensemble, /*corpus_seed=*/105);
}

// Pairs built to hit stage A's byte-fact caps: the first or last byte
// changed, case-only variants with one byte changed, disjoint byte sets,
// repeated bytes, bytes >= 0x80, and labels on both sides of 64 bytes
// (the bit-parallel alignment limit).
std::vector<std::pair<std::string, std::string>> ByteFactPairs(uint64_t seed,
                                                               size_t n) {
  std::vector<std::pair<std::string, std::string>> pairs = {
      {"abc", "xbc"},     {"abc", "abx"},       {"Abc", "aBx"},
      {"abc", "xyz"},     {"aaaa", "aaab"},     {"abab", "aaaa"},
      {"aab", "abb"},     {"ab", "ba"},         {"ab", "b"},
      {"a", "b"},         {"abc", "abcabc"},    {"cab", "abc"},
      {"\xe9t\xe9", "\xc9t\xe9"}, {"\x80\x81", "\x81\x80"},
      {"\xff\xfe a", "a \xfe\xff"},
  };
  static const std::string kAlphabets[] = {"abcDEF 12._-", "aA", "xyZ",
                                           "\x80\xc3\xa9\xff e"};
  static const std::string kDisjoint = "mnoPQR3";
  Rng rng(seed);
  const auto random_over = [&](const std::string& alphabet, size_t len) {
    std::string s;
    for (size_t i = 0; i < len; ++i) {
      s.push_back(alphabet[rng.Below(alphabet.size())]);
    }
    return s;
  };
  for (size_t i = 0; i < n; ++i) {
    const std::string& alphabet = kAlphabets[rng.Below(4)];
    const size_t len = rng.Below(2) == 0 ? rng.Below(13) : 60 + rng.Below(11);
    std::string q = random_over(alphabet, len);
    std::string d = q;
    const char other = kDisjoint[rng.Below(kDisjoint.size())];
    switch (rng.Below(6)) {
      case 0:  // first byte changed
        if (!d.empty()) d.front() = other;
        break;
      case 1:  // last byte changed
        if (!d.empty()) d.back() = other;
        break;
      case 2:  // case flipped, then one byte changed
        for (char& c : d) {
          if (c >= 'a' && c <= 'z') {
            c = static_cast<char>(c - 'a' + 'A');
          } else if (c >= 'A' && c <= 'Z') {
            c = static_cast<char>(c - 'A' + 'a');
          }
        }
        if (!d.empty()) d[rng.Below(d.size())] = other;
        break;
      case 3:  // disjoint byte sets
        d = random_over(kDisjoint, rng.Below(2) == 0 ? len : rng.Below(70));
        break;
      case 4:  // repeated bytes: one byte of q, many times
        d.assign(rng.Below(70), q.empty() ? 'a' : q[rng.Below(q.size())]);
        break;
      default:  // another label over the same alphabet
        d = random_over(alphabet, rng.Below(2) == 0 ? len : rng.Below(70));
        break;
    }
    if (rng.Below(2) == 0) std::swap(q, d);
    pairs.emplace_back(std::move(q), std::move(d));
  }
  return pairs;
}

// With one feature weighted, a threshold above every score rejects each
// lane in stage A, and the value returned is the bound, that feature's
// cap. Every cap must dominate its feature, and every zero cap must be a
// feature value of exactly 0.0: stage B skips zero-cap features without
// evaluating them. Zero caps on pairs of labels of two or more bytes each
// come only from the byte facts, so the test also counts them per row.
TEST(ScoringKernelTest, ByteFactCapsDominateTheirFeatures) {
  using E = SimilarityEnsemble;
  const auto pairs = ByteFactPairs(/*seed=*/108, 600);
  const E::Feature rows[] = {
      E::kPrefix,      E::kSuffix,      E::kAbbreviation,
      E::kJaro,        E::kJaroWinkler, E::kLevenshtein,
      E::kDamerauLevenshtein, E::kLcs,  E::kLongestCommonSubstring,
      E::kSmithWaterman, E::kContainment};
  for (const E::Feature f : rows) {
    SimilarityEnsemble e;
    std::vector<double> w(E::kFeatureCount, 0.0);
    w[f] = 1.0;
    e.SetWeights(w);
    size_t byte_fact_zeros = 0;
    for (const auto& [q, d] : pairs) {
      // Case-insensitively equal lanes take the 1.0 shortcut, no caps.
      if (!q.empty() && text::CaseInsensitiveMatch(q, d) == 1.0) continue;
      const double cap = KernelScore(e, e.Prepare(q), d, /*threshold=*/2.0);
      const double value = e.Features(q, d)[f];
      const std::string pair = "q=\"" + q + "\" d=\"" + d + "\" feature " +
                               E::FeatureNames()[f];
      EXPECT_GE(cap + 1e-9, value) << pair;
      if (cap == 0.0) {
        EXPECT_EQ(value, 0.0) << pair;
        if (q.size() >= 2 && d.size() >= 2) ++byte_fact_zeros;
      }
    }
    EXPECT_GT(byte_fact_zeros, 0u) << E::FeatureNames()[f];
  }
  // The same pairs keep the thresholded contract under uniform weights.
  const SimilarityEnsemble e;
  for (const auto& [q, d] : pairs) {
    const auto prepared = e.Prepare(q);
    const double exact = e.Score(q, d);
    for (const double t : {0.2, 0.35, 0.5, 0.8}) {
      const double r = KernelScore(e, prepared, d, t);
      if (r >= t) {
        EXPECT_EQ(r, exact) << "q=\"" << q << "\" d=\"" << d << "\" t=" << t;
      } else {
        EXPECT_LT(exact, t) << "q=\"" << q << "\" d=\"" << d << "\" t=" << t;
      }
    }
  }
}

TEST(ScoringKernelTest, CustomWeightsStayExactAfterRebuild) {
  SimilarityEnsemble e;
  // A lopsided weighting (several zeros, including the exact and
  // length-ratio features) forces a non-uniform sweep order.
  std::vector<double> w(SimilarityEnsemble::kFeatureCount, 0.0);
  w[SimilarityEnsemble::kLevenshtein] = 5.0;
  w[SimilarityEnsemble::kJaroWinkler] = 3.0;
  w[SimilarityEnsemble::kTokenJaccard] = 2.0;
  w[SimilarityEnsemble::kMongeElkan] = 2.0;
  w[SimilarityEnsemble::kPrefix] = 1.0;
  w[SimilarityEnsemble::kDate] = 0.5;
  w[SimilarityEnsemble::kNumeralAware] = 0.5;
  e.SetWeights(w);
  ExpectExactModeMatchesScore(e, /*corpus_seed=*/106);
  ExpectThresholdedSemantics(e, /*corpus_seed=*/107);
}

TEST(ScoringKernelTest, StatsCountPairsExitsAndSkips) {
  SimilarityEnsemble e;
  text::KernelStats stats;
  const auto prepared = e.Prepare("Benjamin Button");
  const std::vector<std::string> data = {
      "Benjamin Button", "Benjamin Button.", "Benjamin B.", "zzzz",
      "12._-",           "",                 "qqqq qqqq"};
  constexpr double kThreshold = 0.6;
  for (const auto& d : data) {
    KernelScore(e, prepared, d, kThreshold, &stats);
  }
  EXPECT_EQ(stats.pairs, data.size());
  // "zzzz" & co. cannot reach the threshold: at least one pair must exit
  // early and skip feature evaluations. "Benjamin Button." scores above
  // it, so no sound cap rejects it: it runs the whole sweep.
  ASSERT_GE(e.Score("Benjamin Button", "Benjamin Button."), kThreshold);
  EXPECT_GT(stats.early_exits, 0u);
  EXPECT_GT(stats.features_skipped, 0u);
  EXPECT_GT(stats.features_evaluated, 0u);

  // Exact mode never exits early.
  text::KernelStats exact_stats;
  for (const auto& d : data) {
    KernelScore(e, prepared, d, SimilarityEnsemble::kNoThreshold,
                &exact_stats);
  }
  EXPECT_EQ(exact_stats.early_exits, 0u);
  EXPECT_EQ(exact_stats.features_skipped, 0u);
}

TEST(ScoringKernelParallelDeterminismTest, KernelStatsFlowIntoSearchStats) {
  const auto g = SmallRandomGraph(/*seed=*/41, /*nodes=*/40, /*edges=*/90);
  query::WorkloadGenerator wg(g, /*seed=*/23);
  const auto q = wg.RandomStarQuery(4, query::WorkloadOptions{});
  ScorerFixture fx(g, q, TestConfig(/*d=*/2));
  StarSearch search(*fx.scorer, core::MakeStarQuery(q), StarSearch::Options{});
  (void)search.TopK(5);
  const core::StarSearchStats& st = search.stats();
  EXPECT_GT(st.fn_pairs_scored, 0u);
  EXPECT_GT(st.fn_feature_evals, 0u);
  // Lazy refinement after Initialize() may keep scoring, so the scorer's
  // lifetime totals are at least the Initialize() deltas in the stats.
  EXPECT_LE(st.fn_pairs_scored, fx.scorer->kernel_stats().pairs);
}

}  // namespace
}  // namespace star
