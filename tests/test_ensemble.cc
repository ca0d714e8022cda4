#include "text/ensemble.h"

#include <algorithm>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/string_util.h"
#include "text/phonetic.h"
#include "text/similarity.h"
#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::text {
namespace {

TEST(EnsembleTest, IdenticalLabelsScoreOne) {
  SimilarityEnsemble e;
  EXPECT_DOUBLE_EQ(e.Score("Brad Pitt", "Brad Pitt"), 1.0);
  EXPECT_DOUBLE_EQ(e.Score("brad pitt", "BRAD PITT"), 1.0);
}

TEST(EnsembleTest, ScoreInUnitInterval) {
  SimilarityEnsemble e;
  for (const auto& [a, b] : std::vector<std::pair<std::string, std::string>>{
           {"Brad Pitt", "Brad Garrett"},
           {"", "something"},
           {"J.J. Abrams", "Jeffrey Jacob Abrams"},
           {"42km", "42000m"}}) {
    const double s = e.Score(a, b);
    EXPECT_GE(s, 0.0) << a << " / " << b;
    EXPECT_LE(s, 1.0) << a << " / " << b;
  }
}

TEST(EnsembleTest, CloserStringsScoreHigher) {
  SimilarityEnsemble e;
  EXPECT_GT(e.Score("Brad Pitt", "Brad Pit"), e.Score("Brad Pitt", "Tom Cruise"));
  EXPECT_GT(e.Score("Brad Pitt", "Brad Garrett"),
            e.Score("Brad Pitt", "Xqzw Vbnm"));
}

TEST(EnsembleTest, FeatureVectorShape) {
  SimilarityEnsemble e;
  const auto f = e.Features("abc", "abd");
  EXPECT_EQ(f.size(), static_cast<size_t>(SimilarityEnsemble::kFeatureCount));
  EXPECT_EQ(SimilarityEnsemble::FeatureNames().size(), f.size());
  for (const double x : f) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(EnsembleTest, WeightsNormalized) {
  SimilarityEnsemble e;
  double sum = 0.0;
  for (const double w : e.weights()) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Context-free ensemble gives no weight to context features.
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kSynonym], 0.0);
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kTfIdfCosine], 0.0);
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kTypeOntology], 0.0);
}

TEST(EnsembleTest, SetWeightsClampsAndNormalizes) {
  SimilarityEnsemble e;
  std::vector<double> w(SimilarityEnsemble::kFeatureCount, 0.0);
  w[SimilarityEnsemble::kExact] = 2.0;
  w[SimilarityEnsemble::kLevenshtein] = -5.0;  // clamped to 0
  w[SimilarityEnsemble::kJaro] = 2.0;
  e.SetWeights(w);
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kExact], 0.5);
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kLevenshtein], 0.0);
  EXPECT_DOUBLE_EQ(e.weights()[SimilarityEnsemble::kJaro], 0.5);
}

TEST(EnsembleTest, AllZeroWeightsFallBackToUniform) {
  SimilarityEnsemble e;
  e.SetWeights(std::vector<double>(SimilarityEnsemble::kFeatureCount, 0.0));
  double sum = 0.0;
  for (const double w : e.weights()) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(EnsembleTest, SynonymContextRaisesScore) {
  const auto dict = SynonymDictionary::BuiltIn();
  SimilarityEnsemble::Context ctx;
  ctx.synonyms = &dict;
  SimilarityEnsemble with(ctx);
  SimilarityEnsemble without;
  EXPECT_GT(with.Score("teacher", "educator"),
            without.Score("teacher", "educator"));
}

TEST(EnsembleTest, OntologyContextUsesTypes) {
  const auto onto = TypeOntology::BuiltIn();
  SimilarityEnsemble::Context ctx;
  ctx.ontology = &onto;
  SimilarityEnsemble e(ctx);
  const int actor = onto.FindType("Actor");
  const int director = onto.FindType("Director");
  const int city = onto.FindType("City");
  EXPECT_GT(e.Score("X", "Y", actor, director), e.Score("X", "Y", actor, city));
}

TEST(EnsembleTest, TfIdfContext) {
  TfIdfModel model;
  model.AddDocument("rare gem");
  model.AddDocument("common word");
  model.AddDocument("common thing");
  model.Finalize();
  SimilarityEnsemble::Context ctx;
  ctx.tfidf = &model;
  SimilarityEnsemble e(ctx);
  EXPECT_GT(e.Score("rare stone", "rare gem"), 0.0);
}

// The optimized Score() fast path must be exactly the weighted feature sum.
TEST(EnsembleTest, FastPathMatchesFeatures) {
  const auto dict = SynonymDictionary::BuiltIn();
  const auto onto = TypeOntology::BuiltIn();
  TfIdfModel tfidf;
  tfidf.AddDocument("brad pitt actor");
  tfidf.AddDocument("golden globe award");
  tfidf.AddDocument("los angeles film festival");
  tfidf.Finalize();
  SimilarityEnsemble::Context ctx;
  ctx.synonyms = &dict;
  ctx.ontology = &onto;
  ctx.tfidf = &tfidf;
  SimilarityEnsemble e(ctx);

  const std::vector<std::pair<std::string, std::string>> pairs = {
      {"Brad Pitt", "Brad Garrett"},
      {"Brad Pitt", "brad pitt"},
      {"", ""},
      {"", "x"},
      {"   ", " "},
      {"J.J. Abrams", "Jeffrey Jacob Abrams"},
      {"teacher", "educator"},
      {"42km", "42000 m"},
      {"Los Angeles", "Los Angeles Lakers"},
      {"abc", "cba"},
      {"Film Festival", "festival of films"},
      {"Robert", "Rupert"},
  };
  const int actor = onto.FindType("Actor");
  const int director = onto.FindType("Director");
  for (const auto& [a, b] : pairs) {
    const auto f = e.Features(a, b, actor, director);
    double expected = 0.0;
    for (int i = 0; i < SimilarityEnsemble::kFeatureCount; ++i) {
      expected += e.weights()[i] * f[i];
    }
    // Identical-ignoring-case pairs short-circuit to exactly 1.
    if (!a.empty() && a.size() == b.size() &&
        ToLower(a) == ToLower(b)) {
      expected = 1.0;
    }
    EXPECT_NEAR(e.Score(a, b, actor, director), expected, 1e-12)
        << "a='" << a << "' b='" << b << "'";
  }
}

// Labels of 0..max_len bytes for the alignment features: mixed case,
// digits and delimiters, runs of one repeated character, and bytes >=
// 0x80. Labels straddle the 64-byte word of the bit-parallel kernels.
// The alphabet avoids "inf"/"nan" (see test_scoring_kernel.cc for why).
std::string RandomAlignmentLabel(Rng& rng, size_t max_len) {
  static const std::string kAlphabet = "abcDEF 12._-";
  const size_t len = rng.Below(max_len + 1);
  std::string s;
  while (s.size() < len) {
    char c = kAlphabet[rng.Below(kAlphabet.size())];
    if (rng.Below(4) == 0) c = static_cast<char>(0x80 + rng.Below(0x80));
    const size_t run = rng.Below(4) == 0 ? 1 + rng.Below(8) : 1;
    s.append(std::min(run, len - s.size()), c);
  }
  return s;
}

TEST(EnsembleTest, FastPathMatchesFeaturesRandomized) {
  SimilarityEnsemble e;
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = RandomAlignmentLabel(rng, 130);
    const std::string b = RandomAlignmentLabel(rng, 130);
    const auto f = e.Features(a, b);
    double expected = 0.0;
    for (int i = 0; i < SimilarityEnsemble::kFeatureCount; ++i) {
      expected += e.weights()[i] * f[i];
    }
    if (!a.empty() && a.size() == b.size() && ToLower(a) == ToLower(b)) {
      expected = 1.0;
    }
    EXPECT_NEAR(e.Score(a, b), expected, 1e-12)
        << "a='" << a << "' b='" << b << "'";
  }
}

// Each alignment, rewritten token or gram feature alone (one-hot
// weights): Score(), the scalar kernel and the exact and thresholded batch
// kernels must return the bits of the reference function (similarity.h,
// phonetic.h, TfIdfModel::Cosine). The references share no code with the
// kernels' bit-parallel loops, packed soundex codes, position-wise
// numeral compare, token-run tf-idf vector or hashed gram counts, so a
// wrong rewrite cannot hide behind a kernel == Score() identity.
TEST(EnsembleTest, AlignmentFeaturesMatchReferenceBitwise) {
  // Every label of <= 3 bytes over the bytes a, B and b: Jaro's
  // match window is 0 there. Then tokens with no letter (empty soundex),
  // repeated tokens (tf > 1), numerals, labels of 63/64/65 bytes around
  // the word size, and random labels of 0..130 bytes.
  std::vector<std::string> labels = {""};
  for (size_t i = 0; i < labels.size(); ++i) {
    if (labels[i].size() == 3) continue;
    for (const char c : {'a', 'B', 'b'}) labels.push_back(labels[i] + c);
  }
  for (const char* extra :
       {"12 34", "- 9 -", "Robert Rupert", "rob rob rob", "ab ab cd",
        "Part II", "part 2", "Part Two", "ii", "2", "two", "20", "xx", "21",
        "Ashcraft Tymczak", "Ascraft", "h w", "\xc3\xa9t\xc3\xa9 Pfister",
        "Pister"}) {
    labels.push_back(extra);
  }
  Rng rng(2024);
  for (const size_t len : {63u, 64u, 65u}) {
    for (int k = 0; k < 4; ++k) {
      std::string s = RandomAlignmentLabel(rng, 2 * len);
      s.resize(len, k % 2 == 0 ? 'a' : ' ');
      labels.push_back(std::move(s));
    }
  }
  for (int k = 0; k < 24; ++k) labels.push_back(RandomAlignmentLabel(rng, 130));
  // For the gram measures: repeated grams, NUL bytes, and labels longer
  // than any before them, which grow the kernel's gram dedup table (later
  // short labels then reuse its first slots).
  for (const char* extra : {"aaaa", "abab", "ababab", "aaab", "abcabc"}) {
    labels.push_back(extra);
  }
  labels.push_back(std::string("a\0b\0a\0b", 7));
  labels.push_back(std::string(1, '\0'));
  labels.push_back(std::string("\0\0\0\0", 4));
  labels.push_back(std::string(300, 'a'));
  {
    std::string cycle;
    while (cycle.size() < 260) cycle += "ab\xc3\xa9" "c ";
    labels.push_back(std::move(cycle));
  }
  TfIdfModel tfidf;
  for (const std::string& l : labels) tfidf.AddDocument(l);
  tfidf.AddDocument("rob");  // a document frequency above 1 for one token
  tfidf.Finalize();

  struct Feature {
    SimilarityEnsemble::Feature id;
    std::function<double(std::string_view, std::string_view)> reference;
  };
  const Feature features[] = {
      {SimilarityEnsemble::kJaro, JaroSimilarity},
      {SimilarityEnsemble::kJaroWinkler, JaroWinklerSimilarity},
      {SimilarityEnsemble::kMongeElkan, MongeElkanSimilarity},
      {SimilarityEnsemble::kLevenshtein, LevenshteinSimilarity},
      {SimilarityEnsemble::kDamerauLevenshtein, DamerauLevenshteinSimilarity},
      {SimilarityEnsemble::kLcs, LcsSimilarity},
      {SimilarityEnsemble::kLongestCommonSubstring,
       LongestCommonSubstringSimilarity},
      {SimilarityEnsemble::kPhonetic, PhoneticSimilarity},
      {SimilarityEnsemble::kNumeralAware, NumeralAwareMatch},
      {SimilarityEnsemble::kTfIdfCosine,
       [&](std::string_view a, std::string_view b) {
         return tfidf.Cosine(a, b);
       }},
      {SimilarityEnsemble::kNGramJaccard,
       [](std::string_view a, std::string_view b) {
         return NGramJaccard(a, b, 3);
       }},
      {SimilarityEnsemble::kBigramDice, BigramDice},
  };
  SimilarityEnsemble::Context ctx;
  ctx.tfidf = &tfidf;

  constexpr size_t kLanes = SimilarityEnsemble::kBatchLanes;
  for (const Feature& f : features) {
    std::vector<double> w(SimilarityEnsemble::kFeatureCount, 0.0);
    w[f.id] = 1.0;
    SimilarityEnsemble e(ctx);
    e.SetWeights(w);
    const std::string& name = SimilarityEnsemble::FeatureNames()[f.id];
    for (const std::string& q : labels) {
      const auto prepared = e.Prepare(q);
      const auto batch = e.PrepareBatch(q);
      for (size_t lo = 0; lo < labels.size(); lo += kLanes) {
        const size_t count = std::min(kLanes, labels.size() - lo);
        std::string_view lanes[kLanes];
        for (size_t l = 0; l < count; ++l) lanes[l] = labels[lo + l];
        double out[kLanes], thresholded[kLanes];
        e.ScoreBatchAgainstThreshold(batch, lanes, count,
                                     SimilarityEnsemble::kNoThreshold, -1,
                                     nullptr, out);
        e.ScoreBatchAgainstThreshold(batch, lanes, count, 0.5, -1, nullptr,
                                     thresholded);
        for (size_t l = 0; l < count; ++l) {
          const std::string& d = labels[lo + l];
          // Score() returns 1 for case-insensitively equal labels before
          // any feature is consulted.
          const double ref = !q.empty() && ToLower(q) == ToLower(d)
                                 ? 1.0
                                 : f.reference(q, d);
          const std::string pair = name + " q='" + q + "' d='" + d + "'";
          EXPECT_EQ(e.Score(q, d), ref) << pair;
          EXPECT_EQ(e.ScoreAgainstThreshold(prepared, d,
                                            SimilarityEnsemble::kNoThreshold),
                    ref)
              << pair;
          EXPECT_EQ(out[l], ref) << pair;
          if (ref >= 0.5) {
            EXPECT_EQ(thresholded[l], ref) << pair;
          } else {
            EXPECT_LT(thresholded[l], 0.5) << pair;
          }
        }
      }
    }
  }
}

TEST(EnsembleTest, PaperTransformationExamples) {
  const auto dict = SynonymDictionary::BuiltIn();
  SimilarityEnsemble::Context ctx;
  ctx.synonyms = &dict;
  SimilarityEnsemble e(ctx);
  // "J.J. Abrams" ~ "Jeffrey Jacob Abrams" (abbreviation/initials).
  EXPECT_GT(e.Score("J.J. Abrams", "Jeffrey Jacob Abrams"), 0.2);
  // "teacher" ~ "educator" (synonym) clearly beats an unrelated pair.
  // (Under uniform weights the margin is modest; learning the weights is
  // what sharpens it — see test_weight_learning.cc.)
  EXPECT_GT(e.Score("teacher", "educator"),
            1.5 * e.Score("teacher", "volcano"));
  EXPECT_LT(e.Score("teacher", "volcano"), 0.15);
}

}  // namespace
}  // namespace star::text
