#include "text/ensemble.h"

#include <algorithm>
#include <functional>
#include <iterator>
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

// Labels over a small token vocabulary: one- and multi-token thesaurus
// terms, the digit, roman-numeral and number-word forms of numerals,
// repeated tokens, every delimiter (leading, trailing and repeated), bytes
// >= 0x80, and now and then a token of 64 bytes or more or a label of
// more than 64 tokens.
std::string RandomVocabularyLabel(Rng& rng) {
  static const char* const kVocabulary[] = {
      "teacher", "Educator", "tutor",  "motion picture", "film",
      "movie maker", "place of birth", "born", "ii",   "II",
      "2",       "two",      "three",  "3",      "iii",  "xx",
      "20",      "21",       "part",   "Part",   "zeta", "alpha",
      "mid",     "\xc3\xa9t\xc3\xa9", "rob", "Rupert", "Robert"};
  static const char kDelimiters[] = " \t_-./,";
  const auto delimiter = [&] { return kDelimiters[rng.Below(7)]; };
  std::string s;
  if (rng.Below(3) == 0) s += delimiter();
  const size_t tokens = rng.Below(30) == 0 ? 65 + rng.Below(4) : rng.Below(5);
  for (size_t i = 0; i < tokens; ++i) {
    if (i > 0) {
      s += delimiter();
      if (rng.Below(4) == 0) s += delimiter();
    }
    s += rng.Below(40) == 0
             ? std::string(64 + rng.Below(3), 'q')
             : std::string(kVocabulary[rng.Below(std::size(kVocabulary))]);
  }
  if (rng.Below(3) == 0) s += delimiter();
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

  // Vocabulary labels under full context: Score() against the feature
  // sum, and both kernels against Score() bitwise.
  std::vector<std::string> labels;
  for (int i = 0; i < 120; ++i) labels.push_back(RandomVocabularyLabel(rng));
  const auto dict = SynonymDictionary::BuiltIn();
  const auto onto = TypeOntology::BuiltIn();
  TfIdfModel tfidf;
  for (const std::string& l : labels) tfidf.AddDocument(l);
  tfidf.Finalize();
  SimilarityEnsemble::Context ctx;
  ctx.synonyms = &dict;
  ctx.ontology = &onto;
  ctx.tfidf = &tfidf;
  const SimilarityEnsemble full(ctx);
  constexpr size_t kLanes = SimilarityEnsemble::kBatchLanes;
  for (size_t qi = 0; qi < 40; ++qi) {
    const std::string& q = labels[qi];
    const auto prepared = full.Prepare(q);
    const auto batch = full.PrepareBatch(q);
    for (size_t lo = 0; lo < labels.size(); lo += kLanes) {
      const size_t count = std::min(kLanes, labels.size() - lo);
      std::string_view lanes[kLanes];
      for (size_t l = 0; l < count; ++l) lanes[l] = labels[lo + l];
      double out[kLanes];
      full.ScoreBatchAgainstThreshold(batch, lanes, count,
                                      SimilarityEnsemble::kNoThreshold, -1,
                                      nullptr, out);
      for (size_t l = 0; l < count; ++l) {
        const std::string& d = labels[lo + l];
        const std::string pair = "q='" + q + "' d='" + d + "'";
        const auto f = full.Features(q, d);
        double expected = 0.0;
        for (int i = 0; i < SimilarityEnsemble::kFeatureCount; ++i) {
          expected += full.weights()[i] * f[i];
        }
        if (!q.empty() && ToLower(q) == ToLower(d)) expected = 1.0;
        const double score = full.Score(q, d);
        EXPECT_NEAR(score, expected, 1e-12) << pair;
        EXPECT_EQ(full.ScoreAgainstThreshold(prepared, d,
                                             SimilarityEnsemble::kNoThreshold),
                  score)
            << pair;
        EXPECT_EQ(out[l], score) << pair;
      }
    }
  }
}

// Each alignment, rewritten token or gram feature alone (one-hot
// weights): Score(), the scalar kernel and the exact and thresholded batch
// kernels must return the bits of the reference function (similarity.h,
// phonetic.h, TfIdfModel::Cosine, SynonymDictionary::Similarity). The
// references share no code with the kernels' bit-parallel loops, token
// table, packed soundex codes, position-wise numeral compare, token-run
// tf-idf walk or hashed gram counts, so a wrong rewrite cannot hide behind
// a kernel == Score() identity. One more entry weighs LCS, longest common
// substring and Smith-Waterman equally: the kernels then compute the two
// lengths before Smith-Waterman, which skips its DP when they are equal.
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
  // For the token table: repeated tokens, tokens whose split order is not
  // their byte order, the forms of one numeral, one- and multi-token
  // thesaurus terms, leading/trailing/repeated delimiters and a
  // delimiter-only label. For Smith-Waterman: pairs whose LCS and longest
  // common substring are equal, and pairs where they differ.
  for (const char* extra :
       {"zeta alpha mid zeta", "Mid  zeta", "III", "3", "three", "Part iii",
        "teacher", "Educator film", "motion picture", "picture motion",
        "--teacher__tutor..", "-_./,", "abcxdef", "abcydef", "xabcdefy"}) {
    labels.push_back(extra);
  }
  {
    // More than 64 tokens, and a token of more than 64 bytes.
    std::string many;
    for (int i = 0; i < 70; ++i) many += std::string(1, 'a' + i % 7) + " ";
    labels.push_back(std::move(many));
    labels.push_back(std::string(66, 'b') + " ab");
  }
  TfIdfModel tfidf;
  for (const std::string& l : labels) tfidf.AddDocument(l);
  tfidf.AddDocument("rob");  // a document frequency above 1 for one token
  tfidf.Finalize();

  const SynonymDictionary dict = SynonymDictionary::BuiltIn();

  using Reference = std::function<double(std::string_view, std::string_view)>;
  struct Feature {
    SimilarityEnsemble::Feature id;
    Reference reference;
  };
  // Features weighted equally (in index order), with their references.
  using Weighted = std::vector<Feature>;
  const Weighted features[] = {
      {{SimilarityEnsemble::kJaro, JaroSimilarity}},
      {{SimilarityEnsemble::kJaroWinkler, JaroWinklerSimilarity}},
      {{SimilarityEnsemble::kMongeElkan, MongeElkanSimilarity}},
      {{SimilarityEnsemble::kLevenshtein, LevenshteinSimilarity}},
      {{SimilarityEnsemble::kDamerauLevenshtein,
        DamerauLevenshteinSimilarity}},
      {{SimilarityEnsemble::kLcs, LcsSimilarity}},
      {{SimilarityEnsemble::kLongestCommonSubstring,
        LongestCommonSubstringSimilarity}},
      {{SimilarityEnsemble::kSmithWaterman, SmithWatermanSimilarity}},
      {{SimilarityEnsemble::kLcs, LcsSimilarity},
       {SimilarityEnsemble::kLongestCommonSubstring,
        LongestCommonSubstringSimilarity},
       {SimilarityEnsemble::kSmithWaterman, SmithWatermanSimilarity}},
      {{SimilarityEnsemble::kPhonetic, PhoneticSimilarity}},
      {{SimilarityEnsemble::kNumeralAware, NumeralAwareMatch}},
      {{SimilarityEnsemble::kTfIdfCosine,
        [&](std::string_view a, std::string_view b) {
          return tfidf.Cosine(a, b);
        }}},
      {{SimilarityEnsemble::kSynonym,
        [&](std::string_view a, std::string_view b) {
          return dict.Similarity(a, b);
        }}},
      {{SimilarityEnsemble::kTokenJaccard, TokenJaccard}},
      {{SimilarityEnsemble::kTokenDice, TokenDice}},
      {{SimilarityEnsemble::kTokenOverlap, TokenOverlap}},
      {{SimilarityEnsemble::kTokenSequenceEdit, TokenSequenceEditSimilarity}},
      {{SimilarityEnsemble::kAcronym, AcronymSimilarity}},
      {{SimilarityEnsemble::kNGramJaccard,
        [](std::string_view a, std::string_view b) {
          return NGramJaccard(a, b, 3);
        }}},
      {{SimilarityEnsemble::kBigramDice, BigramDice}},
  };
  SimilarityEnsemble::Context ctx;
  ctx.tfidf = &tfidf;
  ctx.synonyms = &dict;

  constexpr size_t kLanes = SimilarityEnsemble::kBatchLanes;
  for (const Weighted& weighted : features) {
    std::vector<double> w(SimilarityEnsemble::kFeatureCount, 0.0);
    std::string name;
    for (const Feature& f : weighted) {
      w[f.id] = 1.0;
      name += SimilarityEnsemble::FeatureNames()[f.id] + " ";
    }
    SimilarityEnsemble e(ctx);
    e.SetWeights(w);
    // Score()'s sum of the weighted references, in feature order.
    const auto reference = [&](std::string_view a, std::string_view b) {
      double sum = 0.0;
      for (const Feature& f : weighted) {
        sum += e.weights()[f.id] * f.reference(a, b);
      }
      return sum;
    };
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
                                 : reference(q, d);
          const std::string pair = name + "q='" + q + "' d='" + d + "'";
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
