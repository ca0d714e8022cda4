#include "graph/label_index.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "test_helpers.h"

namespace star::graph {
namespace {

// Every labelled retrieval pool is RankedCandidates(label, type, 0): the
// whole token-and-type union, in ascending ids.
std::vector<NodeId> Pool(const LabelIndex& index, std::string_view label,
                         int32_t type = -1) {
  return index.RankedCandidates(label, type, 0);
}

TEST(LabelIndexTest, TokenPostings) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  const auto brad = Pool(index, "brad");
  ASSERT_EQ(brad.size(), 2u);  // Brad Pitt, Brad Garrett
  EXPECT_EQ(g.NodeLabel(brad[0]), "Brad Pitt");
  EXPECT_EQ(g.NodeLabel(brad[1]), "Brad Garrett");
  EXPECT_TRUE(index.HasToken("brad"));
  EXPECT_FALSE(index.HasToken("zzzzqq"));
  EXPECT_TRUE(Pool(index, "zzzzqq").empty());
}

TEST(LabelIndexTest, LabelUnionsTokens) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  // "Brad Award" pulls both Brads and both awards.
  const auto c = Pool(index, "Brad Award");
  EXPECT_EQ(c.size(), 4u);
  // Deduplicated and sorted.
  EXPECT_TRUE(std::is_sorted(c.begin(), c.end()));
  EXPECT_EQ(std::adjacent_find(c.begin(), c.end()), c.end());
}

TEST(LabelIndexTest, CaseAndDelimiterInsensitive) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  EXPECT_EQ(Pool(index, "BRAD").size(), 2u);
  EXPECT_EQ(Pool(index, "brad-pitt").size(), 2u);
}

TEST(LabelIndexTest, CandidatesByType) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  const auto actors = index.CandidatesByType(g.FindTypeId("Actor"));
  EXPECT_EQ(actors.size(), 3u);  // Brad x2, Sophie
  EXPECT_TRUE(index.CandidatesByType(-1).empty());
  EXPECT_TRUE(index.CandidatesByType(9999).empty());
}

TEST(LabelIndexTest, CombinedCandidates) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  // Label tokens + type postings unioned.
  const auto c = Pool(index, "Troy", g.FindTypeId("Film"));
  ASSERT_EQ(c.size(), 2u);  // Troy + Boyhood (type Film)
  EXPECT_EQ(g.NodeLabel(c[0]), "Troy");
  EXPECT_EQ(g.NodeLabel(c[1]), "Boyhood");
}

TEST(LabelIndexTest, EmptyLabelNoCandidates) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  EXPECT_TRUE(Pool(index, "").empty());
}

TEST(LabelIndexTest, FuzzyExpansionRecallsTypos) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  EXPECT_EQ(index.BestFuzzyToken("lnklater"), "linklater");
  std::vector<uint8_t> facts;
  const auto c = index.RankedCandidates("lnklater", -1, 0, &facts);
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(g.NodeLabel(c[0]), "Richard Linklater");
  EXPECT_EQ(facts, std::vector<uint8_t>{0});  // shares no exact token
  EXPECT_TRUE(index.BestFuzzyToken("zzzzqq").empty());
}

// Twelve tokens tie on three of "abcdez"'s four trigrams, and one holds all
// four: the expansion keeps that one and the seven lexicographically
// smallest of the tie. Two passes check that the hit counts of the first
// are cleared for the second.
TEST(LabelIndexTest, FuzzyExpansionCutsTiesByToken) {
  KnowledgeGraph::Builder b;
  for (const char c : std::string("lkjihgfedcba")) {
    b.AddNode(std::string("abcde") + c);
  }
  b.AddNode("xabcdez");
  b.AddNode("unrelated");
  const KnowledgeGraph g = std::move(b).Build();
  const LabelIndex index(g);
  // "abcdea" .. "abcdeg" are nodes 11 .. 5; "xabcdez" is node 12.
  const std::vector<NodeId> want = {5, 6, 7, 8, 9, 10, 11, 12};
  for (int pass = 0; pass < 2; ++pass) {
    EXPECT_EQ(Pool(index, "abcdez"), want) << "pass " << pass;
    EXPECT_EQ(index.BestFuzzyToken("abcdez"), "xabcdez") << "pass " << pass;
  }
}

TEST(LabelIndexTest, CandidatesFallBackToFuzzy) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  // "Bradd" has no exact posting but trigram-matches "brad".
  const auto c = Pool(index, "Bradd");
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(g.NodeLabel(c[0]), "Brad Pitt");
}

TEST(LabelIndexTest, ExactTokenSkipsFuzzyExpansion) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  // "troy" has an exact posting; fuzzy expansion must not add noise.
  EXPECT_EQ(Pool(index, "Troy").size(), 1u);
}

TEST(LabelIndexTest, RankedCandidatesPreferRareTokens) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  // "Golden Award" hits both awards via "award" and the Golden Globe via
  // the rarer "golden"; with cap 1 the double-hit (and rarer) Golden Globe
  // must win.
  const auto top = index.RankedCandidates("Golden Award", -1, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0]), "Golden Globe Award");
}

TEST(LabelIndexTest, RankedCandidatesUncappedEqualsUnion) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  const auto ranked = index.RankedCandidates("Brad Award", -1, 0);
  const auto brad = Pool(index, "Brad");
  const auto award = Pool(index, "Award");
  std::vector<NodeId> both;
  std::set_union(brad.begin(), brad.end(), award.begin(), award.end(),
                 std::back_inserter(both));
  EXPECT_EQ(ranked, both);
}

TEST(LabelIndexTest, RankedCandidatesIncludeTypeOnlyHits) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  const auto all =
      index.RankedCandidates("Troy", g.FindTypeId("Film"), 0);
  EXPECT_EQ(all.size(), 2u);  // Troy + Boyhood via type
  // With cap 1 the token hit outranks the epsilon-weight type hit.
  const auto top = index.RankedCandidates("Troy", g.FindTypeId("Film"), 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0]), "Troy");
}

TEST(LabelIndexTest, RankedCandidatesDeterministicTieTruncation) {
  // Seven nodes share the identical label, so every candidate carries the
  // exact same rarity weight. Truncation must still be deterministic: ties
  // at the cap boundary retain the smallest node ids, independent of hash
  // map iteration order.
  KnowledgeGraph::Builder b;
  for (int i = 0; i < 7; ++i) b.AddNode("alpha", "Thing");
  const auto g = std::move(b).Build();
  const LabelIndex index(g);
  const auto top = index.RankedCandidates("alpha", -1, 3);
  const std::vector<NodeId> expected = {0, 1, 2};
  EXPECT_EQ(top, expected);
  // Stable under repetition (no per-call nondeterminism).
  EXPECT_EQ(index.RankedCandidates("alpha", -1, 3), expected);
}

TEST(LabelIndexTest, RankedCandidatesRarityBeatsIdAtCap) {
  // All nodes match "alpha"; only the last one carries the rare token
  // "bravo". Rarity weight must outrank the smaller ids under cap 1.
  KnowledgeGraph::Builder b;
  for (int i = 0; i < 4; ++i) b.AddNode("alpha", "Thing");
  b.AddNode("alpha bravo", "Thing");
  const auto g = std::move(b).Build();
  const LabelIndex index(g);
  const auto top = index.RankedCandidates("alpha bravo", -1, 1);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(g.NodeLabel(top[0]), "alpha bravo");
}

TEST(LabelIndexTest, RankedCandidatesReportExactTokenFacts) {
  // "alpha" has an exact posting, "betta" only fuzzy-expands to "beta",
  // and the Thing type list adds nodes sharing no token at all. The fact
  // must be 1 exactly for nodes whose label shares a query token.
  KnowledgeGraph::Builder b;
  b.AddNode("Alpha beta", "Thing");   // 0: exact + fuzzy
  b.AddNode("beta", "Thing");         // 1: fuzzy + type
  b.AddNode("gamma", "Thing");        // 2: type only
  b.AddNode("alpha-alpha", "Other");  // 3: exact, repeated token
  b.AddNode("beta gamma", "Other");   // 4: fuzzy only
  b.AddNode("delta", "Other");        // 5: not retrieved
  const auto g = std::move(b).Build();
  const LabelIndex index(g);
  const std::string query = "ALPHA betta";
  const auto shares = [&](NodeId v) {
    const auto q = SplitTokens(ToLower(query));
    for (const auto& t : SplitTokens(ToLower(g.NodeLabel(v)))) {
      if (std::find(q.begin(), q.end(), t) != q.end()) return uint8_t{1};
    }
    return uint8_t{0};
  };
  // A smaller index in between must neither see nor leave stale scratch.
  KnowledgeGraph::Builder small;
  small.AddNode("alpha", "Thing");
  const auto g_small = std::move(small).Build();
  const LabelIndex index_small(g_small);
  for (const size_t cap : {size_t{0}, size_t{2}, size_t{4}}) {
    for (int round = 0; round < 2; ++round) {
      std::vector<uint8_t> facts = {7, 7, 7, 7, 7, 7, 7, 7, 7};
      const auto ids =
          index.RankedCandidates(query, g.FindTypeId("Thing"), cap, &facts);
      EXPECT_EQ(ids, index.RankedCandidates(query, g.FindTypeId("Thing"), cap));
      ASSERT_EQ(facts.size(), ids.size());
      EXPECT_EQ(ids.size(), cap == 0 ? 5u : cap);
      for (size_t i = 0; i < ids.size(); ++i) {
        EXPECT_EQ(facts[i], shares(ids[i]))
            << "cap " << cap << " id " << ids[i];
      }
      EXPECT_EQ(index_small.RankedCandidates("alpha", -1, 0),
                std::vector<NodeId>{0});
    }
  }
}

TEST(LabelIndexTest, TokenCount) {
  const auto g = star::testing::MovieGraph();
  const LabelIndex index(g);
  EXPECT_GT(index.token_count(), 10u);
}

}  // namespace
}  // namespace star::graph
