#include "core/topk_utils.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace star::core {
namespace {

TEST(TopKValues, SelectsLargestSorted) {
  const std::vector<double> v = {3.0, 1.0, 4.0, 1.5, 9.0, 2.6};
  const auto top = TopKValues(v, 3);
  EXPECT_EQ(top, (std::vector<double>{9.0, 4.0, 3.0}));
}

TEST(TopKValues, KLargerThanInput) {
  const auto top = TopKValues({2.0, 1.0}, 5);
  EXPECT_EQ(top, (std::vector<double>{2.0, 1.0}));
}

TEST(TopKValues, KZero) { EXPECT_TRUE(TopKValues({1.0, 2.0}, 0).empty()); }

TEST(TopKValues, Duplicates) {
  const auto top = TopKValues({1.0, 1.0, 1.0, 0.5}, 2);
  EXPECT_EQ(top, (std::vector<double>{1.0, 1.0}));
}

// Brute-force top-k sums picking one element per list.
std::vector<double> BruteTopSums(const std::vector<std::vector<double>>& lists,
                                 size_t k) {
  std::vector<double> sums = {0.0};
  for (const auto& list : lists) {
    std::vector<double> next;
    for (const double s : sums) {
      for (const double x : list) next.push_back(s + x);
    }
    sums = std::move(next);
  }
  std::sort(sums.begin(), sums.end(), std::greater<double>());
  if (sums.size() > k) sums.resize(k);
  return sums;
}

std::vector<std::vector<ListEntry>> ToEntries(
    const std::vector<std::vector<double>>& lists) {
  std::vector<std::vector<ListEntry>> out(lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    for (size_t j = 0; j < lists[i].size(); ++j) {
      out[i].push_back({j, lists[i][j]});
    }
  }
  return out;
}

std::vector<std::vector<double>> FromEntries(
    const std::vector<std::vector<ListEntry>>& entries) {
  std::vector<std::vector<double>> out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    for (const auto& e : entries[i]) out[i].push_back(e.value);
  }
  return out;
}

TEST(PruneListsProp3, PaperExample5) {
  // Lists L_B, L_C, L_D from Example 5 (maxima 0.9, 0.7, 0.8; to find the
  // top-3 sums only the maxima plus two more numbers are needed).
  std::vector<std::vector<double>> lists = {
      {0.9, 0.7, 0.3, 0.2}, {0.7, 0.5, 0.2}, {0.8, 0.5, 0.1}};
  auto entries = ToEntries(lists);
  PruneListsProp3(entries, 3);
  size_t total = 0;
  for (const auto& l : entries) total += l.size();
  // At most k + s - 1 = 5 entries survive.
  EXPECT_LE(total, 5u);
  // Pruning preserves the top-3 sums.
  EXPECT_EQ(BruteTopSums(FromEntries(entries), 3), BruteTopSums(lists, 3));
}

TEST(PruneListsProp3, KeepsOnlyMaximaForK1) {
  std::vector<std::vector<double>> lists = {{0.5, 0.9}, {0.1, 0.2, 0.3}};
  auto entries = ToEntries(lists);
  PruneListsProp3(entries, 1);
  ASSERT_EQ(entries[0].size(), 1u);
  ASSERT_EQ(entries[1].size(), 1u);
  EXPECT_DOUBLE_EQ(entries[0][0].value, 0.9);
  EXPECT_DOUBLE_EQ(entries[1][0].value, 0.3);
}

TEST(PruneListsProp3, EmptyListsSurvive) {
  std::vector<std::vector<ListEntry>> entries(3);
  entries[0].push_back({0, 1.0});
  PruneListsProp3(entries, 4);
  EXPECT_EQ(entries[0].size(), 1u);
  EXPECT_TRUE(entries[1].empty());
  EXPECT_TRUE(entries[2].empty());
}

// Property: for random lists, pruning never changes the top-k sums.
class Prop3Property : public ::testing::TestWithParam<int> {};

TEST_P(Prop3Property, PreservesTopKSums) {
  Rng rng(GetParam());
  const size_t s = 2 + rng.Below(3);
  const size_t k = 1 + rng.Below(6);
  std::vector<std::vector<double>> lists(s);
  for (auto& l : lists) {
    const size_t len = 1 + rng.Below(8);
    for (size_t j = 0; j < len; ++j) {
      l.push_back(std::round(rng.NextDouble() * 100) / 100);
    }
  }
  auto entries = ToEntries(lists);
  PruneListsProp3(entries, k);
  EXPECT_EQ(BruteTopSums(FromEntries(entries), k), BruteTopSums(lists, k))
      << "s=" << s << " k=" << k;
  // The size bound holds modulo ties at the cutoff.
  size_t total = 0;
  for (const auto& l : entries) total += l.size();
  EXPECT_LE(total, 2 * (k + s));  // generous tie allowance
}

INSTANTIATE_TEST_SUITE_P(Seeds, Prop3Property, ::testing::Range(0, 40));

TEST(PruneListsPerList, KeepsTopKPlusSMinus1PerList) {
  std::vector<std::vector<double>> lists = {
      {0.1, 0.9, 0.5, 0.7, 0.3, 0.2}, {0.6, 0.4, 0.8}};
  auto entries = ToEntries(lists);
  PruneListsPerList(entries, 2);  // keep = k + s - 1 = 3
  EXPECT_EQ(entries[0].size(), 3u);
  EXPECT_EQ(entries[1].size(), 3u);
  std::vector<double> kept0 = FromEntries(entries)[0];
  std::sort(kept0.begin(), kept0.end(), std::greater<double>());
  EXPECT_EQ(kept0, (std::vector<double>{0.9, 0.7, 0.5}));
}

// ---------------------------------------------------------------------------
// Tie-break. The cuts rank by (value desc, node asc), a total order when a
// list's nodes are distinct, so what survives depends only on each list's
// {node -> value} set and never on the order the entries arrive in.
// ---------------------------------------------------------------------------

using Kept = std::vector<std::vector<std::pair<uint32_t, double>>>;

// The (node, value) pairs each list kept, as sorted sets.
Kept KeptSets(const std::vector<std::vector<ListEntry>>& entries) {
  Kept out(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    for (const ListEntry& e : entries[i]) out[i].emplace_back(e.node, e.value);
    std::sort(out[i].begin(), out[i].end());
  }
  return out;
}

// Random lists on a three-value grid with distinct nodes per list: most
// values tie, and the node is all that separates them.
std::vector<std::vector<ListEntry>> TiedLists(Rng& rng, size_t s) {
  std::vector<std::vector<ListEntry>> lists(s);
  for (auto& list : lists) {
    const size_t len = rng.Below(9);
    std::vector<uint32_t> nodes(16);
    for (uint32_t v = 0; v < nodes.size(); ++v) nodes[v] = v;
    rng.Shuffle(nodes);
    for (size_t j = 0; j < len; ++j) {
      list.push_back({j, 0.25 * static_cast<double>(1 + rng.Below(3)),
                      nodes[j]});
    }
  }
  return lists;
}

TEST(PruneListsTieBreak, KeptSetsIgnoreInputOrder) {
  using Prune = void (*)(std::vector<std::vector<ListEntry>>&, size_t);
  Rng rng(2016);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t s = 1 + rng.Below(4);
    const size_t k = 2 + rng.Below(3);
    const auto lists = TiedLists(rng, s);
    // Prop. 3 at k = 1 takes its own branch: one maximum per list.
    const std::pair<Prune, size_t> cuts[] = {
        {PruneListsPerList, k}, {PruneListsPerList, 1},
        {PruneListsProp3, k},   {PruneListsProp3, 1}};
    for (size_t c = 0; c < std::size(cuts); ++c) {
      const auto [prune, kk] = cuts[c];
      auto reference = lists;
      prune(reference, kk);
      const Kept want = KeptSets(reference);
      for (int shuffle = 0; shuffle < 12; ++shuffle) {
        auto shuffled = lists;
        for (auto& list : shuffled) {
          if (shuffle == 0) {
            std::reverse(list.begin(), list.end());
          } else {
            rng.Shuffle(list);
          }
        }
        prune(shuffled, kk);
        ASSERT_EQ(KeptSets(shuffled), want)
            << "trial " << trial << " cut " << c << " s=" << s
            << " k=" << kk << " shuffle " << shuffle;
      }
    }
  }
}

TEST(PruneListsTieBreak, PerListKeepsTopUnderValueThenNode) {
  Rng rng(2017);
  size_t tied_cuts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const size_t s = 1 + rng.Below(4);
    const size_t k = 1 + rng.Below(4);
    const size_t keep = k + s - 1;
    auto lists = TiedLists(rng, s);
    Kept want(s);
    for (size_t i = 0; i < s; ++i) {
      auto ranked = lists[i];
      std::sort(ranked.begin(), ranked.end(),
                [](const ListEntry& a, const ListEntry& b) {
                  if (a.value != b.value) return a.value > b.value;
                  return a.node < b.node;
                });
      if (ranked.size() > keep) {
        if (ranked[keep].value == ranked[keep - 1].value) ++tied_cuts;
        ranked.resize(keep);
      }
      for (const ListEntry& e : ranked) want[i].emplace_back(e.node, e.value);
      std::sort(want[i].begin(), want[i].end());
    }
    PruneListsPerList(lists, k);
    ASSERT_EQ(KeptSets(lists), want) << "trial " << trial;
  }
  // The cut fell inside a run of equal values, where only the node decides.
  EXPECT_GT(tied_cuts, 50u);
}

TEST(PruneListsTieBreak, Prop3AtK1KeepsSmallestNodeOfTheMaximum) {
  std::vector<std::vector<ListEntry>> lists = {
      {{0, 0.5, 9}, {1, 0.9, 7}, {2, 0.9, 3}, {3, 0.9, 5}},
      {{0, 0.4, 2}, {1, 0.4, 1}}};
  PruneListsProp3(lists, 1);
  ASSERT_EQ(lists[0].size(), 1u);
  ASSERT_EQ(lists[1].size(), 1u);
  EXPECT_EQ(lists[0][0].node, 3u);
  EXPECT_EQ(lists[0][0].index, 2u);
  EXPECT_EQ(lists[1][0].node, 1u);
}

}  // namespace
}  // namespace star::core
