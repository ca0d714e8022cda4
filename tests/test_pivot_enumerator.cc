#include "core/pivot_enumerator.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <queue>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/topk_utils.h"

namespace star::core {
namespace {

using graph::NodeId;

std::vector<std::vector<LeafCandidate>> MakeLists(
    const std::vector<std::vector<std::pair<NodeId, double>>>& raw) {
  std::vector<std::vector<LeafCandidate>> lists(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    for (const auto& [n, v] : raw[i]) lists[i].push_back({n, v});
  }
  return lists;
}

TEST(PivotEnumerator, EmitsInDescendingOrder) {
  PivotEnumerator e(
      /*pivot=*/100, /*pivot_score=*/1.0,
      MakeLists({{{1, 0.9}, {2, 0.5}}, {{3, 0.8}, {4, 0.7}, {5, 0.1}}}),
      /*enforce_injective=*/true, /*k_hint=*/0);
  double prev = 1e18;
  int count = 0;
  while (auto m = e.Next()) {
    EXPECT_LE(m->score, prev);
    prev = m->score;
    ++count;
  }
  EXPECT_EQ(count, 6);  // 2 x 3 combinations, all injective
}

TEST(PivotEnumerator, TopMatchIsGreedyWhenInjective) {
  PivotEnumerator e(7, 0.5,
                    MakeLists({{{1, 0.9}, {2, 0.5}}, {{3, 0.8}, {4, 0.7}}}),
                    true, 0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 0.5 + 0.9 + 0.8);
  EXPECT_EQ(m->leaves, (std::vector<NodeId>{1, 3}));
}

TEST(PivotEnumerator, SkipsCollidingLeaves) {
  // Both lists share node 1 at the top; injective best must differ.
  PivotEnumerator e(7, 0.0,
                    MakeLists({{{1, 1.0}, {2, 0.2}}, {{1, 1.0}, {3, 0.5}}}),
                    true, 0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  // Valid options: (1,3)=1.5 or (2,1)=1.2; best is 1.5.
  EXPECT_DOUBLE_EQ(m->score, 1.5);
  EXPECT_EQ(m->leaves, (std::vector<NodeId>{1, 3}));
}

TEST(PivotEnumerator, NonInjectiveAllowsCollisions) {
  PivotEnumerator e(7, 0.0,
                    MakeLists({{{1, 1.0}, {2, 0.2}}, {{1, 1.0}, {3, 0.5}}}),
                    false, 0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 2.0);
  EXPECT_EQ(m->leaves, (std::vector<NodeId>{1, 1}));
}

TEST(PivotEnumerator, PivotExcludedFromLeavesWhenInjective) {
  PivotEnumerator e(1, 0.0, MakeLists({{{1, 1.0}, {2, 0.4}}}), true, 0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->leaves[0], 2u);
  EXPECT_FALSE(e.Next().has_value());
}

TEST(PivotEnumerator, EmptyLeafListMeansNoMatches) {
  PivotEnumerator e(7, 1.0, MakeLists({{{1, 1.0}}, {}}), true, 0);
  EXPECT_FALSE(e.Next().has_value());
  EXPECT_FALSE(e.PeekScore().has_value());
}

TEST(PivotEnumerator, ZeroLeafStarEmitsPivotOnce) {
  PivotEnumerator e(7, 0.42, {}, true, 0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 0.42);
  EXPECT_TRUE(m->leaves.empty());
  EXPECT_FALSE(e.Next().has_value());
}

TEST(PivotEnumerator, PeekDoesNotConsume) {
  PivotEnumerator e(7, 0.0, MakeLists({{{1, 1.0}, {2, 0.4}}}), true, 0);
  ASSERT_TRUE(e.PeekScore().has_value());
  EXPECT_DOUBLE_EQ(*e.PeekScore(), 1.0);
  const auto m = e.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_DOUBLE_EQ(m->score, 1.0);
}

TEST(PivotEnumerator, NoDuplicateMatches) {
  PivotEnumerator e(
      100, 0.0,
      MakeLists({{{1, 0.5}, {2, 0.5}}, {{3, 0.5}, {4, 0.5}}, {{5, 0.1}}}),
      true, 0);
  std::vector<std::vector<NodeId>> seen;
  while (auto m = e.Next()) {
    EXPECT_EQ(std::find(seen.begin(), seen.end(), m->leaves), seen.end());
    seen.push_back(m->leaves);
  }
  EXPECT_EQ(seen.size(), 4u);
}

// Property: with k_hint pruning the first k matches equal the unpruned
// first k (injective mode), on random lists with node collisions.
class EnumeratorPruneProperty : public ::testing::TestWithParam<int> {};

TEST_P(EnumeratorPruneProperty, PruningPreservesTopK) {
  Rng rng(GetParam());
  const size_t s = 1 + rng.Below(3);
  const size_t k = 1 + rng.Below(5);
  std::vector<std::vector<std::pair<NodeId, double>>> raw(s);
  for (auto& list : raw) {
    const size_t len = 1 + rng.Below(10);
    std::vector<bool> used(20, false);
    for (size_t j = 0; j < len; ++j) {
      const NodeId n = 1 + rng.Below(12);  // small id space -> collisions
      if (used[n]) continue;
      used[n] = true;
      list.emplace_back(n, std::round(rng.NextDouble() * 20) / 20);
    }
  }
  PivotEnumerator exact(0, 0.3, MakeLists(raw), true, 0);
  PivotEnumerator pruned(0, 0.3, MakeLists(raw), true, k);
  for (size_t i = 0; i < k; ++i) {
    const auto a = exact.Next();
    const auto b = pruned.Next();
    ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i;
    if (!a.has_value()) break;
    EXPECT_NEAR(a->score, b->score, 1e-12) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnumeratorPruneProperty,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------------
// Tie order. Which of two equal-score states pops first is fixed by the
// sequence of heap pushes and pops, so the lattice must push the same
// states in the same order as this reference: vector cursors, a hash-set
// of visited cursors, and the same score-only heap comparator.
// ---------------------------------------------------------------------------

class ReferenceLattice {
 public:
  ReferenceLattice(NodeId pivot, double pivot_score,
                   std::vector<std::vector<LeafCandidate>> lists,
                   bool enforce_injective, size_t k_hint)
      : pivot_(pivot),
        pivot_score_(pivot_score),
        lists_(std::move(lists)),
        enforce_injective_(enforce_injective) {
    if (k_hint > 0) {
      std::vector<std::vector<ListEntry>> entries(lists_.size());
      for (size_t i = 0; i < lists_.size(); ++i) {
        for (size_t j = 0; j < lists_[i].size(); ++j) {
          entries[i].push_back({j, lists_[i][j].total, lists_[i][j].node});
        }
      }
      if (enforce_injective_) {
        PruneListsPerList(entries, k_hint);
      } else {
        PruneListsProp3(entries, k_hint);
      }
      for (size_t i = 0; i < lists_.size(); ++i) {
        std::vector<LeafCandidate> kept;
        for (const ListEntry& e : entries[i]) kept.push_back(lists_[i][e.index]);
        lists_[i] = std::move(kept);
      }
    }
    for (auto& list : lists_) {
      std::sort(list.begin(), list.end(),
                [](const LeafCandidate& a, const LeafCandidate& b) {
                  return a.total > b.total ||
                         (a.total == b.total && a.node < b.node);
                });
      if (list.empty()) {
        exhausted_ = true;
        return;
      }
    }
    if (!lists_.empty()) PushState(std::vector<int>(lists_.size(), 0));
  }

  std::optional<StarMatch> Next() {
    Stage();
    if (!staged_.has_value()) return std::nullopt;
    StarMatch m;
    m.pivot = pivot_;
    m.score = staged_->score;
    for (size_t i = 0; i < staged_->cursor.size(); ++i) {
      m.leaves.push_back(lists_[i][staged_->cursor[i]].node);
    }
    staged_.reset();
    return m;
  }

  size_t states_explored() const { return states_explored_; }

 private:
  struct State {
    double score;
    std::vector<int> cursor;
    bool operator<(const State& other) const { return score < other.score; }
  };
  struct CursorHash {
    size_t operator()(const std::vector<int>& c) const {
      size_t h = 0xcbf29ce484222325ULL;
      for (const int x : c) {
        h ^= static_cast<size_t>(x) + 0x9e3779b97f4a7c15ULL + (h << 6) +
             (h >> 2);
      }
      return h;
    }
  };

  void PushState(std::vector<int> cursor) {
    if (!visited_.insert(cursor).second) return;
    double score = pivot_score_;
    for (size_t i = 0; i < cursor.size(); ++i) {
      score += lists_[i][cursor[i]].total;
    }
    frontier_.push(State{score, std::move(cursor)});
  }

  bool Injective(const std::vector<int>& cursor) const {
    for (size_t i = 0; i < cursor.size(); ++i) {
      const NodeId a = lists_[i][cursor[i]].node;
      if (a == pivot_) return false;
      for (size_t j = i + 1; j < cursor.size(); ++j) {
        if (a == lists_[j][cursor[j]].node) return false;
      }
    }
    return true;
  }

  void Stage() {
    if (staged_.has_value() || exhausted_) return;
    if (lists_.empty()) {
      if (!zero_leaf_emitted_) {
        staged_ = State{pivot_score_, {}};
        zero_leaf_emitted_ = true;
      } else {
        exhausted_ = true;
      }
      return;
    }
    while (!frontier_.empty()) {
      State top = frontier_.top();
      frontier_.pop();
      ++states_explored_;
      for (size_t i = 0; i < lists_.size(); ++i) {
        if (top.cursor[i] + 1 < static_cast<int>(lists_[i].size())) {
          std::vector<int> next = top.cursor;
          ++next[i];
          PushState(std::move(next));
        }
      }
      if (!enforce_injective_ || Injective(top.cursor)) {
        staged_ = std::move(top);
        return;
      }
    }
    exhausted_ = true;
  }

  NodeId pivot_;
  double pivot_score_;
  std::vector<std::vector<LeafCandidate>> lists_;
  bool enforce_injective_;
  bool exhausted_ = false;
  bool zero_leaf_emitted_ = false;
  std::priority_queue<State> frontier_;
  std::unordered_set<std::vector<int>, CursorHash> visited_;
  std::optional<State> staged_;
  size_t states_explored_ = 0;
};

TEST(PivotLatticeTieOrder, MatchesReferenceLatticeOnTiedLists) {
  Rng rng(20160);
  size_t tied_pairs = 0;
  for (size_t s = 0; s <= 5; ++s) {
    for (size_t len = 1; len <= 12; ++len) {
      for (const bool injective : {true, false}) {
        for (const size_t k_hint : {size_t{0}, size_t{3}}) {
          // Totals from a four-value grid and node ids from a small range:
          // many exact score ties and many colliding leaves.
          std::vector<std::vector<std::pair<NodeId, double>>> raw(s);
          for (auto& list : raw) {
            const size_t n = 1 + rng.Below(len);
            for (size_t j = 0; j < n; ++j) {
              list.emplace_back(static_cast<NodeId>(rng.Below(8)),
                                0.25 * static_cast<double>(1 + rng.Below(4)));
            }
          }
          const NodeId pivot = static_cast<NodeId>(rng.Below(8));
          PivotEnumerator lattice(pivot, 0.5, MakeLists(raw), injective, k_hint);
          ReferenceLattice reference(pivot, 0.5, MakeLists(raw), injective,
                                     k_hint);
          const auto context = ::testing::Message()
                               << "s=" << s << " len=" << len
                               << " injective=" << injective
                               << " k_hint=" << k_hint;
          double prev = 0.0;
          for (size_t pulls = 0; pulls < 400; ++pulls) {
            const auto got = lattice.Next();
            const auto want = reference.Next();
            ASSERT_EQ(got.has_value(), want.has_value()) << context;
            if (!got.has_value()) break;
            uint64_t got_bits, want_bits;
            std::memcpy(&got_bits, &got->score, sizeof(got_bits));
            std::memcpy(&want_bits, &want->score, sizeof(want_bits));
            ASSERT_EQ(got_bits, want_bits) << context << " pull " << pulls;
            ASSERT_EQ(got->leaves, want->leaves) << context << " pull " << pulls;
            if (pulls > 0 && got->score == prev) ++tied_pairs;
            prev = got->score;
          }
          EXPECT_EQ(lattice.states_explored(), reference.states_explored())
              << context;
        }
      }
    }
  }
  // Most consecutive emissions tie, so the tie order is what is compared.
  EXPECT_GT(tied_pairs, 1000u);
}

}  // namespace
}  // namespace star::core
