#include "core/rank_join.h"

#include <algorithm>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
#include "common/random.h"
#include "core/decomposition.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::core {
namespace {

using star::testing::ScorerFixture;
using star::testing::SmallRandomGraph;
using star::testing::TestConfig;

/// A scripted monotone iterator for controlled join tests.
class ScriptedStream : public CoveredMatchIterator {
 public:
  ScriptedStream(uint64_t covered, std::vector<GraphMatch> matches)
      : covered_(covered), matches_(std::move(matches)) {}

  std::optional<GraphMatch> Next() override {
    if (pos_ >= matches_.size()) return std::nullopt;
    return matches_[pos_++];
  }

  double UpperBound() const override {
    if (pos_ >= matches_.size()) {
      return -std::numeric_limits<double>::infinity();
    }
    return matches_[pos_].score;
  }

  uint64_t covered_mask() const override { return covered_; }

 private:
  uint64_t covered_;
  std::vector<GraphMatch> matches_;
  size_t pos_ = 0;
};

GraphMatch MakeMatch(std::vector<graph::NodeId> mapping, double score) {
  GraphMatch m;
  m.mapping = std::move(mapping);
  m.score = score;
  return m;
}

constexpr graph::NodeId X = graph::kInvalidNode;

TEST(RankJoinTest, JoinsOnSharedNode) {
  // Query nodes {0,1,2}; left covers {0,1}, right covers {1,2}.
  auto left = std::make_unique<ScriptedStream>(
      0b011, std::vector<GraphMatch>{MakeMatch({10, 20, X}, 1.8),
                                     MakeMatch({11, 21, X}, 1.5)});
  auto right = std::make_unique<ScriptedStream>(
      0b110, std::vector<GraphMatch>{MakeMatch({X, 21, 31}, 1.9),
                                     MakeMatch({X, 20, 30}, 1.2)});
  RankJoin join(std::move(left), std::move(right), true);
  EXPECT_EQ(join.covered_mask(), 0b111u);
  const auto first = join.Next();
  ASSERT_TRUE(first.has_value());
  // Joinable pairs: (10,20)+(20,30)=3.0 and (11,21)+(21,31)=3.4.
  EXPECT_NEAR(first->score, 3.4, 1e-12);
  EXPECT_EQ(first->mapping, (std::vector<graph::NodeId>{11, 21, 31}));
  const auto second = join.Next();
  ASSERT_TRUE(second.has_value());
  EXPECT_NEAR(second->score, 3.0, 1e-12);
  EXPECT_FALSE(join.Next().has_value());
}

TEST(RankJoinTest, EmitsInDescendingOrder) {
  auto left = std::make_unique<ScriptedStream>(
      0b011, std::vector<GraphMatch>{MakeMatch({1, 5, X}, 2.0),
                                     MakeMatch({2, 5, X}, 1.9),
                                     MakeMatch({3, 6, X}, 1.0)});
  auto right = std::make_unique<ScriptedStream>(
      0b110, std::vector<GraphMatch>{MakeMatch({X, 5, 7}, 2.0),
                                     MakeMatch({X, 6, 8}, 1.8),
                                     MakeMatch({X, 5, 9}, 0.5)});
  RankJoin join(std::move(left), std::move(right), true);
  double prev = 1e18;
  size_t count = 0;
  while (auto m = join.Next()) {
    EXPECT_LE(m->score, prev + 1e-12);
    prev = m->score;
    ++count;
  }
  // Valid joins: (1,5)x(5,7), (1,5)x(5,9), (2,5)x(5,7), (2,5)x(5,9),
  // (3,6)x(6,8).
  EXPECT_EQ(count, 5u);
}

TEST(RankJoinTest, InjectivityFiltersCrossStarCollisions) {
  // Left maps node0=7; right maps node2=7 as well -> collision.
  auto left = std::make_unique<ScriptedStream>(
      0b011, std::vector<GraphMatch>{MakeMatch({7, 5, X}, 2.0)});
  auto right = std::make_unique<ScriptedStream>(
      0b110, std::vector<GraphMatch>{MakeMatch({X, 5, 7}, 2.0),
                                     MakeMatch({X, 5, 8}, 1.0)});
  {
    RankJoin join(std::make_unique<ScriptedStream>(*static_cast<ScriptedStream*>(left.get())),
                  std::make_unique<ScriptedStream>(*static_cast<ScriptedStream*>(right.get())),
                  true);
    const auto m = join.Next();
    ASSERT_TRUE(m.has_value());
    EXPECT_NEAR(m->score, 3.0, 1e-12);  // the non-colliding pair
    EXPECT_FALSE(join.Next().has_value());
  }
  {
    RankJoin join(std::move(left), std::move(right), false);
    const auto m = join.Next();
    ASSERT_TRUE(m.has_value());
    EXPECT_NEAR(m->score, 4.0, 1e-12);  // collision allowed
  }
}

TEST(RankJoinTest, UpperBoundDominatesEmissions) {
  auto left = std::make_unique<ScriptedStream>(
      0b011, std::vector<GraphMatch>{MakeMatch({1, 5, X}, 2.0),
                                     MakeMatch({2, 5, X}, 1.0)});
  auto right = std::make_unique<ScriptedStream>(
      0b110, std::vector<GraphMatch>{MakeMatch({X, 5, 7}, 1.5),
                                     MakeMatch({X, 5, 8}, 0.5)});
  RankJoin join(std::move(left), std::move(right), true);
  while (true) {
    const double ub = join.UpperBound();
    const auto m = join.Next();
    if (!m.has_value()) break;
    EXPECT_GE(ub + 1e-9, m->score);
  }
}

TEST(RankJoinTest, DisjointStreamsCrossProduct) {
  // No shared nodes: every pair joins (cartesian, injectivity permitting).
  auto left = std::make_unique<ScriptedStream>(
      0b001, std::vector<GraphMatch>{MakeMatch({1, X, X}, 1.0),
                                     MakeMatch({2, X, X}, 0.5)});
  auto right = std::make_unique<ScriptedStream>(
      0b010, std::vector<GraphMatch>{MakeMatch({X, 3, X}, 1.0),
                                     MakeMatch({X, 4, X}, 0.2)});
  RankJoin join(std::move(left), std::move(right), true);
  size_t count = 0;
  while (join.Next().has_value()) ++count;
  EXPECT_EQ(count, 4u);
}

TEST(RankJoinTest, CornerRulePullsTheSideHoldingTheThreshold) {
  // The left stream's scores run far above the right's, so after the
  // first pulls T = top_left + U_right: only right pulls lower it. Left
  // match i joins only right match i (shared query node 1 maps to i), so
  // the top 3 are (0,0), (1,1) and (2,2). A join that pulls the side with
  // the larger U reads all 2,000 left matches before its first right pull.
  std::vector<GraphMatch> left, right;
  for (int i = 0; i < 2000; ++i) {
    left.push_back(MakeMatch({static_cast<graph::NodeId>(10000 + i),
                              static_cast<graph::NodeId>(i), X},
                             6.0 - 0.001 * i));
  }
  for (int j = 0; j < 5; ++j) {
    right.push_back(MakeMatch({X, static_cast<graph::NodeId>(j),
                               static_cast<graph::NodeId>(20000 + j)},
                              2.0 - 0.1 * j));
  }
  RankJoin join(std::make_unique<ScriptedStream>(0b011, left),
                std::make_unique<ScriptedStream>(0b110, right), true);
  const double want[] = {8.0, 7.899, 7.798};
  for (int r = 0; r < 3; ++r) {
    const auto m = join.Next();
    ASSERT_TRUE(m.has_value()) << "#" << r;
    EXPECT_NEAR(m->score, want[r], 1e-12) << "#" << r;
    EXPECT_EQ(m->mapping,
              (std::vector<graph::NodeId>{left[r].mapping[0],
                                          static_cast<graph::NodeId>(r),
                                          right[r].mapping[2]}));
  }
  // Each emission waits until U_left + top_right falls to the result, so
  // about 100 left pulls per result; the right input is read one match
  // per result.
  EXPECT_LT(join.stats().left_pulled, 250u);
  EXPECT_LE(join.stats().right_pulled, 3u);
}

/// Reference for the join tables: RankJoin's pull loop (HRJN with the
/// Eq. 4 threshold, pulling the side whose term sets it) over two scripted
/// streams, where each probe scans every match the other side pulled so
/// far, in pull order, and pairs those that agree on all shared query
/// nodes.
class NestedLoopJoin {
 public:
  NestedLoopJoin(std::vector<GraphMatch> left, std::vector<GraphMatch> right,
                 std::vector<int> shared, bool injective)
      : shared_(std::move(shared)), injective_(injective) {
    left_.in = std::move(left);
    right_.in = std::move(right);
  }

  std::optional<GraphMatch> Next() {
    while (true) {
      const double threshold = Threshold();
      if (!results_.empty() &&
          (results_.top().score >= threshold || threshold == kNegInf)) {
        GraphMatch out = results_.top();
        results_.pop();
        return out;
      }
      if (threshold == kNegInf) return std::nullopt;
      if (Bound(left_) + Top(right_) >= Top(left_) + Bound(right_)) {
        if (!Pull(left_, right_)) Pull(right_, left_);
      } else {
        if (!Pull(right_, left_)) Pull(left_, right_);
      }
    }
  }

  size_t pairs_probed = 0;
  size_t results_formed = 0;

 private:
  static constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  struct Side {
    std::vector<GraphMatch> in;
    size_t pos = 0;
    std::vector<GraphMatch> pulled;
    double top = 0.0;
    bool top_seen = false;
    bool exhausted = false;
  };
  struct Order {
    bool operator()(const GraphMatch& a, const GraphMatch& b) const {
      return a.score < b.score;
    }
  };

  static double Bound(const Side& s) {
    return s.exhausted || s.pos >= s.in.size() ? kNegInf : s.in[s.pos].score;
  }

  static double Top(const Side& s) { return s.top_seen ? s.top : Bound(s); }

  double Threshold() const {
    const double lu = Bound(left_), ru = Bound(right_);
    const double lt = Top(left_), rt = Top(right_);
    double t = kNegInf;
    if (lu != kNegInf && rt != kNegInf) t = std::max(t, lu + rt);
    if (ru != kNegInf && lt != kNegInf) t = std::max(t, lt + ru);
    if (lu != kNegInf && ru != kNegInf) t = std::max(t, lu + ru);
    return t;
  }

  bool Pull(Side& self, Side& other) {
    if (self.exhausted) return false;
    if (self.pos >= self.in.size()) {
      self.exhausted = true;
      return false;
    }
    const GraphMatch m = self.in[self.pos++];
    if (!self.top_seen) {
      self.top_seen = true;
      self.top = m.score;
    }
    for (const GraphMatch& partner : other.pulled) {
      bool same = true;
      for (const int u : shared_) same &= m.mapping[u] == partner.mapping[u];
      if (!same) continue;
      ++pairs_probed;
      GraphMatch joined;
      joined.mapping.assign(m.mapping.size(), X);
      for (size_t u = 0; u < m.mapping.size(); ++u) {
        joined.mapping[u] = m.mapping[u] != X ? m.mapping[u] : partner.mapping[u];
      }
      if (injective_ && !joined.Injective()) continue;
      joined.score = m.score + partner.score;
      ++results_formed;
      results_.push(std::move(joined));
    }
    self.pulled.push_back(m);
    return true;
  }

  Side left_, right_;
  std::vector<int> shared_;
  bool injective_;
  std::priority_queue<GraphMatch, std::vector<GraphMatch>, Order> results_;
};

/// A monotone stream over query nodes 0..5 covering `nodes`, with scores
/// from a tied grid. Nodes 1..3 (the shared ones) each draw from two ids
/// of their own, so many keys repeat and many agree on only some shared
/// nodes; nodes 0 and 5 draw from ids that overlap them, so injectivity
/// rejects some pairs.
std::vector<GraphMatch> RandomStream(Rng& rng, const std::vector<int>& nodes,
                                     size_t count) {
  std::vector<GraphMatch> out;
  for (size_t i = 0; i < count; ++i) {
    std::vector<graph::NodeId> mapping(6, X);
    for (const int u : nodes) {
      const uint64_t id = (u == 0 || u == 5) ? 12 + rng.Below(4)
                                             : 10 + 2 * u + rng.Below(2);
      mapping[u] = static_cast<graph::NodeId>(id);
    }
    out.push_back(MakeMatch(std::move(mapping),
                            0.25 * static_cast<double>(1 + rng.Below(8))));
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const GraphMatch& a, const GraphMatch& b) {
                     return a.score > b.score;
                   });
  return out;
}

/// The whole join of `left` and `right` as a multiset of (mapping, score):
/// what a rank join must emit, in any pull order.
std::map<std::pair<std::vector<graph::NodeId>, double>, int> FullJoin(
    const std::vector<GraphMatch>& left, const std::vector<GraphMatch>& right,
    const std::vector<int>& shared, bool injective) {
  std::map<std::pair<std::vector<graph::NodeId>, double>, int> out;
  for (const GraphMatch& l : left) {
    for (const GraphMatch& r : right) {
      bool same = true;
      for (const int u : shared) same &= l.mapping[u] == r.mapping[u];
      if (!same) continue;
      GraphMatch joined;
      for (size_t u = 0; u < l.mapping.size(); ++u) {
        joined.mapping.push_back(l.mapping[u] != X ? l.mapping[u]
                                                   : r.mapping[u]);
      }
      if (injective && !joined.Injective()) continue;
      ++out[{joined.mapping, l.score + r.score}];
    }
  }
  return out;
}

uint64_t CoverMask(const std::vector<int>& nodes) {
  uint64_t mask = 0;
  for (const int u : nodes) mask |= uint64_t{1} << u;
  return mask;
}

TEST(RankJoinTest, MultiNodeKeysMatchNestedLoopJoin) {
  // Two and three shared query nodes.
  const std::vector<std::vector<int>> shared_sets = {{1, 2}, {1, 2, 3}};
  for (const auto& shared : shared_sets) {
    std::vector<int> left_nodes = {0}, right_nodes = shared;
    left_nodes.insert(left_nodes.end(), shared.begin(), shared.end());
    right_nodes.push_back(5);
    for (uint64_t seed = 1; seed <= 20; ++seed) {
      for (const bool injective : {true, false}) {
        Rng rng(seed);
        auto left = RandomStream(rng, left_nodes, 30);
        auto right = RandomStream(rng, right_nodes, 30);
        // Two seeds in three lift one side's scores above the other's
        // (on the 0.25 grid, so sums stay exact and ties stay ties): the
        // regime where the two terms of T differ and the pull choice
        // matters.
        if (seed % 3 != 0) {
          for (GraphMatch& m : seed % 3 == 1 ? left : right) m.score += 0.75;
        }
        // Pull-order-free reference: the sorted scores of the whole join,
        // and the multiset of its (mapping, score) pairs.
        auto full = FullJoin(left, right, shared, injective);
        std::vector<double> full_scores;
        for (const auto& [entry, count] : full) {
          full_scores.insert(full_scores.end(), count, entry.second);
        }
        std::sort(full_scores.rbegin(), full_scores.rend());
        RankJoin join(
            std::make_unique<ScriptedStream>(CoverMask(left_nodes), left),
            std::make_unique<ScriptedStream>(CoverMask(right_nodes), right),
            injective);
        NestedLoopJoin reference(left, right, shared, injective);
        const auto context = ::testing::Message()
                             << "shared=" << shared.size() << " seed=" << seed
                             << " injective=" << injective;
        size_t emitted = 0;
        while (true) {
          const auto got = join.Next();
          const auto want = reference.Next();
          ASSERT_EQ(got.has_value(), want.has_value()) << context;
          if (!got.has_value()) break;
          ASSERT_EQ(got->mapping, want->mapping) << context << " #" << emitted;
          ASSERT_EQ(got->score, want->score) << context << " #" << emitted;
          ASSERT_LT(emitted, full_scores.size()) << context;
          ASSERT_EQ(got->score, full_scores[emitted])
              << context << " #" << emitted;
          const auto it = full.find({got->mapping, got->score});
          ASSERT_TRUE(it != full.end() && it->second > 0)
              << context << " #" << emitted << ": not in the full join";
          --it->second;
          ++emitted;
        }
        EXPECT_GT(emitted, 0u) << context;
        EXPECT_EQ(emitted, full_scores.size()) << context;
        EXPECT_EQ(join.stats().pairs_probed, reference.pairs_probed)
            << context;
        EXPECT_EQ(join.stats().results_formed, reference.results_formed)
            << context;
      }
    }
  }
}

TEST(CachedStarStreamTest, CoversPivotAndLeaves) {
  const auto g = star::testing::MovieGraph();
  query::QueryGraph q;
  const int a = q.AddNode("Brad");
  const int b = q.AddNode("Troy");
  const int c = q.AddNode("Award");
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  ScorerFixture fx(g, q, TestConfig(2));
  query::StarQuery star;
  star.pivot = b;
  star.edges = {0, 1};
  // No cache: the stream is the plain search.
  CachedStarStream stream(*fx.scorer, star, StarSearch::Options{}, nullptr,
                          "", 0);
  EXPECT_FALSE(stream.probed());
  EXPECT_EQ(stream.covered_mask(), 0b111u);
  const auto m = stream.Next();
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(stream.depth(), 1u);
}

}  // namespace
}  // namespace star::core
