#include "core/rank_join.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/brute_force.h"
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
