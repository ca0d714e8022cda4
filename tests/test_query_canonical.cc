// Tests for insertion-order-insensitive query canonicalization
// (src/query/query_canonical.h). The guarantee under test: two QueryGraphs
// that are label/type/relation-preserving relabelings of each other get the
// same signature (so a normalized-query cache hits), and graphs that differ
// in any attribute or in structure get different signatures (no false hits).

#include "query/query_canonical.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "query/query_graph.h"

namespace star::query {
namespace {

// A small asymmetric query: person --acted_in-- movie --directed-- director,
// built with the node/edge insertion order given by `perm` (a permutation of
// roles 0=person, 1=movie, 2=director).
QueryGraph TriplePath(const std::vector<int>& perm) {
  QueryGraph q;
  std::vector<int> idx(3, -1);
  const char* labels[] = {"tom hanks", "forrest gump", "robert zemeckis"};
  const char* types[] = {"person", "movie", "person"};
  for (const int role : perm) idx[role] = q.AddNode(labels[role], types[role]);
  if (perm[0] % 2 == 0) {
    q.AddEdge(idx[0], idx[1], "acted_in");
    q.AddEdge(idx[1], idx[2], "directed");
  } else {
    q.AddEdge(idx[2], idx[1], "directed");
    q.AddEdge(idx[1], idx[0], "acted_in");
  }
  return q;
}

std::string Signature(const QueryGraph& q) {
  return CanonicalizeQuery(q).signature;
}

TEST(QueryCanonicalTest, InsertionOrderDoesNotChangeSignature) {
  const std::vector<std::vector<int>> perms = {
      {0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  const CanonicalQuery base = CanonicalizeQuery(TriplePath(perms[0]));
  EXPECT_TRUE(base.exact);
  for (size_t i = 1; i < perms.size(); ++i) {
    const CanonicalQuery other = CanonicalizeQuery(TriplePath(perms[i]));
    EXPECT_EQ(base.signature, other.signature) << "perm " << i;
  }
  EXPECT_EQ(Signature(TriplePath(perms[1])), Signature(TriplePath(perms[4])));
}

TEST(QueryCanonicalTest, DifferentLabelsDiffer) {
  QueryGraph a, b;
  a.AddNode("alpha");
  b.AddNode("beta");
  EXPECT_NE(Signature(a), Signature(b));
}

TEST(QueryCanonicalTest, DifferentTypesDiffer) {
  QueryGraph a, b;
  a.AddNode("hanks", "person");
  b.AddNode("hanks", "movie");
  EXPECT_NE(Signature(a), Signature(b));
}

TEST(QueryCanonicalTest, WildcardDiffersFromEmptyLabel) {
  QueryGraph a, b;
  a.AddWildcardNode("person");
  b.AddNode("", "person");
  EXPECT_NE(Signature(a), Signature(b));
}

TEST(QueryCanonicalTest, DifferentRelationsDiffer) {
  QueryGraph a, b;
  const int a0 = a.AddNode("x"), a1 = a.AddNode("y");
  const int b0 = b.AddNode("x"), b1 = b.AddNode("y");
  a.AddEdge(a0, a1, "acted_in");
  b.AddEdge(b0, b1, "directed");
  EXPECT_NE(Signature(a), Signature(b));

  QueryGraph c;  // wildcard relation differs from any named one
  const int c0 = c.AddNode("x"), c1 = c.AddNode("y");
  c.AddEdge(c0, c1);
  EXPECT_NE(Signature(a), Signature(c));
}

TEST(QueryCanonicalTest, StructureDiffersWithIdenticalNodeMultiset) {
  // Path x-y-z vs star with center z: same node labels, same edge count.
  QueryGraph path, star;
  const int p0 = path.AddNode("x"), p1 = path.AddNode("y"),
            p2 = path.AddNode("z");
  path.AddEdge(p0, p1, "r");
  path.AddEdge(p1, p2, "r");
  const int s0 = star.AddNode("x"), s1 = star.AddNode("y"),
            s2 = star.AddNode("z");
  star.AddEdge(s2, s0, "r");
  star.AddEdge(s2, s1, "r");
  EXPECT_NE(Signature(path), Signature(star));
}

TEST(QueryCanonicalTest, SymmetricQueryIsOrderInsensitive) {
  // A star with 3 identically-labeled wildcard leaves: WL refinement cannot
  // split the leaves, so this exercises the bounded permutation search.
  auto make = [](const std::vector<int>& leaf_order) {
    QueryGraph q;
    const int center = q.AddNode("query hub", "entity");
    std::vector<int> leaves(3, -1);
    for (const int l : leaf_order) leaves[l] = q.AddWildcardNode("person");
    for (const int l : leaf_order) q.AddEdge(center, leaves[l], "knows");
    return q;
  };
  const CanonicalQuery base = CanonicalizeQuery(make({0, 1, 2}));
  EXPECT_TRUE(base.exact);
  EXPECT_EQ(base.signature, CanonicalizeQuery(make({2, 0, 1})).signature);
  EXPECT_EQ(base.signature, CanonicalizeQuery(make({1, 2, 0})).signature);
}

TEST(QueryCanonicalTest, NodeRankIsAValidPermutation) {
  const CanonicalQuery c = CanonicalizeQuery(TriplePath({1, 2, 0}));
  ASSERT_EQ(c.node_rank.size(), 3u);
  std::vector<bool> seen(3, false);
  for (const int r : c.node_rank) {
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 3);
    EXPECT_FALSE(seen[r]);
    seen[r] = true;
  }
}

TEST(QueryCanonicalTest, SignatureIsStable) {
  const std::string a = Signature(TriplePath({0, 1, 2}));
  EXPECT_EQ(a, Signature(TriplePath({2, 1, 0})));
  // Repeated canonicalization is deterministic.
  EXPECT_EQ(a, Signature(TriplePath({0, 1, 2})));
}

TEST(QueryCanonicalTest, EmptyAndSingleNodeQueries) {
  QueryGraph empty;
  const CanonicalQuery ce = CanonicalizeQuery(empty);
  EXPECT_TRUE(ce.exact);
  EXPECT_TRUE(ce.node_rank.empty());

  QueryGraph one;
  one.AddNode("solo");
  const CanonicalQuery c1 = CanonicalizeQuery(one);
  EXPECT_NE(ce.signature, c1.signature);
}

TEST(QueryCanonicalTest, LargeSymmetryFallsBackDeterministically) {
  // 9 identical wildcard leaves -> 9! orderings > kMaxCanonicalOrderings.
  QueryGraph q;
  const int center = q.AddNode("hub");
  for (int i = 0; i < 9; ++i) q.AddEdge(center, q.AddWildcardNode(), "r");
  const CanonicalQuery c = CanonicalizeQuery(q);
  EXPECT_FALSE(c.exact);
  // Still deterministic for the same insertion order.
  QueryGraph q2;
  const int center2 = q2.AddNode("hub");
  for (int i = 0; i < 9; ++i) q2.AddEdge(center2, q2.AddWildcardNode(), "r");
  EXPECT_EQ(c.signature, CanonicalizeQuery(q2).signature);
}

}  // namespace
}  // namespace star::query
