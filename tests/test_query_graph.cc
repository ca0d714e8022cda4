#include "query/query_graph.h"

#include <gtest/gtest.h>

namespace star::query {
namespace {

TEST(QueryGraphTest, NodeAndEdgeConstruction) {
  QueryGraph q;
  const int a = q.AddNode("Brad", "Actor");
  const int b = q.AddWildcardNode("Film");
  const int e = q.AddEdge(a, b, "actedIn");
  EXPECT_EQ(q.node_count(), 2);
  EXPECT_EQ(q.edge_count(), 1);
  EXPECT_EQ(q.node(a).label, "Brad");
  EXPECT_FALSE(q.node(a).wildcard);
  EXPECT_TRUE(q.node(b).wildcard);
  EXPECT_EQ(q.node(b).type_name, "Film");
  EXPECT_FALSE(q.edge(e).wildcard_relation);
  EXPECT_EQ(q.OtherEnd(e, a), b);
  EXPECT_EQ(q.OtherEnd(e, b), a);
}

TEST(QueryGraphTest, WildcardRelation) {
  QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  EXPECT_TRUE(q.edge(q.AddEdge(a, b)).wildcard_relation);
  EXPECT_TRUE(q.edge(q.AddEdge(a, b, "?")).wildcard_relation);
}

TEST(QueryGraphTest, Connectivity) {
  QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  q.AddNode("C");  // isolated
  q.AddEdge(a, b);
  EXPECT_FALSE(q.IsConnected());
  EXPECT_TRUE(QueryGraph().IsConnected());
}

TEST(QueryGraphTest, StarDetection) {
  QueryGraph star;
  const int center = star.AddNode("C");
  for (int i = 0; i < 3; ++i) {
    std::string label = "L";
    label += std::to_string(i);
    star.AddEdge(center, star.AddNode(label));
  }
  EXPECT_TRUE(star.IsStar());
  EXPECT_EQ(star.StarPivot(), center);

  QueryGraph path;
  const int p0 = path.AddNode("0");
  const int p1 = path.AddNode("1");
  const int p2 = path.AddNode("2");
  const int p3 = path.AddNode("3");
  path.AddEdge(p0, p1);
  path.AddEdge(p1, p2);
  path.AddEdge(p2, p3);
  EXPECT_FALSE(path.IsStar());  // 3-edge path: no node covers all edges

  QueryGraph edge;
  const int e0 = edge.AddNode("0");
  const int e1 = edge.AddNode("1");
  edge.AddEdge(e0, e1);
  EXPECT_TRUE(edge.IsStar());  // a single edge is a star

  QueryGraph single;
  single.AddNode("0");
  EXPECT_TRUE(single.IsStar());
  EXPECT_EQ(single.StarPivot(), 0);
}

TEST(QueryGraphTest, TriangleIsNotAStar) {
  QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  q.AddEdge(a, c);
  EXPECT_FALSE(q.IsStar());
  EXPECT_FALSE(q.IsTree());
  EXPECT_TRUE(q.IsConnected());
}

TEST(QueryGraphTest, TreeDetection) {
  QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  q.AddEdge(a, b);
  q.AddEdge(b, c);
  EXPECT_TRUE(q.IsTree());
  q.AddEdge(a, c);
  EXPECT_FALSE(q.IsTree());
}

TEST(QueryGraphTest, IncidentEdgesAndDegree) {
  QueryGraph q;
  const int a = q.AddNode("A");
  const int b = q.AddNode("B");
  const int c = q.AddNode("C");
  const int e0 = q.AddEdge(a, b);
  const int e1 = q.AddEdge(a, c);
  EXPECT_EQ(q.Degree(a), 2);
  EXPECT_EQ(q.Degree(b), 1);
  EXPECT_EQ(q.IncidentEdges(a), (std::vector<int>{e0, e1}));
}

TEST(QueryGraphTest, ValidateAcceptsOnlyConnectedSimpleQueries) {
  QueryGraph path;
  const int a = path.AddNode("A");
  const int b = path.AddNode("B");
  path.AddEdge(a, b);
  EXPECT_TRUE(path.Validate().ok());

  QueryGraph single;
  single.AddNode("A");
  EXPECT_TRUE(single.Validate().ok());

  EXPECT_EQ(QueryGraph().Validate().code(), StatusCode::kInvalidArgument);

  QueryGraph disconnected;
  disconnected.AddNode("A");
  disconnected.AddNode("B");
  EXPECT_EQ(disconnected.Validate().code(), StatusCode::kInvalidArgument);

  QueryGraph parallel = path;
  parallel.AddEdge(b, a, "other");
  EXPECT_EQ(parallel.Validate().code(), StatusCode::kInvalidArgument);

  QueryGraph loop = path;
  loop.AddEdge(b, b);
  EXPECT_EQ(loop.Validate().code(), StatusCode::kInvalidArgument);

  // A connected chain at the node cap passes; one node more does not.
  QueryGraph chain;
  chain.AddNode("N");
  for (int u = 1; u < kMaxQueryNodes; ++u) {
    chain.AddEdge(u - 1, chain.AddNode("N"));
  }
  EXPECT_TRUE(chain.Validate().ok());
  chain.AddEdge(kMaxQueryNodes - 1, chain.AddNode("N"));
  EXPECT_EQ(chain.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(QueryGraphTest, ToStringMentionsShape) {
  QueryGraph q;
  const int a = q.AddNode("Brad", "Actor");
  const int b = q.AddWildcardNode();
  q.AddEdge(a, b, "actedIn");
  const std::string s = q.ToString();
  EXPECT_NE(s.find("Q(2,1)"), std::string::npos);
  EXPECT_NE(s.find("Brad"), std::string::npos);
  EXPECT_NE(s.find("actedIn"), std::string::npos);
}

}  // namespace
}  // namespace star::query
