#include "query/query_parser.h"

#include <gtest/gtest.h>

namespace star::query {
namespace {

TEST(QueryParserTest, SingleNode) {
  const auto r = ParseQuery("(Brad Pitt)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node_count(), 1);
  EXPECT_EQ(r->node(0).label, "Brad Pitt");
  EXPECT_FALSE(r->node(0).wildcard);
  EXPECT_EQ(r->edge_count(), 0);
}

TEST(QueryParserTest, TypedNode) {
  const auto r = ParseQuery("(Brad Pitt/Actor)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node(0).label, "Brad Pitt");
  EXPECT_EQ(r->node(0).type_name, "Actor");
}

TEST(QueryParserTest, WildcardVariants) {
  const auto r = ParseQuery("(?) -- (?x/Film); (?x) -- (?)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Anonymous wildcards are fresh each time; ?x is shared.
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->edge_count(), 2);
  int wildcard_count = 0;
  for (const auto& n : r->nodes()) wildcard_count += n.wildcard;
  EXPECT_EQ(wildcard_count, 3);
}

TEST(QueryParserTest, NamedWildcardWithTypeSharedAcrossClauses) {
  const auto r = ParseQuery("(Brad) -- (?m/Film); (?m/Film) -[won]- (Award)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->edge_count(), 2);
  EXPECT_TRUE(r->IsConnected());
}

TEST(QueryParserTest, RelationLabels) {
  const auto r = ParseQuery("(A) -[acted In]- (B) -- (C)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->edge_count(), 2);
  EXPECT_EQ(r->edge(0).relation, "acted In");
  EXPECT_FALSE(r->edge(0).wildcard_relation);
  EXPECT_TRUE(r->edge(1).wildcard_relation);
}

TEST(QueryParserTest, RepeatedConcreteLabelIsSameNode) {
  const auto r = ParseQuery("(A) -- (B); (A) -- (C)");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->edge_count(), 2);
  EXPECT_TRUE(r->IsStar());
}

TEST(QueryParserTest, TriangleQuery) {
  const auto r = ParseQuery("(A) -- (B) -- (C) -- (A)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->edge_count(), 3);
  EXPECT_FALSE(r->IsTree());
}

TEST(QueryParserTest, WhitespaceInsensitive) {
  const auto r = ParseQuery("  ( A )--( B )  ;\n ( A ) -[ rel ]- ( C ) ");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->node(0).label, "A");
  EXPECT_EQ(r->edge(1).relation, "rel");
}

TEST(QueryParserTest, TypeAttachesFromAnyOccurrence) {
  const auto r = ParseQuery("(?m) -- (A); (?m/Film) -- (B)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->node_count(), 3);
  EXPECT_EQ(r->node(0).type_name, "Film");
}

TEST(QueryParserTest, ConflictingTypesRejected) {
  EXPECT_FALSE(ParseQuery("(?m/Film) -- (A); (?m/Award) -- (B)").ok());
  EXPECT_FALSE(ParseQuery("(X/Film) -- (A); (X/Award) -- (B)").ok());
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("()").ok());
  EXPECT_FALSE(ParseQuery("(A) --").ok());
  EXPECT_FALSE(ParseQuery("(A) - (B)").ok());
  EXPECT_FALSE(ParseQuery("(A) -[rel- (B)").ok());
  EXPECT_FALSE(ParseQuery("(A").ok());
  EXPECT_FALSE(ParseQuery("(A) -- (A)").ok());          // self loop
  EXPECT_FALSE(ParseQuery("(A) -- (B); (B) -- (A)").ok());  // dup edge
  EXPECT_FALSE(ParseQuery("(A) (B)").ok());
  // Well formed but disconnected: QueryGraph::Validate() rejects it.
  EXPECT_EQ(ParseQuery("(A); (B)").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryParserTest, ErrorMessagesCarryPosition) {
  const auto r = ParseQuery("(A) -[x- (B)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position"), std::string::npos);
}

TEST(QueryParserTest, TrailingSemicolonTolerated) {
  const auto r = ParseQuery("(A) -- (B);");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->edge_count(), 1);
}

}  // namespace
}  // namespace star::query
