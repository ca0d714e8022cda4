// stark's exact top-1 bounds and streams, pinned against eager stark.
//
// stark reads each pivot candidate's top-1 off its leaf lists and builds
// the pivot's enumerator only when the search activates it (or to resolve
// a first state whose leaves collide). These tests compare that with a
// straightforward reference: hash-map leaf lists, and a PivotEnumerator
// built and peeked for every pivot candidate. The bounds must agree bit
// for bit, and so must the merged stream (mappings and score bits).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/deadline.h"
#include "core/pivot_enumerator.h"
#include "core/star_search.h"
#include "graph/graph_generator.h"
#include "query/workload.h"
#include "test_helpers.h"

namespace star::core {
namespace {

using graph::NodeId;
using star::testing::ScorerFixture;
using star::testing::TestConfig;

// ---------------------------------------------------------------------------
// Reference: eager stark.
// ---------------------------------------------------------------------------

/// The pivot's leaf lists: per leaf, the best total offered to each node,
/// through the direct edges (relsim) and the walk layers (lambda^(h-1) at
/// a node's first layer), kept in hash maps.
std::vector<std::vector<LeafCandidate>> ReferenceLists(
    scoring::QueryScorer& scorer, const query::StarQuery& star, NodeId pivot) {
  const graph::KnowledgeGraph& g = scorer.graph();
  const scoring::MatchConfig& cfg = scorer.config();
  const size_t s = star.edges.size();
  std::vector<std::unordered_map<NodeId, double>> best(s);
  const auto consider = [&](size_t i, NodeId w, double edge_component) {
    if (edge_component < cfg.edge_threshold) return;
    if (cfg.enforce_injective && w == pivot) return;
    const int leaf = scorer.query().OtherEnd(star.edges[i], star.pivot);
    const double node_score = scorer.CandidateScore(leaf, w);
    if (node_score < 0.0) return;
    const double total = node_score + edge_component;
    auto [it, inserted] = best[i].try_emplace(w, total);
    if (!inserted && total > it->second) it->second = total;
  };
  for (const auto& nb : g.Neighbors(pivot)) {
    for (size_t i = 0; i < s; ++i) {
      consider(i, nb.node, scorer.RelationScore(star.edges[i], nb.relation));
    }
  }
  std::unordered_set<NodeId> reached;
  std::unordered_set<NodeId> layer;
  for (const auto& nb : g.Neighbors(pivot)) layer.insert(nb.node);
  for (int h = 2; h <= cfg.d; ++h) {
    const double decay = scorer.PathDecay(h);
    if (decay < cfg.edge_threshold) break;
    std::unordered_set<NodeId> next;
    for (const NodeId x : layer) {
      for (const auto& nb : g.Neighbors(x)) next.insert(nb.node);
    }
    for (const NodeId w : next) {
      if (!reached.insert(w).second) continue;
      for (size_t i = 0; i < s; ++i) consider(i, w, decay);
    }
    layer = std::move(next);
  }
  std::vector<std::vector<LeafCandidate>> lists(s);
  for (size_t i = 0; i < s; ++i) {
    for (const auto& [node, total] : best[i]) lists[i].push_back({node, total});
  }
  return lists;
}

struct Reference {
  /// (pivot, exact top-1) in reserve order: bound desc, pivot asc.
  std::vector<std::pair<NodeId, double>> bounds;
  /// Pivots whose first lattice state (each list's first entry under
  /// (total desc, node asc)) is not injective.
  size_t collisions = 0;
  /// The canonical (score desc, pivot asc) merge of every pivot's stream.
  std::vector<StarMatch> stream;
};

Reference EagerStark(scoring::QueryScorer& scorer, const query::StarQuery& star,
                     size_t k_hint, size_t pulls) {
  const bool injective = scorer.config().enforce_injective;
  Reference ref;
  std::vector<std::unique_ptr<PivotEnumerator>> enumerators;
  struct Head {
    double score;
    size_t index;
    NodeId pivot;
    bool operator<(const Head& o) const {
      if (score != o.score) return score < o.score;
      return pivot > o.pivot;
    }
  };
  std::priority_queue<Head> queue;
  for (const auto& c : scorer.Candidates(star.pivot)) {
    auto lists = ReferenceLists(scorer, star, c.node);
    bool empty = false;
    std::vector<NodeId> heads;
    for (auto list : lists) {
      if (list.empty()) {
        empty = true;
        break;
      }
      std::sort(list.begin(), list.end(),
                [](const LeafCandidate& a, const LeafCandidate& b) {
                  return a.total > b.total ||
                         (a.total == b.total && a.node < b.node);
                });
      heads.push_back(list[0].node);
    }
    if (empty) continue;
    if (injective) {
      bool collides = false;
      for (size_t i = 0; i < heads.size(); ++i) {
        collides |= heads[i] == c.node;
        for (size_t j = 0; j < i; ++j) collides |= heads[i] == heads[j];
      }
      ref.collisions += collides;
    }
    auto e = std::make_unique<PivotEnumerator>(c.node, c.score, std::move(lists),
                                               injective, k_hint);
    const auto top1 = e->PeekScore();
    if (!top1.has_value()) continue;
    ref.bounds.emplace_back(c.node, *top1);
    queue.push(Head{*top1, enumerators.size(), c.node});
    enumerators.push_back(std::move(e));
  }
  std::sort(ref.bounds.begin(), ref.bounds.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  while (ref.stream.size() < pulls && !queue.empty()) {
    const Head top = queue.top();
    queue.pop();
    ref.stream.push_back(*enumerators[top.index]->Next());
    if (const auto next = enumerators[top.index]->PeekScore()) {
      queue.push(Head{*next, top.index, top.pivot});
    }
  }
  return ref;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

constexpr size_t kPulls = 25;

/// Runs stark on `q` and checks its bounds, its top-1 fallbacks and its
/// stream against eager stark. Returns the reference for further checks.
Reference ExpectMatchesEagerStark(const graph::KnowledgeGraph& g,
                                  const query::QueryGraph& q,
                                  const scoring::MatchConfig& cfg,
                                  size_t k_hint, const std::string& context) {
  ScorerFixture fx(g, q, cfg);
  StarSearch::Options so;
  so.strategy = StarStrategy::kStark;
  so.k_hint = k_hint;
  StarSearch search(*fx.scorer, MakeStarQuery(q), so);
  const auto got = search.PivotBounds();
  // PivotBounds() only initializes: the enumerators built so far are the
  // top-1 fallbacks.
  const size_t fallbacks = search.stats().enumerators_built;
  std::vector<StarMatch> stream;
  while (stream.size() < kPulls) {
    auto m = search.Next();
    if (!m.has_value()) break;
    stream.push_back(std::move(*m));
  }
  ScorerFixture ref_fx(g, q, cfg);
  const Reference ref = EagerStark(*ref_fx.scorer, search.star(), k_hint, kPulls);

  EXPECT_FALSE(search.stats().cancelled) << context;
  EXPECT_EQ(fallbacks, ref.collisions) << context;
  EXPECT_EQ(got.size(), ref.bounds.size()) << context;
  for (size_t j = 0; j < std::min(got.size(), ref.bounds.size()); ++j) {
    EXPECT_EQ(got[j].first, ref.bounds[j].first) << context << " rank " << j;
    EXPECT_EQ(Bits(got[j].second), Bits(ref.bounds[j].second))
        << context << " rank " << j << ": " << got[j].second << " vs "
        << ref.bounds[j].second;
  }
  EXPECT_EQ(stream.size(), ref.stream.size()) << context;
  for (size_t j = 0; j < std::min(stream.size(), ref.stream.size()); ++j) {
    EXPECT_EQ(stream[j].pivot, ref.stream[j].pivot) << context << " pull " << j;
    EXPECT_EQ(stream[j].leaves, ref.stream[j].leaves)
        << context << " pull " << j;
    EXPECT_EQ(Bits(stream[j].score), Bits(ref.stream[j].score))
        << context << " pull " << j;
  }
  return ref;
}

/// Every setting the tests cover: d = 1..3, injective on and off, k_hint 0
/// and 3. Accumulates collisions and matched pivots.
void ForEachSetting(const graph::KnowledgeGraph& g, const query::QueryGraph& q,
                    const std::string& name, size_t* collisions,
                    size_t* matched) {
  for (const int d : {1, 2, 3}) {
    for (const bool injective : {true, false}) {
      for (const size_t k_hint : {size_t{0}, size_t{3}}) {
        const std::string context =
            name + " d=" + std::to_string(d) +
            " injective=" + std::to_string(injective) +
            " k_hint=" + std::to_string(k_hint);
        const Reference ref = ExpectMatchesEagerStark(
            g, q, TestConfig(d, injective), k_hint, context);
        *collisions += ref.collisions;
        *matched += ref.bounds.size();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hand-built graphs.
// ---------------------------------------------------------------------------

/// A hub city with many residents, typed neighbours for wildcard leaves, a
/// multi-edge between two pivot candidates and self-loops on both.
graph::KnowledgeGraph HubGraph() {
  graph::KnowledgeGraph::Builder b;
  const NodeId hub = b.AddNode("Springfield", "City");
  const NodeId north = b.AddNode("Springfield North", "City");
  const NodeId east = b.AddNode("Springfield East", "City");
  const char* people[] = {"Homer Simpson", "Homer Simpsons", "Homer J Simpson",
                          "Homer Simpso", "Homer Sampson", "Marge Simpson"};
  std::vector<NodeId> persons;
  for (const char* p : people) persons.push_back(b.AddNode(p, "Person"));
  for (const NodeId p : persons) b.AddEdge(p, hub, "livesIn");
  b.AddEdge(persons[0], north, "livesIn");
  b.AddEdge(persons[1], east, "worksIn");
  const NodeId film = b.AddNode("Duff Gardens", "Film");
  const NodeId film2 = b.AddNode("Itchy Scratchy", "Film");
  b.AddEdge(persons[1], film, "actedIn");
  b.AddEdge(film, east, "filmedIn");
  b.AddEdge(film2, north, "filmedIn");
  b.AddEdge(persons[2], film2, "actedIn");
  // Multi-edge between two pivot candidates, and self-loops on both.
  b.AddEdge(hub, north, "nearBy");
  b.AddEdge(north, hub, "twinnedWith");
  b.AddEdge(hub, north, "nearBy");
  b.AddEdge(north, north, "contains");
  b.AddEdge(hub, hub, "nearBy");
  b.AddEdge(east, north, "nearBy");
  return std::move(b).Build();
}

TEST(StarkTop1Test, HubGraphMatchesEagerReference) {
  const auto g = HubGraph();
  size_t collisions = 0, matched = 0;
  {
    // Two labelled leaves sharing their best candidates.
    query::QueryGraph q;
    const int city = q.AddNode("Springfield", "City");
    const int a = q.AddNode("Homer Simpson", "Person");
    const int b = q.AddNode("Homer Simpsons", "Person");
    q.AddEdge(city, a, "livesIn");
    q.AddEdge(city, b);
    ForEachSetting(g, q, "labelled", &collisions, &matched);
  }
  {
    // Typed and untyped wildcard leaves beside a labelled one; the
    // untyped leaf can take the pivot itself through its self-loop when
    // injectivity is off.
    query::QueryGraph q;
    const int city = q.AddNode("Springfield", "City");
    const int person = q.AddNode("Homer Simpson", "Person");
    const int film = q.AddWildcardNode("Film");
    const int any = q.AddWildcardNode();
    q.AddEdge(city, person, "livesIn");
    q.AddEdge(city, film);
    q.AddEdge(city, any, "nearBy");
    ForEachSetting(g, q, "wildcards", &collisions, &matched);
  }
  {
    // A typed wildcard pivot: every city is a pivot candidate.
    query::QueryGraph q;
    const int city = q.AddWildcardNode("City");
    const int person = q.AddNode("Homer Simpson", "Person");
    const int any = q.AddWildcardNode();
    q.AddEdge(city, person);
    q.AddEdge(city, any, "nearBy");
    ForEachSetting(g, q, "typed_pivot", &collisions, &matched);
  }
  EXPECT_GT(matched, 0u);
  EXPECT_GT(collisions, 0u);
}

/// Many towns, each linked to the same best-scoring person through two
/// relations and to a weaker resident of its own: for a two-leaf query
/// whose leaves both prefer that person, every pivot's first state
/// collides, and the top-1 comes from the enumerator.
graph::KnowledgeGraph CollisionGraph() {
  graph::KnowledgeGraph::Builder b;
  const NodeId star = b.AddNode("Ada Lovelace", "Person");
  for (int t = 0; t < 24; ++t) {
    const NodeId town = b.AddNode("Port Town " + std::to_string(t), "City");
    b.AddEdge(star, town, "livesIn");
    b.AddEdge(star, town, "bornIn");
    const NodeId local =
        b.AddNode("Ada Lovelac" + std::string(1, static_cast<char>('a' + t)),
                  "Person");
    b.AddEdge(local, town, t % 2 == 0 ? "livesIn" : "bornIn");
    if (t % 3 == 0) b.AddEdge(town, town, "nearBy");
  }
  return std::move(b).Build();
}

TEST(StarkTop1Test, CollidingFirstStatesFallBackToTheEnumerator) {
  const auto g = CollisionGraph();
  query::QueryGraph q;
  const int town = q.AddNode("Port Town", "City");
  const int resident = q.AddNode("Ada Lovelace", "Person");
  const int native = q.AddNode("Ada Lovelace", "Person");
  q.AddEdge(town, resident, "livesIn");
  q.AddEdge(town, native, "bornIn");
  size_t collisions = 0, matched = 0;
  ForEachSetting(g, q, "collisions", &collisions, &matched);
  // Every town collides (both leaves prefer the same person) in each of
  // the 2 injective settings (k_hint 0 and 3) of each d.
  EXPECT_EQ(collisions, 3u * 2u * 24u);
  EXPECT_GT(matched, 0u);
}

TEST(StarkTop1Test, RandomGraphsMatchEagerReference) {
  size_t collisions = 0, matched = 0;
  for (const uint64_t seed : {21u, 22u}) {
    graph::GeneratorConfig gc;
    gc.num_nodes = 200;
    gc.num_edges = 900;
    gc.num_types = 5;
    gc.num_relations = 6;
    gc.token_pool = 8;
    gc.seed = seed;
    const auto g = graph::GenerateGraph(gc);
    query::WorkloadGenerator wg(g, seed * 5 + 3);
    query::WorkloadOptions wo;
    wo.variable_fraction = 0.3;
    wo.partial_label = 0.5;
    for (int i = 0; i < 4; ++i) {
      const auto q = wg.RandomStarQuery(3 + i % 3, wo);
      ForEachSetting(g, q,
                     "seed=" + std::to_string(seed) + " query=" +
                         std::to_string(i),
                     &collisions, &matched);
    }
  }
  EXPECT_GT(matched, 100u);
  EXPECT_GT(collisions, 0u);
}

TEST(StarkTop1Test, PreCancelledTokenBuildsNothing) {
  const auto g = HubGraph();
  query::QueryGraph q;
  const int city = q.AddNode("Springfield", "City");
  const int person = q.AddNode("Homer Simpson", "Person");
  q.AddEdge(city, person, "livesIn");
  for (const int d : {1, 2}) {
    const scoring::MatchConfig cfg = TestConfig(d);
    ScorerFixture ref_fx(g, q, cfg);
    StarSearch::Options ref_so;
    ref_so.strategy = StarStrategy::kStark;
    StarSearch exact(*ref_fx.scorer, MakeStarQuery(q), ref_so);
    const auto best = exact.Next();
    ASSERT_TRUE(best.has_value());

    Cancellation cancel;
    cancel.Cancel();
    ScorerFixture fx(g, q, cfg);
    StarSearch::Options so;
    so.strategy = StarStrategy::kStark;
    so.cancel = &cancel;
    StarSearch search(*fx.scorer, MakeStarQuery(q), so);
    EXPECT_TRUE(search.PivotBounds().empty());
    EXPECT_FALSE(search.Next().has_value());
    EXPECT_TRUE(search.stats().cancelled);
    EXPECT_EQ(search.stats().enumerators_built, 0u);
    EXPECT_EQ(search.stats().nodes_expanded, 0u);
    // The bound stays sound: the a-priori cap covers the best match.
    EXPECT_GE(search.UpperBound(), best->score);
  }
}

}  // namespace
}  // namespace star::core
