// stard's §V-B estimates, pinned bitwise against a reference.
//
// A looser estimate still gives the right answers (it only costs
// refinement work), so answer checks cannot catch one. These tests compare
// every pivot's estimate, as StarSearch::PivotBounds() reports it, with a
// straightforward reference: push propagation through all d rounds, with
// hash-map arrival slots at every node reached and hash-map forward sets.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

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
// Reference: push propagation, every round, every node.
// ---------------------------------------------------------------------------

struct RefMessage {
  NodeId source = graph::kInvalidNode;
  double base = 0.0;
  int hops = 0;
};

struct RefSlot {
  NodeId best_source = graph::kInvalidNode;
  double best_value = -1.0;
  NodeId second_source = graph::kInvalidNode;
  double second_value = -1.0;
  double overflow = -1.0;

  void Offer(NodeId source, double value) {
    if (source == best_source) {
      best_value = std::max(best_value, value);
      return;
    }
    if (value > best_value) {
      second_source = best_source;
      second_value = best_value;
      best_source = source;
      best_value = value;
    } else if (source == second_source) {
      second_value = std::max(second_value, value);
    } else if (value > second_value) {
      second_source = source;
      second_value = value;
    }
  }
  double BestExcluding(NodeId excluded) const {
    const double v = best_source != excluded ? best_value : second_value;
    return std::max(v, overflow);
  }
  double BestAny() const { return std::max(best_value, overflow); }
};

struct RefForwardSet {
  std::vector<RefMessage> messages;

  static double Potential(const RefMessage& m, double lambda) {
    return m.base + std::pow(lambda, m.hops);
  }

  std::pair<bool, double> Insert(const RefMessage& m, double lambda,
                                 size_t cap) {
    for (const RefMessage& e : messages) {
      if (e.source == m.source && e.base >= m.base && e.hops <= m.hops) {
        return {false, -1.0};
      }
    }
    std::erase_if(messages, [&](const RefMessage& e) {
      return e.source == m.source && m.base >= e.base && m.hops <= e.hops;
    });
    messages.push_back(m);
    if (messages.size() <= cap) return {true, -1.0};
    std::sort(messages.begin(), messages.end(),
              [&](const RefMessage& a, const RefMessage& b) {
                return Potential(a, lambda) > Potential(b, lambda);
              });
    const NodeId first = messages[0].source;
    NodeId second = graph::kInvalidNode;
    for (const RefMessage& e : messages) {
      if (e.source != first) {
        second = e.source;
        break;
      }
    }
    for (size_t i = messages.size(); i-- > 0;) {
      const RefMessage& e = messages[i];
      const bool first_of_source =
          std::find_if(messages.begin(), messages.begin() + i,
                       [&](const RefMessage& x) {
                         return x.source == e.source;
                       }) == messages.begin() + i;
      if ((e.source == first || e.source == second) && first_of_source) {
        continue;
      }
      const double bound = Potential(e, lambda);
      const bool dropped_is_new =
          e.source == m.source && e.base == m.base && e.hops == m.hops;
      messages.erase(messages.begin() + i);
      return {!dropped_is_new, bound};
    }
    return {true, -1.0};
  }
};

struct Reference {
  std::vector<std::pair<NodeId, double>> bounds;  // reserve order
  size_t evictions = 0;  // overflow bounds queued by forward-set drops
};

/// stard's estimates for `star` (already in canonical edge order), by
/// push propagation: d rounds, arrival slots at every node reached.
Reference ReferenceBounds(const scoring::QueryScorer& scorer,
                          const query::StarQuery& star,
                          const std::vector<double>& node_weights) {
  const auto& g = scorer.graph();
  const auto& cfg = scorer.config();
  const auto& q = scorer.query();
  const size_t s = star.edges.size();
  const int d = cfg.d;
  const double lambda = cfg.lambda;
  constexpr size_t kCap = 5;
  const auto weight = [&](int u) {
    return node_weights.empty() ? 1.0 : node_weights[u];
  };
  const auto untyped = [&](int u) {
    return q.node(u).wildcard && q.node(u).type_name.empty();
  };
  Reference ref;
  std::vector<std::unordered_map<NodeId, RefSlot>> arrivals(s);
  for (size_t i = 0; i < s; ++i) {
    const int leaf = q.OtherEnd(star.edges[i], star.pivot);
    if (untyped(leaf)) continue;
    std::unordered_map<NodeId, RefForwardSet> forward;
    std::vector<std::pair<NodeId, RefMessage>> frontier;
    std::vector<std::pair<NodeId, double>> overflow_frontier;
    for (const auto& c : scorer.Candidates(leaf)) {
      const double base = c.score * weight(leaf);
      const RefMessage m{c.node, base, 1};
      for (const auto& nb : g.Neighbors(c.node)) {
        const double relsim = scorer.RelationScore(star.edges[i], nb.relation);
        if (relsim >= cfg.edge_threshold) {
          arrivals[i][nb.node].Offer(c.node, base + relsim);
        }
        auto [kept, dropped] = forward[nb.node].Insert(m, lambda, kCap);
        if (kept) frontier.push_back({nb.node, m});
        if (dropped >= 0.0) overflow_frontier.emplace_back(nb.node, dropped);
      }
    }
    for (int h = 2; h <= d; ++h) {
      const double decay = scorer.PathDecay(h);
      std::vector<std::pair<NodeId, RefMessage>> next;
      std::vector<std::pair<NodeId, double>> next_overflow;
      for (const auto& [at, msg] : frontier) {
        RefMessage fwd = msg;
        fwd.hops = h;
        for (const auto& nb : g.Neighbors(at)) {
          if (decay >= cfg.edge_threshold) {
            arrivals[i][nb.node].Offer(fwd.source, fwd.base + decay);
          }
          if (h < d) {
            auto [kept, dropped] = forward[nb.node].Insert(fwd, lambda, kCap);
            if (kept) next.push_back({nb.node, fwd});
            if (dropped >= 0.0) next_overflow.emplace_back(nb.node, dropped);
          }
        }
      }
      ref.evictions += overflow_frontier.size();
      for (const auto& [at, ub] : overflow_frontier) {
        RefSlot& self = arrivals[i][at];
        self.overflow = std::max(self.overflow, ub);
        for (const auto& nb : g.Neighbors(at)) {
          RefSlot& slot = arrivals[i][nb.node];
          if (ub > slot.overflow) {
            slot.overflow = ub;
            next_overflow.emplace_back(nb.node, ub);
          }
        }
      }
      frontier = std::move(next);
      overflow_frontier = std::move(next_overflow);
    }
    for (const auto& [at, ub] : overflow_frontier) {
      RefSlot& slot = arrivals[i][at];
      slot.overflow = std::max(slot.overflow, ub);
    }
  }
  for (const auto& c : scorer.Candidates(star.pivot)) {
    double estimate = c.score * weight(star.pivot);
    bool feasible = true;
    for (size_t i = 0; i < s; ++i) {
      const int leaf = q.OtherEnd(star.edges[i], star.pivot);
      double contribution = -1.0;
      if (untyped(leaf)) {
        if (g.Degree(c.node) > 0) {
          contribution = cfg.wildcard_node_score * weight(leaf) +
                         scorer.MaxEdgeScore(star.edges[i]);
        }
      } else {
        const auto it = arrivals[i].find(c.node);
        if (it != arrivals[i].end()) {
          contribution = cfg.enforce_injective
                             ? it->second.BestExcluding(c.node)
                             : it->second.BestAny();
        }
      }
      if (contribution < 0.0) {
        feasible = false;
        break;
      }
      estimate += contribution;
    }
    if (feasible) ref.bounds.emplace_back(c.node, estimate);
  }
  std::sort(ref.bounds.begin(), ref.bounds.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  return ref;
}

uint64_t Bits(double x) {
  uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Runs stard on `q` and checks its pivot estimates against the
/// reference, bit for bit. Returns the reference for further checks.
Reference ExpectEstimatesMatch(const graph::KnowledgeGraph& g,
                               const query::QueryGraph& q,
                               const scoring::MatchConfig& cfg,
                               const std::string& context) {
  ScorerFixture fx(g, q, cfg);
  StarSearch::Options so;
  so.strategy = StarStrategy::kStard;
  StarSearch search(*fx.scorer, MakeStarQuery(q), so);
  const auto got = search.PivotBounds();
  const Reference ref = ReferenceBounds(*fx.scorer, search.star(), {});
  EXPECT_FALSE(search.stats().cancelled) << context;
  EXPECT_EQ(got.size(), ref.bounds.size()) << context;
  for (size_t j = 0; j < std::min(got.size(), ref.bounds.size()); ++j) {
    EXPECT_EQ(got[j].first, ref.bounds[j].first) << context << " rank " << j;
    EXPECT_EQ(Bits(got[j].second), Bits(ref.bounds[j].second))
        << context << " rank " << j << ": " << got[j].second << " vs "
        << ref.bounds[j].second;
  }
  return ref;
}

// ---------------------------------------------------------------------------
// A hand-built hub graph: forward sets at the hub evict (so overflow
// bounds spread), a multi-edge joins two pivot candidates, and one pivot
// candidate has a self-loop.
// ---------------------------------------------------------------------------

graph::KnowledgeGraph HubGraph() {
  graph::KnowledgeGraph::Builder b;
  const NodeId hub = b.AddNode("Springfield", "City");
  const NodeId north = b.AddNode("Springfield North", "City");
  const NodeId east = b.AddNode("Springfield East", "City");
  const NodeId shelby = b.AddNode("Shelbyville", "City");
  const char* people[] = {"Homer Simpson",  "Homer Simpsons", "Homer J Simpson",
                          "Homer Simpso",   "Homer Sampson",  "Homer Simon",
                          "Homers Simpson", "Homer Simpsen",  "Homer Smithson"};
  std::vector<NodeId> persons;
  for (const char* p : people) persons.push_back(b.AddNode(p, "Person"));
  for (const NodeId p : persons) b.AddEdge(p, hub, "livesIn");
  const NodeId film = b.AddNode("Duff Gardens", "Film");
  const NodeId film2 = b.AddNode("Itchy Scratchy", "Film");
  b.AddEdge(persons[1], film, "actedIn");
  b.AddEdge(film, east, "filmedIn");
  b.AddEdge(persons[2], film2, "actedIn");
  b.AddEdge(persons[3], film2, "actedIn");
  b.AddEdge(film2, shelby, "filmedIn");
  b.AddEdge(persons[4], shelby, "visited");
  // Multi-edge between two pivot candidates, and a self-loop.
  b.AddEdge(hub, north, "nearBy");
  b.AddEdge(north, hub, "twinnedWith");
  b.AddEdge(hub, north, "nearBy");
  b.AddEdge(east, east, "contains");
  b.AddEdge(east, north, "nearBy");
  b.AddEdge(shelby, hub, "rivalOf");
  return std::move(b).Build();
}

struct HubQuery {
  const char* name;
  query::QueryGraph q;
};

std::vector<HubQuery> HubQueries() {
  std::vector<HubQuery> out;
  {
    // Labelled leaf on a relation no data edge resembles: round-1 offers
    // fall below the edge threshold, so the hub's own drops decide.
    query::QueryGraph q;
    const int city = q.AddNode("Springfield", "City");
    const int person = q.AddNode("Homer Simpson", "Person");
    q.AddEdge(city, person, "qqqq");
    out.push_back({"labelled", std::move(q)});
  }
  {
    // Typed and untyped wildcard leaves beside a labelled one.
    query::QueryGraph q;
    const int city = q.AddNode("Springfield", "City");
    const int person = q.AddNode("Homer Simpson", "Person");
    const int film = q.AddWildcardNode("Film");
    const int any = q.AddWildcardNode();
    q.AddEdge(city, person, "livesIn");
    q.AddEdge(city, film);
    q.AddEdge(city, any, "nearBy");
    out.push_back({"wildcards", std::move(q)});
  }
  {
    // A typed wildcard pivot: every city is a pivot candidate.
    query::QueryGraph q;
    const int city = q.AddWildcardNode("City");
    const int person = q.AddNode("Homer Simpson", "Person");
    const int other = q.AddNode("Homer Simpsons", "Person");
    q.AddEdge(city, person);
    q.AddEdge(city, other, "livesIn");
    out.push_back({"typed_pivot", std::move(q)});
  }
  return out;
}

TEST(StardEstimateTest, HubGraphMatchesPushReference) {
  const auto g = HubGraph();
  size_t evictions = 0;
  for (const HubQuery& hq : HubQueries()) {
    for (const int d : {2, 3, 4}) {
      for (const bool injective : {true, false}) {
        const std::string context =
            std::string(hq.name) + " d=" + std::to_string(d) +
            " injective=" + std::to_string(injective);
        const Reference ref = ExpectEstimatesMatch(
            g, hq.q, TestConfig(d, injective), context);
        EXPECT_FALSE(ref.bounds.empty()) << context;
        evictions += ref.evictions;
      }
    }
  }
  // The hub's forward sets overflowed, so drop bounds were spread.
  EXPECT_GT(evictions, 0u);
}

TEST(StardEstimateTest, EmptyPivotListYieldsNoEstimates) {
  const auto g = HubGraph();
  query::QueryGraph q;
  const int pivot = q.AddNode("Xqzvwk Jjjjj", "Planet");
  const int person = q.AddNode("Homer Simpson", "Person");
  q.AddEdge(pivot, person);
  for (const int d : {2, 3}) {
    ScorerFixture fx(g, q, TestConfig(d));
    ASSERT_TRUE(fx.scorer->Candidates(pivot).empty());
    StarSearch search(*fx.scorer, MakeStarQuery(q), {});
    EXPECT_TRUE(search.PivotBounds().empty());
    EXPECT_FALSE(search.Next().has_value());
    EXPECT_EQ(search.stats().pivot_candidates, 0u);
  }
}

TEST(StardEstimateTest, RandomGraphsMatchPushReference) {
  size_t evictions = 0;
  for (const uint64_t seed : {11u, 12u, 13u}) {
    graph::GeneratorConfig gc;
    gc.num_nodes = 300;
    gc.num_edges = 1500;
    gc.num_types = 6;
    gc.num_relations = 8;
    gc.token_pool = 10;
    gc.seed = seed;
    const auto g = graph::GenerateGraph(gc);
    query::WorkloadGenerator wg(g, seed * 7 + 1);
    query::WorkloadOptions wo;
    wo.variable_fraction = 0.3;
    for (int i = 0; i < 4; ++i) {
      const auto q = wg.RandomStarQuery(3 + i % 3, wo);
      for (const int d : {2, 3, 4}) {
        for (const bool injective : {true, false}) {
          const std::string context =
              "seed=" + std::to_string(seed) + " query=" + std::to_string(i) +
              " d=" + std::to_string(d) +
              " injective=" + std::to_string(injective);
          evictions +=
              ExpectEstimatesMatch(g, q, TestConfig(d, injective), context)
                  .evictions;
        }
      }
    }
  }
  EXPECT_GT(evictions, 0u);
}

}  // namespace
}  // namespace star::core
