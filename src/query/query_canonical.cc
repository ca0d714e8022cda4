#include "query/query_canonical.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <utility>

#include "common/string_util.h"

namespace star::query {

namespace {

// Separators below any printable character, so field boundaries can never
// be confused with label content.
constexpr char kField = '\x1f';
constexpr char kRecord = '\x1e';

/// Immutable attributes of one node (independent of its index).
std::string NodeAttr(const QueryNode& n) {
  std::string s(1, n.wildcard ? 'W' : 'L');
  s += kField;
  s += n.label;
  s += kField;
  s += n.type_name;
  return s;
}

std::string EdgeAttr(const QueryEdge& e) {
  return e.wildcard_relation ? std::string("?") : e.relation;
}

/// WL color refinement: start from node attributes, repeatedly extend each
/// node's signature with the sorted multiset of (edge attribute, neighbor
/// color) views, until the partition stops splitting. Insertion-order
/// independent: colors are ranks in the sorted set of signature strings.
std::vector<int> RefineColors(const QueryGraph& q,
                              std::vector<std::string>& sig) {
  const int n = q.node_count();
  sig.resize(n);
  for (int u = 0; u < n; ++u) sig[u] = NodeAttr(q.node(u));

  std::vector<int> colors(n, 0);
  size_t num_colors = 0;
  for (int round = 0; round <= n; ++round) {
    std::map<std::string, int> rank;
    for (const std::string& s : sig) rank.emplace(s, 0);
    int next = 0;
    for (auto& [key, value] : rank) value = next++;
    for (int u = 0; u < n; ++u) colors[u] = rank.at(sig[u]);
    if (rank.size() == static_cast<size_t>(n) ||
        rank.size() == num_colors) {
      break;  // discrete or stable partition
    }
    num_colors = rank.size();
    // Extend: own color + sorted (edge attr, neighbor color) views.
    for (int u = 0; u < n; ++u) {
      std::vector<std::string> views;
      views.reserve(q.IncidentEdges(u).size());
      for (const int e : q.IncidentEdges(u)) {
        std::string v = EdgeAttr(q.edge(e));
        v += kField;
        v += std::to_string(colors[q.OtherEnd(e, u)]);
        views.push_back(std::move(v));
      }
      std::sort(views.begin(), views.end());
      std::string s = std::to_string(colors[u]);
      for (const std::string& v : views) {
        s += kRecord;
        s += v;
      }
      sig[u] = std::move(s);
    }
  }
  return colors;
}

/// Full serialization under the node order `order` (position -> original
/// index): node attributes in order, then the sorted edge list keyed by
/// canonical endpoint positions.
std::string Serialize(const QueryGraph& q, const std::vector<int>& order) {
  std::vector<int> rank(order.size());
  for (size_t pos = 0; pos < order.size(); ++pos) rank[order[pos]] = int(pos);

  std::string out = "V";
  out += std::to_string(q.node_count());
  for (const int u : order) {
    out += kRecord;
    out += NodeAttr(q.node(u));
  }
  std::vector<std::string> edges;
  edges.reserve(q.edge_count());
  for (int e = 0; e < q.edge_count(); ++e) {
    const QueryEdge& qe = q.edge(e);
    const int a = std::min(rank[qe.u], rank[qe.v]);
    const int b = std::max(rank[qe.u], rank[qe.v]);
    std::string s = std::to_string(a);
    s += kField;
    s += std::to_string(b);
    s += kField;
    s += EdgeAttr(qe);
    edges.push_back(std::move(s));
  }
  std::sort(edges.begin(), edges.end());
  out += kRecord;
  out += "E";
  out += std::to_string(q.edge_count());
  for (const std::string& s : edges) {
    out += kRecord;
    out += s;
  }
  return out;
}

/// Enumerates every node order consistent with the color classes (classes
/// in color order; nodes permuted within a class) and keeps the
/// lexicographically smallest serialization.
struct OrderSearch {
  const QueryGraph& q;
  std::vector<std::vector<int>>& groups;
  std::vector<int> order;
  std::string best;
  std::vector<int> best_order;

  void Run() {
    order.reserve(q.node_count());
    Recurse(0);
  }

  void Recurse(size_t gi) {
    if (gi == groups.size()) {
      std::string s = Serialize(q, order);
      if (best.empty() || s < best) {
        best = std::move(s);
        best_order = order;
      }
      return;
    }
    std::vector<int>& g = groups[gi];
    std::sort(g.begin(), g.end());
    do {
      order.insert(order.end(), g.begin(), g.end());
      Recurse(gi + 1);
      order.resize(order.size() - g.size());
    } while (std::next_permutation(g.begin(), g.end()));
  }
};

}  // namespace

CanonicalQuery CanonicalizeQuery(const QueryGraph& q) {
  CanonicalQuery out;
  const int n = q.node_count();
  if (n == 0) {
    out.signature = Serialize(q, {});
    return out;
  }

  std::vector<std::string> sig;
  const std::vector<int> colors = RefineColors(q, sig);

  // Color classes in color order; class members keep original indices for
  // now (the search sorts/permutes them).
  const int num_colors = *std::max_element(colors.begin(), colors.end()) + 1;
  std::vector<std::vector<int>> groups(num_colors);
  for (int u = 0; u < n; ++u) groups[colors[u]].push_back(u);

  // Residual symmetry: product of class factorials, capped.
  size_t orderings = 1;
  for (const auto& g : groups) {
    for (size_t i = 2; i <= g.size() && orderings <= kMaxCanonicalOrderings;
         ++i) {
      orderings *= i;
    }
    if (orderings > kMaxCanonicalOrderings) break;
  }

  std::vector<int> order;
  if (orderings > kMaxCanonicalOrderings) {
    // Fallback: refinement order with insertion-order tie-break. Still a
    // collision-free key, just not insertion-order invariant.
    out.exact = false;
    for (const auto& g : groups) order.insert(order.end(), g.begin(), g.end());
    out.signature = Serialize(q, order);
  } else {
    OrderSearch search{q, groups, {}, {}, {}};
    search.Run();
    order = std::move(search.best_order);
    out.signature = std::move(search.best);
  }

  out.node_rank.resize(n);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    out.node_rank[order[pos]] = static_cast<int>(pos);
  }
  return out;
}

std::string CanonicalStarEdgeRecord(const QueryGraph& q, int edge, int pivot,
                                    double leaf_weight) {
  const QueryEdge& qe = q.edge(edge);
  std::string r = EdgeAttr(qe);
  r += kField;
  r += NodeAttr(q.node(q.OtherEnd(edge, pivot)));
  r += kField;
  AppendHex64(r, std::bit_cast<uint64_t>(leaf_weight));
  return r;
}

CanonicalStar CanonicalizeStar(const QueryGraph& q, const StarQuery& star,
                               const std::vector<double>& node_weights) {
  const auto weight = [&node_weights](int u) {
    return node_weights.empty() ? 1.0 : node_weights[u];
  };
  CanonicalStar out;
  out.signature.push_back('P');
  out.signature += NodeAttr(q.node(star.pivot));
  out.signature += kField;
  AppendHex64(out.signature, std::bit_cast<uint64_t>(weight(star.pivot)));

  std::vector<std::string> records;
  records.reserve(star.edges.size());
  for (const int e : star.edges) {
    records.push_back(CanonicalStarEdgeRecord(
        q, e, star.pivot, weight(q.OtherEnd(e, star.pivot))));
  }
  std::sort(records.begin(), records.end());
  for (size_t i = 0; i + 1 < records.size(); ++i) {
    if (records[i] == records[i + 1]) out.exact = false;
  }
  for (const std::string& r : records) {
    out.signature += kRecord;
    out.signature += r;
  }
  return out;
}

}  // namespace star::query
