#ifndef STAR_QUERY_QUERY_CANONICAL_H_
#define STAR_QUERY_QUERY_CANONICAL_H_

#include <cstddef>
#include <string>
#include <vector>

#include "query/query_graph.h"

namespace star::query {

/// An insertion-order-insensitive canonical form of a QueryGraph: two
/// graphs that differ only in the order nodes/edges were added (i.e. are
/// isomorphic under a label/type/relation-preserving relabeling) produce
/// the same signature, and two graphs with the same signature are such
/// relabelings of each other. This is what makes a normalized-query result
/// cache correct: the signature can be a cache key with no false hits.
///
/// Method: Weisfeiler-Leman color refinement over (wildcard, label, type)
/// node attributes and (relation, neighbor color) edge views, then the
/// lexicographically smallest serialization over orderings consistent with
/// the final color classes. Refinement alone distinguishes almost every
/// real query; the bounded permutation search only runs over residual
/// symmetric groups (e.g. identically-labeled leaves), which are tiny for
/// paper-scale queries. If the residual symmetry exceeds
/// kMaxCanonicalOrderings, the signature falls back to refinement order —
/// still deterministic and collision-free, merely insertion-order
/// sensitive for those pathological queries (a missed cache hit, never a
/// wrong one; `exact` reports it).
struct CanonicalQuery {
  /// Full canonical serialization (nodes, then sorted edge list). Caches
  /// key on it whole.
  std::string signature;
  /// Canonical rank of each original node index.
  std::vector<int> node_rank;
  /// False when the permutation cap forced the refinement-order fallback.
  bool exact = true;
};

/// Orderings explored across residual color-class symmetries before
/// falling back (product of factorials of tied-class sizes).
inline constexpr size_t kMaxCanonicalOrderings = 20'160;  // 8!/2

CanonicalQuery CanonicalizeQuery(const QueryGraph& q);

/// An insertion-order-insensitive canonical form of ONE star subquery: the
/// pivot's attributes and ownership weight followed by the sorted multiset
/// of edge records (relation attr, leaf attrs, bit-exact leaf weight).
/// Two stars — possibly from different queries — produce the same
/// signature iff pivot, leaves, predicates and α-weights all agree, which
/// is exactly the condition under which the star engines produce the same
/// match stream. Matching *semantics* (thresholds, d, injectivity, …) are
/// deliberately not part of this signature; cache keys prepend a
/// StarOptionsFingerprint for that.
struct CanonicalStar {
  /// Pivot record + sorted edge records.
  std::string signature;
  /// False when two edge records tie exactly (identical relation, leaf
  /// attributes and weight). The signature is still deterministic, but a
  /// tie means the canonical edge order is not unique, so such stars are
  /// never memoized across queries (a missed cache hit, never a wrong
  /// one).
  bool exact = true;
};

/// Canonical record of one star edge: relation attribute, leaf node
/// attributes, and the bit-exact α-weight of the leaf. This is the unit
/// CanonicalizeStar sorts — and the key StarSearch orders its edges by, so
/// execution order is a function of the canonical star, not of edge
/// insertion order.
std::string CanonicalStarEdgeRecord(const QueryGraph& q, int edge, int pivot,
                                    double leaf_weight);

/// Canonicalizes one star of q. `node_weights` are the α-scheme ownership
/// weights (StarSearch::Options::node_weights); empty means weight 1.0 for
/// every node (standalone star query), encoded identically to an explicit
/// all-ones vector so the two key equal.
CanonicalStar CanonicalizeStar(const QueryGraph& q, const StarQuery& star,
                               const std::vector<double>& node_weights = {});

}  // namespace star::query

#endif  // STAR_QUERY_QUERY_CANONICAL_H_
