#ifndef STAR_CORE_PIVOT_ENUMERATOR_H_
#define STAR_CORE_PIVOT_ENUMERATOR_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <queue>
#include <vector>

#include "core/flat_tuple_set.h"
#include "core/match.h"

namespace star::core {

/// One candidate leaf assignment: a data node and its combined
/// contribution F_N(leaf, node) + F_E(edge, best path).
struct LeafCandidate {
  graph::NodeId node = graph::kInvalidNode;
  double total = 0.0;
};

/// Generates the matches pivoted at a single data node in non-increasing
/// score order (the per-pivot "lattice search" of §V-A, after [4]).
///
/// Construction sorts each leaf list descending (optionally pruning via
/// Prop. 3 / the injective per-list bound first); Next() then walks the
/// cursor lattice with a priority queue and a visited set, advancing one
/// cursor at a time from each popped state. Every pushed cursor lives in
/// the visited set's flat buffer, and queued states refer to it by id, so
/// a state costs no allocation of its own. With injectivity enforcement,
/// states whose leaf nodes collide (or equal the pivot) are skipped but
/// still expanded, preserving the monotone emission order.
class PivotEnumerator {
 public:
  /// `k_hint` > 0 enables list pruning for a top-k workload (keeping
  /// enough entries for correctness under the given injectivity mode).
  PivotEnumerator(graph::NodeId pivot, double pivot_score,
                  std::vector<std::vector<LeafCandidate>> lists,
                  bool enforce_injective, size_t k_hint);

  /// Score of the next match without consuming it; nullopt if exhausted.
  std::optional<double> PeekScore();

  /// The next-best match pivoted here; nullopt when exhausted.
  std::optional<StarMatch> Next();

  graph::NodeId pivot() const { return pivot_; }
  double pivot_score() const { return pivot_score_; }

  /// Number of lattice states popped so far (diagnostics).
  size_t states_explored() const { return states_explored_; }

 private:
  struct State {
    double score;
    uint32_t cursor;  // id of the cursor in visited_
    // Max-heap by score alone: equal scores pop in the order the heap
    // operations leave them, which depends only on the push sequence.
    bool operator<(const State& other) const { return score < other.score; }
  };

  /// Queues `cursor` (one index per leaf list) unless it was queued before.
  void PushState(const uint32_t* cursor);
  double StateScore(const uint32_t* cursor) const;
  bool StateInjective(const uint32_t* cursor) const;
  /// Pops states until a valid one is staged or the lattice is exhausted.
  void Stage();

  graph::NodeId pivot_;
  double pivot_score_;
  std::vector<std::vector<LeafCandidate>> lists_;
  bool enforce_injective_;
  bool exhausted_ = false;
  bool zero_leaf_emitted_ = false;

  std::priority_queue<State> frontier_;
  FlatTupleSet visited_;         // every pushed cursor, in push order
  std::vector<uint32_t> next_;   // successor cursor being built
  std::optional<State> staged_;
  size_t states_explored_ = 0;
};

}  // namespace star::core

#endif  // STAR_CORE_PIVOT_ENUMERATOR_H_
