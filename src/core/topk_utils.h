#ifndef STAR_CORE_TOPK_UTILS_H_
#define STAR_CORE_TOPK_UTILS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace star::core {

/// One scored leaf-list entry used by Prop. 3 pruning. `node` is the tie
/// key: among equal values the smaller node ranks first, so with distinct
/// nodes per list the entries each cut keeps depend only on the list's
/// {node -> value} set, never on its order.
struct ListEntry {
  size_t index = 0;  // position in the original list (caller-defined id)
  double value = 0.0;
  uint32_t node = 0;  // the entry's data node
};

/// Proposition 3: given s unsorted lists and the aggregation
/// F = sum_i x_i (one element per list), at most k+s-1 elements of the
/// union can contribute to the top-k values of F: each list's maximum plus
/// the k-1 best remaining elements by "deficit" x - max(L_i).
///
/// Prunes each list in place to exactly that set (ties kept, so slightly
/// more may survive). At k = 1 only the maximum is kept, and among equal
/// maxima the one with the smallest node. O(sum |L_i|) time. Empty lists
/// are left empty.
void PruneListsProp3(std::vector<std::vector<ListEntry>>& lists, size_t k);

/// Injective variant: when list elements carry node identities and a valid
/// assignment must use distinct nodes, an exchange argument shows any
/// element of a top-k valid assignment lies within the top k+s-1 of its own
/// list. Prunes each list to its top k+s-1 elements under (value desc,
/// node asc). O(sum|L_i|).
void PruneListsPerList(std::vector<std::vector<ListEntry>>& lists, size_t k);

}  // namespace star::core

#endif  // STAR_CORE_TOPK_UTILS_H_
