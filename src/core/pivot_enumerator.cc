#include "core/pivot_enumerator.h"

#include <algorithm>

#include "core/topk_utils.h"

namespace star::core {

PivotEnumerator::PivotEnumerator(graph::NodeId pivot, double pivot_score,
                                 std::vector<std::vector<LeafCandidate>> lists,
                                 bool enforce_injective, size_t k_hint)
    : pivot_(pivot),
      pivot_score_(pivot_score),
      lists_(std::move(lists)),
      enforce_injective_(enforce_injective),
      visited_(lists_.size()) {
  if (k_hint > 0) {
    // Prop. 3 (or its injective per-list variant) bounds how deep into the
    // unsorted lists a top-k workload can reach; prune before sorting.
    std::vector<std::vector<ListEntry>> entries(lists_.size());
    for (size_t i = 0; i < lists_.size(); ++i) {
      entries[i].reserve(lists_[i].size());
      for (size_t j = 0; j < lists_[i].size(); ++j) {
        entries[i].push_back({j, lists_[i][j].total, lists_[i][j].node});
      }
    }
    if (enforce_injective_) {
      PruneListsPerList(entries, k_hint);
    } else {
      PruneListsProp3(entries, k_hint);
    }
    for (size_t i = 0; i < lists_.size(); ++i) {
      std::vector<LeafCandidate> kept;
      kept.reserve(entries[i].size());
      for (const ListEntry& e : entries[i]) kept.push_back(lists_[i][e.index]);
      lists_[i] = std::move(kept);
    }
  }
  for (auto& list : lists_) {
    std::sort(list.begin(), list.end(),
              [](const LeafCandidate& a, const LeafCandidate& b) {
                return a.total > b.total ||
                       (a.total == b.total && a.node < b.node);
              });
    if (list.empty()) {
      exhausted_ = true;  // a leaf with no candidate: no match at this pivot
      return;
    }
  }
  if (!lists_.empty()) {
    next_.assign(lists_.size(), 0);
    PushState(next_.data());
  }
}

double PivotEnumerator::StateScore(const uint32_t* cursor) const {
  double s = pivot_score_;
  for (size_t i = 0; i < lists_.size(); ++i) {
    s += lists_[i][cursor[i]].total;
  }
  return s;
}

bool PivotEnumerator::StateInjective(const uint32_t* cursor) const {
  for (size_t i = 0; i < lists_.size(); ++i) {
    const graph::NodeId a = lists_[i][cursor[i]].node;
    if (a == pivot_) return false;
    for (size_t j = i + 1; j < lists_.size(); ++j) {
      if (a == lists_[j][cursor[j]].node) return false;
    }
  }
  return true;
}

void PivotEnumerator::PushState(const uint32_t* cursor) {
  const auto [id, inserted] = visited_.Insert(cursor);
  if (!inserted) return;
  frontier_.push(State{StateScore(cursor), id});
}

void PivotEnumerator::Stage() {
  if (staged_.has_value() || exhausted_) return;
  if (lists_.empty()) {
    // Zero-leaf star: the pivot alone is the single match.
    if (!zero_leaf_emitted_) {
      staged_ = State{pivot_score_, 0};
      zero_leaf_emitted_ = true;
    } else {
      exhausted_ = true;
    }
    return;
  }
  while (!frontier_.empty()) {
    const State top = frontier_.top();
    frontier_.pop();
    ++states_explored_;
    // Expand successors regardless of validity: an invalid state's
    // children may be valid and cheaper states are never skipped. The
    // cursor is copied out first: pushing may grow the visited buffer.
    const uint32_t* cursor = visited_.tuple(top.cursor);
    next_.assign(cursor, cursor + lists_.size());
    for (size_t i = 0; i < lists_.size(); ++i) {
      if (next_[i] + 1 < lists_[i].size()) {
        ++next_[i];
        PushState(next_.data());
        --next_[i];
      }
    }
    if (!enforce_injective_ || StateInjective(visited_.tuple(top.cursor))) {
      staged_ = top;
      return;
    }
  }
  exhausted_ = true;
}

std::optional<double> PivotEnumerator::PeekScore() {
  Stage();
  if (!staged_.has_value()) return std::nullopt;
  return staged_->score;
}

std::optional<StarMatch> PivotEnumerator::Next() {
  Stage();
  if (!staged_.has_value()) return std::nullopt;
  StarMatch m;
  m.pivot = pivot_;
  m.score = staged_->score;
  m.leaves.reserve(lists_.size());
  const uint32_t* cursor = visited_.tuple(staged_->cursor);
  for (size_t i = 0; i < lists_.size(); ++i) {
    m.leaves.push_back(lists_[i][cursor[i]].node);
  }
  staged_.reset();
  return m;
}

}  // namespace star::core
