#include "core/topk_utils.h"

#include <algorithm>
#include <functional>

namespace star::core {

namespace {

// The total order every cut ranks by: value desc, then node asc.
bool RanksBefore(const ListEntry& a, const ListEntry& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.node < b.node;
}

}  // namespace

std::vector<double> TopKValues(std::vector<double> values, size_t k) {
  if (k == 0) return {};
  if (values.size() > k) {
    std::nth_element(values.begin(), values.begin() + k - 1, values.end(),
                     std::greater<double>());
    values.resize(k);
  }
  std::sort(values.begin(), values.end(), std::greater<double>());
  return values;
}

void PruneListsProp3(std::vector<std::vector<ListEntry>>& lists, size_t k) {
  const size_t s = lists.size();
  if (s == 0 || k == 0) return;
  // Per-list maxima.
  std::vector<double> maxima(s);
  for (size_t i = 0; i < s; ++i) {
    if (lists[i].empty()) {
      maxima[i] = 0.0;
      continue;
    }
    double mx = lists[i][0].value;
    for (const ListEntry& e : lists[i]) mx = std::max(mx, e.value);
    maxima[i] = mx;
  }
  // Deficits of all non-maximum slots. One occurrence of the maximum per
  // list is exempt (it is always kept).
  std::vector<double> deficits;
  for (size_t i = 0; i < s; ++i) {
    bool max_seen = false;
    for (const ListEntry& e : lists[i]) {
      if (!max_seen && e.value == maxima[i]) {
        max_seen = true;
        continue;
      }
      deficits.push_back(e.value - maxima[i]);
    }
  }
  double cutoff;  // keep deficits >= cutoff
  if (deficits.size() < k) {
    cutoff = deficits.empty()
                 ? 0.0
                 : *std::min_element(deficits.begin(), deficits.end());
  } else {
    // (k-1) largest deficits survive; cutoff = (k-1)-th largest (ties kept).
    if (k == 1) {
      // No extra elements beyond the maxima: of the entries equal to a
      // list's maximum, the one with the smallest node.
      for (auto& list : lists) {
        if (list.empty()) continue;
        const ListEntry best = *std::min_element(list.begin(), list.end(),
                                                 RanksBefore);
        list.assign(1, best);
      }
      return;
    }
    std::nth_element(deficits.begin(), deficits.begin() + (k - 2),
                     deficits.end(), std::greater<double>());
    cutoff = deficits[k - 2];
  }
  for (size_t i = 0; i < s; ++i) {
    std::vector<ListEntry> kept;
    bool max_kept = false;
    for (const ListEntry& e : lists[i]) {
      if (!max_kept && e.value == maxima[i]) {
        kept.push_back(e);
        max_kept = true;
      } else if (e.value - maxima[i] >= cutoff) {
        kept.push_back(e);
      }
    }
    lists[i] = std::move(kept);
  }
}

void PruneListsPerList(std::vector<std::vector<ListEntry>>& lists, size_t k) {
  const size_t s = lists.size();
  const size_t keep = k + (s > 0 ? s - 1 : 0);
  for (auto& list : lists) {
    if (list.size() <= keep) continue;
    std::nth_element(list.begin(), list.begin() + keep - 1, list.end(),
                     RanksBefore);
    list.resize(keep);
  }
}

}  // namespace star::core
