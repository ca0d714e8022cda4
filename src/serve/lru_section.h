#ifndef STAR_SERVE_LRU_SECTION_H_
#define STAR_SERVE_LRU_SECTION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"

namespace star::serve {

/// One string-keyed LRU store, the body of every serve-layer cache
/// (ResultCache, StarCache). Not synchronized: the owning
/// cache holds its lock around every call. List front = most recently
/// used; the index does heterogeneous string_view lookups so probes never
/// allocate a key copy.
template <typename V>
struct LruSection {
  using Entry = std::pair<std::string, V>;
  std::list<Entry> lru;
  std::unordered_map<std::string_view, typename std::list<Entry>::iterator,
                     TransparentStringHash, std::equal_to<>>
      index;

  void Clear() {
    index.clear();
    lru.clear();
  }

  /// Returns the entry for `key` moved to the front, or nullptr.
  Entry* Touch(std::string_view key) {
    auto it = index.find(key);
    if (it == index.end()) return nullptr;
    lru.splice(lru.begin(), lru, it->second);
    return &*it->second;
  }

  /// Inserts a fresh front entry and evicts past `capacity`. The index
  /// keys view the list nodes' strings, which are stable under splice.
  void InsertFront(std::string_view key, V value, size_t capacity,
                   uint64_t* evictions) {
    lru.emplace_front(std::string(key), std::move(value));
    index.emplace(std::string_view(lru.front().first), lru.begin());
    if (lru.size() > capacity) {
      index.erase(std::string_view(lru.back().first));
      lru.pop_back();
      ++*evictions;
    }
  }
};

}  // namespace star::serve

#endif  // STAR_SERVE_LRU_SECTION_H_
