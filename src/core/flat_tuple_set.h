#ifndef STAR_CORE_FLAT_TUPLE_SET_H_
#define STAR_CORE_FLAT_TUPLE_SET_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace star::core {

/// A set of fixed-width uint32 tuples kept back to back in one buffer,
/// with an open-addressing (linear probing) index over it. Each distinct
/// tuple gets a dense id in first-insertion order, and tuple(id) reads it
/// back. Lookups compare whole tuples, so two different tuples never
/// share an id, whatever their hashes. The per-pivot lattice keeps its
/// visited cursors here, and the rank join its joint-node keys.
class FlatTupleSet {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  explicit FlatTupleSet(size_t width = 0) : width_(width) {}

  /// The `width` values of tuple `id`. Valid until the next Insert.
  const uint32_t* tuple(uint32_t id) const {
    return tuples_.data() + static_cast<size_t>(id) * width_;
  }

  /// Id of the tuple at `t` (`width` values), or kAbsent.
  uint32_t Find(const uint32_t* t) const {
    if (slots_.empty()) return kAbsent;
    for (size_t i = Home(t);; i = (i + 1) & (slots_.size() - 1)) {
      if (slots_[i] == 0) return kAbsent;
      if (Equal(slots_[i] - 1, t)) return slots_[i] - 1;
    }
  }

  /// Id of the tuple at `t`, inserting a copy first if it is absent;
  /// .second is true on insertion. `t` must not point into this set.
  std::pair<uint32_t, bool> Insert(const uint32_t* t) {
    // Load factor <= 1/2 keeps probes short and guarantees an empty slot.
    if (2 * (static_cast<size_t>(count_) + 1) > slots_.size()) Grow();
    size_t i = Home(t);
    for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
      if (Equal(slots_[i] - 1, t)) return {slots_[i] - 1, false};
    }
    const uint32_t id = count_++;
    slots_[i] = id + 1;
    tuples_.insert(tuples_.end(), t, t + width_);
    return {id, true};
  }

 private:
  bool Equal(uint32_t id, const uint32_t* t) const {
    return std::equal(t, t + width_, tuple(id));
  }

  /// Fibonacci hashing: the top bits of the mixed product index the
  /// power-of-two table.
  size_t Home(const uint32_t* t) const {
    uint64_t h = width_;
    for (size_t k = 0; k < width_; ++k) {
      h = (h ^ t[k]) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 32;
    }
    return static_cast<size_t>((h * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    const size_t capacity = slots_.empty() ? 16 : 2 * slots_.size();
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    slots_.assign(capacity, 0);
    tuples_.reserve(capacity / 2 * width_);  // the tuples until next Grow
    for (uint32_t id = 0; id < count_; ++id) {
      size_t i = Home(tuple(id));
      while (slots_[i] != 0) i = (i + 1) & (capacity - 1);
      slots_[i] = id + 1;
    }
  }

  size_t width_;
  uint32_t count_ = 0;
  int shift_ = 64;
  std::vector<uint32_t> tuples_;  // count_ * width_ values
  std::vector<uint32_t> slots_;   // id + 1; 0 = empty
};

}  // namespace star::core

#endif  // STAR_CORE_FLAT_TUPLE_SET_H_
