#ifndef PERFBENCH_CALLTREE_H_
#define PERFBENCH_CALLTREE_H_

// Spans recorded from the benchmark's own code around calls into the
// library. Spans with the same name under the same parent are folded into
// one node (total time and call count), so a request's trace stays a few
// dozen nodes even when a rank join pulls its star streams thousands of
// times. A node's self time is its total minus its children's totals.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace perfbench {

inline double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class CallTree {
 public:
  struct Node {
    const char* name = "";
    int parent = -1;
    double first_start_us = 0.0;
    double last_end_us = 0.0;
    double total_us = 0.0;
    uint64_t calls = 0;
  };

  explicit CallTree(const char* root) { nodes_.push_back({root, -1}); }

  /// Enters child `name` of the current node; returns its index.
  int Enter(const char* name, double now_us) {
    int found = -1;
    for (size_t i = 1; i < nodes_.size(); ++i) {
      if (nodes_[i].parent == current_ && std::strcmp(nodes_[i].name, name) == 0) {
        found = static_cast<int>(i);
        break;
      }
    }
    if (found < 0) {
      nodes_.push_back({name, current_, now_us});
      found = static_cast<int>(nodes_.size()) - 1;
    }
    current_ = found;
    return found;
  }

  void Leave(int node, double start_us, double end_us) {
    Node& n = nodes_[static_cast<size_t>(node)];
    n.total_us += end_us - start_us;
    n.last_end_us = end_us;
    ++n.calls;
    current_ = n.parent;
  }

  /// Closes the root span.
  void Finish(double start_us, double end_us) {
    nodes_[0].first_start_us = start_us;
    nodes_[0].last_end_us = end_us;
    nodes_[0].total_us = end_us - start_us;
    nodes_[0].calls = 1;
  }

  const std::vector<Node>& nodes() const { return nodes_; }

  double SelfUs(size_t node) const {
    double self = nodes_[node].total_us;
    for (const Node& c : nodes_) {
      if (c.parent == static_cast<int>(node)) self -= c.total_us;
    }
    return self;
  }

  /// Sum of the self times of every node called `name`.
  double SelfUsOf(const char* name) const {
    double s = 0.0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
      if (std::strcmp(nodes_[i].name, name) == 0) s += SelfUs(i);
    }
    return s;
  }

  /// Sum of the totals of every node called `name`.
  double TotalUsOf(const char* name) const {
    double s = 0.0;
    for (const Node& n : nodes_) {
      if (std::strcmp(n.name, name) == 0) s += n.total_us;
    }
    return s;
  }

 private:
  std::vector<Node> nodes_;
  int current_ = 0;
};

/// The tree spans on this thread record into (null = spans are no-ops).
inline thread_local CallTree* tls_tree = nullptr;

class Span {
 public:
  explicit Span(const char* name) : tree_(tls_tree) {
    if (tree_ == nullptr) return;
    start_us_ = NowUs();
    node_ = tree_->Enter(name, start_us_);
  }
  ~Span() {
    if (tree_ != nullptr) tree_->Leave(node_, start_us_, NowUs());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  CallTree* tree_;
  int node_ = 0;
  double start_us_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALLTREE_H_
