#include "core/star_search.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory_resource>

#include "common/timer.h"
#include "query/query_canonical.h"

namespace star::core {

using graph::KnowledgeGraph;
using graph::Neighbor;
using graph::NodeId;
using query::QueryGraph;
using query::StarQuery;
using scoring::QueryScorer;
using scoring::ScoredCandidate;

StarQuery MakeStarQuery(const QueryGraph& q) {
  StarQuery s;
  s.pivot = q.StarPivot();
  if (s.pivot >= 0) s.edges = q.IncidentEdges(s.pivot);
  return s;
}

namespace {

/// Reorders `star.edges` into canonical execution order: edges sorted by
/// their canonical record (relation attr, leaf attrs, leaf weight) instead
/// of insertion order. Emission order, floating-point summation order and
/// tie-breaking all follow edge order, so this makes the whole stream a
/// function of the canonical star — the property the cross-query star
/// cache replays. Ties keep insertion order (such stars are never
/// memoized).
StarQuery CanonicalizeStarEdgeOrder(const QueryGraph& q, StarQuery star,
                                    const std::vector<double>& node_weights) {
  if (star.edges.size() > 1) {
    std::vector<std::pair<std::string, int>> keyed;
    keyed.reserve(star.edges.size());
    for (const int e : star.edges) {
      const int leaf = q.OtherEnd(e, star.pivot);
      const double w = node_weights.empty() ? 1.0 : node_weights[leaf];
      keyed.emplace_back(
          query::CanonicalStarEdgeRecord(q, e, star.pivot, w), e);
    }
    std::stable_sort(
        keyed.begin(), keyed.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (size_t i = 0; i < keyed.size(); ++i) star.edges[i] = keyed[i].second;
  }
  return star;
}

constexpr uint32_t kNone = UINT32_MAX;

/// Node-indexed values that live for one epoch. Begin() opens a new epoch
/// in O(1) (a full reset only when the counter wraps); an entry not yet
/// touched this epoch is absent to Find() and starts from `init` in At().
/// Sized to the graph once per thread and reused across leaves and
/// queries, so no |V|-sized allocation or clear runs per query.
template <typename T>
class EpochArray {
 public:
  void Begin(size_t nodes, const T& init) {
    if (entries_.size() < nodes) entries_.resize(nodes);
    init_ = init;
    if (++epoch_ == 0) {
      for (Entry& e : entries_) e.epoch = 0;
      epoch_ = 1;
    }
  }
  /// The entry of v, reset to `init` on its first access this epoch.
  T& At(NodeId v) {
    Entry& e = entries_[v];
    if (e.epoch != epoch_) e = {epoch_, init_};
    return e.value;
  }
  /// The entry of v, or nullptr if it was not written this epoch.
  const T* Find(NodeId v) const {
    const Entry& e = entries_[v];
    return e.epoch == epoch_ ? &e.value : nullptr;
  }

 private:
  struct Entry {
    uint32_t epoch = 0;
    T value;
  };
  std::vector<Entry> entries_;
  uint32_t epoch_ = 0;
  T init_{};
};

}  // namespace

StarSearch::StarSearch(QueryScorer& scorer, StarQuery star, Options options)
    : scorer_(scorer), star_(std::move(star)), options_(std::move(options)) {
  cancel_check_ = CancelChecker(options_.cancel);
  star_ = CanonicalizeStarEdgeOrder(scorer_.query(), std::move(star_),
                                    options_.node_weights);
  leaf_nodes_.reserve(star_.edges.size());
  for (const int e : star_.edges) {
    leaf_nodes_.push_back(scorer_.query().OtherEnd(e, star_.pivot));
  }
}

// ---------------------------------------------------------------------------
// Exact per-pivot leaf lists (shared by stark's top-1 pass and by every
// strategy's enumerators).
// ---------------------------------------------------------------------------

/// One thread's leaf-list builder scratch, reused pivot after pivot: the
/// lists and layers keep their buffers, and the node-indexed arrays open a
/// new epoch instead of clearing.
struct StarSearch::LeafListScratch {
  /// Walk bookkeeping per node (d >= 2): the last layer it joined, and
  /// whether it was already credited a decay.
  struct WalkMark {
    int layer = 0;
    bool credited = false;
  };
  EpochArray<uint32_t> entry;  // node -> its entry in the list being built
  EpochArray<WalkMark> walk;
  std::vector<NodeId> layer, next;
  std::vector<std::pair<NodeId, double>> credited;  // walk node, decay
  std::vector<std::vector<LeafCandidate>> lists;    // the first s are in use
};

StarSearch::LeafListScratch& StarSearch::ThreadLeafLists() {
  thread_local LeafListScratch scratch;
  return scratch;
}

bool StarSearch::FillLeafLists(NodeId pivot, bool first_only,
                               StarSearchStats& stats,
                               LeafListScratch& scratch) {
  const KnowledgeGraph& g = scorer_.graph();
  const scoring::MatchConfig& cfg = scorer_.config();
  const size_t s = star_.edges.size();
  const int d = std::max(1, cfg.d);
  // A checker per build, so its first checkpoint always reads the clock.
  CancelChecker cancel_check(options_.cancel);
  const auto stop = [&] {
    if (!cancel_check.ShouldStop()) return false;
    stats.cancelled = true;
    return true;
  };
  ++stats.nodes_expanded;

  // h >= 2: walk layers. W_1 = N(pivot) and W_h = N(W_{h-1}) are exactly
  // the walk-length-h sets; a node may appear in several layers (walks
  // revisit), and the best (smallest h) dominates since lambda^(h-1)
  // decreases, so each node is credited once, at its first layer
  // appearance. The credits are the same for every leaf.
  scratch.credited.clear();
  if (d >= 2) {
    scratch.walk.Begin(g.node_count(), LeafListScratch::WalkMark{});
    scratch.layer.clear();
    const auto join = [&](NodeId w, int h, std::vector<NodeId>& layer) {
      LeafListScratch::WalkMark& mark = scratch.walk.At(w);
      if (mark.layer == h) return;
      mark.layer = h;
      layer.push_back(w);
    };
    for (const Neighbor& nb : g.Neighbors(pivot)) join(nb.node, 1, scratch.layer);
    for (int h = 2; h <= d; ++h) {
      const double decay = scorer_.PathDecay(h);
      if (decay < cfg.edge_threshold) break;
      if (stop()) return false;
      scratch.next.clear();
      for (const NodeId x : scratch.layer) {
        if (stop()) return false;
        ++stats.nodes_expanded;
        for (const Neighbor& nb : g.Neighbors(x)) join(nb.node, h, scratch.next);
      }
      for (const NodeId w : scratch.next) {
        LeafListScratch::WalkMark& mark = scratch.walk.At(w);
        if (mark.credited) continue;
        mark.credited = true;
        if (cfg.enforce_injective && w == pivot) continue;
        scratch.credited.emplace_back(w, decay);
      }
      std::swap(scratch.layer, scratch.next);
    }
  }

  // One list per leaf, built leaf by leaf: each node's entry keeps the
  // best combined contribution F_N(leaf, w) + F_E offered to it. Direct
  // edges give relsim (h = 1, per edge); walk credits give lambda^(h-1).
  // CandidateScore defines leaf-match validity (threshold + index
  // semantics shared with every other algorithm in the library).
  if (scratch.lists.size() < s) scratch.lists.resize(s);
  for (size_t i = 0; i < s; ++i) {
    std::vector<LeafCandidate>& list = scratch.lists[i];
    list.clear();
    if (!first_only) scratch.entry.Begin(g.node_count(), kNone);
    const int leaf = leaf_nodes_[i];
    const double weight = NodeWeight(leaf);
    const auto offer = [&](NodeId w, double edge_component) {
      const double node_score = scorer_.CandidateScore(leaf, w);
      if (node_score < 0.0) return;
      const double total = node_score * weight + edge_component;
      if (first_only) {
        // The best offer under (total desc, node asc) is the best node's
        // entry: no other node's maximum can rank before it.
        if (list.empty()) {
          list.push_back({w, total});
        } else if (total > list[0].total ||
                   (total == list[0].total && w < list[0].node)) {
          list[0] = {w, total};
        }
        return;
      }
      uint32_t& at = scratch.entry.At(w);
      if (at == kNone) {
        at = static_cast<uint32_t>(list.size());
        list.push_back({w, total});
      } else if (total > list[at].total) {
        list[at].total = total;
      }
    };
    // RelationScore, read straight from the edge's table (1 for a
    // wildcard relation).
    const int edge = star_.edges[i];
    const std::vector<double>* relsim =
        scorer_.query().edge(edge).wildcard_relation
            ? nullptr
            : &scorer_.RelationScoresAll(edge);
    for (const Neighbor& nb : g.Neighbors(pivot)) {
      if (stop()) return false;
      if (cfg.enforce_injective && nb.node == pivot) continue;
      const double edge_component =
          relsim == nullptr ? 1.0 : (*relsim)[nb.relation];
      if (edge_component >= cfg.edge_threshold) offer(nb.node, edge_component);
    }
    for (const auto& [w, decay] : scratch.credited) offer(w, decay);
    // A leaf with no candidate: the pivot has no match, and the remaining
    // leaves need not be built.
    if (list.empty()) return false;
  }
  return true;
}

std::unique_ptr<PivotEnumerator> StarSearch::MakeEnumerator(
    NodeId pivot, double pivot_score, StarSearchStats& stats,
    const LeafListScratch& scratch) {
  ++stats.enumerators_built;
  const auto lists = scratch.lists.begin();
  return std::make_unique<PivotEnumerator>(
      pivot, pivot_score,
      std::vector<std::vector<LeafCandidate>>(
          lists, lists + static_cast<std::ptrdiff_t>(star_.edges.size())),
      scorer_.config().enforce_injective, options_.k_hint);
}

std::unique_ptr<PivotEnumerator> StarSearch::BuildEnumerator(
    NodeId pivot, double pivot_score, StarSearchStats& stats) {
  LeafListScratch& scratch = ThreadLeafLists();
  if (!FillLeafLists(pivot, /*first_only=*/false, stats, scratch)) {
    return nullptr;
  }
  return MakeEnumerator(pivot, pivot_score, stats, scratch);
}

std::optional<double> StarSearch::TopOneScore(NodeId pivot,
                                              double pivot_score,
                                              StarSearchStats& stats) {
  LeafListScratch& scratch = ThreadLeafLists();
  if (!FillLeafLists(pivot, /*first_only=*/true, stats, scratch)) {
    return std::nullopt;
  }
  // The state the enumerator pops first takes each list's first entry,
  // which the Prop. 3 cuts always keep, and its score is summed exactly
  // as PivotEnumerator::StateScore sums it.
  const size_t s = star_.edges.size();
  double score = pivot_score;
  for (size_t i = 0; i < s; ++i) score += scratch.lists[i][0].total;
  if (!scorer_.config().enforce_injective) return score;
  bool collides = false;
  for (size_t i = 0; i < s && !collides; ++i) {
    const NodeId head = scratch.lists[i][0].node;
    collides = head == pivot;
    for (size_t j = 0; j < i && !collides; ++j) {
      collides = head == scratch.lists[j][0].node;
    }
  }
  if (!collides) return score;
  // That state is not injective: the enumerator, over the full lists,
  // pops on to the best one that is. It is dropped after the peek;
  // activation builds it again.
  if (!FillLeafLists(pivot, /*first_only=*/false, stats, scratch)) {
    return std::nullopt;  // cancelled
  }
  return MakeEnumerator(pivot, pivot_score, stats, scratch)->PeekScore();
}

// ---------------------------------------------------------------------------
// stark initialization: exact top-1 for every pivot candidate.
// ---------------------------------------------------------------------------

void StarSearch::InitializeStark() {
  const auto& candidates = scorer_.Candidates(star_.pivot);
  stats_.pivot_candidates = candidates.size();
  const double pivot_weight = NodeWeight(star_.pivot);

  // The per-candidate top-1s are the d-hop traversals Exp-1 measures.
  // Each one builds leaf lists only up to the pivot's first empty list.
  // Every candidate list was built by the scorer's plan on the first
  // Candidates() call above, so no leaf is scored here.
  CancelChecker cancel_check(options_.cancel);
  reserve_.reserve(candidates.size());
  for (const ScoredCandidate& c : candidates) {
    // stats_.cancelled is re-read directly: the checkpoints inside
    // TopOneScore set it, and the amortized ShouldStop may lag.
    if (stats_.cancelled || cancel_check.ShouldStop()) {
      stats_.cancelled = true;
      break;  // the remaining candidates stay out of the reserve
    }
    const double pivot_score = c.score * pivot_weight;
    const std::optional<double> top1 =
        TopOneScore(c.node, pivot_score, stats_);
    if (!top1.has_value()) continue;  // no match
    reserve_.push_back({*top1, c.node, pivot_score});
  }
  std::sort(reserve_.begin(), reserve_.end(),
            [](const ReserveEntry& a, const ReserveEntry& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.pivot < b.pivot;  // total order
            });
}

// ---------------------------------------------------------------------------
// stard initialization: d rounds of message propagation (§V-B).
// ---------------------------------------------------------------------------

namespace {

/// A message in flight: "a match of some leaf with (weighted) node score
/// `base` lies `hops` hops back along the walk that delivered this".
/// Example 6's triples. The arrival value at a node reached via a direct
/// edge r is base + relsim(r) for hops == 1, base + lambda^(hops-1)
/// otherwise — evaluated at receipt, which keeps the walk semantics
/// symmetric and the forwarded state independent of relations.
struct Message {
  NodeId source = graph::kInvalidNode;
  int hops = 0;
  double base = 0.0;
};

/// Arrival bookkeeping per (leaf, pivot candidate): the best arrival
/// values of the two best *distinct* sources — exactly what the pivot
/// estimate needs under injectivity (§V-B's ping-pong rule: "record two
/// best matches"), plus an admissible upper bound for anything dropped
/// from the forward set upstream. Both readings are functions of the
/// multiset of (source, value) offers alone, whatever their order:
/// BestAny is the max over all offers and BestExcluding(x) the max over
/// offers whose source is not x.
struct ArrivalSlot {
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

  /// Max arrival value over sources != excluded (-1 if none).
  double BestExcluding(NodeId excluded) const {
    double v = best_source != excluded ? best_value : second_value;
    return std::max(v, overflow);
  }

  double BestAny() const { return std::max(best_value, overflow); }
};

constexpr size_t kForwardCap = 5;
// At most two messages are protected from eviction, so an over-full set
// always evicts one and never holds more than kForwardCap + 1 messages.
static_assert(kForwardCap >= 2);

/// Forward state per (leaf, node): messages eligible to travel further.
/// Only (source, base, hops) matter downstream. Same-source dominated
/// entries are pruned; the set is capped with the two best distinct
/// sources protected; drops record an upper bound on future arrivals.
/// Fixed capacity, so the sets of one leaf sit inline in a flat pool.
struct ForwardSet {
  uint32_t size = 0;
  Message messages[kForwardCap + 1];

  /// Potential of a message = best possible future arrival value.
  static double Potential(const Message& m, double lambda) {
    return m.base + std::pow(lambda, m.hops);  // next arrival: hops+1
  }

  /// Returns (kept, dropped_bound): dropped_bound >= any future arrival of
  /// a message evicted by this insertion (< 0 if nothing dropped).
  std::pair<bool, double> Insert(const Message& m, double lambda) {
    Message* const begin = messages;
    Message* end = messages + size;
    for (const Message* e = begin; e != end; ++e) {
      if (e->source == m.source && e->base >= m.base && e->hops <= m.hops) {
        return {false, -1.0};
      }
    }
    end = std::remove_if(begin, end, [&](const Message& e) {
      return e.source == m.source && m.base >= e.base && m.hops <= e.hops;
    });
    *end++ = m;
    size = static_cast<uint32_t>(end - begin);
    if (size <= kForwardCap) return {true, -1.0};
    // Evict the weakest unprotected message.
    std::sort(begin, end, [&](const Message& a, const Message& b) {
      return Potential(a, lambda) > Potential(b, lambda);
    });
    const NodeId first = begin[0].source;
    NodeId second = graph::kInvalidNode;
    for (const Message* e = begin; e != end; ++e) {
      if (e->source != first) {
        second = e->source;
        break;
      }
    }
    const auto is_protected = [&](size_t i) {
      const NodeId source = begin[i].source;
      return (source == first || source == second) &&
             std::none_of(begin, begin + i, [&](const Message& x) {
               return x.source == source;
             });
    };
    size_t i = size - 1;
    while (is_protected(i)) --i;  // ends: at most two are protected
    const Message& e = begin[i];
    const double bound = Potential(e, lambda);
    const bool dropped_is_new =
        e.source == m.source && e.base == m.base && e.hops == m.hops;
    std::copy(begin + i + 1, end, begin + i);
    --size;
    return {!dropped_is_new, bound};
  }
};

/// stard's pivot candidates: node -> dense slot index, and back. Built
/// before propagation; read-only afterwards.
struct PivotSlots {
  EpochArray<uint32_t> slot_of;
  std::vector<NodeId> nodes;
};

struct FrontierEntry {
  NodeId at;
  Message msg;
};

/// Per-node propagation state of the leaf being propagated.
struct NodeState {
  uint32_t forward;  // index into LeafScratch::sets, kNone = no set yet
  uint32_t queued;   // first last-round frontier entry queued here, kNone
  double overflow;   // overflow bound that reached this node, -1 = none
  double queued_overflow;  // max overflow bound queued for the last round
};

/// One thread's stard propagation scratch, reused leaf after leaf.
struct LeafScratch {
  EpochArray<NodeState> nodes;
  std::vector<ForwardSet> sets;
  std::vector<FrontierEntry> frontier, next;
  std::vector<uint32_t> queued_next;  // per frontier entry: next at its node
  std::vector<std::pair<NodeId, double>> overflow_frontier, next_overflow;
};

PivotSlots& ThreadPivotSlots() {
  thread_local PivotSlots slots;
  return slots;
}

LeafScratch& ThreadLeafScratch() {
  thread_local LeafScratch scratch;
  return scratch;
}

}  // namespace

void StarSearch::InitializeStard() {
  const KnowledgeGraph& g = scorer_.graph();
  const scoring::MatchConfig& cfg = scorer_.config();
  const size_t s = star_.edges.size();
  const int d = cfg.d;  // >= 2: Initialize() runs stark at d <= 1
  const double lambda = cfg.lambda;

  // The estimate reads arrival slots only at pivot candidates, so those
  // are the only slots kept: one per (leaf, distinct pivot candidate), at
  // arrivals[leaf * P + slot].
  const auto& candidates = scorer_.Candidates(star_.pivot);
  stats_.pivot_candidates = candidates.size();
  PivotSlots& pivots = ThreadPivotSlots();
  pivots.slot_of.Begin(g.node_count(), kNone);
  pivots.nodes.clear();
  for (const ScoredCandidate& c : candidates) {
    uint32_t& slot = pivots.slot_of.At(c.node);
    if (slot != kNone) continue;
    slot = static_cast<uint32_t>(pivots.nodes.size());
    pivots.nodes.push_back(c.node);
  }
  const size_t P = pivots.nodes.size();
  std::pmr::vector<ArrivalSlot> arrivals(s * P,
                                         scorer_.transient_resource());

  // All d propagation rounds for one leaf (§V-B, Example 6). Rounds
  // 1 .. d-1 push: every message is offered to the arrival slot at each
  // neighbor that is a pivot candidate, and to its forward set. Round d
  // is pulled: see below.
  const auto propagate = [&](size_t i) {
    CancelChecker cancel_check(options_.cancel);
    const int leaf = leaf_nodes_[i];
    const auto& leaf_node = scorer_.query().node(leaf);
    // Untyped wildcards would flood the graph with messages (every node is
    // a candidate); they use the closed-form bound below instead. Typed
    // wildcards have proper candidate lists and propagate normally.
    if (leaf_node.wildcard && leaf_node.type_name.empty()) return;

    LeafScratch& scratch = ThreadLeafScratch();
    scratch.nodes.Begin(g.node_count(), NodeState{kNone, kNone, -1.0, -1.0});
    scratch.sets.clear();
    scratch.next.clear();
    scratch.next_overflow.clear();
    ArrivalSlot* const slots = arrivals.data() + i * P;
    const auto offer = [&](NodeId at, NodeId source, double value) {
      const uint32_t* slot = pivots.slot_of.Find(at);
      if (slot != nullptr) slots[*slot].Offer(source, value);
    };
    // Inserts into at's forward set; a kept message travels on next
    // round, an evicted one leaves an overflow bound queued at `at`.
    const auto forward = [&](NodeId at, const Message& m) {
      NodeState& node = scratch.nodes.At(at);
      if (node.forward == kNone) {
        node.forward = static_cast<uint32_t>(scratch.sets.size());
        scratch.sets.emplace_back();
      }
      const auto [kept, dropped] = scratch.sets[node.forward].Insert(m, lambda);
      if (kept) scratch.next.push_back({at, m});
      if (dropped >= 0.0) scratch.next_overflow.emplace_back(at, dropped);
    };

    // Round 1: each leaf candidate sends to its neighbors; the arrival
    // value uses the direct edge's relation similarity.
    const double leaf_weight = NodeWeight(leaf);
    for (const ScoredCandidate& c : scorer_.Candidates(leaf)) {
      if (cancel_check.ShouldStop()) {
        stats_.cancelled = true;
        return;
      }
      const double base = c.score * leaf_weight;
      const Message m{c.node, 1, base};
      for (const Neighbor& nb : g.Neighbors(c.node)) {
        ++stats_.messages_sent;
        const double relsim = scorer_.RelationScore(star_.edges[i], nb.relation);
        if (relsim >= cfg.edge_threshold) offer(nb.node, c.node, base + relsim);
        forward(nb.node, m);
      }
    }
    std::swap(scratch.frontier, scratch.next);
    std::swap(scratch.overflow_frontier, scratch.next_overflow);

    // Rounds 2 .. d-1: forward one hop; arrival value is base +
    // lambda^(h-1).
    for (int h = 2; h < d; ++h) {
      const double decay = scorer_.PathDecay(h);
      scratch.next.clear();
      scratch.next_overflow.clear();
      for (const FrontierEntry& fe : scratch.frontier) {
        if (cancel_check.ShouldStop()) {
          stats_.cancelled = true;
          return;
        }
        Message fwd = fe.msg;
        fwd.hops = h;
        for (const Neighbor& nb : g.Neighbors(fe.at)) {
          ++stats_.messages_sent;
          if (decay >= cfg.edge_threshold) {
            offer(nb.node, fwd.source, fwd.base + decay);
          }
          forward(nb.node, fwd);
        }
      }
      // Overflow upper bounds spread undecayed to stay admissible; the
      // node-indexed overflow dedups the spread at every node.
      for (const auto& [at, ub] : scratch.overflow_frontier) {
        NodeState& self = scratch.nodes.At(at);
        self.overflow = std::max(self.overflow, ub);
        for (const Neighbor& nb : g.Neighbors(at)) {
          NodeState& node = scratch.nodes.At(nb.node);
          if (ub > node.overflow) {
            node.overflow = ub;
            scratch.next_overflow.emplace_back(nb.node, ub);
          }
        }
      }
      std::swap(scratch.frontier, scratch.next);
      std::swap(scratch.overflow_frontier, scratch.next_overflow);
    }

    // Round d, pulled. Pushing would offer every frontier entry at x to
    // each neighbor of x; Neighbors() lists both orientations of every
    // edge, so p is in N(x) exactly as often as x is in N(p), and each
    // pivot candidate p pulling the entries queued at its neighbors gets
    // the same multiset of offers. Likewise p's overflow is the max of
    // its own, what is queued at p, and what is queued at its neighbors.
    const double decay = scorer_.PathDecay(d);
    const bool offers = decay >= cfg.edge_threshold;
    scratch.queued_next.resize(scratch.frontier.size());
    for (size_t j = 0; j < scratch.frontier.size(); ++j) {
      NodeState& node = scratch.nodes.At(scratch.frontier[j].at);
      scratch.queued_next[j] = node.queued;
      node.queued = static_cast<uint32_t>(j);
    }
    for (const auto& [at, ub] : scratch.overflow_frontier) {
      NodeState& node = scratch.nodes.At(at);
      node.queued_overflow = std::max(node.queued_overflow, ub);
    }
    for (size_t k = 0; k < P; ++k) {
      if (cancel_check.ShouldStop()) {
        stats_.cancelled = true;
        return;
      }
      const NodeId p = pivots.nodes[k];
      ArrivalSlot& slot = slots[k];
      if (const NodeState* self = scratch.nodes.Find(p)) {
        slot.overflow =
            std::max({slot.overflow, self->overflow, self->queued_overflow});
      }
      for (const Neighbor& nb : g.Neighbors(p)) {
        const NodeState* node = scratch.nodes.Find(nb.node);
        if (node == nullptr) continue;
        slot.overflow = std::max(slot.overflow, node->queued_overflow);
        if (!offers) continue;
        for (uint32_t j = node->queued; j != kNone;
             j = scratch.queued_next[j]) {
          ++stats_.messages_sent;
          const Message& m = scratch.frontier[j].msg;
          slot.Offer(m.source, m.base + decay);
        }
      }
    }
  };

  for (size_t i = 0; i < s; ++i) propagate(i);

  // Estimate each pivot candidate's top-1 score from the arrival slots.
  const double pivot_weight = NodeWeight(star_.pivot);
  CancelChecker cancel_check(options_.cancel);
  reserve_.reserve(candidates.size());
  for (const ScoredCandidate& c : candidates) {
    if (cancel_check.ShouldStop()) {
      stats_.cancelled = true;
      break;  // the remaining candidates stay out of the reserve
    }
    const size_t slot = *pivots.slot_of.Find(c.node);
    double estimate = c.score * pivot_weight;
    bool feasible = true;
    for (size_t i = 0; i < s; ++i) {
      const int leaf = leaf_nodes_[i];
      const auto& leaf_node = scorer_.query().node(leaf);
      double contribution = -1.0;
      if (leaf_node.wildcard && leaf_node.type_name.empty()) {
        // Every neighbour matches, or none under the threshold.
        if (g.Degree(c.node) > 0 &&
            cfg.wildcard_node_score >= cfg.node_threshold) {
          contribution = cfg.wildcard_node_score * NodeWeight(leaf) +
                         scorer_.MaxEdgeScore(star_.edges[i]);
        }
      } else {
        const ArrivalSlot& a = arrivals[i * P + slot];
        contribution = cfg.enforce_injective ? a.BestExcluding(c.node)
                                             : a.BestAny();
      }
      if (contribution < 0.0) {
        feasible = false;
        break;
      }
      estimate += contribution;
    }
    if (!feasible) continue;
    reserve_.push_back({estimate, c.node, c.score * pivot_weight});
  }
  std::sort(reserve_.begin(), reserve_.end(),
            [](const ReserveEntry& a, const ReserveEntry& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.pivot < b.pivot;  // total order
            });
}

// ---------------------------------------------------------------------------
// §V-C alternative: lazy descent ordered by a closed-form bound.
// ---------------------------------------------------------------------------

void StarSearch::InitializeHybrid() {
  const scoring::MatchConfig& cfg = scorer_.config();
  const size_t s = star_.edges.size();
  // Per-leaf upper bound, identical for every pivot: best leaf candidate
  // F_N (weighted) plus the best possible edge score.
  double leaf_ub_total = 0.0;
  bool feasible = true;
  for (size_t i = 0; i < s; ++i) {
    const int leaf = leaf_nodes_[i];
    const auto& leaf_node = scorer_.query().node(leaf);
    double best_leaf;
    if (leaf_node.wildcard && leaf_node.type_name.empty()) {
      best_leaf = cfg.wildcard_node_score;
    } else {
      const auto& cands = scorer_.Candidates(leaf);
      if (cands.empty()) {
        feasible = false;
        break;
      }
      best_leaf = cands[0].score;
    }
    leaf_ub_total +=
        best_leaf * NodeWeight(leaf) + scorer_.MaxEdgeScore(star_.edges[i]);
  }
  const auto& candidates = scorer_.Candidates(star_.pivot);
  stats_.pivot_candidates = candidates.size();
  if (!feasible) return;
  const double pivot_weight = NodeWeight(star_.pivot);
  reserve_.reserve(candidates.size());
  for (const ScoredCandidate& c : candidates) {
    ReserveEntry entry;
    entry.bound = c.score * pivot_weight + leaf_ub_total;
    entry.pivot = c.node;
    entry.pivot_score = c.score * pivot_weight;
    reserve_.push_back(entry);
  }
  // Candidates are already sorted by score, so the reserve is sorted by
  // bound; std::sort kept for clarity and weighted edge cases.
  std::sort(reserve_.begin(), reserve_.end(),
            [](const ReserveEntry& a, const ReserveEntry& b) {
              if (a.bound != b.bound) return a.bound > b.bound;
              return a.pivot < b.pivot;  // total order
            });
}

// ---------------------------------------------------------------------------
// Shared incremental top-k loop (Fig. 5 steps 2-3, lazily).
// ---------------------------------------------------------------------------

void StarSearch::Initialize() {
  if (initialized_) return;
  initialized_ = true;
  // Pre-expired deadlines / already-cancelled requests skip the strategy
  // initialization entirely: no candidate retrieval, no graph scan.
  if (cancel_check_.ShouldStop()) {
    stats_.cancelled = true;
    return;
  }
  const WallTimer wall;
  const CpuTimer cpu;
  const text::KernelStats kernel_before = scorer_.kernel_stats();
  if (options_.strategy == StarStrategy::kHybrid) {
    InitializeHybrid();
  } else if (options_.strategy == StarStrategy::kStark ||
             scorer_.config().d <= 1) {
    // §V-B: "when d = 1, stard degrades to stark, thus having the same
    // runtime" — one round of message passing has nothing to amortize, so
    // the eager path is used directly.
    InitializeStark();
  } else {
    InitializeStard();
  }
  stats_.init_wall_ms = wall.ElapsedMillis();
  stats_.init_cpu_ms = cpu.ElapsedMillis();
  const text::KernelStats& kernel_after = scorer_.kernel_stats();
  stats_.fn_pairs_scored = kernel_after.pairs - kernel_before.pairs;
  stats_.fn_early_exits = kernel_after.early_exits - kernel_before.early_exits;
  stats_.fn_feature_evals =
      kernel_after.features_evaluated - kernel_before.features_evaluated;
  stats_.fn_features_skipped =
      kernel_after.features_skipped - kernel_before.features_skipped;
}

void StarSearch::ActivateReserve() {
  while (reserve_pos_ < reserve_.size() &&
         (queue_.empty() ||
          reserve_[reserve_pos_].bound >= queue_.top().score)) {
    // stats_.cancelled is re-read directly: a checkpoint inside the
    // BuildEnumerator call below sets it through the shared stats struct,
    // and the amortized ShouldStop alone could keep building for up to
    // kStride further iterations after the expiry.
    if (stats_.cancelled || cancel_check_.ShouldStop()) {
      stats_.cancelled = true;
      break;
    }
    const ReserveEntry& entry = reserve_[reserve_pos_++];
    std::unique_ptr<PivotEnumerator> enumerator =
        BuildEnumerator(entry.pivot, entry.pivot_score, stats_);
    // nullptr: a leaf with no candidate, or a cancelled build.
    if (enumerator == nullptr) continue;
    const auto score = enumerator->PeekScore();
    if (!score.has_value()) continue;
    active_.push_back(std::move(enumerator));
    queue_.push(QueueEntry{*score, active_.size() - 1, entry.pivot});
  }
}

std::optional<StarMatch> StarSearch::Next() {
  Initialize();
  // scorer_.truncated() is checked unamortized alongside the cancellation
  // flags: a cancellation observed inside the candidate plan leaves lists
  // missing arbitrary entries (truncation happens mid-bulk-score, before
  // the canonical sort), so a match emitted afterwards could be
  // out of global order — the stride-amortized clock check alone can let
  // up to kStride such emissions slip through.
  if (stats_.cancelled || scorer_.truncated() || cancel_check_.ShouldStop()) {
    stats_.cancelled = true;
    return std::nullopt;  // already-emitted matches stay a valid prefix
  }
  ActivateReserve();
  // Re-check: if any checkpoint fired, activation wound down early and
  // queue_.top() may not be the true next-best match, so nothing more is
  // emitted. stats_.cancelled is read directly — the amortized ShouldStop
  // only consults the clock every kStride calls and can return false right
  // after the checkpoint inside ActivateReserve observed the expiry, which
  // would break the correctly-ordered-prefix guarantee. Ditto a scorer
  // truncation inside a leaf list built lazily by BuildEnumerator.
  if (stats_.cancelled || scorer_.truncated()) {
    stats_.cancelled = true;
    return std::nullopt;
  }
  if (queue_.empty()) return std::nullopt;
  const QueueEntry top = queue_.top();
  queue_.pop();
  std::optional<StarMatch> m = active_[top.enumerator_index]->Next();
  const auto next_score = active_[top.enumerator_index]->PeekScore();
  if (next_score.has_value()) {
    queue_.push(QueueEntry{*next_score, top.enumerator_index, top.pivot});
  }
  ++stats_.matches_emitted;
  if (m.has_value()) last_emitted_score_ = m->score;
  return m;
}

double StarSearch::AprioriBound() {
  if (apriori_ready_) return apriori_bound_;
  apriori_ready_ = true;
  const scoring::MatchConfig& cfg = scorer_.config();
  const auto node_cap = [&](int u) {
    return scorer_.query().node(u).wildcard ? cfg.wildcard_node_score : 1.0;
  };
  double cap = NodeWeight(star_.pivot) * node_cap(star_.pivot);
  for (size_t i = 0; i < star_.edges.size(); ++i) {
    cap += NodeWeight(leaf_nodes_[i]) * node_cap(leaf_nodes_[i]) +
           scorer_.MaxEdgeScore(star_.edges[i]);
  }
  apriori_bound_ = cap;
  return apriori_bound_;
}

double StarSearch::UpperBound() {
  Initialize();
  double ub = -std::numeric_limits<double>::infinity();
  if (!queue_.empty()) ub = queue_.top().score;
  if (reserve_pos_ < reserve_.size()) {
    ub = std::max(ub, reserve_[reserve_pos_].bound);
  }
  if (stats_.cancelled || scorer_.truncated()) {
    // A wound-down build can leave the structural state missing entries:
    // an interrupted init drops whole pivots from the reserve, an
    // interrupted activation drops the pivot it was building, and after a
    // scorer truncation a leaf list can miss candidates, so a PeekScore
    // can understate its pivot's true best. The structural maximum
    // alone may then sit BELOW a real unseen match, so the bound falls
    // back to the a-priori star cap — tightened by the last emitted score
    // (the stream is monotone) when the candidate universe is complete.
    // The bound may jump UP at the moment of cancellation; that is the
    // safe direction for every consumer (a higher join threshold only
    // delays emission, a higher certificate bound only claims less).
    double cap = AprioriBound();
    if (!scorer_.truncated()) cap = std::min(cap, last_emitted_score_);
    ub = std::max(ub, cap);
  }
  return ub;
}

std::vector<std::pair<NodeId, double>> StarSearch::PivotBounds() {
  Initialize();
  std::vector<std::pair<NodeId, double>> out;
  out.reserve(reserve_.size());
  for (const ReserveEntry& e : reserve_) out.emplace_back(e.pivot, e.bound);
  return out;
}

std::vector<StarMatch> StarSearch::TopK(size_t k) {
  std::vector<StarMatch> out;
  out.reserve(k);
  while (out.size() < k) {
    auto m = Next();
    if (!m.has_value()) break;
    out.push_back(std::move(*m));
  }
  return out;
}

GraphMatch StarSearch::ToGraphMatch(const StarMatch& m) const {
  GraphMatch gm;
  gm.mapping.assign(scorer_.query().node_count(), graph::kInvalidNode);
  gm.mapping[star_.pivot] = m.pivot;
  for (size_t i = 0; i < leaf_nodes_.size(); ++i) {
    gm.mapping[leaf_nodes_[i]] = m.leaves[i];
  }
  gm.score = m.score;
  return gm;
}

}  // namespace star::core
