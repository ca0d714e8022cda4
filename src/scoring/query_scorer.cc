#include "scoring/query_scorer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <string_view>
#include <tuple>
#include <utility>

namespace star::scoring {

using graph::KnowledgeGraph;
using graph::LabelIndex;
using graph::NodeId;
using query::QueryGraph;
using text::SimilarityEnsemble;

namespace {

/// Skip margin of the retrieval bounds — the kernel's standard 1e-9: a
/// node is skipped only when its cap is strictly below theta by more than
/// the margin, so sub-ulp rounding of the cap arithmetic can never drop an
/// entry whose canonical score ties the cut.
constexpr double kBoundMargin = 1e-9;

/// Nodes scored per retrieval wave. Wave boundaries are where theta
/// updates, and membership is decided by the deterministic pool order
/// alone: theta tightens as soon as the highest-cap wave has been scored,
/// which is what lets duplicate-heavy exact matches shut down the rest of
/// the pool.
constexpr size_t kRetrievalWave = 128;

/// The candidate total order (score desc, node asc): every list cut and
/// sort in this file, the retrieval heap's included.
inline bool BetterCandidate(const ScoredCandidate& a,
                            const ScoredCandidate& b) {
  return a.score > b.score || (a.score == b.score && a.node < b.node);
}

/// RetrievalNodeBound of one prepared label, memoized for the calls of one
/// retrieval walk. The bound is a pure function of (byte length, numeric
/// flag, shares flag) for a fixed label, so a memoized cap has the bits of
/// the call it replaces. Lengths of kLengths bytes and more are not
/// memoized.
class NodeBoundMemo {
 public:
  NodeBoundMemo(const SimilarityEnsemble& ensemble,
                const SimilarityEnsemble::PreparedLabelBatch& batch)
      : ensemble_(ensemble), batch_(batch) {
    caps_.fill(-1.0);  // bounds are >= 0
  }

  double operator()(size_t len, bool numeric, bool shares) {
    if (len >= kLengths) {
      return ensemble_.RetrievalNodeBound(batch_, len, numeric, shares);
    }
    double& cap = caps_[len * 4 + (numeric ? 2 : 0) + (shares ? 1 : 0)];
    if (cap < 0.0) {
      cap = ensemble_.RetrievalNodeBound(batch_, len, numeric, shares);
    }
    return cap;
  }

 private:
  static constexpr size_t kLengths = 64;
  const SimilarityEnsemble& ensemble_;
  const SimilarityEnsemble::PreparedLabelBatch& batch_;
  std::array<double, kLengths * 4> caps_;
};

/// RetrievalNodeBound of pool node v: from the index's facts when one is
/// attached, else from the label (the no-index fallback derives the same
/// two facts).
double NodeCap(const KnowledgeGraph& g, const LabelIndex* index,
               NodeBoundMemo& node_bound, NodeId v, bool shares) {
  if (index != nullptr) {
    return node_bound(index->NodeLabelLength(v), index->NodeLooksNumeric(v),
                      shares);
  }
  const std::string_view label = g.NodeLabel(v);
  return node_bound(label.size(), text::LooksNumeric(label), shares);
}

/// The digest of a list as scored.
ScoredListInfo Digest(const CandidateList& list) {
  ScoredListInfo info;
  info.scored = true;
  info.size = list.size();
  if (!list.empty()) {
    info.top_score = list.front().score;
    info.cut_score = list.back().score;
  }
  return info;
}

/// Node-indexed marks of the d <= 1 plan's support tests, one array per
/// thread, sized to the graph once; Begin() opens an epoch in O(1).
class SupportMarks {
 public:
  void Begin(size_t nodes) {
    if (mark_.size() < nodes) mark_.resize(nodes, 0);
    if (++epoch_ == 0) {  // wrapped: no node may carry a stale epoch
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
  }
  /// Marks v; returns whether it was unmarked.
  bool Set(NodeId v) {
    if (mark_[v] == epoch_) return false;
    mark_[v] = epoch_;
    return true;
  }
  bool Test(NodeId v) const { return mark_[v] == epoch_; }

  static SupportMarks& ForThread() {
    thread_local SupportMarks marks;
    return marks;
  }

 private:
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
};

/// The nodes with a graph neighbour in `support` (not only through a
/// self-loop under injectivity), in id order.
std::vector<NodeId> AdjacentNodes(const KnowledgeGraph& g, bool injective,
                                  const std::vector<NodeId>& support) {
  SupportMarks& marks = SupportMarks::ForThread();
  marks.Begin(g.node_count());
  std::vector<NodeId> out;
  for (const NodeId w : support) {
    for (const graph::Neighbor& nb : g.Neighbors(w)) {
      if (injective && nb.node == w) continue;
      if (marks.Set(nb.node)) out.push_back(nb.node);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Whether node v has a graph neighbour in one support set S (another
/// query node's list or pool; null = every node). A self-loop supports its
/// node only without injectivity: at d <= 1 the two query nodes of an edge
/// then map to one data node. The side with the smaller degree sum is
/// walked: S's adjacency is marked when S is cheaper than the nodes to be
/// tested (`tested_degree_sum`), else S is marked and each test scans v's
/// adjacency. Both answer the same predicate, since Neighbors() lists both
/// orientations of every edge. Valid until the next test is built.
class SupportTest {
 public:
  SupportTest(const KnowledgeGraph& g, bool injective,
              const std::vector<NodeId>* support, size_t tested_degree_sum)
      : g_(g), injective_(injective), marks_(SupportMarks::ForThread()) {
    if (support == nullptr) return;
    marks_.Begin(g.node_count());
    size_t support_degree_sum = 0;
    for (const NodeId w : *support) support_degree_sum += g.Degree(w);
    mode_ = support_degree_sum < tested_degree_sum ? kAdjacent : kMembers;
    for (const NodeId w : *support) {
      if (mode_ == kMembers) {
        marks_.Set(w);
        continue;
      }
      for (const graph::Neighbor& nb : g.Neighbors(w)) {
        if (!injective || nb.node != w) marks_.Set(nb.node);
      }
    }
  }

  bool operator()(NodeId v) const {
    if (mode_ == kAdjacent) return marks_.Test(v);
    for (const graph::Neighbor& nb : g_.Neighbors(v)) {
      if (injective_ && nb.node == v) continue;
      if (mode_ == kEveryNode || marks_.Test(nb.node)) return true;
    }
    return false;
  }

 private:
  enum Mode { kEveryNode, kMembers, kAdjacent };
  const KnowledgeGraph& g_;
  const bool injective_;
  SupportMarks& marks_;
  Mode mode_ = kEveryNode;
};

/// BulkScore's duplicate-pair table, one per thread: open addressing
/// over (label address, label size, ontology type) keys. A chunk is the
/// nodes of one BulkScore call. A slot is empty unless it carries the
/// current chunk's epoch, so a chunk clears nothing, and the table only
/// grows (to twice the largest chunk).
class ChunkDedup {
 public:
  /// Starts a chunk of at most `n` inserts.
  void Begin(size_t n) {
    int bits = 4;
    while ((size_t{1} << bits) < 2 * n) ++bits;
    if (bits > bits_) {
      slots_.assign(size_t{1} << bits, Slot{});
      bits_ = bits;
      epoch_ = 0;
    }
    if (++epoch_ == 0) {  // wrapped: no slot may carry a stale epoch
      std::fill(slots_.begin(), slots_.end(), Slot{});
      epoch_ = 1;
    }
  }

  /// The value stored for the key in this chunk, or null.
  const double* Find(std::string_view label, int type) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(label, type); slots_[i].epoch == epoch_;
         i = (i + 1) & mask) {
      if (Matches(slots_[i], label, type)) return &slots_[i].value;
    }
    return nullptr;
  }

  /// Stores the key's value unless the chunk already holds one.
  void Insert(std::string_view label, int type, double value) {
    const size_t mask = slots_.size() - 1;
    size_t i = Home(label, type);
    for (; slots_[i].epoch == epoch_; i = (i + 1) & mask) {
      if (Matches(slots_[i], label, type)) return;
    }
    slots_[i] = Slot{label.data(), label.size(), type, epoch_, value};
  }

 private:
  struct Slot {
    const char* data = nullptr;
    size_t size = 0;
    int type = 0;
    uint32_t epoch = 0;
    double value = 0.0;
  };

  static bool Matches(const Slot& s, std::string_view label, int type) {
    return s.data == label.data() && s.size == label.size() && s.type == type;
  }

  size_t Home(std::string_view label, int type) const {
    const uint64_t key = reinterpret_cast<uintptr_t>(label.data()) ^
                         (uint64_t{static_cast<uint32_t>(type)} << 40);
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }

  std::vector<Slot> slots_;
  int bits_ = 0;
  uint32_t epoch_ = 0;
};

}  // namespace

QueryScorer::QueryScorer(const KnowledgeGraph& g, const QueryGraph& q,
                         const SimilarityEnsemble& ensemble,
                         const MatchConfig& config, const LabelIndex* index,
                         common::MonotonicArena* arena)
    : graph_(g),
      query_(q),
      ensemble_(ensemble),
      config_(config),
      index_(index),
      mem_(arena != nullptr ? arena->resource()
                            : std::pmr::get_default_resource()),
      candidates_ready_(q.node_count(), false),
      scored_(q.node_count()),
      candidate_scores_ready_(q.node_count(), false),
      max_relation_score_(q.edge_count(), 1.0),
      max_relation_ready_(q.edge_count(), false),
      relation_table_(q.edge_count()),
      relation_table_ready_(q.edge_count(), false),
      walk_mark_(mem_),
      walk_layer_(mem_),
      walk_next_(mem_) {
  // Candidate lists bind to the transient resource individually:
  // fill-construction would copy-construct elements, and pmr container
  // copies take the DEFAULT resource, silently dropping the arena.
  candidates_.reserve(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) candidates_.emplace_back(mem_);
  candidate_scores_.reserve(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    candidate_scores_.push_back({std::pmr::vector<CandidateSlot>(mem_), 63});
  }
  // Resolve type names into the ensemble's ontology once.
  query_node_onto_type_.resize(q.node_count(), -1);
  for (int u = 0; u < q.node_count(); ++u) {
    query_node_onto_type_[u] = OntologyType(q.node(u).type_name);
  }
  graph_type_onto_type_.resize(g.type_count(), -1);
  for (size_t t = 0; t < g.type_count(); ++t) {
    graph_type_onto_type_[t] =
        OntologyType(g.TypeName(static_cast<int32_t>(t)));
  }
  wildcard_graph_type_.resize(q.node_count(), -1);
  for (int u = 0; u < q.node_count(); ++u) {
    const auto& qn = q.node(u);
    if (qn.wildcard && !qn.type_name.empty()) {
      wildcard_graph_type_[u] = g.FindTypeId(qn.type_name);
    }
  }
  // Derived-view reuse: collapse query nodes onto signature
  // representatives and dedupe kernel views by label, so repeated
  // labels/types across query nodes build each derived view once.
  std::map<std::tuple<bool, std::string_view, std::string_view>, int>
      node_sig;
  node_rep_.resize(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    const auto& qn = q.node(u);
    const auto [it, inserted] = node_sig.try_emplace(
        std::make_tuple(qn.wildcard, std::string_view(qn.type_name),
                        std::string_view(qn.label)),
        u);
    node_rep_[u] = it->second;
  }
  list_rep_ = node_rep_;
  if (config_.d <= 1) std::iota(list_rep_.begin(), list_rep_.end(), 0);
  std::map<std::pair<bool, std::string_view>, int> edge_sig;
  edge_rep_.resize(q.edge_count());
  for (int e = 0; e < q.edge_count(); ++e) {
    const auto& qe = q.edge(e);
    const auto [it, inserted] = edge_sig.try_emplace(
        std::make_pair(qe.wildcard_relation, std::string_view(qe.relation)),
        e);
    edge_rep_[e] = it->second;
  }
  // Build the kernel's query-side views eagerly (one per unique query
  // label).
  std::map<std::string_view, uint32_t> label_view;
  prepared_idx_.resize(q.node_count());
  for (int u = 0; u < q.node_count(); ++u) {
    const std::string_view label = q.node(u).label;
    const auto it = label_view.find(label);
    if (it != label_view.end()) {
      prepared_idx_[u] = it->second;
      continue;
    }
    const uint32_t idx = static_cast<uint32_t>(prepared_store_.size());
    prepared_store_.push_back(ensemble_.Prepare(label));
    prepared_idx_[u] = idx;
    label_view.emplace(label, idx);
  }
}

int QueryScorer::OntologyType(std::string_view type_name) const {
  if (type_name.empty() || ensemble_.context().ontology == nullptr) return -1;
  return ensemble_.context().ontology->FindType(type_name);
}

double QueryScorer::NodeScore(int query_node, NodeId v) const {
  const query::QueryNode& qn = query_.node(query_node);
  if (qn.wildcard) {
    // Typed wildcards ("?x a Person") are a hard type filter; untyped
    // wildcards match everything.
    if (qn.type_name.empty()) return config_.wildcard_node_score;
    const int32_t want = wildcard_graph_type_[query_node];
    return (want >= 0 && graph_.NodeType(v) == want)
               ? config_.wildcard_node_score
               : 0.0;
  }
  // One lane of the batch kernel in exact mode: Score()'s bits.
  const std::string_view label = graph_.NodeLabel(v);
  const int32_t gt = graph_.NodeType(v);
  const int data_type = gt >= 0 ? graph_type_onto_type_[gt] : -1;
  double s = 0.0;
  ensemble_.ScoreBatchAgainstThreshold(
      prepared_store_[prepared_idx_[query_node]], &label, 1,
      SimilarityEnsemble::kNoThreshold, query_node_onto_type_[query_node],
      &data_type, &s, &kernel_stats_);
  return s;
}

std::vector<double> QueryScorer::BulkScore(
    int query_node, const std::vector<graph::NodeId>& nodes, double threshold,
    const uint8_t* shares_token) const {
  std::vector<double> scores(nodes.size());
  CancelChecker cancel_check(cancel_);
  const query::QueryNode& qn = query_.node(query_node);
  if (qn.wildcard) {
    // Wildcard scoring is a type check or a constant.
    for (size_t i = 0; i < nodes.size(); ++i) {
      if (cancel_check.ShouldStop()) {  // rest stay 0 (non-candidates)
        truncated_ = true;
        break;
      }
      scores[i] = NodeScore(query_node, nodes[i]);
    }
    return scores;
  }
  constexpr int kLanes = SimilarityEnsemble::kBatchLanes;
  const SimilarityEnsemble::PreparedLabelBatch& prepared =
      prepared_store_[prepared_idx_[query_node]];
  const int query_type = query_node_onto_type_[query_node];
  // A cancellation leaves the entries it did not score (the gathered but
  // unflushed lanes among them) at 0.0, below any positive threshold.

  // Duplicate-label elision within the call: generated and real graphs
  // repeat labels across nodes, and the kernel is a pure function of
  // (label, type, threshold, shares_token), so a repeated pair reuses the
  // first lane's result bitwise. Keyed on the label's address and length
  // plus the ontology type id: the graph interns labels, so equal labels
  // share one address and no label bytes are hashed. shares_token is a
  // function of the label. Lanes still gathered are not looked up, so a
  // repeat inside one batch is scored again and the first value is kept.
  static thread_local ChunkDedup seen;
  seen.Begin(nodes.size());

  std::string_view lane_labels[kLanes];
  int lane_types[kLanes];
  uint8_t lane_shares[kLanes];
  size_t lane_index[kLanes];
  size_t lanes = 0;
  const auto flush = [&] {
    if (lanes == 0) return;
    double out[kLanes];
    ensemble_.ScoreBatchAgainstThreshold(
        prepared, lane_labels, lanes, threshold, query_type, lane_types, out,
        &kernel_stats_, shares_token != nullptr ? lane_shares : nullptr);
    for (size_t l = 0; l < lanes; ++l) {
      scores[lane_index[l]] = out[l];
      seen.Insert(lane_labels[l], lane_types[l], out[l]);
    }
    lanes = 0;
  };
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (cancel_check.ShouldStop()) {
      truncated_ = true;
      break;
    }
    const graph::NodeId v = nodes[i];
    const std::string_view label = graph_.NodeLabel(v);
    const int32_t gt = graph_.NodeType(v);
    const int data_type = gt >= 0 ? graph_type_onto_type_[gt] : -1;
    if (const double* dup = seen.Find(label, data_type)) {
      scores[i] = *dup;
      continue;
    }
    lane_labels[lanes] = label;
    lane_types[lanes] = data_type;
    lane_shares[lanes] = shares_token != nullptr ? shares_token[i] : 1;
    lane_index[lanes] = i;
    if (++lanes == kLanes) flush();
  }
  flush();
  return scores;
}

std::vector<NodeId> QueryScorer::RetrievalPool(
    int query_node, std::vector<uint8_t>* shares_token) const {
  query_node = node_rep_[query_node];
  shares_token->clear();
  const query::QueryNode& qn = query_.node(query_node);

  // Retrieval: the node ids to score (index semantics unchanged).
  std::vector<NodeId> pool;
  bool full_scan = false;
  if (qn.wildcard) {
    // Wildcards match everything; typed wildcards restrict via the index
    // when available.
    const int32_t gt = graph_.FindTypeId(qn.type_name);
    if (!qn.type_name.empty() && index_ != nullptr && gt >= 0) {
      pool = index_->CandidatesByType(gt);
    } else {
      full_scan = true;
    }
  } else if (index_ != nullptr) {
    const int32_t gt =
        qn.type_name.empty() ? -1 : graph_.FindTypeId(qn.type_name);
    pool = index_->RankedCandidates(qn.label, gt, config_.max_retrieval,
                                    shares_token);
  } else {
    full_scan = true;
  }
  if (full_scan) {
    pool.resize(graph_.node_count());
    std::iota(pool.begin(), pool.end(), NodeId{0});
  }
  if (config_.sampling() && !qn.wildcard) {
    // Compact the pool and its facts together.
    size_t kept = 0;
    for (size_t i = 0; i < pool.size(); ++i) {
      if (!SampleKeep(config_.sample_seed, pool[i], config_.sample_rate)) {
        continue;
      }
      pool[kept] = pool[i];
      if (!shares_token->empty()) (*shares_token)[kept] = (*shares_token)[i];
      ++kept;
    }
    pool.resize(kept);
    if (!shares_token->empty()) shares_token->resize(kept);
  }
  return pool;
}

bool QueryScorer::SampleKeep(uint64_t seed, graph::NodeId v, double rate) {
  // splitmix64 of (seed ^ id): a pure function of the config and the node
  // id, so every engine derives the same sampled pool.
  uint64_t x = seed ^ (0x9e3779b97f4a7c15ull * (uint64_t{v} + 1));
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x = x ^ (x >> 31);
  return static_cast<double>(x >> 11) * 0x1.0p-53 < rate;
}

double QueryScorer::RetrievalTheta(const CandidateList& heap) const {
  // The heap only admits scores >= node_threshold, so once full its worst
  // kept score IS the max over both thresholds; theta never decreases.
  return (config_.max_candidates > 0 && heap.size() == config_.max_candidates)
             ? heap.front().score
             : config_.node_threshold;
}

void QueryScorer::MergeScoredWave(const std::vector<NodeId>& wave,
                                  const std::vector<double>& scores,
                                  CandidateList* heap) const {
  const size_t k = config_.max_candidates;
  for (size_t i = 0; i < wave.size(); ++i) {
    const double s = scores[i];
    // Entries below node_threshold are never candidates (kernel values
    // below the wave's theta may be truncated upper bounds, but those are
    // < theta <= any kept score, so they can never displace a kept entry
    // either).
    if (s < config_.node_threshold) continue;
    const ScoredCandidate c{wave[i], s};
    if (k == 0 || heap->size() < k) {
      heap->push_back(c);
      if (k != 0) std::push_heap(heap->begin(), heap->end(), BetterCandidate);
      continue;
    }
    // Full: the root is the worst kept entry in the total order; replace
    // it only when c is strictly better (a tie at the cut keeps the
    // smaller id, matching the deterministic truncation).
    if (!BetterCandidate(c, heap->front())) continue;
    std::pop_heap(heap->begin(), heap->end(), BetterCandidate);
    heap->back() = c;
    std::push_heap(heap->begin(), heap->end(), BetterCandidate);
  }
}

void QueryScorer::PrunedRetrievePool(int query_node,
                                     const std::vector<NodeId>& pool,
                                     const std::vector<uint8_t>& shares_token,
                                     CandidateList* out) const {
  const auto& batch = prepared_store_[prepared_idx_[query_node]];
  struct Entry {
    double cap;
    NodeId v;
    uint8_t shares;
  };
  NodeBoundMemo node_bound(ensemble_, batch);
  std::pmr::vector<Entry> order(mem_);
  order.reserve(pool.size());
  for (size_t i = 0; i < pool.size(); ++i) {
    const NodeId v = pool[i];
    const bool shares = shares_token.empty() || shares_token[i] != 0;
    order.push_back({NodeCap(graph_, index_, node_bound, v, shares), v,
                     static_cast<uint8_t>(shares ? 1 : 0)});
  }
  // Theta rises above node_threshold only once the heap holds
  // max_candidates entries. A pool that cannot fill it keeps theta fixed
  // for the whole walk, so every entry is skipped or scored against the
  // same theta in any order and in any waves: such a pool skips the cap
  // sort and scores its survivors in one wave.
  const bool can_fill = config_.max_candidates > 0 &&
                        order.size() > config_.max_candidates;
  if (can_fill) {
    std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
      return a.cap != b.cap ? a.cap > b.cap : a.v < b.v;
    });
  }
  retrieval_stats_.nodes_considered += order.size();

  std::vector<NodeId> wave;
  std::vector<uint8_t> wave_shares;
  wave.reserve(can_fill ? kRetrievalWave : order.size());
  wave_shares.reserve(wave.capacity());
  double theta = RetrievalTheta(*out);
  const auto flush = [&] {
    if (wave.empty()) return;
    retrieval_stats_.nodes_scored += wave.size();
    const std::vector<double> scores =
        BulkScore(query_node, wave, theta, wave_shares.data());
    MergeScoredWave(wave, scores, out);
    wave.clear();
    wave_shares.clear();
    theta = RetrievalTheta(*out);
  };
  for (size_t i = 0; i < order.size(); ++i) {
    if (cancel_ != nullptr && cancel_->ShouldStop()) {
      truncated_ = true;
      break;
    }
    if (order[i].cap < theta - kBoundMargin) {
      if (!can_fill) {
        ++retrieval_stats_.nodes_bound_skipped;
        continue;
      }
      // Cap-ordered and theta monotone: the rest can never make the list.
      retrieval_stats_.nodes_bound_skipped += order.size() - i;
      break;
    }
    wave.push_back(order[i].v);
    wave_shares.push_back(order[i].shares);
    if (can_fill && wave.size() >= kRetrievalWave) flush();
  }
  flush();
  std::sort(out->begin(), out->end(), BetterCandidate);
}

void QueryScorer::ScoreList(int query_node, const std::vector<NodeId>& pool,
                            const std::vector<uint8_t>& shares_token,
                            CandidateList* out) const {
  const query::QueryNode& qn = query_.node(query_node);
  if (qn.wildcard && qn.type_name.empty()) {
    // Every node of the graph (the pool, which is never sampled) scores
    // wildcard_node_score: the list is all of V in id order, never cut, so
    // a `?` node matches every node wherever it sits, and nothing under
    // the threshold.
    if (config_.wildcard_node_score >= config_.node_threshold) {
      out->resize(graph_.node_count());
      for (NodeId v = 0; v < out->size(); ++v) {
        (*out)[v] = {v, config_.wildcard_node_score};
      }
    }
    return;
  }
  if (!qn.wildcard) {
    // Bound-driven retrieval (DESIGN.md "Bound-driven retrieval"): walk the
    // pool in descending upper-bound order and skip everything that
    // provably cannot reach the running max_candidates-th score.
    PrunedRetrievePool(query_node, pool, shares_token, out);
    out->shrink_to_fit();
    return;
  }
  // Typed wildcards have no label bound: their F_N is a type check, so
  // the whole pool is scored and cut. (score desc, node asc) is a total
  // order, so the cut is the full sort's prefix — and nth_element +
  // prefix sort beats partial_sort's heap pass on a large pool.
  const std::vector<double> scores =
      BulkScore(query_node, pool, config_.node_threshold);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (scores[i] >= config_.node_threshold) {
      out->push_back({pool[i], scores[i]});
    }
  }
  if (config_.max_candidates > 0 && out->size() > config_.max_candidates) {
    const auto kth =
        out->begin() + static_cast<ptrdiff_t>(config_.max_candidates);
    std::nth_element(out->begin(), kth - 1, out->end(), BetterCandidate);
    std::sort(out->begin(), kth, BetterCandidate);
    out->resize(config_.max_candidates);
  } else {
    std::sort(out->begin(), out->end(), BetterCandidate);
  }
  out->shrink_to_fit();
}

const CandidateList& QueryScorer::Candidates(int query_node) const {
  // All reads and writes go through the list slot: at d >= 2 query nodes
  // sharing (wildcard, type, label) retrieve and score one shared list
  // (see list_rep_ in the header).
  const int slot = list_rep_[query_node];
  if (candidates_ready_[slot]) return candidates_[slot];

  // Cancelled requests skip retrieval + scoring outright. The list is NOT
  // marked ready (the empty result is never memoized as definitive) and the
  // truncation is recorded so the run as a whole reports itself partial.
  if (cancel_ != nullptr && cancel_->ShouldStop()) {
    truncated_ = true;
    return candidates_[slot];
  }
  if (config_.d <= 1) {
    PlanLists();
    return candidates_[slot];
  }
  candidates_ready_[slot] = true;
  std::vector<uint8_t> shares_token;
  const query::QueryNode& qn = query_.node(slot);
  const std::vector<NodeId> pool = qn.wildcard && qn.type_name.empty()
                                       ? std::vector<NodeId>()
                                       : RetrievalPool(slot, &shares_token);
  ScoreList(slot, pool, shares_token, &candidates_[slot]);
  scored_[slot] = Digest(candidates_[slot]);
  return candidates_[slot];
}

void QueryScorer::PlanLists() const {
  const int n = query_.node_count();
  const bool injective = config_.enforce_injective;
  const auto untyped = [&](int u) {
    return query_.node(u).wildcard && query_.node(u).type_name.empty();
  };
  // What each node offers its neighbours' filters before its own list is
  // built: its retrieval pool, or every node (null) for an untyped
  // wildcard. A list is a subset of it.
  std::vector<std::vector<NodeId>> pools(n);
  std::vector<std::vector<uint8_t>> shares(n);
  for (int u = 0; u < n; ++u) {
    if (!untyped(u)) pools[u] = RetrievalPool(u, &shares[u]);
  }
  // Labelled nodes by ascending pool size, then typed wildcards, then
  // untyped wildcards; ties by index.
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  const auto rank = [&](int u) {
    const query::QueryNode& qn = query_.node(u);
    const int group = !qn.wildcard ? 0 : qn.type_name.empty() ? 2 : 1;
    return std::make_tuple(group, group == 0 ? pools[u].size() : 0, u);
  };
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return rank(a) < rank(b); });

  std::vector<bool> built(n, false);
  std::vector<NodeId> support_scratch;
  // The support set query node y offers now: its list once built, else
  // what it offers before (nullptr: every node).
  const auto support = [&](int y) -> const std::vector<NodeId>* {
    if (!built[y]) return untyped(y) ? nullptr : &pools[y];
    support_scratch.clear();
    for (const ScoredCandidate& c : candidates_[y]) {
      support_scratch.push_back(c.node);
    }
    return &support_scratch;
  };
  // Keeps the entries of `items` with a graph neighbour in y's support.
  const auto keep_supported = [&](auto& items, auto node_of, int y) {
    size_t degree_sum = 0;
    for (const auto& item : items) degree_sum += graph_.Degree(node_of(item));
    const SupportTest test(graph_, injective, support(y), degree_sum);
    const size_t before = items.size();
    std::erase_if(items,
                  [&](const auto& item) { return !test(node_of(item)); });
    return items.size() != before;
  };
  const auto node_of_candidate = [](const ScoredCandidate& c) {
    return c.node;
  };
  // A connected query has no match once one list is empty: every list is
  // then empty, and the lists not built yet are never scored.
  const bool stop_on_empty = query_.IsConnected();
  bool empty = false;
  // A cancellation leaves the lists built so far (a bulk score it cut
  // short set truncated_ already) and the rest empty.
  bool cancelled = false;
  const auto stop = [&] {
    cancelled = cancelled || (cancel_ != nullptr && cancel_->ShouldStop());
    truncated_ = truncated_ || cancelled;
    return cancelled;
  };

  for (const int u : order) {
    if (stop()) break;
    // Built neighbours first: their lists filter hardest.
    std::vector<int> neighbours;
    for (const bool pass : {true, false}) {
      for (const int e : query_.IncidentEdges(u)) {
        const int y = query_.OtherEnd(e, u);
        if (built[y] == pass) neighbours.push_back(y);
      }
    }
    CandidateList& out = candidates_[u];
    if (untyped(u)) {
      if (config_.wildcard_node_score >= config_.node_threshold) {
        // Every node, filtered: the first neighbour's support that is not
        // every node gives the nodes adjacent to it, in id order.
        std::vector<NodeId> nodes;
        const auto first =
            std::find_if(neighbours.begin(), neighbours.end(),
                         [&](int y) { return built[y] || !untyped(y); });
        if (first != neighbours.end()) {
          nodes = AdjacentNodes(graph_, injective, *support(*first));
          neighbours.erase(first);
        } else {
          nodes.resize(graph_.node_count());
          std::iota(nodes.begin(), nodes.end(), NodeId{0});
        }
        for (const int y : neighbours) {
          keep_supported(nodes, [](NodeId v) { return v; }, y);
        }
        out.reserve(nodes.size());
        for (const NodeId v : nodes) {
          out.push_back({v, config_.wildcard_node_score});
        }
        scored_[u] = {true, config_.wildcard_node_score,
                      config_.wildcard_node_score, graph_.node_count()};
      } else {
        scored_[u].scored = true;
      }
    } else if (config_.max_candidates > 0 &&
               pools[u].size() > config_.max_candidates) {
      // A pool that can fill max_candidates: which nodes make the cut
      // depends on the whole pool, so it is scored and cut first, then
      // filtered.
      ScoreList(u, pools[u], shares[u], &out);
      scored_[u] = Digest(out);
      for (const int y : neighbours) keep_supported(out, node_of_candidate, y);
    } else {
      // Nothing is cut, so a pool node without support can be dropped
      // before it is scored; the digest's top covers it by its bound.
      std::vector<NodeId>& pool = pools[u];
      std::vector<uint8_t>& facts = shares[u];
      std::vector<uint8_t> keep(pool.size(), 1);
      for (const int y : neighbours) {
        size_t degree_sum = 0;
        for (size_t i = 0; i < pool.size(); ++i) {
          if (keep[i]) degree_sum += graph_.Degree(pool[i]);
        }
        const SupportTest test(graph_, injective, support(y), degree_sum);
        for (size_t i = 0; i < pool.size(); ++i) {
          if (keep[i] && !test(pool[i])) keep[i] = 0;
        }
      }
      double dropped_cap = 0.0;
      std::optional<NodeBoundMemo> node_bound;
      size_t kept = 0;
      for (size_t i = 0; i < pool.size(); ++i) {
        const bool fact = facts.empty() || facts[i] != 0;
        if (!keep[i]) {
          if (query_.node(u).wildcard) {
            dropped_cap = config_.wildcard_node_score;
            continue;
          }
          if (!node_bound) {
            node_bound.emplace(ensemble_, prepared_store_[prepared_idx_[u]]);
          }
          dropped_cap = std::max(
              dropped_cap, NodeCap(graph_, index_, *node_bound, pool[i], fact));
          continue;
        }
        pool[kept] = pool[i];
        if (!facts.empty()) facts[kept] = facts[i];
        ++kept;
      }
      pool.resize(kept);
      if (!facts.empty()) facts.resize(kept);
      ScoreList(u, pool, facts, &out);
      scored_[u] = Digest(out);
      scored_[u].top_score = std::max(scored_[u].top_score, dropped_cap);
    }
    built[u] = true;
    if (out.empty() && stop_on_empty) {
      empty = true;
      break;
    }
  }

  // Arc consistency. An arc (u, e) filters u's list against the list at
  // e's other end. A list built before its neighbour was filtered against
  // the neighbour's pool, so that arc is queued; a list that shrinks
  // queues the arcs into it from its other neighbours.
  if (!empty && !cancelled) {
    const auto arc_id = [&](int u, int e) {
      return 2 * static_cast<size_t>(e) + (query_.edge(e).u == u ? 0 : 1);
    };
    std::vector<size_t> position(n);
    for (int i = 0; i < n; ++i) position[order[i]] = static_cast<size_t>(i);
    std::deque<std::pair<int, int>> arcs;
    std::vector<uint8_t> queued(2 * static_cast<size_t>(query_.edge_count()),
                                0);
    const auto push = [&](int u, int e) {
      uint8_t& q = queued[arc_id(u, e)];
      if (q) return;
      q = 1;
      arcs.emplace_back(u, e);
    };
    for (int e = 0; e < query_.edge_count(); ++e) {
      const int a = query_.edge(e).u;
      const int b = query_.edge(e).v;
      push(position[a] <= position[b] ? a : b, e);
    }
    while (!arcs.empty() && !stop()) {
      const auto [u, e] = arcs.front();
      arcs.pop_front();
      queued[arc_id(u, e)] = 0;
      if (!keep_supported(candidates_[u], node_of_candidate,
                          query_.OtherEnd(e, u))) {
        continue;
      }
      if (candidates_[u].empty() && stop_on_empty) {
        empty = true;
        break;
      }
      for (const int f : query_.IncidentEdges(u)) {
        if (f != e) push(query_.OtherEnd(f, u), f);
      }
    }
  }
  if (empty) {
    for (int u = 0; u < n; ++u) candidates_[u].clear();
  }
  for (int u = 0; u < n; ++u) candidates_ready_[u] = true;
}

double QueryScorer::CandidateScore(int query_node, graph::NodeId v) const {
  const query::QueryNode& qn = query_.node(query_node);
  if (config_.d >= 2 && qn.wildcard && qn.type_name.empty()) {
    // The list is all of V, or empty under the threshold.
    return config_.wildcard_node_score >= config_.node_threshold
               ? config_.wildcard_node_score
               : -1.0;
  }
  const int slot = list_rep_[query_node];
  if (!candidate_scores_ready_[slot]) {
    Candidates(query_node);
    BuildCandidateScoreTable(slot);
  }
  // An absent v (kInvalidNode too) ends at an empty slot, which reads -1.
  const CandidateScoreTable& table = candidate_scores_[slot];
  return table.slots[table.Probe(v)].score;
}

void QueryScorer::BuildCandidateScoreTable(int slot) const {
  const CandidateList& list = candidates_[slot];
  CandidateScoreTable& table = candidate_scores_[slot];
  size_t capacity = 2;
  table.shift = 63;
  while (capacity < 2 * list.size()) {
    capacity *= 2;
    --table.shift;
  }
  table.slots.assign(capacity, CandidateSlot{});
  for (const ScoredCandidate& c : list) {
    CandidateSlot& entry = table.slots[table.Probe(c.node)];
    // A repeated node keeps its first score.
    if (entry.node == graph::kInvalidNode) entry = {c.node, c.score};
  }
  candidate_scores_ready_[slot] = true;
}

double QueryScorer::RelationScore(int query_edge, uint32_t relation) const {
  if (query_.edge(query_edge).wildcard_relation) return 1.0;
  return RelationScoresAll(query_edge)[relation];
}

const std::vector<double>& QueryScorer::RelationScoresAll(
    int query_edge) const {
  query_edge = edge_rep_[query_edge];
  auto& table = relation_table_[query_edge];
  if (relation_table_ready_[query_edge]) return table;
  const query::QueryEdge& qe = query_.edge(query_edge);
  if (!qe.wildcard_relation) {
    // F_E is Eq. 1 on relation labels: the batch kernel in exact mode
    // returns Score()'s bits. No KernelStats, so the F_N counters do not
    // count relation evaluations.
    const auto prepared = ensemble_.Prepare(qe.relation);
    const uint32_t count = static_cast<uint32_t>(graph_.relation_count());
    table.resize(count);
    constexpr uint32_t kLanes = SimilarityEnsemble::kBatchLanes;
    std::string_view names[kLanes];
    for (uint32_t r = 0; r < count; r += kLanes) {
      const uint32_t lanes = std::min(kLanes, count - r);
      for (uint32_t l = 0; l < lanes; ++l) {
        names[l] = graph_.RelationName(r + l);
      }
      ensemble_.ScoreBatchAgainstThreshold(
          prepared, names, lanes, SimilarityEnsemble::kNoThreshold,
          /*query_type=*/-1, /*data_types=*/nullptr, table.data() + r);
    }
  }
  relation_table_ready_[query_edge] = true;
  return table;
}

double QueryScorer::PathDecay(int hops) const {
  return std::pow(config_.lambda, hops - 1);
}

double QueryScorer::MaxEdgeScore(int query_edge) const {
  double best = MaxRelationScore(query_edge);
  if (config_.d >= 2) best = std::max(best, config_.lambda);
  return best;
}

double QueryScorer::MaxRelationScore(int query_edge) const {
  const query::QueryEdge& qe = query_.edge(query_edge);
  if (qe.wildcard_relation) return 1.0;
  query_edge = edge_rep_[query_edge];
  if (max_relation_ready_[query_edge]) return max_relation_score_[query_edge];
  max_relation_ready_[query_edge] = true;
  double best = 0.0;
  for (uint32_t r = 0; r < graph_.relation_count(); ++r) {
    best = std::max(best, RelationScore(query_edge, r));
    if (best >= 1.0) break;
  }
  max_relation_score_[query_edge] = best;
  return best;
}

const std::unordered_map<graph::NodeId, int>& QueryScorer::WalkBall(
    graph::NodeId a) const {
  auto it = walk_ball_cache_.find(a);
  if (it != walk_ball_cache_.end()) return it->second;
  if (walk_ball_pairs_ > kWalkBallCacheLimit) {
    walk_ball_cache_.clear();
    walk_ball_pairs_ = 0;
  }
  auto& ball = walk_ball_cache_[a];
  const int d = config_.d;
  if (d < 2) return ball;
  // W_1 = N(a); W_h = N(W_{h-1}); record each node's first h >= 2.
  // Frontier dedup uses the epoch-stamped flat mark array: one epoch per
  // BFS layer (walk semantics: a node seen at layer h may legitimately
  // reappear at a later layer), no per-call hash maps.
  if (walk_mark_.size() != graph_.node_count()) {
    walk_mark_.assign(graph_.node_count(), 0);
    walk_epoch_ = 0;
  }
  if (walk_epoch_ >
      std::numeric_limits<uint32_t>::max() - static_cast<uint32_t>(d) - 2) {
    std::fill(walk_mark_.begin(), walk_mark_.end(), 0);
    walk_epoch_ = 0;
  }
  walk_layer_.clear();
  ++walk_epoch_;
  for (const auto& nb : graph_.Neighbors(a)) {
    if (walk_mark_[nb.node] != walk_epoch_) {
      walk_mark_[nb.node] = walk_epoch_;
      walk_layer_.push_back(nb.node);
    }
  }
  for (int h = 2; h <= d && !walk_layer_.empty(); ++h) {
    walk_next_.clear();
    ++walk_epoch_;
    for (const graph::NodeId x : walk_layer_) {
      for (const auto& nb : graph_.Neighbors(x)) {
        if (walk_mark_[nb.node] != walk_epoch_) {
          walk_mark_[nb.node] = walk_epoch_;
          walk_next_.push_back(nb.node);
          ball.try_emplace(nb.node, h);  // keeps the smallest h
        }
      }
    }
    std::swap(walk_layer_, walk_next_);
  }
  walk_ball_pairs_ += ball.size();
  return ball;
}

int QueryScorer::FirstWalkLength(graph::NodeId a, graph::NodeId b) const {
  const auto& ball = WalkBall(a);
  const auto it = ball.find(b);
  return it == ball.end() ? 0 : it->second;
}

double QueryScorer::PairEdgeScore(int query_edge, graph::NodeId a,
                                  graph::NodeId b) const {
  if (pair_edge_cache_.empty()) pair_edge_cache_.resize(query_.edge_count());
  query_edge = edge_rep_[query_edge];
  // Normalize the symmetric key.
  graph::NodeId lo = a, hi = b;
  if (lo > hi) std::swap(lo, hi);
  const uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
  auto& cache = pair_edge_cache_[query_edge];
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  double best = -1.0;
  // Direct edges (h = 1): relation similarity.
  const graph::NodeId scan = graph_.Degree(a) <= graph_.Degree(b) ? a : b;
  const graph::NodeId other = scan == a ? b : a;
  for (const auto& nb : graph_.Neighbors(scan)) {
    if (nb.node != other) continue;
    const double rel = RelationScore(query_edge, nb.relation);
    if (rel >= config_.edge_threshold) best = std::max(best, rel);
  }
  // Multi-hop walk (smallest h in [2, d]); walks are symmetric, so query
  // the cheaper endpoint's ball.
  if (config_.d >= 2) {
    const int h = FirstWalkLength(scan, other);
    if (h > 0) {
      const double decay = PathDecay(h);
      if (decay >= config_.edge_threshold) best = std::max(best, decay);
    }
  }
  cache.emplace(key, best);
  return best;
}

double QueryScorer::ScoreUpperBound() const {
  double ub = 0.0;
  for (int u = 0; u < query_.node_count(); ++u) {
    ub += query_.node(u).wildcard ? config_.wildcard_node_score : 1.0;
  }
  for (int e = 0; e < query_.edge_count(); ++e) ub += MaxEdgeScore(e);
  return ub;
}

}  // namespace star::scoring
