#include "scoring/query_scorer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <numeric>
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
      node_cache_(q.node_count()),
      candidates_ready_(q.node_count(), false),
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
  auto& cache = node_cache_[node_rep_[query_node]];
  const auto it = cache.find(v);
  if (it != cache.end()) return it->second;
  ++node_evals_;
  // One lane of the batch kernel in exact mode: Score()'s bits.
  const std::string_view label = graph_.NodeLabel(v);
  const int32_t gt = graph_.NodeType(v);
  const int data_type = gt >= 0 ? graph_type_onto_type_[gt] : -1;
  double s = 0.0;
  ensemble_.ScoreBatchAgainstThreshold(
      prepared_store_[prepared_idx_[query_node]], &label, 1,
      SimilarityEnsemble::kNoThreshold, query_node_onto_type_[query_node],
      &data_type, &s, &kernel_stats_);
  cache.emplace(v, s);
  return s;
}

std::vector<double> QueryScorer::BulkScore(
    int query_node, const std::vector<graph::NodeId>& nodes, double threshold,
    const uint8_t* shares_token) const {
  std::vector<double> scores(nodes.size());
  CancelChecker cancel_check(cancel_);
  const query::QueryNode& qn = query_.node(query_node);
  if (qn.wildcard) {
    // Wildcard scoring is a type check or a constant: NodeScore never
    // touches the memo for wildcards.
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
  auto& cache = node_cache_[node_rep_[query_node]];
  // miss[i] is set once scores[i] was computed by this call (memo misses
  // only), and only after the score landed, so a cancellation that drops
  // gathered-but-unflushed lanes can never let the merge below memoize an
  // unscored 0.0; the rest stay 0.0, below any positive threshold.
  std::vector<uint8_t> miss(nodes.size(), 0);

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
      miss[lane_index[l]] = 1;
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
    const auto it = cache.find(v);
    if (it != cache.end()) {
      scores[i] = it->second;
      continue;
    }
    const std::string_view label = graph_.NodeLabel(v);
    const int32_t gt = graph_.NodeType(v);
    const int data_type = gt >= 0 ? graph_type_onto_type_[gt] : -1;
    if (const double* dup = seen.Find(label, data_type)) {
      scores[i] = *dup;
      miss[i] = 1;
      continue;
    }
    lane_labels[lanes] = label;
    lane_types[lanes] = data_type;
    lane_shares[lanes] = shares_token != nullptr ? shares_token[i] : 1;
    lane_index[lanes] = i;
    if (++lanes == kLanes) flush();
  }
  flush();
  // Memo merge: memoize exactly the entries NodeScore would have cached
  // (emplace keeps the first value on duplicates) — except sub-threshold
  // results, which may be truncated upper bounds rather than exact F_N
  // values and therefore must not be cached.
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (!miss[i]) continue;
    if (threshold >= 0.0 && scores[i] < threshold) continue;
    if (cache.emplace(nodes[i], scores[i]).second) ++node_evals_;
  }
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
    pool = config_.max_retrieval > 0
               ? index_->RankedCandidates(qn.label, gt, config_.max_retrieval,
                                          shares_token)
               : index_->Candidates(qn.label, gt);
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
    // Index facts when available; otherwise the no-index fallback derives
    // the same two facts from the label.
    double cap;
    if (index_ != nullptr) {
      cap = node_bound(index_->NodeLabelLength(v), index_->NodeLooksNumeric(v),
                       shares);
    } else {
      const std::string_view label = graph_.NodeLabel(v);
      cap = node_bound(label.size(), text::LooksNumeric(label), shares);
    }
    order.push_back({cap, v, static_cast<uint8_t>(shares ? 1 : 0)});
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

const CandidateList& QueryScorer::Candidates(int query_node) const {
  // All reads and writes go through the signature representative: query
  // nodes sharing (wildcard, type, label) retrieve and score one shared
  // list (see node_rep_ in the header).
  query_node = node_rep_[query_node];
  if (candidates_ready_[query_node]) return candidates_[query_node];
  auto& out = candidates_[query_node];

  // Cancelled requests skip retrieval + scoring outright. The list is NOT
  // marked ready (the empty result is never memoized as definitive) and the
  // truncation is recorded so the run as a whole reports itself partial.
  if (cancel_ != nullptr && cancel_->ShouldStop()) {
    truncated_ = true;
    return out;
  }
  candidates_ready_[query_node] = true;

  std::vector<uint8_t> shares_token;
  const std::vector<NodeId> pool = RetrievalPool(query_node, &shares_token);
  if (!query_.node(query_node).wildcard) {
    // Bound-driven retrieval (DESIGN.md "Bound-driven retrieval"): walk the
    // pool in descending upper-bound order and skip everything that
    // provably cannot reach the running max_candidates-th score.
    PrunedRetrievePool(query_node, pool, shares_token, &out);
    out.shrink_to_fit();
    return out;
  }

  // Wildcards have no label bound: their F_N is a type check or a
  // constant, so the whole pool is scored and cut. (score desc, node asc)
  // is a total order, so the cut is the full sort's prefix — and
  // nth_element + prefix sort beats partial_sort's heap pass on an
  // untyped wildcard's O(|V|) pool.
  const std::vector<double> scores =
      BulkScore(query_node, pool, config_.node_threshold);
  for (size_t i = 0; i < pool.size(); ++i) {
    if (scores[i] >= config_.node_threshold) out.push_back({pool[i], scores[i]});
  }
  if (config_.max_candidates > 0 && out.size() > config_.max_candidates) {
    const auto kth =
        out.begin() + static_cast<ptrdiff_t>(config_.max_candidates);
    std::nth_element(out.begin(), kth - 1, out.end(), BetterCandidate);
    std::sort(out.begin(), kth, BetterCandidate);
    out.resize(config_.max_candidates);
  } else {
    std::sort(out.begin(), out.end(), BetterCandidate);
  }
  out.shrink_to_fit();
  return out;
}

void QueryScorer::SeedCandidates(int query_node,
                                 const std::vector<ScoredCandidate>& list) const {
  query_node = node_rep_[query_node];
  if (candidates_ready_[query_node]) return;
  candidates_[query_node].assign(list.begin(), list.end());
  candidates_ready_[query_node] = true;
}

const CandidateList* QueryScorer::CandidatesIfReady(int query_node) const {
  query_node = node_rep_[query_node];
  return candidates_ready_[query_node] ? &candidates_[query_node] : nullptr;
}

double QueryScorer::CandidateScore(int query_node, graph::NodeId v) const {
  const query::QueryNode& qn = query_.node(query_node);
  if (qn.wildcard && qn.type_name.empty()) {
    return config_.wildcard_node_score;
  }
  query_node = node_rep_[query_node];
  if (!candidate_scores_ready_[query_node]) {
    BuildCandidateScoreTable(query_node);
  }
  // An absent v (kInvalidNode too) ends at an empty slot, which reads -1.
  const CandidateScoreTable& table = candidate_scores_[query_node];
  return table.slots[table.Probe(v)].score;
}

void QueryScorer::BuildCandidateScoreTable(int rep) const {
  const CandidateList& list = Candidates(rep);
  CandidateScoreTable& table = candidate_scores_[rep];
  size_t capacity = 2;
  table.shift = 63;
  while (capacity < 2 * list.size()) {
    capacity *= 2;
    --table.shift;
  }
  table.slots.assign(capacity, CandidateSlot{});
  for (const ScoredCandidate& c : list) {
    CandidateSlot& slot = table.slots[table.Probe(c.node)];
    // A repeated node keeps its first score.
    if (slot.node == graph::kInvalidNode) slot = {c.node, c.score};
  }
  candidate_scores_ready_[rep] = true;
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

double QueryScorer::EdgeScore(int query_edge, uint32_t direct_relation,
                              int hops) const {
  if (hops <= 1) return RelationScore(query_edge, direct_relation);
  return PathDecay(hops);
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
