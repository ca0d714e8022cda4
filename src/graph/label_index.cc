#include "graph/label_index.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "text/ensemble.h"

namespace star::graph {

namespace {

/// Calls `fn(gram)` for every character trigram of `low` (an
/// already-lowercased token), as string_views into `low` — the same gram
/// multiset text::CharNGrams(low, 3) materializes, without the per-gram
/// string allocations.
template <typename Fn>
void ForEachTrigram(std::string_view low, Fn&& fn) {
  if (low.size() < 3) {
    if (!low.empty()) fn(low);
    return;
  }
  for (size_t i = 0; i + 3 <= low.size(); ++i) fn(low.substr(i, 3));
}

/// Trigram count of `low` under the ForEachTrigram/CharNGrams convention.
size_t TrigramCount(std::string_view low) {
  if (low.size() < 3) return low.empty() ? 0 : 1;
  return low.size() - 2;
}

template <typename T>
size_t VecBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
size_t VecSlack(const std::vector<T>& v) {
  return (v.capacity() - v.size()) * sizeof(T);
}

constexpr uint32_t kEmptySlot = static_cast<uint32_t>(-1);

}  // namespace

void LabelIndex::FlatDict::Build(const std::vector<std::string>& sorted_terms) {
  size_t pool_size = 0;
  for (const std::string& t : sorted_terms) pool_size += t.size();
  pool_.reserve(pool_size);
  offsets_.reserve(sorted_terms.size() + 1);
  offsets_.push_back(0);
  for (const std::string& t : sorted_terms) {
    pool_.append(t);
    offsets_.push_back(static_cast<uint32_t>(pool_.size()));
  }
  pool_.shrink_to_fit();
  // Open addressing at load factor <= 0.5 (power-of-two capacity).
  size_t cap = 2;
  while (cap < sorted_terms.size() * 2) cap <<= 1;
  probe_.assign(cap, kEmptySlot);
  mask_ = static_cast<uint32_t>(cap - 1);
  for (uint32_t id = 0; id < sorted_terms.size(); ++id) {
    uint32_t h = static_cast<uint32_t>(
                     std::hash<std::string_view>{}(Term(id))) &
                 mask_;
    while (probe_[h] != kEmptySlot) h = (h + 1) & mask_;
    probe_[h] = id;
  }
}

int64_t LabelIndex::FlatDict::Find(std::string_view term) const {
  if (probe_.empty()) return -1;
  uint32_t h =
      static_cast<uint32_t>(std::hash<std::string_view>{}(term)) & mask_;
  while (true) {
    const uint32_t slot = probe_[h];
    if (slot == kEmptySlot) return -1;
    if (Term(slot) == term) return slot;
    h = (h + 1) & mask_;
  }
}

size_t LabelIndex::FlatDict::ByteSize() const {
  return pool_.capacity() + VecBytes(offsets_) + VecBytes(probe_);
}

size_t LabelIndex::FlatDict::Slack() const {
  return (pool_.capacity() - pool_.size()) + VecSlack(offsets_) +
         VecSlack(probe_);
}

void LabelIndex::PostingsStore::Append(const std::vector<uint32_t>& ids) {
  counts_.push_back(counts_.back() + static_cast<uint32_t>(ids.size()));
  ids_.insert(ids_.end(), ids.begin(), ids.end());
}

void LabelIndex::PostingsStore::Finish() {
  counts_.shrink_to_fit();
  ids_.shrink_to_fit();
}

size_t LabelIndex::PostingsStore::ByteSize() const {
  return VecBytes(counts_) + VecBytes(ids_);
}

size_t LabelIndex::PostingsStore::Slack() const {
  return VecSlack(counts_) + VecSlack(ids_);
}

LabelIndex::LabelIndex(const KnowledgeGraph& g)
    : node_count_(g.node_count()) {
  // Pass 0: per-node O(1) label facts — the inputs of the retrieval
  // bound, recorded with the SAME predicate the scoring kernel's caps use
  // (text::LooksNumeric) so a node's cap provably dominates its kernel
  // score.
  node_len_.reserve(g.node_count());
  node_numeric_.reserve(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::string_view label = g.NodeLabel(v);
    node_len_.push_back(static_cast<uint32_t>(label.size()));
    node_numeric_.push_back(text::LooksNumeric(label) ? 1 : 0);
  }

  // Pass 1: collect per-token and per-type postings (ascending node ids,
  // adjacent-deduplicated) into transient containers.
  std::unordered_map<std::string, std::vector<NodeId>, TransparentStringHash,
                     std::equal_to<>>
      tok_map;
  std::vector<std::vector<NodeId>> type_lists(g.type_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    for (const auto& token : SplitTokens(ToLower(g.NodeLabel(v)))) {
      auto& postings = tok_map[token];
      if (postings.empty() || postings.back() != v) postings.push_back(v);
    }
    const int32_t t = g.NodeType(v);
    if (t >= 0) type_lists[t].push_back(v);
  }

  // Pass 2: freeze into the sorted dictionary + arena. Token id == lex
  // rank, so trigram postings built in id order are already ascending.
  std::vector<std::string> terms;
  terms.reserve(tok_map.size());
  for (const auto& [token, postings] : tok_map) terms.push_back(token);
  std::sort(terms.begin(), terms.end());
  token_dict_.Build(terms);
  for (const std::string& term : terms) {
    token_postings_.Append(tok_map.find(std::string_view(term))->second);
  }
  token_postings_.Finish();

  std::unordered_map<std::string, std::vector<uint32_t>, TransparentStringHash,
                     std::equal_to<>>
      tri_map;
  for (uint32_t id = 0; id < terms.size(); ++id) {
    ForEachTrigram(terms[id], [&](std::string_view gram) {
      auto it = tri_map.find(gram);
      if (it == tri_map.end()) {
        it = tri_map.emplace(std::string(gram), std::vector<uint32_t>()).first;
      }
      auto& ids = it->second;
      if (ids.empty() || ids.back() != id) ids.push_back(id);
    });
  }
  std::vector<std::string> grams;
  grams.reserve(tri_map.size());
  for (const auto& [gram, ids] : tri_map) grams.push_back(gram);
  std::sort(grams.begin(), grams.end());
  trigram_dict_.Build(grams);
  for (const std::string& gram : grams) {
    trigram_postings_.Append(tri_map.find(std::string_view(gram))->second);
  }
  trigram_postings_.Finish();

  for (const auto& list : type_lists) type_postings_.Append(list);
  type_postings_.Finish();
  node_len_.shrink_to_fit();
  node_numeric_.shrink_to_fit();
}

std::vector<uint32_t> LabelIndex::RankedFuzzyTokenIds(
    std::string_view token, double min_overlap) const {
  // All probe scratch is thread_local (the PR 4 pattern): fuzzy expansion
  // runs on every unknown query token, and per-call map/vector churn was
  // the remaining allocation in this path.
  static thread_local std::string low;
  static thread_local std::unordered_map<uint32_t, size_t> hits;
  static thread_local std::vector<std::pair<size_t, uint32_t>> ranked;
  ToLowerInto(token, &low);
  std::vector<uint32_t> out;
  const size_t gram_count = TrigramCount(low);
  if (gram_count == 0) return out;
  hits.clear();
  ForEachTrigram(low, [&](std::string_view gram) {
    const int64_t gid = trigram_dict_.Find(gram);
    if (gid < 0) return;
    for (const uint32_t id : trigram_postings_.Ids(static_cast<size_t>(gid))) {
      ++hits[id];
    }
  });
  const size_t needed = std::max<size_t>(
      1,
      static_cast<size_t>(min_overlap * static_cast<double>(gram_count)));
  // Cap the expansion to the best-overlapping tokens so that one typo'd
  // token cannot flood retrieval with half the vocabulary. Ties break on
  // token id asc (== lexicographic, ids are lex ranks): a total order, so
  // the cap cut is deterministic.
  constexpr size_t kMaxExpansion = 8;
  ranked.clear();
  for (const auto& [id, count] : hits) {
    if (count >= needed) ranked.emplace_back(count, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (ranked.size() > kMaxExpansion) ranked.resize(kMaxExpansion);
  out.reserve(ranked.size());
  for (const auto& [count, id] : ranked) out.push_back(id);
  return out;
}

std::vector<uint32_t> LabelIndex::FuzzyTokenIds(std::string_view token,
                                                double min_overlap) const {
  std::vector<uint32_t> out = RankedFuzzyTokenIds(token, min_overlap);
  // Ascending ids == lexicographic token order; retrieval iterates (and
  // FP-sums) expansions in this order.
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> LabelIndex::FuzzyTokens(std::string_view token,
                                                 double min_overlap) const {
  std::vector<std::string> out;
  for (const uint32_t id : FuzzyTokenIds(token, min_overlap)) {
    out.emplace_back(token_dict_.Term(id));
  }
  return out;
}

std::string LabelIndex::BestFuzzyToken(std::string_view token,
                                       double min_overlap) const {
  const std::vector<uint32_t> ranked = RankedFuzzyTokenIds(token, min_overlap);
  if (ranked.empty()) return std::string();
  return std::string(token_dict_.Term(ranked.front()));
}

std::vector<NodeId> LabelIndex::CandidatesByLabel(
    std::string_view label) const {
  static thread_local std::string low;
  static thread_local std::vector<std::string> toks;
  ToLowerInto(label, &low);
  SplitTokensInto(low, &toks);
  std::vector<NodeId> out;
  const auto append = [&](size_t token_id) {
    const auto ids = token_postings_.Ids(token_id);
    out.insert(out.end(), ids.begin(), ids.end());
  };
  for (const auto& token : toks) {
    const int64_t id = token_dict_.Find(token);
    if (id >= 0) {
      append(static_cast<size_t>(id));
      continue;
    }
    // Unknown token: fuzzy trigram expansion (typos, morphology).
    for (const uint32_t similar : FuzzyTokenIds(token, 0.5)) append(similar);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<NodeId> LabelIndex::CandidatesByType(int32_t type) const {
  if (type < 0 || static_cast<size_t>(type) >= type_postings_.lists()) {
    return {};
  }
  const auto ids = type_postings_.Ids(static_cast<size_t>(type));
  return {ids.begin(), ids.end()};
}

std::vector<NodeId> LabelIndex::Candidates(std::string_view label,
                                           int32_t type) const {
  std::vector<NodeId> out = CandidatesByLabel(label);
  if (type >= 0) {
    const auto by_type = CandidatesByType(type);
    out.insert(out.end(), by_type.begin(), by_type.end());
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
  return out;
}

std::vector<NodeId> LabelIndex::RankedCandidates(
    std::string_view label, int32_t type, size_t cap,
    std::vector<uint8_t>* shares_token) const {
  static thread_local std::string low;
  static thread_local std::vector<std::string> toks;
  // Node-indexed accumulator scratch, thread_local like the probe scratch
  // above and left all-zero on every exit: weight[v] sums v's rarity
  // weights in list order, mark[v] flags v as touched (kTouched) and as a
  // member of an exact query token's postings (kExact), and `touched`
  // lists the marked ids in first-touch order.
  constexpr uint8_t kTouched = 1, kExact = 2;
  static thread_local std::vector<double> weight;
  static thread_local std::vector<uint8_t> mark;
  static thread_local std::vector<NodeId> touched;
  if (weight.size() < node_count_) {
    weight.resize(node_count_, 0.0);
    mark.resize(node_count_, 0);
  }
  ToLowerInto(label, &low);
  SplitTokensInto(low, &toks);
  touched.clear();
  const double n = static_cast<double>(std::max<size_t>(1, node_count_));
  const auto add_store = [&](const PostingsStore& store, size_t i,
                             double scale, uint8_t flags) {
    const auto ids = store.Ids(i);
    if (ids.empty()) return;
    const double w =
        scale * std::log(1.0 + n / static_cast<double>(ids.size()));
    for (const uint32_t v : ids) {
      if (mark[v] == 0) touched.push_back(v);
      mark[v] |= flags;
      weight[v] += w;
    }
  };
  for (const auto& token : toks) {
    const int64_t id = token_dict_.Find(token);
    if (id >= 0) {
      add_store(token_postings_, static_cast<size_t>(id), 1.0,
                kTouched | kExact);
      continue;
    }
    for (const uint32_t similar : FuzzyTokenIds(token, 0.5)) {
      add_store(token_postings_, similar, 0.5, kTouched);
    }
  }
  if (type >= 0 && static_cast<size_t>(type) < type_postings_.lists()) {
    add_store(type_postings_, static_cast<size_t>(type), 1e-3, kTouched);
  }

  if (cap > 0 && touched.size() > cap) {
    // Deterministic truncation on the total order (rarity-weight desc,
    // node id asc): ties at the cap boundary always retain the smallest
    // ids. Only the cut needs the order, so select it, then clear the
    // scratch of the ids that fall off.
    const auto better = [](NodeId a, NodeId b) {
      return weight[a] > weight[b] || (weight[a] == weight[b] && a < b);
    };
    std::nth_element(touched.begin(),
                     touched.begin() + static_cast<ptrdiff_t>(cap - 1),
                     touched.end(), better);
    for (size_t i = cap; i < touched.size(); ++i) {
      weight[touched[i]] = 0.0;
      mark[touched[i]] = 0;
    }
    touched.resize(cap);
  }
  std::sort(touched.begin(), touched.end());
  std::vector<NodeId> out(touched.begin(), touched.end());
  if (shares_token != nullptr) shares_token->resize(out.size());
  for (size_t i = 0; i < out.size(); ++i) {
    const NodeId v = out[i];
    if (shares_token != nullptr) {
      (*shares_token)[i] = (mark[v] & kExact) != 0 ? 1 : 0;
    }
    weight[v] = 0.0;
    mark[v] = 0;
  }
  return out;
}

std::vector<NodeId> LabelIndex::Postings(std::string_view token) const {
  static thread_local std::string low;
  ToLowerInto(token, &low);
  const int64_t id = token_dict_.Find(low);
  if (id < 0) return {};
  const auto ids = token_postings_.Ids(static_cast<size_t>(id));
  return {ids.begin(), ids.end()};
}

IndexFootprint LabelIndex::MemoryFootprint() const {
  IndexFootprint f;
  f.token_bytes = token_dict_.ByteSize();
  f.postings_bytes = token_postings_.ByteSize();
  f.type_bytes = type_postings_.ByteSize();
  f.trigram_bytes = trigram_dict_.ByteSize() + trigram_postings_.ByteSize();
  f.capacity_slack = token_dict_.Slack() + token_postings_.Slack() +
                     type_postings_.Slack() + trigram_dict_.Slack() +
                     trigram_postings_.Slack();
  return f;
}

}  // namespace star::graph
