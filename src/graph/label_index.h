#ifndef STAR_GRAPH_LABEL_INDEX_H_
#define STAR_GRAPH_LABEL_INDEX_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "graph/knowledge_graph.h"

namespace star::graph {

/// Resident-byte report of one LabelIndex (perfbench adds it to the
/// graph's for graph.footprint_mb). `capacity_slack` sums unused heap
/// bytes across all owned arrays — the build shrinks everything, so it
/// stays 0.
struct IndexFootprint {
  size_t token_bytes = 0;     ///< token dictionary (pool + offsets + probe)
  size_t postings_bytes = 0;  ///< token postings arena
  size_t type_bytes = 0;      ///< per-type postings arena
  size_t trigram_bytes = 0;   ///< trigram dictionary + token-id postings
  size_t capacity_slack = 0;

  size_t total() const {
    return token_bytes + postings_bytes + type_bytes + trigram_bytes;
  }
};

/// Inverted index from lowercased label tokens (and type ids) to node ids.
///
/// This is the "various indices" optimization of §V-A: instead of scanning
/// all of V to find candidate matches for a query node, we union the
/// postings of the query label's tokens (RankedCandidates). Matching-score
/// computation stays online (Eq. 1 is never indexed), only candidate
/// *retrieval* is.
///
/// Storage is a sorted flat token dictionary (one interned char pool,
/// hash-probe accelerated lookup) over a contiguous arena of ascending id
/// arrays, read as spans.
class LabelIndex {
 public:
  /// Builds the index over every node label of g. O(total label tokens).
  explicit LabelIndex(const KnowledgeGraph& g);

  /// Whether `token` (already lowercased) has an exact posting.
  bool HasToken(std::string_view token) const {
    return token_dict_.Find(token) >= 0;
  }

  /// The single best fuzzy correction of `token`: the indexed token with
  /// the highest trigram overlap >= min_overlap, ties broken by ascending
  /// token id (lexicographic rank — the same total order the fuzzy
  /// expansion of RankedCandidates caps by, so the correction is
  /// deterministic).
  /// Empty when nothing reaches the floor. Serve-layer typo-tolerant
  /// query rewriting resolves each unknown query token through this.
  std::string BestFuzzyToken(std::string_view token,
                             double min_overlap = 0.5) const;

  /// Nodes with exactly the given type id (typed-wildcard pools).
  std::vector<NodeId> CandidatesByType(int32_t type) const;

  /// Candidate retrieval for a labelled query node, in ascending ids: the
  /// nodes whose label shares at least one token with `label`, plus (if
  /// type >= 0) the nodes of that type. Matching ignores case and
  /// delimiters, and an empty label has no tokens. A query token with no
  /// exact posting falls back to fuzzy retrieval: the (at most 8) indexed
  /// tokens sharing the most, and at least half, of its character
  /// trigrams are expanded, ties cut by token (so "Bradd" still recalls
  /// "Brad"-labeled nodes; the ensemble then scores the match online).
  ///
  /// With a cheap relevance pre-ranking: candidates are scored by the
  /// summed rarity (idf-style log(1 + N/df)) of the query tokens they
  /// share (fuzzy-expanded tokens at half weight; type-only hits at
  /// epsilon weight) and only the best `cap` are returned (the whole union
  /// if cap == 0). This keeps the number of candidates the expensive Eq. 1
  /// ensemble must score small — the paper's "various indices" that make
  /// node matching account for <= 1% of query time.
  ///
  /// `shares_token`, when given, receives one entry per returned id: 1
  /// when the node is in the postings of an exact query token, else 0
  /// (fuzzy expansions and the type list do not count). Since the index
  /// tokenizes node labels as the ensemble does, 0 means the node's label
  /// shares no token with `label` — the retrieval fact the batch kernel's
  /// disjoint-token caps take (SimilarityEnsemble::ScoreBatchAgainstThreshold).
  std::vector<NodeId> RankedCandidates(
      std::string_view label, int32_t type, size_t cap,
      std::vector<uint8_t>* shares_token = nullptr) const;

  size_t token_count() const { return token_dict_.size(); }

  /// Resident bytes per structure (and unused capacity across them).
  IndexFootprint MemoryFootprint() const;

  /// Byte length of node v's label (the fact the per-node bound needs).
  uint32_t NodeLabelLength(NodeId v) const { return node_len_[v]; }
  /// Whether node v's label passes text::LooksNumeric.
  bool NodeLooksNumeric(NodeId v) const { return node_numeric_[v] != 0; }

 private:
  /// Sorted flat term dictionary: unique terms interned into one pool in
  /// lexicographic order (term id == lex rank), with an open-addressing
  /// probe table over the pool for hash-speed exact lookup.
  class FlatDict {
   public:
    /// Takes sorted unique terms.
    void Build(const std::vector<std::string>& sorted_terms);

    /// Term id, or -1 if absent.
    int64_t Find(std::string_view term) const;

    std::string_view Term(size_t id) const {
      return {pool_.data() + offsets_[id], offsets_[id + 1] - offsets_[id]};
    }

    size_t size() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
    size_t ByteSize() const;
    size_t Slack() const;

   private:
    std::string pool_;
    std::vector<uint32_t> offsets_;  // size + 1
    std::vector<uint32_t> probe_;    // power-of-two open addressing
    uint32_t mask_ = 0;
  };

  /// Contiguous arena of ascending id lists: list i is
  /// ids_[counts_[i], counts_[i+1]).
  class PostingsStore {
   public:
    /// Appends one strictly ascending id list.
    void Append(const std::vector<uint32_t>& ids);

    /// Number of appended lists.
    size_t lists() const { return counts_.size() - 1; }

    size_t Count(size_t i) const { return counts_[i + 1] - counts_[i]; }

    std::span<const uint32_t> Ids(size_t i) const {
      return {ids_.data() + counts_[i], Count(i)};
    }

    void Finish();  ///< shrink_to_fit all arrays
    size_t ByteSize() const;
    size_t Slack() const;

   private:
    std::vector<uint32_t> counts_{0};  // element-count prefix sums
    std::vector<uint32_t> ids_;
  };

  /// Token ids in ranked order (overlap desc, id asc, capped at the
  /// expansion limit) whose trigram overlap with `token` reaches
  /// `min_overlap`.
  std::vector<uint32_t> RankedFuzzyTokenIds(std::string_view token,
                                            double min_overlap) const;

  FlatDict token_dict_;
  PostingsStore token_postings_;
  PostingsStore type_postings_;  // one list per type id
  FlatDict trigram_dict_;
  PostingsStore trigram_postings_;  // token ids per trigram
  size_t node_count_ = 0;
  // Per-node O(1) label facts, the inputs of the per-node retrieval
  // bound: byte length and the numeric-guard flag (text::LooksNumeric).
  std::vector<uint32_t> node_len_;
  std::vector<uint8_t> node_numeric_;
};

}  // namespace star::graph

#endif  // STAR_GRAPH_LABEL_INDEX_H_
