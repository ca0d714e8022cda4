#ifndef STAR_GRAPH_LABEL_INDEX_H_
#define STAR_GRAPH_LABEL_INDEX_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "graph/csr_codec.h"
#include "graph/knowledge_graph.h"
#include "text/ensemble.h"

namespace star::graph {

/// Resident-byte report of one LabelIndex (bench_data_layout.cc compares
/// layouts). `capacity_slack` sums unused heap bytes across all owned
/// arrays — the build shrinks everything, so it stays 0.
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
/// postings of the query label's tokens. Matching-score computation stays
/// online (Eq. 1 is never indexed), only candidate *retrieval* is.
///
/// Storage is a sorted flat token dictionary (one interned char pool,
/// hash-probe accelerated lookup) over a contiguous postings arena; the
/// same `GraphLayout` knob as KnowledgeGraph selects raw id arrays (kFlat)
/// or delta-varint slices (kCompressed), decoded through
/// csr::PostingsCursor. Retrieval outputs are identical across layouts.
class LabelIndex {
 public:
  /// Builds the index over every node label of g. O(total label tokens).
  explicit LabelIndex(const KnowledgeGraph& g,
                      GraphLayout layout = GraphLayout::kFlat);

  GraphLayout layout() const { return layout_; }

  /// Nodes whose label shares at least one token with `label` (dedup'd,
  /// ascending ids). Query tokens with no exact posting fall back to
  /// fuzzy retrieval: indexed tokens sharing at least half of the query
  /// token's character trigrams are expanded (so "Bradd" still recalls
  /// "Brad"-labeled nodes; the ensemble then scores the match online).
  /// Empty query labels produce no candidates.
  std::vector<NodeId> CandidatesByLabel(std::string_view label) const;

  /// Indexed tokens sharing >= `min_overlap` of `token`'s trigrams,
  /// sorted lexicographically. The expansion cap keeps the
  /// best-overlapping tokens, ties broken lexicographically (a total
  /// order, so the result is deterministic and layout-independent).
  std::vector<std::string> FuzzyTokens(std::string_view token,
                                       double min_overlap = 0.5) const;

  /// Whether `token` (already lowercased) has an exact posting.
  bool HasToken(std::string_view token) const {
    return token_dict_.Find(token) >= 0;
  }

  /// The single best fuzzy correction of `token`: the indexed token with
  /// the highest trigram overlap >= min_overlap, ties broken by ascending
  /// token id (lexicographic rank — the same total order FuzzyTokens
  /// caps by, so the correction is deterministic and layout-independent).
  /// Empty when nothing reaches the floor. Serve-layer typo-tolerant
  /// query rewriting resolves each unknown query token through this.
  std::string BestFuzzyToken(std::string_view token,
                             double min_overlap = 0.5) const;

  /// Nodes with exactly the given type id.
  std::vector<NodeId> CandidatesByType(int32_t type) const;

  /// Union of token candidates and (if type >= 0) type candidates.
  std::vector<NodeId> Candidates(std::string_view label, int32_t type) const;

  /// Retrieval with a cheap relevance pre-ranking: candidates are scored
  /// by the summed rarity (idf-style log(1 + N/df)) of the query tokens
  /// they share (fuzzy-expanded tokens at half weight; type-only hits at
  /// epsilon weight) and only the best `cap` are returned (all of them if
  /// cap == 0). This keeps the number of candidates the expensive Eq. 1
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

  /// Posting list of one token (empty if unknown). Materialized on demand
  /// (the compressed layout has no raw array to reference).
  std::vector<NodeId> Postings(std::string_view token) const;

  size_t token_count() const { return token_dict_.size(); }

  /// Resident bytes per structure (and unused capacity across them).
  IndexFootprint MemoryFootprint() const;

  // -------------------------------------------------------------------
  // Block-max retrieval surface (bound-driven candidate generation)
  // -------------------------------------------------------------------
  //
  // The token and type postings arenas carry per-block metadata (an O(1)
  // LabelSetStats digest of every member's label, plus the compressed
  // layout's mid-list resume point) at kRetrievalBlockSize granularity.
  // scoring/query_scorer walks the blocks of the lists Candidates() would
  // union, in descending score-cap order, skipping whole blocks whose cap
  // cannot reach the running max_candidates-th score.

  /// Ids per pruning block (the block-max metadata granularity).
  static constexpr size_t kRetrievalBlockSize = 128;

  /// One postings list reference: the token arena (type_store = false) or
  /// the per-type arena (type_store = true), by list index within it.
  struct ListRef {
    bool type_store = false;
    uint32_t list = 0;
  };

  /// The postings lists Candidates(label, type) unions — exact-token
  /// lists, fuzzy trigram expansions for unknown tokens, and the type
  /// list when `type` is indexed — deduplicated, in deterministic order
  /// (token lists by ascending id, then the type list). The union of the
  /// referenced lists' members is exactly Candidates(label, type).
  std::vector<ListRef> RetrievalLists(std::string_view label,
                                      int32_t type) const;

  /// Ids in the referenced list.
  size_t ListCount(ListRef r) const { return Store(r).Count(r.list); }
  /// Blocks in the referenced list (ceil(count / kRetrievalBlockSize)).
  size_t ListBlocks(ListRef r) const { return Store(r).BlockCount(r.list); }
  /// Ids in one block (kRetrievalBlockSize except the last).
  size_t BlockSize(ListRef r, size_t b) const {
    return Store(r).BlockSize(r.list, b);
  }
  /// The block's label digest (for SimilarityEnsemble::RetrievalBlockBound).
  const text::LabelSetStats& BlockStats(ListRef r, size_t b) const {
    return Store(r).BlockAt(r.list, b).stats;
  }
  /// Cursor over one block's ids (both layouts; compressed resumes
  /// mid-list from the recorded byte offset + preceding id).
  csr::PostingsCursor BlockCursor(ListRef r, size_t b) const {
    return Store(r).BlockCursor(r.list, b);
  }

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

  /// Contiguous arena of id lists (the codec-behind-an-index idiom):
  /// list i is counts_[i]..counts_[i+1] in the flat id array, or the
  /// byte_offsets_[i] slice of the varint arena, depending on layout.
  class PostingsStore {
   public:
    static constexpr size_t kBlockSize = kRetrievalBlockSize;

    /// Per-block retrieval metadata: the label digest the block's score
    /// cap is computed from, and — compressed layout — the byte offset of
    /// the block's first varint plus the id encoded just before it (the
    /// mid-list cursor resume point; the byte stream itself is the
    /// unchanged whole-list delta encoding).
    struct Block {
      text::LabelSetStats stats;
      uint32_t byte_offset = 0;
      uint32_t prev_id = 0;
    };

    explicit PostingsStore(GraphLayout layout = GraphLayout::kFlat)
        : layout_(layout) {}

    /// Appends one strictly ascending id list. When `len` / `numeric`
    /// are given (facts indexed by id), per-kBlockSize block metadata is
    /// recorded for block-max retrieval (the token/type stores); the
    /// trigram store passes null — its ids are token ids, not nodes —
    /// and carries no block metadata.
    void Append(const std::vector<uint32_t>& ids,
                const uint32_t* len = nullptr,
                const uint8_t* numeric = nullptr);

    /// Number of appended lists.
    size_t lists() const { return counts_.size() - 1; }

    size_t Count(size_t i) const { return counts_[i + 1] - counts_[i]; }

    csr::PostingsCursor Cursor(size_t i) const {
      if (layout_ == GraphLayout::kFlat) {
        return {ids_.data() + counts_[i], Count(i)};
      }
      return {bytes_.data() + byte_offsets_[i], Count(i)};
    }

    size_t BlockCount(size_t i) const {
      return (Count(i) + kBlockSize - 1) / kBlockSize;
    }

    size_t BlockSize(size_t i, size_t b) const {
      return std::min(kBlockSize, Count(i) - b * kBlockSize);
    }

    /// Block metadata (only lists appended WITH facts have any).
    const Block& BlockAt(size_t i, size_t b) const {
      return blocks_[block_start_[i] + b];
    }

    csr::PostingsCursor BlockCursor(size_t i, size_t b) const {
      const size_t n = BlockSize(i, b);
      if (layout_ == GraphLayout::kFlat) {
        return {ids_.data() + counts_[i] + b * kBlockSize, n};
      }
      if (b == 0) return {bytes_.data() + byte_offsets_[i], n};
      const Block& blk = BlockAt(i, b);
      return {bytes_.data() + blk.byte_offset, n, blk.prev_id};
    }

    void Finish();  ///< shrink_to_fit all arrays
    size_t ByteSize() const;
    size_t Slack() const;

   private:
    GraphLayout layout_;
    std::vector<uint32_t> counts_{0};  // element-count prefix sums
    std::vector<uint32_t> ids_;        // kFlat
    std::vector<uint8_t> bytes_;       // kCompressed
    // 32-bit offsets: the arena is smaller than the flat id array it
    // replaces, which is itself bounded far below 4 GiB here.
    std::vector<uint32_t> byte_offsets_{0};
    std::vector<Block> blocks_;             // concatenated per-list blocks
    std::vector<uint32_t> block_start_{0};  // per-list prefix into blocks_
  };

  /// Token ids in ranked order (overlap desc, id asc, capped at the
  /// expansion limit) whose trigram overlap with `token` reaches
  /// `min_overlap`.
  std::vector<uint32_t> RankedFuzzyTokenIds(std::string_view token,
                                            double min_overlap) const;

  /// RankedFuzzyTokenIds re-sorted to ascending token id (the retrieval
  /// iteration / FP-summation order).
  std::vector<uint32_t> FuzzyTokenIds(std::string_view token,
                                      double min_overlap) const;

  const PostingsStore& Store(ListRef r) const {
    return r.type_store ? type_postings_ : token_postings_;
  }

  GraphLayout layout_ = GraphLayout::kFlat;
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
