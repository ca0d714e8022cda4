#ifndef STAR_TEXT_ENSEMBLE_H_
#define STAR_TEXT_ENSEMBLE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "text/synonym_dictionary.h"
#include "text/tfidf.h"
#include "text/type_ontology.h"

namespace star::text {

/// True when `s` (after trimming) starts like a number — the guard the
/// numeric feature checks before parsing either side. Exposed so retrieval
/// metadata (LabelIndex node facts) is built with the exact predicate the
/// kernel's numeric cap uses.
bool LooksNumeric(std::string_view s);

/// Counters of the batch scoring kernel (ScoreBatchAgainstThreshold):
/// how many lanes were scored, how many exited early, and how many feature
/// evaluations the per-lane caps saved.
struct KernelStats {
  uint64_t pairs = 0;               ///< lanes scored
  uint64_t early_exits = 0;         ///< lanes rejected before the full sweep
  uint64_t features_evaluated = 0;  ///< feature positions actually consumed
  uint64_t features_skipped = 0;    ///< positions skipped by exits and 0 caps
};

/// The learned node/edge matching function of Eq. 1:
///
///   F_N(v, phi(v)) = sum_i alpha_i * f_i(v, phi(v))
///
/// where each f_i is one similarity measure from this module. The paper
/// uses 46 measures learned offline ([2]); this ensemble exposes the same
/// shape — a weighted linear aggregation over a feature vector in [0,1]^n —
/// with the measures implemented here. Weights default to uniform and can
/// be replaced by WeightLearner output (weight_learning.h).
///
/// Identical labels (ignoring case) score exactly 1.0 by definition.
class SimilarityEnsemble {
 public:
  /// Optional corpus-level context. Null members disable the corresponding
  /// features (their score is 0, so give them 0 weight when absent).
  struct Context {
    const SynonymDictionary* synonyms = nullptr;
    const TfIdfModel* tfidf = nullptr;
    const TypeOntology* ontology = nullptr;
  };

  /// Indices into the feature vector; kFeatureCount is the vector length.
  enum Feature : int {
    kExact = 0,
    kCaseInsensitive,
    kLevenshtein,
    kDamerauLevenshtein,
    kJaro,
    kJaroWinkler,
    kPrefix,
    kSuffix,
    kContainment,
    kTokenJaccard,
    kTokenDice,
    kTokenOverlap,
    kNGramJaccard,
    kAcronym,
    kAbbreviation,
    kLengthRatio,
    kNumeric,
    kLcs,
    kPhonetic,
    kSynonym,
    kTfIdfCosine,
    kTypeOntology,
    kMongeElkan,
    kLongestCommonSubstring,
    kHamming,
    kSmithWaterman,
    kBigramDice,
    kTokenSequenceEdit,
    kDate,
    kNumeralAware,
    kFeatureCount,
  };

  /// Ensemble with no corpus context (string-only features active).
  SimilarityEnsemble();
  explicit SimilarityEnsemble(Context context);

  /// Full feature vector for a (query label, data label) pair, with
  /// optional type ids for the ontology feature (-1 = untyped).
  std::vector<double> Features(std::string_view query_label,
                               std::string_view data_label, int query_type = -1,
                               int data_type = -1) const;

  /// Aggregated score (Eq. 1) in [0, 1]. Weights are kept normalized to
  /// sum to 1, so the score is a convex combination of the features.
  ///
  /// The reference F_N: production scoring runs through
  /// ScoreBatchAgainstThreshold, whose exact-mode lanes are bitwise this
  /// value, and the tests and the fuzz harness's fn-oracle check rebuild
  /// candidate lists from it. It shares tokenizations/lowercasing across
  /// features and skips zero-weight features, but is exactly equivalent
  /// to sum_i w_i * Features(...)[i].
  double Score(std::string_view query_label, std::string_view data_label,
               int query_type = -1, int data_type = -1) const;

  /// Replaces the weights (negative entries clamped to 0, then the vector
  /// is renormalized to sum 1). Must have kFeatureCount entries. Also
  /// rebuilds the batch kernel's sweep order.
  void SetWeights(const std::vector<double>& weights);

  const std::vector<double>& weights() const { return weights_; }
  const Context& context() const { return context_; }

  /// Human-readable feature names, index-aligned with Features().
  static const std::vector<std::string>& FeatureNames();

  /// Size bound of a thread's token table: interned data tokens plus
  /// cached Monge-Elkan row doubles. Past it, the table is cleared at the
  /// next lane boundary. DESIGN.md "Scoring kernel" describes the table.
  static constexpr size_t kTokenTableBound = size_t{1} << 15;

  /// The calling thread's token table size in kTokenTableBound's units
  /// (for tests of the bound).
  static size_t ThreadTokenTableSize();

  // -------------------------------------------------------------------
  // Batched scoring kernel (structure-of-arrays)
  // -------------------------------------------------------------------
  //
  // Bulk candidate scoring evaluates ONE query label against thousands of
  // data labels, but Score() re-derives the query-side views (lowercase,
  // tokens, n-grams, phonetic codes, parses, tf-idf vector) for every
  // pair. The kernel splits the work: Prepare() builds the query side
  // once, and ScoreBatchAgainstThreshold() touches only the data side of
  // each lane — into thread_local scratch, with no per-pair allocations.
  //
  // Against a threshold, each lane first gets *refined caps* derived from
  // O(1) facts (label lengths, query-side guard flags, token/gram counts):
  // Levenshtein-family features are capped by min/max length, Jaro by
  // (2 + min/max)/3, exact/Hamming by length equality, the numeric/date/
  // phonetic features by query-side guards, tf-idf by whether a finalized
  // model is attached, and so on. Stage 0 lowercases each lane once (stage
  // B reuses that buffer) and reads three byte facts off it: whether the
  // first bytes are equal, whether the last bytes are equal, and the size
  // h of the byte-multiset intersection with the query. They cap prefix,
  // suffix, abbreviation and Jaro-Winkler at their exact zeros, the
  // alignment features at h over a length, Jaro at (h/n + h/m + 1)/3 and
  // containment at 0 unless h reaches the shorter length. The cap and
  // bound arithmetic runs
  // lane-parallel over kBatchLanes candidates at a time (contiguous double
  // lanes, auto-vectorizable), and the per-feature sweep evaluates cheap
  // features first, so a lane exits as soon as its score so far plus the
  // refined caps of the features it has not reached falls below the
  // threshold. Under uniform weights the caps are loose: few lanes are
  // rejected outright, and most exits come part-way through the sweep.
  //
  // Exactness: lanes whose evaluation completes replay the weighted sum in
  // canonical feature order, so any returned value >= threshold is
  // bitwise equal to Score(). Rejected lanes return a sound sub-threshold
  // upper bound (each cap provably dominates its feature), and the exit
  // test keeps a 1e-9 margin below the threshold, so neither the
  // accumulation-order rounding nor the sub-ulp rounding of the cap
  // arithmetic can reject a lane the canonical sum would accept.

  /// Sentinel threshold: never exit early (exact mode).
  static constexpr double kNoThreshold = -1.0;

  /// Lanes evaluated per batch kernel invocation.
  static constexpr int kBatchLanes = 8;

  /// A set of character n-grams packed (length, bytes) -> uint32: open
  /// addressing over a power-of-two slot count, where 0 marks an empty
  /// slot (a packed gram is never 0), behind a 256-bit filter of the
  /// grams' hashes that rejects most absent grams without a probe.
  struct PackedGramSet {
    std::vector<uint32_t> slots;
    int bits = 0;     ///< log2 of slots.size(); slots is empty when size == 0
    size_t size = 0;  ///< distinct grams held
    uint64_t filter[4] = {};
    bool Contains(uint32_t gram) const;
  };

  /// Query-side view of one label, built once per query node by
  /// Prepare(). Immutable afterwards, so concurrent
  /// ScoreBatchAgainstThreshold calls may share it (the per-pair scratch
  /// is thread_local).
  struct PreparedLabelBatch {
    /// Process-unique stamp from Prepare(); copies keep it (and equal
    /// contents). The kernel's per-thread token table serves one id at a
    /// time, is rebuilt when a lane arrives with another, and caches
    /// facts from the context of the ensemble that prepared the label:
    /// score a label only with that ensemble.
    uint64_t id = 0;
    std::string label;                       ///< original bytes
    std::string lower;                       ///< lowercased
    std::vector<std::string> tokens;         ///< tokens of lower, in order
    /// The distinct char 2-grams and 3-grams of lower (a string shorter
    /// than n is its own single gram), packed. Packing is injective for
    /// grams of <= 3 bytes, so the kernel's counts — distinct data grams
    /// and how many of them the query holds — and therefore the
    /// Jaccard/Dice values are bitwise those of Score()'s string grams.
    PackedGramSet bigrams;
    PackedGramSet trigrams;
    std::string initials;                    ///< first char of each token
    std::vector<uint32_t> soundex;  ///< packed non-empty codes, sorted unique
    std::vector<std::string> numerals;       ///< numeral-normalized tokens
    /// Per numerals entry: v when it is the string of v in 1..20 (the only
    /// strings a numeral token normalizes to), else 0.
    std::vector<int> numeral_values;
    std::optional<double> quantity;          ///< ParseQuantity(label)
    std::optional<int> year;                 ///< ExtractYear(label)
    bool looks_numeric = false;              ///< numeric-guard flag (lower)
    bool contains_digit = false;             ///< date-guard flag (lower)
    TfIdfModel::SparseVector tfidf;          ///< empty without tf-idf ctx
    /// Synonym group of the whole label (-1 = none or no dictionary).
    int label_syn_group = -1;
    /// Query-side conditions of the disjoint-token caps (see
    /// ScoreBatchAgainstThreshold): the synonym feature can be positive
    /// only through a shared token when neither the label nor any token
    /// has a synonym group; the numeral-aware feature when some token has
    /// numeral value 0 and is not one of "1".."20", so that only an equal
    /// data token normalizes to it.
    bool synonym_needs_token = false;
    bool numeral_needs_token = false;
    /// Occurrences of each byte in lower, for the byte-multiset
    /// intersection behind stage A's byte-fact caps. A count is at most
    /// the label's length, so it never saturates.
    std::array<uint32_t, 256> byte_counts{};
  };

  /// Builds the query-side view of `label` (uses the tf-idf context when
  /// present and finalized).
  PreparedLabelBatch Prepare(std::string_view label) const;

  /// F_N of the prepared query label against `count` (<= kBatchLanes) data
  /// labels at once. Per-lane results land in out[0..count): bitwise equal
  /// to Score() whenever the value is >= threshold (always when
  /// threshold < 0, e.g. kNoThreshold), otherwise a sub-threshold upper
  /// bound. `data_types` (nullable) gives the per-lane ontology type id.
  /// Thread-safe (thread_local scratch); `stats`, when given, is the
  /// caller's and is mutated non-atomically.
  ///
  /// `shares_token` (nullable) carries retrieval facts: shares_token[l] ==
  /// 0 asserts that data label l shares no token with the query label
  /// (LabelIndex::RankedCandidates reports exactly this). When the query
  /// label has tokens, such a lane has token Jaccard, Dice, Overlap,
  /// token-sequence edit and tf-idf cosine exactly 0, and also synonym
  /// and numeral-aware under the query-side conditions Prepare records;
  /// stage A caps them at 0 and the sweep skips them. A wrong 0 breaks
  /// the contract, so pass facts only for labels they describe.
  void ScoreBatchAgainstThreshold(const PreparedLabelBatch& batch,
                                  const std::string_view* data_labels,
                                  size_t count, double threshold,
                                  int query_type, const int* data_types,
                                  double* out, KernelStats* stats = nullptr,
                                  const uint8_t* shares_token = nullptr) const;

  // -------------------------------------------------------------------
  // Retrieval upper bound (bound-driven candidate retrieval)
  // -------------------------------------------------------------------
  //
  // Bound-driven candidate retrieval (scoring/query_scorer) needs a score
  // cap per node computable WITHOUT touching the data label bytes — only
  // O(1) facts carried by the index (byte length, numeric-guard flag).
  // The bound reuses the batched kernel's stage-A cap rows that need only
  // those facts, so the soundness argument is the same one DESIGN.md
  // "Memory layout & batched scoring" makes per cap row. The byte-fact
  // rows read the label's bytes, which the index does not carry.
  //
  // Soundness vs the equality shortcut: Score() returns 1.0 for
  // case-insensitively equal labels BEFORE any feature is consulted, and
  // that 1.0 can exceed the feature-cap sum. ASCII case folding preserves
  // byte length, so equality is only possible at equal byte length — the
  // bound therefore returns the trivial 1.0 whenever the data length
  // equals the query label's length. With the weights normalized to sum 1
  // every cap sum is <= 1, so this also subsumes the open length-equality
  // caps (exact/Hamming/abbreviation).

  /// Upper bound on Score(query label, any data label of byte length
  /// `data_len` whose numeric guard equals `data_numeric`), for any data
  /// type. >= the true score; equal-length labels return 1.0. With
  /// `shares_token` false (a retrieval fact, as in the batch kernel) the
  /// disjoint-token caps apply.
  double RetrievalNodeBound(const PreparedLabelBatch& batch, size_t data_len,
                            bool data_numeric, bool shares_token = true) const;

 private:
  /// Recomputes batch_order_ from weights_.
  void RebuildBatchOrder();

  Context context_;
  std::vector<double> weights_;
  /// Positive-weight features in the batched kernel's sweep order:
  /// cheap-and-informative first (O(1) pre-filters, linear scans, token
  /// set measures), the refined-cap-bounded DPs and sparse measures last,
  /// so sub-threshold lanes exit before touching them.
  std::vector<int> batch_order_;
};

}  // namespace star::text

#endif  // STAR_TEXT_ENSEMBLE_H_
