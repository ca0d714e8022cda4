#ifndef STAR_TEXT_TFIDF_H_
#define STAR_TEXT_TFIDF_H_

#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace star::text {

/// TF-IDF vector-space model over a corpus of short labels.
/// Built once from every label in a knowledge graph; then used as one of the
/// Eq. 1 similarity features (cosine of the two labels' tf-idf vectors),
/// so that rare, discriminative tokens ("Kurosawa") weigh more than common
/// ones ("the", "film").
class TfIdfModel {
 public:
  /// Sparse tf-idf vector: (token, weight) pairs sorted by token. The
  /// canonical order makes every norm/dot accumulation a fixed-order sum,
  /// so cosine values are bitwise reproducible regardless of how the
  /// vector was produced (fresh or into a reused scratch buffer).
  using SparseVector = std::vector<std::pair<std::string, double>>;

  TfIdfModel() = default;

  /// Adds one document (label) to the corpus statistics.
  void AddDocument(std::string_view label);

  /// Must be called after all AddDocument calls; computes idf weights.
  void Finalize();

  /// Cosine similarity of the two labels under the trained idf weights.
  /// Valid only after Finalize(). Unknown tokens get the maximum idf.
  double Cosine(std::string_view a, std::string_view b) const;

  /// Sparse tf-idf vector of a label (valid only after Finalize()).
  SparseVector Vectorize(std::string_view s) const;

  /// Cosine of two prepared sparse vectors: the core of Cosine(), and
  /// the accumulation order CosineWithTokens reproduces.
  static double CosineSparse(const SparseVector& a, const SparseVector& b);

  /// CosineSparse(a, Vectorize(label)), given the label's lowercased
  /// tokens in split order (the scoring kernel's data side), without
  /// building the second vector or copying a token: the tokens' sorted
  /// runs are walked in the vector's order, so the norm and the dot
  /// product add the same terms in the same order and the result is
  /// bitwise equal. Valid only after Finalize().
  double CosineWithTokens(const SparseVector& a,
                          const std::vector<std::string>& lower_tokens) const;

  /// idf of a token (log((1+N)/(1+df)) + 1); max-idf for unseen tokens.
  double Idf(std::string_view token) const;

  size_t document_count() const { return num_docs_; }
  size_t vocabulary_size() const { return doc_freq_.size(); }
  bool finalized() const { return finalized_; }

 private:
  /// Idf lookup for an already-lowercased token (no copy).
  double IdfLower(const std::string& lower_token) const;

  /// Vectorize into a reused buffer (Cosine()'s per-call path): token
  /// strings and the vector's storage are recycled across calls.
  /// Produces exactly Vectorize(s).
  void VectorizeInto(std::string_view s, SparseVector* out) const;

  std::unordered_map<std::string, size_t> doc_freq_;
  std::unordered_map<std::string, double> idf_;
  size_t num_docs_ = 0;
  double max_idf_ = 1.0;
  bool finalized_ = false;
};

}  // namespace star::text

#endif  // STAR_TEXT_TFIDF_H_
