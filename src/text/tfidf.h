#ifndef STAR_TEXT_TFIDF_H_
#define STAR_TEXT_TFIDF_H_

#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/string_util.h"

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
  /// the accumulation order the scoring kernel's tf-idf feature replays.
  static double CosineSparse(const SparseVector& a, const SparseVector& b);

  /// idf of a token (log((1+N)/(1+df)) + 1); max-idf for unseen tokens.
  double Idf(std::string_view token) const;

  /// Idf() of an already-lowercased token, without a copy: the weight
  /// Vectorize() gives one occurrence of it.
  double IdfLower(std::string_view lower_token) const;

  size_t document_count() const { return num_docs_; }
  size_t vocabulary_size() const { return doc_freq_.size(); }
  bool finalized() const { return finalized_; }

 private:
  /// Vectorize into a reused buffer (Cosine()'s per-call path): token
  /// strings and the vector's storage are recycled across calls.
  /// Produces exactly Vectorize(s).
  void VectorizeInto(std::string_view s, SparseVector* out) const;

  std::unordered_map<std::string, size_t> doc_freq_;
  std::unordered_map<std::string, double, star::TransparentStringHash,
                     std::equal_to<>>
      idf_;
  size_t num_docs_ = 0;
  double max_idf_ = 1.0;
  bool finalized_ = false;
};

}  // namespace star::text

#endif  // STAR_TEXT_TFIDF_H_
