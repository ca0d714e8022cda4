#include "text/tfidf.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/string_util.h"

namespace star::text {

void TfIdfModel::AddDocument(std::string_view label) {
  ++num_docs_;
  std::set<std::string> uniq;
  for (auto& t : SplitTokens(ToLower(label))) uniq.insert(std::move(t));
  for (const auto& t : uniq) ++doc_freq_[t];
}

void TfIdfModel::Finalize() {
  idf_.clear();
  max_idf_ = std::log((1.0 + num_docs_) / 1.0) + 1.0;
  for (const auto& [token, df] : doc_freq_) {
    idf_[token] = std::log((1.0 + num_docs_) / (1.0 + df)) + 1.0;
  }
  finalized_ = true;
}

double TfIdfModel::Idf(std::string_view token) const {
  const auto it = idf_.find(ToLower(token));
  return it == idf_.end() ? max_idf_ : it->second;
}

double TfIdfModel::IdfLower(std::string_view lower_token) const {
  const auto it = idf_.find(lower_token);
  return it == idf_.end() ? max_idf_ : it->second;
}

void TfIdfModel::VectorizeInto(std::string_view s, SparseVector* out) const {
  // Tokenize into a reused scratch, sort, then aggregate runs: the term
  // frequency of a token is its run length (an exact small integer, the
  // same value the old hash-map accumulation produced).
  static thread_local std::string lower;
  static thread_local std::vector<std::string> tokens;
  ToLowerInto(s, &lower);
  SplitTokensInto(lower, &tokens);
  std::sort(tokens.begin(), tokens.end());
  size_t count = 0;
  const auto emit = [&](const std::string& token, double tf) {
    const double w = tf * IdfLower(token);
    if (count < out->size()) {
      (*out)[count].first.assign(token);
      (*out)[count].second = w;
    } else {
      out->emplace_back(token, w);
    }
    ++count;
  };
  for (size_t i = 0; i < tokens.size();) {
    size_t j = i + 1;
    while (j < tokens.size() && tokens[j] == tokens[i]) ++j;
    emit(tokens[i], static_cast<double>(j - i));
    i = j;
  }
  out->resize(count);
}

TfIdfModel::SparseVector TfIdfModel::Vectorize(std::string_view s) const {
  SparseVector v;
  VectorizeInto(s, &v);
  return v;
}

double TfIdfModel::CosineSparse(const SparseVector& a, const SparseVector& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  double na = 0.0, nb = 0.0, dot = 0.0;
  for (const auto& [t, w] : a) na += w * w;
  for (const auto& [t, w] : b) nb += w * w;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const int cmp = a[i].first.compare(b[j].first);
    if (cmp < 0) {
      ++i;
    } else if (cmp > 0) {
      ++j;
    } else {
      dot += a[i].second * b[j].second;
      ++i;
      ++j;
    }
  }
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot / (std::sqrt(na) * std::sqrt(nb));
}

double TfIdfModel::Cosine(std::string_view a, std::string_view b) const {
  static thread_local SparseVector va, vb;
  VectorizeInto(a, &va);
  VectorizeInto(b, &vb);
  return CosineSparse(va, vb);
}

}  // namespace star::text
