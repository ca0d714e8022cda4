#include "text/ensemble.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <string_view>

#include "common/string_util.h"
#include "text/phonetic.h"
#include "text/similarity.h"

namespace star::text {

bool LooksNumeric(std::string_view s) {
  const std::string_view t = Trim(s);
  if (t.empty()) return false;
  const char c = t[0];
  return (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.';
}

namespace {

bool EqualIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

/// Shared intermediates for the fast Score() path: lowercased strings and
/// sorted token vectors, computed once per pair instead of once per
/// feature. All feature computations below operate on these and are
/// bitwise-equivalent to the canonical functions in similarity.h (which
/// lowercase internally), as verified by EnsembleTest.FastPathMatchesFeatures.
struct PairScratch {
  std::string la, lb;                  // lowercased
  std::vector<std::string> ta, tb;     // tokens of la / lb (sorted, unique)
  size_t token_intersection = 0;

  PairScratch(std::string_view a, std::string_view b)
      : la(ToLower(a)), lb(ToLower(b)) {
    ta = SplitTokens(la);
    tb = SplitTokens(lb);
    std::sort(ta.begin(), ta.end());
    ta.erase(std::unique(ta.begin(), ta.end()), ta.end());
    std::sort(tb.begin(), tb.end());
    tb.erase(std::unique(tb.begin(), tb.end()), tb.end());
    size_t i = 0, j = 0;
    while (i < ta.size() && j < tb.size()) {
      if (ta[i] < tb[j]) {
        ++i;
      } else if (tb[j] < ta[i]) {
        ++j;
      } else {
        ++token_intersection;
        ++i;
        ++j;
      }
    }
  }
};

// ---------------------------------------------------------------------
// Word-level bit-parallel alignment (labels of <= 64 bytes).
// ---------------------------------------------------------------------
//
// Jaro, Levenshtein, OSA-Damerau and LCS do a few 64-bit word operations
// per character of one label instead of one step per character pair.
// Each computes the same integer as its DP (match/transposition counts,
// distance, subsequence length), and the normalization is the same
// expression on that integer, so every feature value stays bitwise
// identical. Longer labels take the DPs.

constexpr size_t kWordBits = 64;

/// Per-call pattern-mask table: bit i of masks[c] is set iff pattern[i]
/// == c. Only the entries of bytes occurring in the two labels are written
/// (zeroed, then filled), and only those are ever read, so the 256-entry
/// table is never cleared as a whole.
class PatternMasks {
 public:
  PatternMasks(std::string_view pattern, std::string_view text) {
    for (const char c : text) masks_[Byte(c)] = 0;
    for (const char c : pattern) masks_[Byte(c)] = 0;
    for (size_t i = 0; i < pattern.size(); ++i) {
      masks_[Byte(pattern[i])] |= uint64_t{1} << i;
    }
  }

  uint64_t operator[](char c) const { return masks_[Byte(c)]; }

 private:
  static unsigned char Byte(char c) { return static_cast<unsigned char>(c); }

  uint64_t masks_[256];
};

/// Bits [0, k) set, for k in [0, 64].
uint64_t LowBits(size_t k) {
  return k >= kWordBits ? ~uint64_t{0} : (uint64_t{1} << k) - 1;
}

/// Unit-cost edit distance of a (the pattern, 1..64 bytes) and b: Myers'
/// bit-vector algorithm (J. ACM 1999) in Hyyrö's global-distance form.
/// Column j of the DP is held as vertical +1/-1 delta words (pv/mv) over
/// the pattern rows; `dist` tracks the bottom cell D[n][j]. With
/// kTranspositions it is Hyyrö's extension (Nordic J. Computing 2003) to
/// the optimal-string-alignment distance: a zero diagonal delta at row i
/// may also come from an adjacent transposition (a[i-1] == b[j] and
/// a[i] == b[j-1]) when the previous column's diagonal delta at row i-1
/// is not zero. Bits above the pattern hold garbage that carries and
/// shifts only move upward, so they never reach bit n-1.
template <bool kTranspositions>
int BitParallelEditDistance(const std::string& a, const std::string& b) {
  const PatternMasks peq(a, b);
  const uint64_t last = uint64_t{1} << (a.size() - 1);
  uint64_t pv = ~uint64_t{0}, mv = 0, d0 = 0, prev_eq = 0;
  int dist = static_cast<int>(a.size());
  for (const char c : b) {
    const uint64_t eq = peq[c];
    uint64_t tr = 0;
    if constexpr (kTranspositions) tr = ((~d0 & eq) << 1) & prev_eq;
    d0 = (((eq & pv) + pv) ^ pv) | eq | mv | tr;
    uint64_t ph = mv | ~(d0 | pv);
    uint64_t mh = d0 & pv;
    dist += (ph & last) != 0 ? 1 : 0;
    dist -= (mh & last) != 0 ? 1 : 0;
    // Row 0 is D[0][j] = j: every column enters with a +1 at the top.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(d0 | ph);
    mv = ph & d0;
    prev_eq = eq;
  }
  return dist;
}

/// Length of the longest common subsequence of a (1..64 bytes) and b:
/// Allison and Dix's bit-string algorithm (IPL 1986). Bit i of `row` is
/// set where the DP row steps up at pattern position i, so the row's last
/// cell is its popcount. Bits above the pattern stay clear.
int AllisonDixLcs(const std::string& a, const std::string& b) {
  const PatternMasks peq(a, b);
  uint64_t row = 0;
  for (const char c : b) {
    const uint64_t x = peq[c] | row;
    row = x & ~(x - ((row << 1) | 1));
  }
  return std::popcount(row);
}

/// Length of the longest common substring of a (1..64 bytes) and b. Bit i
/// of runs[k] marks a common run of length >= k ending at a[i] and the
/// current byte of b: a run extends along its diagonal by one shift per
/// byte of b. Only lengths up to best + 1 are tracked, because a run of
/// best + 2 would need a run of best + 1 ending one byte earlier. This is
/// the DP's maximum, found with one word operation per tracked length.
int BitParallelLongestRun(const std::string& a, const std::string& b) {
  const PatternMasks peq(a, b);
  uint64_t runs[kWordBits + 1] = {};
  size_t level = 1;  // best + 1: the longest run length tracked
  int best = 0;
  for (const char c : b) {
    const uint64_t eq = peq[c];
    for (size_t k = level; k > 1; --k) runs[k] = (runs[k - 1] << 1) & eq;
    runs[1] = eq;
    if (runs[level] == 0) continue;
    best = static_cast<int>(level);
    if (level == a.size()) break;  // the whole pattern occurs in b
    ++level;  // runs[level] is still 0: no longer run can end here
  }
  return best;
}

double FastLevenshtein(const std::string& a, const std::string& b) {
  if (a.empty() && b.empty()) return 1.0;
  const size_t n = a.size(), m = b.size();
  if (n == 0 || m == 0) return 0.0;
  if (n <= kWordBits && m <= kWordBits) {
    return 1.0 - BitParallelEditDistance<false>(a, b) /
                     static_cast<double>(std::max(n, m));
  }
  // Two-row DP on pre-lowercased strings.
  static thread_local std::vector<int> prev, cur;
  prev.resize(m + 1);
  cur.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return 1.0 - prev[m] / static_cast<double>(std::max(n, m));
}

double FastDamerau(const std::string& a, const std::string& b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  if (n <= kWordBits && m <= kWordBits) {
    return 1.0 - BitParallelEditDistance<true>(a, b) /
                     static_cast<double>(std::max(n, m));
  }
  // Three-row rolling OSA DP.
  static thread_local std::vector<int> r0, r1, r2;
  r0.resize(m + 1);
  r1.resize(m + 1);
  r2.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) r1[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    r2[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      r2[j] = std::min({r1[j] + 1, r2[j - 1] + 1, r1[j - 1] + cost});
      if (i > 1 && j > 1 && a[i - 1] == b[j - 2] && a[i - 2] == b[j - 1]) {
        r2[j] = std::min(r2[j], r0[j - 2] + 1);
      }
    }
    std::swap(r0, r1);
    std::swap(r1, r2);
  }
  return 1.0 - r1[m] / static_cast<double>(std::max(n, m));
}

double FastJaro(std::string_view a, std::string_view b) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const size_t window = std::max(n, m) / 2 == 0 ? 0 : std::max(n, m) / 2 - 1;
  if (n <= kWordBits && m <= kWordBits) {
    // Same greedy pairing as the vector<bool> path below (ascending i,
    // first unmatched j in the window), one word operation per i: the
    // first such j is the lowest set bit of in_b[a[i]] & window &
    // ~matched. Matches and transpositions — and so the double — are
    // identical. This is also the Monge-Elkan inner loop.
    const PatternMasks in_b(b, a);
    uint64_t a_mask = 0, b_mask = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t lo = i > window ? i - window : 0;
      const size_t hi = std::min(m, i + window + 1);
      const uint64_t open = in_b[a[i]] & LowBits(hi) & ~LowBits(lo) & ~b_mask;
      if (open == 0) continue;
      a_mask |= uint64_t{1} << i;
      b_mask |= open & (~open + 1);  // lowest set bit
    }
    if (a_mask == 0) return 0.0;
    // The k-th matched a position pairs with the k-th matched b position.
    size_t t = 0;
    for (uint64_t am = a_mask, bm = b_mask; am != 0;
         am &= am - 1, bm &= bm - 1) {
      if (a[std::countr_zero(am)] != b[std::countr_zero(bm)]) ++t;
    }
    const size_t matches = static_cast<size_t>(std::popcount(a_mask));
    const double mm = static_cast<double>(matches);
    return (mm / n + mm / m + (mm - t / 2.0) / mm) / 3.0;
  }
  static thread_local std::vector<bool> a_match, b_match;
  a_match.assign(n, false);
  b_match.assign(m, false);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i > window ? i - window : 0;
    const size_t hi = std::min(m, i + window + 1);
    for (size_t j = lo; j < hi; ++j) {
      if (b_match[j] || a[i] != b[j]) continue;
      a_match[i] = b_match[j] = true;
      ++matches;
      break;
    }
  }
  if (matches == 0) return 0.0;
  size_t t = 0, j = 0;
  for (size_t i = 0; i < n; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[j]) ++j;
    if (a[i] != b[j]) ++t;
    ++j;
  }
  const double mm = static_cast<double>(matches);
  return (mm / n + mm / m + (mm - t / 2.0) / mm) / 3.0;
}

double FastJaroWinkler(std::string_view a, std::string_view b, double jaro) {
  size_t prefix = 0;
  const size_t max_prefix = std::min<size_t>({4, a.size(), b.size()});
  while (prefix < max_prefix && a[prefix] == b[prefix]) ++prefix;
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

double FastPrefix(const std::string& a, const std::string& b) {
  const size_t lim = std::min(a.size(), b.size());
  if (lim == 0) return a.size() == b.size() ? 1.0 : 0.0;
  size_t p = 0;
  while (p < lim && a[p] == b[p]) ++p;
  return static_cast<double>(p) / lim;
}

double FastSuffix(const std::string& a, const std::string& b) {
  const size_t lim = std::min(a.size(), b.size());
  if (lim == 0) return a.size() == b.size() ? 1.0 : 0.0;
  size_t p = 0;
  while (p < lim && a[a.size() - 1 - p] == b[b.size() - 1 - p]) ++p;
  return static_cast<double>(p) / lim;
}

double FastContainment(const std::string& la, const std::string& lb) {
  if (la.empty() || lb.empty()) return la.size() == lb.size() ? 1.0 : 0.0;
  const std::string& longer = la.size() >= lb.size() ? la : lb;
  const std::string& shorter = la.size() >= lb.size() ? lb : la;
  if (longer.find(shorter) == std::string::npos) return 0.0;
  return static_cast<double>(shorter.size()) / longer.size();
}

double FastNGramJaccard(const std::string& la, const std::string& lb) {
  // Sorted unique trigram vectors; tiny strings degenerate to themselves.
  const auto grams = [](const std::string& s) {
    std::vector<std::string> g;
    if (s.size() < 3) {
      if (!s.empty()) g.push_back(s);
      return g;
    }
    g.reserve(s.size() - 2);
    for (size_t i = 0; i + 3 <= s.size(); ++i) g.push_back(s.substr(i, 3));
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    return g;
  };
  auto ga = grams(la);
  auto gb = grams(lb);
  if (ga.empty() && gb.empty()) return 1.0;
  size_t inter = 0, i = 0, j = 0;
  while (i < ga.size() && j < gb.size()) {
    if (ga[i] < gb[j]) {
      ++i;
    } else if (gb[j] < ga[i]) {
      ++j;
    } else {
      ++inter;
      ++i;
      ++j;
    }
  }
  const size_t uni = ga.size() + gb.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

// Soundex digit of a lowercase letter; '0' for the ignored letters
// (vowels, h, w, y) and for every other byte.
char SoundexDigitOfLower(char lc) {
  switch (lc) {
    case 'b': case 'f': case 'p': case 'v':
      return '1';
    case 'c': case 'g': case 'j': case 'k':
    case 'q': case 's': case 'x': case 'z':
      return '2';
    case 'd': case 't':
      return '3';
    case 'l':
      return '4';
    case 'm': case 'n':
      return '5';
    case 'r':
      return '6';
    default:
      return '0';
  }
}

/// SoundexToken(token) packed big-endian into a uint32, without building
/// the string: the same four bytes (a letter, then digits padded with
/// '0'), so packed codes are equal exactly when the codes are. 0 is the
/// empty code of a token with no letter.
uint32_t PackedSoundex(std::string_view token) {
  uint32_t code = 0;
  int len = 0;
  char last = '0';
  for (const char c : token) {
    const unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalpha(u)) continue;
    const char lc = static_cast<char>(std::tolower(u));
    const char digit = SoundexDigitOfLower(lc);
    if (len == 0) {
      code = static_cast<unsigned char>(std::toupper(u));
      len = 1;
      last = digit;
      continue;
    }
    if (digit != '0' && digit != last) {
      code = (code << 8) | static_cast<unsigned char>(digit);
      if (++len == 4) break;
    }
    // 'h' and 'w' are transparent: they do not reset the run; vowels do.
    if (lc != 'h' && lc != 'w') last = digit;
  }
  if (len == 0) return 0;
  for (; len < 4; ++len) code = (code << 8) | static_cast<unsigned char>('0');
  return code;
}

bool ContainsDigit(const std::string& s) {
  for (const char c : s) {
    if (c >= '0' && c <= '9') return true;
  }
  return false;
}

// ---------------------------------------------------------------------
// Batch kernel machinery (ScoreBatchAgainstThreshold).
// ---------------------------------------------------------------------

// Sweep-stage grouping for the batched kernel's evaluation order
// (index-aligned with the Feature enum). Within a group features keep
// the (weight desc, index asc) order; groups run cheap-and-informative
// first so sub-threshold lanes exit before the DPs and sparse probes:
// 0 = O(1) facts, 1 = linear scans, 2 = token-set measures,
// 3 = character scans with refined caps, 4 = phonetic/synonym probes,
// 5 = gram/sparse-vector measures, 6 = character alignment,
// 7 = Monge-Elkan.
constexpr int kBatchGroup[SimilarityEnsemble::kFeatureCount] = {
    0,  // kExact
    0,  // kCaseInsensitive
    6,  // kLevenshtein
    6,  // kDamerauLevenshtein
    3,  // kJaro
    3,  // kJaroWinkler
    1,  // kPrefix
    1,  // kSuffix
    3,  // kContainment
    2,  // kTokenJaccard
    2,  // kTokenDice
    2,  // kTokenOverlap
    5,  // kNGramJaccard
    2,  // kAcronym
    1,  // kAbbreviation
    0,  // kLengthRatio
    0,  // kNumeric
    6,  // kLcs
    4,  // kPhonetic
    4,  // kSynonym
    5,  // kTfIdfCosine
    0,  // kTypeOntology
    7,  // kMongeElkan
    6,  // kLongestCommonSubstring
    0,  // kHamming
    6,  // kSmithWaterman
    5,  // kBigramDice
    2,  // kTokenSequenceEdit
    1,  // kDate
    2,  // kNumeralAware
};

// Allocation-free equivalents of the remaining similarity.h DPs, for
// pre-lowercased inputs (integer DPs, so the normalized results are
// bitwise equal to the canonical functions).

// FastLcs and FastLongestCommonSubstring store the raw length they
// compute in *length, for FastSmithWaterman's shortcut.

double FastLcs(const std::string& a, const std::string& b, int* length) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  if (n <= kWordBits && m <= kWordBits) {
    *length = AllisonDixLcs(a, b);
    return static_cast<double>(*length) / std::max(n, m);
  }
  static thread_local std::vector<int> prev, cur;
  prev.assign(m + 1, 0);
  cur.assign(m + 1, 0);
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
      } else {
        cur[j] = std::max(prev[j], cur[j - 1]);
      }
    }
    std::swap(prev, cur);
  }
  *length = prev[m];
  return static_cast<double>(prev[m]) / std::max(n, m);
}

double FastLongestCommonSubstring(const std::string& a, const std::string& b,
                                  int* length) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  if (n <= kWordBits) {
    *length = BitParallelLongestRun(a, b);
    return static_cast<double>(*length) / std::max(n, m);
  }
  static thread_local std::vector<int> prev, cur;
  prev.assign(m + 1, 0);
  cur.assign(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      if (a[i - 1] == b[j - 1]) {
        cur[j] = prev[j - 1] + 1;
        best = std::max(best, cur[j]);
      } else {
        cur[j] = 0;
      }
    }
    std::swap(prev, cur);
  }
  *length = best;
  return static_cast<double>(best) / std::max(n, m);
}

// Smith-Waterman at match +1, mismatch -1, gap -1. `lcs` and `run` are the
// pair's LCS and longest-common-substring lengths when already computed
// (else -1). They sandwich the alignment score: a common substring of
// length run is a local alignment scoring run, and an alignment scores at
// most its match count, whose matched pairs form a common subsequence of
// at most lcs. So when they are equal the score is that length, and the
// DP is skipped.
double FastSmithWaterman(const std::string& a, const std::string& b, int lcs,
                         int run) {
  const size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  if (run >= 0 && lcs == run) return static_cast<double>(run) / std::min(n, m);
  static thread_local std::vector<int> prev, cur;
  prev.assign(m + 1, 0);
  cur.assign(m + 1, 0);
  int best = 0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= m; ++j) {
      const int diag = prev[j - 1] + (a[i - 1] == b[j - 1] ? 1 : -1);
      cur[j] = std::max({0, diag, prev[j] - 1, cur[j - 1] - 1});
      best = std::max(best, cur[j]);
    }
    std::swap(prev, cur);
  }
  return static_cast<double>(best) / std::min(n, m);
}

// Token-sequence edit similarity over interned token ids (equal exactly
// when the tokens are): the integer DP of TokenSequenceEditSimilarity.
double FastTokenSequenceEdit(const std::vector<uint32_t>& ta,
                             const std::vector<uint32_t>& tb) {
  if (ta.empty() && tb.empty()) return 1.0;
  if (ta.empty() || tb.empty()) return 0.0;
  const size_t n = ta.size(), m = tb.size();
  static thread_local std::vector<int> prev, cur;
  prev.resize(m + 1);
  cur.resize(m + 1);
  for (size_t j = 0; j <= m; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= n; ++i) {
    cur[0] = static_cast<int>(i);
    for (size_t j = 1; j <= m; ++j) {
      const int cost = ta[i - 1] == tb[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return 1.0 - prev[m] / static_cast<double>(std::max(n, m));
}

// Sorted unique character n-grams of a pre-lowercased string into a
// reused vector; strings shorter than n degenerate to {s} (the CharNGrams
// convention shared by NGramJaccard / BigramDice / FastNGramJaccard).
// Prepare() packs them into the query's gram sets.
void GramsInto(const std::string& s, size_t n, std::vector<std::string>* dst) {
  size_t count = 0;
  const auto emit = [&](size_t pos, size_t len) {
    if (count < dst->size()) {
      (*dst)[count].assign(s, pos, len);
    } else {
      dst->emplace_back(s, pos, len);
    }
    ++count;
  };
  if (s.size() < n) {
    if (!s.empty()) emit(0, s.size());
  } else {
    for (size_t i = 0; i + n <= s.size(); ++i) emit(i, n);
  }
  dst->resize(count);
  std::sort(dst->begin(), dst->end());
  dst->erase(std::unique(dst->begin(), dst->end()), dst->end());
}

// Packs a 1-3 byte gram into a uint32 (length tag + big-endian bytes).
// Injective for grams this short, and never 0 (the length tag is >= 1),
// so packed grams count and intersect exactly as their strings do —
// Jaccard/Dice stay bitwise identical, without per-gram string compares.
uint32_t PackGram(const char* s, size_t len) {
  uint32_t v = static_cast<uint32_t>(len) << 24;
  for (size_t i = 0; i < len; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(s[i]))
         << (8 * (2 - i));
  }
  return v;
}

// The multiplicative hash of a packed gram. Its top bits pick the home
// slot in a table of 2^bits slots (bits >= 1), and its top 8 bits the
// gram's bit in a PackedGramSet's filter.
uint32_t GramHash(uint32_t gram) { return gram * 0x9E3779B1u; }

// Smallest bits >= 1 with 2^bits >= 2 * n: open addressing at load <= 1/2.
int GramTableBits(size_t n) {
  int bits = 1;
  while ((size_t{1} << bits) < 2 * n) ++bits;
  return bits;
}

SimilarityEnsemble::PackedGramSet MakeGramSet(
    const std::vector<std::string>& unique_grams) {
  SimilarityEnsemble::PackedGramSet set;
  set.size = unique_grams.size();
  if (set.size == 0) return set;
  set.bits = GramTableBits(set.size);
  set.slots.assign(size_t{1} << set.bits, 0);
  const size_t mask = set.slots.size() - 1;
  for (const std::string& g : unique_grams) {
    const uint32_t packed = PackGram(g.data(), g.size());
    const uint32_t h = GramHash(packed);
    set.filter[h >> 30] |= uint64_t{1} << ((h >> 24) & 63);
    size_t slot = h >> (32 - set.bits);
    while (set.slots[slot] != 0) slot = (slot + 1) & mask;
    set.slots[slot] = packed;
  }
  return set;
}

// The batch kernel's gram dedup table, one per thread: open addressing
// over 2^bits slots, each holding (epoch << 32 | packed gram). A slot is
// empty unless it carries the current call's epoch, so nothing is cleared
// between labels. It starts at 2^kGramDedupFirstBits slots and grows for
// labels with more grams.
constexpr int kGramDedupFirstBits = 9;

struct GramDedupTable {
  std::vector<uint64_t> slots;
  int bits = 0;
  uint32_t epoch = 0;
};

// What the batch kernel's gram measures need of a data label: its number
// of distinct n-grams (the GramsInto convention: a string shorter than n
// is its own single gram) and how many of them the query's set holds.
struct GramCounts {
  size_t unique = 0;
  size_t shared = 0;
};

// Counts without sorting: each packed gram goes into the dedup table, and
// each new one is looked up in the query's set.
template <size_t N>
GramCounts CountGrams(const std::string& s,
                      const SimilarityEnsemble::PackedGramSet& query,
                      GramDedupTable& table) {
  GramCounts c;
  if (s.empty()) return c;
  if (s.size() < N) {
    c.unique = 1;
    c.shared = query.Contains(PackGram(s.data(), s.size())) ? 1 : 0;
    return c;
  }
  const size_t grams = s.size() - N + 1;
  const int bits = std::max(GramTableBits(grams), kGramDedupFirstBits);
  if (bits > table.bits) {
    table.slots.assign(size_t{1} << bits, 0);
    table.bits = bits;
    table.epoch = 0;
  }
  if (++table.epoch == 0) {  // wrapped: no slot may carry a stale epoch
    std::fill(table.slots.begin(), table.slots.end(), 0);
    table.epoch = 1;
  }
  const uint64_t stamp = uint64_t{table.epoch} << 32;
  const size_t mask = table.slots.size() - 1;
  for (size_t i = 0; i < grams; ++i) {
    const uint32_t g = PackGram(s.data() + i, N);
    const uint64_t entry = stamp | g;
    size_t slot = GramHash(g) >> (32 - table.bits);
    while ((table.slots[slot] >> 32) == table.epoch &&
           table.slots[slot] != entry) {
      slot = (slot + 1) & mask;
    }
    if (table.slots[slot] == entry) continue;  // a repeat
    table.slots[slot] = entry;
    ++c.unique;
    if (query.Contains(g)) ++c.shared;
  }
  return c;
}

// ---------------------------------------------------------------------
// Per-label token table (the kernel's token features).
// ---------------------------------------------------------------------
//
// The token features meet the same few data tokens lane after lane: the
// labels a query label is scored against share a small vocabulary. The
// table interns each distinct token once per scope (one prepared label)
// and caches the facts the features read, each computed the first time a
// feature needs it. Within a scope two tokens have the same id exactly
// when their bytes are equal, so every feature on ids computes the same
// integers, and the same floating-point operations in the same order, as
// on strings. The query's tokens are interned first, so the ids below
// query_count() are exactly its distinct tokens.
class TokenTable {
 public:
  using Prepared = SimilarityEnsemble::PreparedLabelBatch;

  /// Starts a lane scored against `p`. Rebinds the table when it serves
  /// another label or has passed its size bound; either way every data id
  /// of the previous lane is invalid afterwards.
  void BeginLane(const Prepared& p) {
    if (p.id != scope_ || Size() > SimilarityEnsemble::kTokenTableBound) {
      Bind(p);
    }
    if (++lane_ == 0) {  // wrapped: no token may carry a stale stamp
      for (Token& t : tokens_) t.lane = 0;
      lane_ = 1;
    }
  }

  /// Interns a token of the current lane and counts it there. `first` is
  /// set on its first occurrence in the lane.
  uint32_t AddToLane(std::string_view token, bool* first) {
    const uint32_t id = Intern(token);
    Token& t = tokens_[id];
    *first = t.lane != lane_;
    t.count = *first ? 1 : t.count + 1;
    t.lane = lane_;
    return id;
  }

  /// Occurrences of `id` in the current lane.
  uint32_t LaneCount(uint32_t id) const { return tokens_[id].count; }

  std::string_view View(uint32_t id) const {
    return std::string_view(bytes_.data() + tokens_[id].offset,
                            tokens_[id].size);
  }

  /// Ids of the query's tokens (p.tokens order), its numeral-normalized
  /// tokens (p.numerals order), and the number of its distinct tokens.
  const std::vector<uint32_t>& query_ids() const { return query_ids_; }
  const std::vector<uint32_t>& numeral_ids() const { return numeral_ids_; }
  uint32_t query_count() const { return query_count_; }

  /// Whether the token's soundex code is non-empty and one of the query's.
  bool SoundexInQuery(uint32_t id, const Prepared& p) {
    Token& t = tokens_[id];
    if ((t.known & kSoundex) == 0) {
      const uint32_t code = PackedSoundex(View(id));
      t.soundex_in_query =
          code != 0 && std::binary_search(p.soundex.begin(), p.soundex.end(),
                                          code);
      t.known |= kSoundex;
    }
    return t.soundex_in_query;
  }

  int SynonymGroup(uint32_t id, const SynonymDictionary& dict) {
    Token& t = tokens_[id];
    if ((t.known & kSynonym) == 0) {
      t.synonym_group = dict.GroupOfLower(View(id));
      t.known |= kSynonym;
    }
    return t.synonym_group;
  }

  double Idf(uint32_t id, const TfIdfModel& model) {
    Token& t = tokens_[id];
    if ((t.known & kIdf) == 0) {
      t.idf = model.IdfLower(View(id));
      t.known |= kIdf;
    }
    return t.idf;
  }

  int NumeralValue(uint32_t id) {
    Token& t = tokens_[id];
    if ((t.known & kNumeral) == 0) {
      t.numeral = NumeralTokenValue(std::string(View(id)));
      t.known |= kNumeral;
    }
    return t.numeral;
  }

  /// The query's tf-idf weight of query token `id` (< query_count()), and
  /// its vector's squared norm summed in the vector's order.
  double QueryWeight(uint32_t id, const Prepared& p) {
    EnsureQueryVector(p);
    return query_weights_[id];
  }
  double QueryNorm(const Prepared& p) {
    EnsureQueryVector(p);
    return query_norm_;
  }

  /// Monge-Elkan row of data token `id`: entry i < query_count() is
  /// Jaro-Winkler(query token i, token), and entry query_count() the
  /// maximum of Jaro-Winkler(token, query token) over the query's tokens
  /// (from 0) — FastMongeElkan's calls in its argument orders.
  const double* MongeElkanRow(uint32_t id) {
    if (tokens_[id].row == kNoRow) {
      tokens_[id].row = static_cast<uint32_t>(rows_.size());
      const std::string_view d = View(id);
      double back = 0.0;
      for (uint32_t q = 0; q < query_count_; ++q) {
        const std::string_view x = View(q);
        rows_.push_back(FastJaroWinkler(x, d, FastJaro(x, d)));
        back = std::max(back, FastJaroWinkler(d, x, FastJaro(d, x)));
      }
      rows_.push_back(back);
    }
    return rows_.data() + tokens_[id].row;
  }

  /// Interned tokens plus cached row doubles (the bound's units).
  size_t Size() const { return tokens_.size() + rows_.size(); }

 private:
  static constexpr uint32_t kNoRow = ~uint32_t{0};
  static constexpr int kFirstBits = 10;
  enum : uint8_t { kSoundex = 1, kSynonym = 2, kIdf = 4, kNumeral = 8 };

  struct Token {
    uint32_t offset = 0;  // bytes_[offset, offset + size)
    uint32_t size = 0;
    uint64_t hash = 0;
    uint32_t lane = 0;   // stamp of the last lane it occurred in
    uint32_t count = 0;  // occurrences in that lane
    uint32_t row = kNoRow;
    uint8_t known = 0;  // facts computed so far
    bool soundex_in_query = false;
    int synonym_group = -1;
    int numeral = 0;
    double idf = 0.0;
  };

  void Bind(const Prepared& p) {
    scope_ = p.id;
    tokens_.clear();
    bytes_.clear();
    rows_.clear();
    query_vector_ready_ = false;
    if (slots_.empty()) {
      slots_.assign(size_t{1} << kFirstBits, 0);
      bits_ = kFirstBits;
    }
    if (++epoch_ == 0) {  // wrapped: no slot may carry a stale epoch
      std::fill(slots_.begin(), slots_.end(), 0);
      epoch_ = 1;
    }
    query_ids_.clear();
    for (const std::string& t : p.tokens) query_ids_.push_back(Intern(t));
    query_count_ = static_cast<uint32_t>(tokens_.size());
    numeral_ids_.clear();
    for (const std::string& t : p.numerals) numeral_ids_.push_back(Intern(t));
  }

  void EnsureQueryVector(const Prepared& p) {
    if (query_vector_ready_) return;
    query_weights_.assign(query_count_, 0.0);
    query_norm_ = 0.0;
    // p.tfidf vectorizes the label's own tokens, so each of its entries
    // is a query token.
    for (const auto& [token, w] : p.tfidf) {
      query_norm_ += w * w;
      query_weights_[Intern(token)] = w;
    }
    query_vector_ready_ = true;
  }

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> (64 - bits_));
  }

  /// Open addressing over 2^bits_ slots of (epoch << 32 | id); a slot is
  /// empty unless it carries the current epoch, so a rebind clears nothing.
  uint32_t Intern(std::string_view s) {
    const uint64_t hash = std::hash<std::string_view>{}(s);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      if ((slots_[i] >> 32) != epoch_) {
        const uint32_t id = static_cast<uint32_t>(tokens_.size());
        Token t;
        t.offset = static_cast<uint32_t>(bytes_.size());
        t.size = static_cast<uint32_t>(s.size());
        t.hash = hash;
        tokens_.push_back(t);
        bytes_.append(s);
        slots_[i] = (uint64_t{epoch_} << 32) | id;
        if (2 * tokens_.size() > slots_.size()) Grow();
        return id;
      }
      const uint32_t id = static_cast<uint32_t>(slots_[i]);
      if (tokens_[id].hash == hash && View(id) == s) return id;
    }
  }

  void Grow() {
    ++bits_;
    slots_.assign(size_t{1} << bits_, 0);
    epoch_ = 1;
    const size_t mask = slots_.size() - 1;
    for (uint32_t id = 0; id < tokens_.size(); ++id) {
      size_t i = Home(tokens_[id].hash);
      while ((slots_[i] >> 32) == epoch_) i = (i + 1) & mask;
      slots_[i] = (uint64_t{epoch_} << 32) | id;
    }
  }

  uint64_t scope_ = ~uint64_t{0};  // Prepare() never stamps this id
  std::vector<Token> tokens_;
  std::string bytes_;
  std::vector<double> rows_;
  std::vector<uint64_t> slots_;
  int bits_ = 0;
  uint32_t epoch_ = 0;
  uint32_t lane_ = 0;
  std::vector<uint32_t> query_ids_, numeral_ids_;
  uint32_t query_count_ = 0;
  std::vector<double> query_weights_;
  double query_norm_ = 0.0;
  bool query_vector_ready_ = false;
};

/// Data-side per-pair scratch of the kernel. One thread_local instance
/// (ThreadScratch); every view is derived lazily from the lowercased data
/// label, at most once per pair, into buffers that are reused across pairs
/// (steady-state allocation-free).
struct KernelScratch {
  std::string lb;  // lowercased data label
  GramDedupTable gram_table;  // CountGrams dedup table
  TokenTable token_table;
  std::vector<std::string_view> pieces;  // the label's tokens, as split
  std::vector<uint32_t> tokens;    // their ids, in split order
  std::vector<uint32_t> distinct;  // distinct ids, in first-occurrence order
  size_t shared = 0;               // distinct ids that are query tokens
  std::vector<uint32_t> by_bytes;  // tf-idf scratch
  std::vector<double> best;        // Monge-Elkan scratch
  std::optional<double> quantity;
  std::optional<int> year;
  double jaro = 0.0;
  int lcs_length = -1, run_length = -1;  // -1 until computed in this lane
  bool has_tokens = false, has_quantity = false, has_year = false,
       has_jaro = false;

  void Reset(std::string_view d) {
    ToLowerInto(d, &lb);
    has_tokens = has_quantity = has_year = has_jaro = false;
    lcs_length = run_length = -1;
  }

  void EnsureTokens(const SimilarityEnsemble::PreparedLabelBatch& p) {
    if (has_tokens) return;
    has_tokens = true;
    token_table.BeginLane(p);
    SplitTokenViewsInto(lb, &pieces);
    tokens.clear();
    distinct.clear();
    shared = 0;
    for (const std::string_view piece : pieces) {
      bool first = false;
      const uint32_t id = token_table.AddToLane(piece, &first);
      tokens.push_back(id);
      if (!first) continue;
      distinct.push_back(id);
      if (id < token_table.query_count()) ++shared;
    }
  }

  void EnsureQuantity(std::string_view d) {
    if (has_quantity) return;
    quantity = ParseQuantity(d);
    has_quantity = true;
  }

  void EnsureYear(std::string_view d) {
    if (has_year) return;
    year = ExtractYear(d);
    has_year = true;
  }

  double EnsureJaro(const SimilarityEnsemble::PreparedLabelBatch& p) {
    if (!has_jaro) {
      jaro = FastJaro(p.lower, lb);
      has_jaro = true;
    }
    return jaro;
  }
};

KernelScratch& ThreadScratch() {
  static thread_local KernelScratch sc;
  return sc;
}

// One feature value, bitwise equal to what Score() would fold in for the
// same pair (same guards, same shared intermediates, same expressions).
// Token features run on the thread's token table, and the n-gram features
// on packed grams — identical values from cheaper representations.
double EvalKernelFeature(int feature, const SimilarityEnsemble::Context& ctx,
                         const SimilarityEnsemble::PreparedLabelBatch& p,
                         KernelScratch& sc, std::string_view d, int query_type,
                         int data_type) {
  using E = SimilarityEnsemble;
  TokenTable& table = sc.token_table;
  switch (feature) {
    case E::kExact:
      return p.label == d ? 1.0 : 0.0;
    case E::kCaseInsensitive:
      return p.lower == sc.lb ? 1.0 : 0.0;
    case E::kLevenshtein:
      return FastLevenshtein(p.lower, sc.lb);
    case E::kDamerauLevenshtein:
      return FastDamerau(p.lower, sc.lb);
    case E::kJaro:
      return sc.EnsureJaro(p);
    case E::kJaroWinkler:
      return FastJaroWinkler(p.lower, sc.lb, sc.EnsureJaro(p));
    case E::kPrefix:
      return FastPrefix(p.lower, sc.lb);
    case E::kSuffix:
      return FastSuffix(p.lower, sc.lb);
    case E::kContainment:
      return FastContainment(p.lower, sc.lb);
    // The token-set family counts distinct tokens: the query's are the ids
    // below query_count(), the lane's `distinct`, and `shared` both.
    case E::kTokenJaccard: {
      sc.EnsureTokens(p);
      const size_t na = table.query_count(), nb = sc.distinct.size();
      if (na == 0 && nb == 0) return 1.0;
      if (na == 0 || nb == 0) return 0.0;
      const size_t uni = na + nb - sc.shared;
      return uni == 0 ? 0.0 : static_cast<double>(sc.shared) / uni;
    }
    case E::kTokenDice: {
      sc.EnsureTokens(p);
      const size_t na = table.query_count(), nb = sc.distinct.size();
      if (na == 0 && nb == 0) return 1.0;
      if (na == 0 || nb == 0) return 0.0;
      return 2.0 * sc.shared / (na + nb);
    }
    case E::kTokenOverlap: {
      sc.EnsureTokens(p);
      const size_t na = table.query_count(), nb = sc.distinct.size();
      if (na == 0 && nb == 0) return 1.0;
      if (na == 0 || nb == 0) return 0.0;
      return static_cast<double>(sc.shared) / std::min(na, nb);
    }
    case E::kNGramJaccard: {
      const GramCounts c = CountGrams<3>(sc.lb, p.trigrams, sc.gram_table);
      const size_t na = p.trigrams.size;
      if (na == 0 && c.unique == 0) return 1.0;
      const size_t uni = na + c.unique - c.shared;
      return uni == 0 ? 0.0 : static_cast<double>(c.shared) / uni;
    }
    case E::kAcronym: {
      if (p.label.empty() || d.empty()) return 0.0;
      sc.EnsureTokens(p);
      // The data tokens' initials (first bytes) spell the one-token query,
      // or the query's initials spell the one-token data label.
      if (p.tokens.size() == 1 && p.lower.size() >= 2 &&
          sc.tokens.size() == p.lower.size()) {
        size_t i = 0;
        while (i < sc.tokens.size() &&
               table.View(sc.tokens[i])[0] == p.lower[i]) {
          ++i;
        }
        if (i == sc.tokens.size()) return 1.0;
      }
      if (sc.tokens.size() == 1 && sc.lb.size() >= 2 && p.initials == sc.lb) {
        return 1.0;
      }
      return 0.0;
    }
    case E::kAbbreviation: {
      const std::string& la = p.lower;
      const std::string& lb = sc.lb;
      if (la.empty() || lb.empty()) return 0.0;
      const std::string& shorter = la.size() <= lb.size() ? la : lb;
      const std::string& longer = la.size() <= lb.size() ? lb : la;
      if (shorter.size() < 2 || shorter.size() == longer.size()) {
        return shorter == longer ? 1.0 : 0.0;
      }
      if (shorter[0] != longer[0]) return 0.0;
      size_t j = 0;
      for (size_t i = 0; i < longer.size() && j < shorter.size(); ++i) {
        if (longer[i] == shorter[j]) ++j;
      }
      if (j != shorter.size()) return 0.0;
      return static_cast<double>(shorter.size()) / longer.size() * 0.5 + 0.5;
    }
    case E::kLengthRatio: {
      if (p.label.empty() && d.empty()) return 1.0;
      const double lo = static_cast<double>(std::min(p.label.size(), d.size()));
      const double hi = static_cast<double>(std::max(p.label.size(), d.size()));
      return hi == 0 ? 1.0 : lo / hi;
    }
    case E::kNumeric: {
      if (!p.looks_numeric && !LooksNumeric(sc.lb)) return 0.0;
      sc.EnsureQuantity(d);
      return QuantitySimilarity(p.quantity, sc.quantity);
    }
    case E::kLcs:
      return FastLcs(p.lower, sc.lb, &sc.lcs_length);
    case E::kPhonetic: {
      // PhoneticSimilarity: 1 iff some query and some data token have the
      // same non-empty code.
      sc.EnsureTokens(p);
      if (p.tokens.empty() || sc.tokens.empty()) return 0.0;
      if (p.soundex.empty()) return 0.0;
      for (const uint32_t t : sc.distinct) {
        if (table.SoundexInQuery(t, p)) return 1.0;
      }
      return 0.0;
    }
    case E::kSynonym: {
      if (ctx.synonyms == nullptr) return 0.0;
      // SynonymDictionary::Similarity on interned tokens: whole-label
      // check first, then the shorter side's tokens against the longer
      // side's (equality or shared group), exactly the double loop the
      // dictionary runs — same hits, same ratio.
      const SynonymDictionary& dict = *ctx.synonyms;
      if (p.lower == sc.lb) return 1.0;
      // Sharing a group needs one on the query side.
      if (p.label_syn_group >= 0 &&
          dict.GroupOfLower(sc.lb) == p.label_syn_group) {
        return 1.0;
      }
      sc.EnsureTokens(p);
      const std::vector<uint32_t>& q = table.query_ids();
      if (q.empty() || sc.tokens.empty()) return 0.0;
      const bool query_shorter = q.size() <= sc.tokens.size();
      const std::vector<uint32_t>& ts = query_shorter ? q : sc.tokens;
      const std::vector<uint32_t>& tl = query_shorter ? sc.tokens : q;
      size_t hits = 0;
      for (const uint32_t x : ts) {
        const int gx = table.SynonymGroup(x, dict);
        for (const uint32_t y : tl) {
          if (x == y || (gx >= 0 && gx == table.SynonymGroup(y, dict))) {
            ++hits;
            break;
          }
        }
      }
      return static_cast<double>(hits) / ts.size();
    }
    case E::kTfIdfCosine: {
      if (ctx.tfidf == nullptr || !ctx.tfidf->finalized()) return 0.0;
      // TfIdfModel::CosineSparse(p.tfidf, Vectorize(d)) without building
      // the data vector: the lane's distinct tokens in byte order (the
      // vector's order), each weighted count x idf, so the norms and the
      // dot product add the same terms in the same order.
      sc.EnsureTokens(p);
      if (p.tfidf.empty() && sc.tokens.empty()) return 1.0;
      if (p.tfidf.empty() || sc.tokens.empty()) return 0.0;
      sc.by_bytes.assign(sc.distinct.begin(), sc.distinct.end());
      std::sort(sc.by_bytes.begin(), sc.by_bytes.end(),
                [&](uint32_t x, uint32_t y) {
                  return table.View(x) < table.View(y);
                });
      const double na = table.QueryNorm(p);
      double nb = 0.0, dot = 0.0;
      for (const uint32_t t : sc.by_bytes) {
        const double w = static_cast<double>(table.LaneCount(t)) *
                         table.Idf(t, *ctx.tfidf);
        nb += w * w;
        if (t < table.query_count()) dot += table.QueryWeight(t, p) * w;
      }
      if (na == 0.0 || nb == 0.0) return 0.0;
      return dot / (std::sqrt(na) * std::sqrt(nb));
    }
    case E::kTypeOntology:
      return ctx.ontology != nullptr
                 ? ctx.ontology->Similarity(query_type, data_type)
                 : 0.0;
    case E::kMongeElkan: {
      // MongeElkanSimilarity's two directed means from the cached rows:
      // per query token the maximum over the data tokens (taken over the
      // distinct ones, the same maximum), per data token the row's cached
      // maximum over the query's; each summed in token order.
      sc.EnsureTokens(p);
      const std::vector<uint32_t>& q = table.query_ids();
      if (q.empty() && sc.tokens.empty()) return 1.0;
      if (q.empty() || sc.tokens.empty()) return 0.0;
      const uint32_t nq = table.query_count();
      sc.best.assign(nq, 0.0);
      for (const uint32_t t : sc.distinct) {
        const double* row = table.MongeElkanRow(t);
        for (uint32_t i = 0; i < nq; ++i) {
          sc.best[i] = std::max(sc.best[i], row[i]);
        }
      }
      double forward = 0.0;
      for (const uint32_t x : q) forward += sc.best[x];
      double backward = 0.0;
      for (const uint32_t t : sc.tokens) {
        backward += table.MongeElkanRow(t)[nq];
      }
      return std::max(forward / q.size(), backward / sc.tokens.size());
    }
    case E::kLongestCommonSubstring:
      return FastLongestCommonSubstring(p.lower, sc.lb, &sc.run_length);
    case E::kHamming: {
      const std::string& la = p.lower;
      const std::string& lb = sc.lb;
      if (la.size() != lb.size()) {
        return la.empty() && lb.empty() ? 1.0 : 0.0;
      }
      if (la.empty()) return 1.0;
      size_t equal = 0;
      for (size_t i = 0; i < la.size(); ++i) equal += la[i] == lb[i];
      return static_cast<double>(equal) / la.size();
    }
    case E::kSmithWaterman:
      return FastSmithWaterman(p.lower, sc.lb, sc.lcs_length, sc.run_length);
    case E::kBigramDice: {
      const GramCounts c = CountGrams<2>(sc.lb, p.bigrams, sc.gram_table);
      const size_t na = p.bigrams.size;
      if (na == 0 && c.unique == 0) return 1.0;
      if (na == 0 || c.unique == 0) return 0.0;
      return 2.0 * c.shared / (na + c.unique);
    }
    case E::kTokenSequenceEdit:
      sc.EnsureTokens(p);
      return FastTokenSequenceEdit(table.query_ids(), sc.tokens);
    case E::kDate: {
      if (!p.contains_digit || !ContainsDigit(sc.lb)) return 0.0;
      sc.EnsureYear(d);
      return YearSimilarity(p.year, sc.year);
    }
    case E::kNumeralAware: {
      // NormalizeNumerals(q) == NormalizeNumerals(d), position by
      // position. A normalized query token has numeral value 0, so a data
      // token equal to it normalizes to it; a differing one can only
      // normalize to it through its value, and only the strings "1".."20"
      // are such normalizations.
      if (p.label.empty() || d.empty()) return 0.0;
      sc.EnsureTokens(p);
      const std::vector<uint32_t>& want_ids = table.numeral_ids();
      if (sc.tokens.size() != want_ids.size()) return 0.0;
      for (size_t i = 0; i < sc.tokens.size(); ++i) {
        if (sc.tokens[i] == want_ids[i]) continue;
        const int want = p.numeral_values[i];
        if (want == 0 || table.NumeralValue(sc.tokens[i]) != want) return 0.0;
      }
      return 1.0;
    }
    default:
      return 0.0;
  }
}

}  // namespace

SimilarityEnsemble::SimilarityEnsemble() : SimilarityEnsemble(Context{}) {}

SimilarityEnsemble::SimilarityEnsemble(Context context)
    : context_(context),
      weights_(kFeatureCount, 1.0 / static_cast<double>(kFeatureCount)) {
  // Features whose context is missing get zero weight so the default
  // configuration stays a proper convex combination of active features.
  std::vector<double> w(kFeatureCount, 1.0);
  if (context_.synonyms == nullptr) w[kSynonym] = 0.0;
  if (context_.tfidf == nullptr) w[kTfIdfCosine] = 0.0;
  if (context_.ontology == nullptr) w[kTypeOntology] = 0.0;
  SetWeights(w);
}

std::vector<double> SimilarityEnsemble::Features(std::string_view q,
                                                 std::string_view d,
                                                 int query_type,
                                                 int data_type) const {
  std::vector<double> f(kFeatureCount, 0.0);
  f[kExact] = ExactMatch(q, d);
  f[kCaseInsensitive] = CaseInsensitiveMatch(q, d);
  f[kLevenshtein] = LevenshteinSimilarity(q, d);
  f[kDamerauLevenshtein] = DamerauLevenshteinSimilarity(q, d);
  f[kJaro] = JaroSimilarity(q, d);
  f[kJaroWinkler] = JaroWinklerSimilarity(q, d);
  f[kPrefix] = PrefixSimilarity(q, d);
  f[kSuffix] = SuffixSimilarity(q, d);
  f[kContainment] = ContainmentSimilarity(q, d);
  f[kTokenJaccard] = TokenJaccard(q, d);
  f[kTokenDice] = TokenDice(q, d);
  f[kTokenOverlap] = TokenOverlap(q, d);
  f[kNGramJaccard] = NGramJaccard(q, d);
  f[kAcronym] = AcronymSimilarity(q, d);
  f[kAbbreviation] = AbbreviationSimilarity(q, d);
  f[kLengthRatio] = LengthRatio(q, d);
  f[kNumeric] = NumericSimilarity(q, d);
  f[kLcs] = LcsSimilarity(q, d);
  f[kPhonetic] = PhoneticSimilarity(q, d);
  if (context_.synonyms != nullptr) {
    f[kSynonym] = context_.synonyms->Similarity(q, d);
  }
  if (context_.tfidf != nullptr && context_.tfidf->finalized()) {
    f[kTfIdfCosine] = context_.tfidf->Cosine(q, d);
  }
  if (context_.ontology != nullptr) {
    f[kTypeOntology] = context_.ontology->Similarity(query_type, data_type);
  }
  f[kMongeElkan] = MongeElkanSimilarity(q, d);
  f[kLongestCommonSubstring] = LongestCommonSubstringSimilarity(q, d);
  f[kHamming] = HammingSimilarity(q, d);
  f[kSmithWaterman] = SmithWatermanSimilarity(q, d);
  f[kBigramDice] = BigramDice(q, d);
  f[kTokenSequenceEdit] = TokenSequenceEditSimilarity(q, d);
  f[kDate] = DateSimilarity(q, d);
  f[kNumeralAware] = NumeralAwareMatch(q, d);
  return f;
}

double SimilarityEnsemble::Score(std::string_view q, std::string_view d,
                                 int query_type, int data_type) const {
  if (!q.empty() && EqualIgnoreCase(q, d)) return 1.0;
  const auto& w = weights_;
  const PairScratch sc(q, d);
  double s = 0.0;

  if (w[kExact] > 0.0 && q == d) s += w[kExact];
  // After the shortcut, lowercase equality only remains for empty q.
  if (sc.la == sc.lb) s += w[kCaseInsensitive];
  if (w[kLevenshtein] > 0.0) {
    s += w[kLevenshtein] * FastLevenshtein(sc.la, sc.lb);
  }
  if (w[kDamerauLevenshtein] > 0.0) {
    s += w[kDamerauLevenshtein] * FastDamerau(sc.la, sc.lb);
  }
  if (w[kJaro] > 0.0 || w[kJaroWinkler] > 0.0) {
    const double jaro = FastJaro(sc.la, sc.lb);
    s += w[kJaro] * jaro;
    if (w[kJaroWinkler] > 0.0) {
      s += w[kJaroWinkler] * FastJaroWinkler(sc.la, sc.lb, jaro);
    }
  }
  if (w[kPrefix] > 0.0) s += w[kPrefix] * FastPrefix(sc.la, sc.lb);
  if (w[kSuffix] > 0.0) s += w[kSuffix] * FastSuffix(sc.la, sc.lb);
  if (w[kContainment] > 0.0) {
    s += w[kContainment] * FastContainment(sc.la, sc.lb);
  }
  // Token-set family from the shared intersection count.
  {
    const size_t na = sc.ta.size();
    const size_t nb = sc.tb.size();
    const size_t inter = sc.token_intersection;
    if (na == 0 && nb == 0) {
      // Three separate adds (not one grouped sum) so the accumulation
      // order matches the kernel's canonical per-feature replay bitwise.
      s += w[kTokenJaccard];
      s += w[kTokenDice];
      s += w[kTokenOverlap];
    } else if (na > 0 && nb > 0) {
      const size_t uni = na + nb - inter;
      if (uni > 0) {
        s += w[kTokenJaccard] * (static_cast<double>(inter) / uni);
      }
      s += w[kTokenDice] * (2.0 * inter / (na + nb));
      s += w[kTokenOverlap] * (static_cast<double>(inter) / std::min(na, nb));
    }
  }
  if (w[kNGramJaccard] > 0.0) {
    s += w[kNGramJaccard] * FastNGramJaccard(sc.la, sc.lb);
  }
  if (w[kAcronym] > 0.0) s += w[kAcronym] * AcronymSimilarity(q, d);
  if (w[kAbbreviation] > 0.0) {
    s += w[kAbbreviation] * AbbreviationSimilarity(q, d);
  }
  if (w[kLengthRatio] > 0.0) s += w[kLengthRatio] * LengthRatio(q, d);
  if (w[kNumeric] > 0.0 && (LooksNumeric(sc.la) || LooksNumeric(sc.lb))) {
    s += w[kNumeric] * NumericSimilarity(q, d);
  }
  if (w[kLcs] > 0.0) s += w[kLcs] * LcsSimilarity(sc.la, sc.lb);
  if (w[kPhonetic] > 0.0) s += w[kPhonetic] * PhoneticSimilarity(q, d);
  if (w[kSynonym] > 0.0 && context_.synonyms != nullptr) {
    s += w[kSynonym] * context_.synonyms->Similarity(q, d);
  }
  if (w[kTfIdfCosine] > 0.0 && context_.tfidf != nullptr &&
      context_.tfidf->finalized()) {
    s += w[kTfIdfCosine] * context_.tfidf->Cosine(q, d);
  }
  if (w[kTypeOntology] > 0.0 && context_.ontology != nullptr) {
    s += w[kTypeOntology] * context_.ontology->Similarity(query_type, data_type);
  }
  if (w[kMongeElkan] > 0.0) s += w[kMongeElkan] * MongeElkanSimilarity(q, d);
  if (w[kLongestCommonSubstring] > 0.0) {
    s += w[kLongestCommonSubstring] *
         LongestCommonSubstringSimilarity(sc.la, sc.lb);
  }
  if (w[kHamming] > 0.0) s += w[kHamming] * HammingSimilarity(sc.la, sc.lb);
  if (w[kSmithWaterman] > 0.0) {
    s += w[kSmithWaterman] * SmithWatermanSimilarity(sc.la, sc.lb);
  }
  if (w[kBigramDice] > 0.0) s += w[kBigramDice] * BigramDice(sc.la, sc.lb);
  if (w[kTokenSequenceEdit] > 0.0) {
    s += w[kTokenSequenceEdit] * TokenSequenceEditSimilarity(sc.la, sc.lb);
  }
  if (w[kDate] > 0.0 && ContainsDigit(sc.la) && ContainsDigit(sc.lb)) {
    s += w[kDate] * DateSimilarity(q, d);
  }
  if (w[kNumeralAware] > 0.0) s += w[kNumeralAware] * NumeralAwareMatch(q, d);
  return s;
}

void SimilarityEnsemble::SetWeights(const std::vector<double>& weights) {
  weights_.assign(kFeatureCount, 0.0);
  double sum = 0.0;
  for (int i = 0; i < kFeatureCount && i < static_cast<int>(weights.size());
       ++i) {
    weights_[i] = weights[i] > 0.0 ? weights[i] : 0.0;
    sum += weights_[i];
  }
  if (sum <= 0.0) {
    weights_.assign(kFeatureCount, 1.0 / static_cast<double>(kFeatureCount));
  } else {
    for (auto& w : weights_) w /= sum;
  }
  RebuildBatchOrder();
}

void SimilarityEnsemble::RebuildBatchOrder() {
  // The batched kernel sweeps every positive-weight feature, grouped
  // cheap-first so a lane exits before the DPs whenever its refined bound
  // drops below the threshold.
  batch_order_.clear();
  batch_order_.reserve(kFeatureCount);
  for (int i = 0; i < kFeatureCount; ++i) {
    if (weights_[i] > 0.0) batch_order_.push_back(i);
  }
  std::sort(batch_order_.begin(), batch_order_.end(), [this](int a, int b) {
    if (kBatchGroup[a] != kBatchGroup[b]) {
      return kBatchGroup[a] < kBatchGroup[b];
    }
    if (weights_[a] != weights_[b]) return weights_[a] > weights_[b];
    return a < b;
  });
}

SimilarityEnsemble::PreparedLabelBatch SimilarityEnsemble::Prepare(
    std::string_view label) const {
  static std::atomic<uint64_t> next_id{1};
  PreparedLabelBatch p;
  p.id = next_id.fetch_add(1, std::memory_order_relaxed);
  p.label.assign(label);
  p.lower = ToLower(label);
  p.tokens = SplitTokens(p.lower);
  // GramsInto yields each gram once, and packing is injective for grams
  // of <= 3 bytes, so each set holds exactly the label's distinct grams.
  std::vector<std::string> grams;
  GramsInto(p.lower, 2, &grams);
  p.bigrams = MakeGramSet(grams);
  GramsInto(p.lower, 3, &grams);
  p.trigrams = MakeGramSet(grams);
  for (const auto& t : p.tokens) {
    p.initials.push_back(t[0]);
    const uint32_t code = PackedSoundex(t);
    if (code != 0) p.soundex.push_back(code);
  }
  std::sort(p.soundex.begin(), p.soundex.end());
  p.soundex.erase(std::unique(p.soundex.begin(), p.soundex.end()),
                  p.soundex.end());
  p.numerals = NormalizeNumerals(label);
  p.numeral_values.assign(p.numerals.size(), 0);
  for (size_t i = 0; i < p.numerals.size(); ++i) {
    for (int v = 1; v <= 20; ++v) {
      if (p.numerals[i] == std::to_string(v)) p.numeral_values[i] = v;
    }
  }
  p.quantity = ParseQuantity(label);
  p.year = ExtractYear(label);
  p.looks_numeric = LooksNumeric(p.lower);
  p.contains_digit = ContainsDigit(p.lower);
  if (context_.tfidf != nullptr && context_.tfidf->finalized()) {
    p.tfidf = context_.tfidf->Vectorize(p.label);
  }
  if (context_.synonyms != nullptr) {
    p.label_syn_group = context_.synonyms->GroupOfLower(p.lower);
  }
  // Both conditions, and the disjoint-token caps they gate, argue from
  // exact token equality; DESIGN.md "Memory layout & batched scoring"
  // spells out why each capped feature is then exactly 0.
  p.synonym_needs_token =
      p.label_syn_group < 0 &&
      (context_.synonyms == nullptr ||
       std::none_of(p.tokens.begin(), p.tokens.end(),
                    [&](const std::string& t) {
                      return context_.synonyms->GroupOfLower(t) >= 0;
                    }));
  p.numeral_needs_token =
      std::find(p.numeral_values.begin(), p.numeral_values.end(), 0) !=
      p.numeral_values.end();
  return p;
}

bool SimilarityEnsemble::PackedGramSet::Contains(uint32_t gram) const {
  const uint32_t h = GramHash(gram);
  if (((filter[h >> 30] >> ((h >> 24) & 63)) & 1) == 0) return false;
  const size_t mask = slots.size() - 1;
  for (size_t slot = h >> (32 - bits); slots[slot] != 0;
       slot = (slot + 1) & mask) {
    if (slots[slot] == gram) return true;
  }
  return false;
}

void SimilarityEnsemble::ScoreBatchAgainstThreshold(
    const PreparedLabelBatch& p, const std::string_view* data_labels,
    size_t count, double threshold, int query_type, const int* data_types,
    double* out, KernelStats* stats, const uint8_t* shares_token) const {
  constexpr int L = kBatchLanes;
  if (count == 0) return;
  if (stats != nullptr) stats->pairs += count;
  const size_t order = batch_order_.size();

  // Stage 0: per-lane O(1) facts and the case-insensitive-equality
  // shortcut. The shortcut MUST precede any bound rejection: its 1.0 is
  // definitional (Score() returns it for equal-length garbage caps too),
  // so an equal lane can score above its refined bound.
  bool survive[L] = {};
  double eq[L] = {};       // byte lengths equal
  double rr[L] = {};       // min/max byte-length ratio
  double minlen[L] = {};   // min byte length
  double tri_max[L] = {};  // max distinct char 3-grams of the data label
  double bi_max[L] = {};   // max distinct char 2-grams of the data label
  double tok_max[L] = {};  // max token count of the data label
  double num_ok[L] = {};   // data label passes the numeric guard
  double dlen[L] = {};     // data byte length
  double tok_ok[L] = {};   // 0 when the lane provably shares no token
  const size_t m = p.label.size();  // ToLower preserves byte length
  for (size_t l = 0; l < count; ++l) {
    const std::string_view d = data_labels[l];
    if (!p.label.empty() && EqualIgnoreCase(p.label, d)) {
      out[l] = 1.0;
      continue;
    }
    survive[l] = true;
    const size_t n = d.size();
    dlen[l] = static_cast<double>(n);
    eq[l] = n == m ? 1.0 : 0.0;
    rr[l] = (n == 0 && m == 0)
                ? 1.0
                : static_cast<double>(std::min(n, m)) / std::max(n, m);
    minlen[l] = static_cast<double>(std::min(n, m));
    tri_max[l] = n >= 3 ? static_cast<double>(n - 2) : (n > 0 ? 1.0 : 0.0);
    bi_max[l] = n >= 2 ? static_cast<double>(n - 1) : (n > 0 ? 1.0 : 0.0);
    tok_max[l] = static_cast<double>((n + 1) / 2);
    num_ok[l] = LooksNumeric(d) ? 1.0 : 0.0;
    tok_ok[l] = (shares_token != nullptr && shares_token[l] == 0 &&
                 !p.tokens.empty())
                    ? 0.0
                    : 1.0;
  }

  // Stage A (thresholded mode only): refined per-lane caps from the O(1)
  // facts, then a lane-parallel bound. Each row below provably dominates
  // its feature (see DESIGN.md "Memory layout & batched scoring"); the
  // arithmetic is branch-light over contiguous double lanes so the
  // compiler can vectorize it.
  double caps[kFeatureCount][L];
  if (threshold >= 0.0) {
    const double qtri = static_cast<double>(p.trigrams.size);
    const double qbi = static_cast<double>(p.bigrams.size);
    const double qtok = static_cast<double>(p.tokens.size());
    const double qnum = static_cast<double>(p.numerals.size());
    const double qini = static_cast<double>(p.initials.size());
    const bool acr_q = p.tokens.size() == 1 && p.lower.size() >= 2;
    const double qlen = static_cast<double>(p.lower.size());
    const double phon = p.soundex.empty() ? 0.0 : 1.0;
    const double date = p.contains_digit ? 1.0 : 0.0;
    // Not gated on the query's tf-idf vector: two token-less labels have
    // cosine 1 (CosineSparse of two empty vectors).
    const double tfidf =
        (context_.tfidf != nullptr && context_.tfidf->finalized()) ? 1.0
                                                                    : 0.0;
    const double syn = context_.synonyms != nullptr ? 1.0 : 0.0;
    const double onto = context_.ontology != nullptr ? 1.0 : 0.0;
    for (int l = 0; l < L; ++l) {
      // Disjoint-token lanes (tok_ok 0): each feature below that can only
      // be positive through a shared token is capped at 0.
      const double syn_tok = p.synonym_needs_token ? tok_ok[l] : 1.0;
      const double num_tok = p.numeral_needs_token ? tok_ok[l] : 1.0;
      // Length-equality features: anything normalized over a fixed-length
      // alignment (or exact equality) is 0 when lengths differ.
      caps[kExact][l] = eq[l];
      caps[kCaseInsensitive][l] = eq[l];
      caps[kHamming][l] = eq[l];
      // Edit-family features normalized by max length: distance >= the
      // length gap, so similarity <= min/max. LCS/substring <= min/max
      // for the same reason; LengthRatio IS min/max.
      caps[kLevenshtein][l] = rr[l];
      caps[kDamerauLevenshtein][l] = rr[l];
      caps[kLcs][l] = rr[l];
      caps[kLongestCommonSubstring][l] = rr[l];
      caps[kContainment][l] = rr[l];
      caps[kLengthRatio][l] = rr[l];
      // Jaro: matches <= min, so jaro <= (1 + min/max + 1)/3; Winkler
      // adds at most 0.4*(1 - jaro) on top.
      const double jb = (2.0 + rr[l]) / 3.0;
      caps[kJaro][l] = jb;
      caps[kJaroWinkler][l] = 0.6 * jb + 0.4;
      // Abbreviation: equal lengths degrade to exact equality (cap 1 only
      // via eq); otherwise the subsequence branch needs min >= 2 and
      // yields min/max * 0.5 + 0.5.
      caps[kAbbreviation][l] =
          eq[l] != 0.0 ? 1.0 : (minlen[l] < 2.0 ? 0.0 : 0.5 * rr[l] + 0.5);
      // Guard-gated features: 0 unless the query-side (or per-lane) guard
      // that the feature itself checks first can pass.
      caps[kNumeric][l] = p.looks_numeric ? 1.0 : num_ok[l];
      caps[kDate][l] = date;
      caps[kPhonetic][l] = phon;
      caps[kTfIdfCosine][l] = tfidf * tok_ok[l];
      caps[kSynonym][l] = syn * syn_tok;
      caps[kTypeOntology][l] = onto;
      // Gram/token set measures: a data label of n bytes has at most
      // n-2 distinct trigrams, n-1 distinct bigrams, (n+1)/2 tokens.
      caps[kNGramJaccard][l] =
          qtri > 0.0 ? std::min(qtri, tri_max[l]) / qtri : 1.0;
      caps[kBigramDice][l] = (qbi > 0.0 && bi_max[l] < qbi)
                                 ? 2.0 * bi_max[l] / (qbi + bi_max[l])
                                 : 1.0;
      caps[kTokenSequenceEdit][l] =
          (qtok > tok_max[l] ? tok_max[l] / qtok : 1.0) * tok_ok[l];
      caps[kNumeralAware][l] = (qnum > tok_max[l] ? 0.0 : 1.0) * num_tok;
      caps[kAcronym][l] = ((acr_q && qlen >= 2.0 && qlen <= tok_max[l]) ||
                           (qini == dlen[l] && dlen[l] >= 2.0))
                              ? 1.0
                              : 0.0;
      // Token-set measures: 0 without a shared token, else no O(1) cap.
      caps[kTokenJaccard][l] = tok_ok[l];
      caps[kTokenDice][l] = tok_ok[l];
      caps[kTokenOverlap][l] = tok_ok[l];
      // No useful O(1) cap (normalized by the shorter side / token-pair
      // maxima): these stay at the trivial bound of 1.
      caps[kPrefix][l] = 1.0;
      caps[kSuffix][l] = 1.0;
      caps[kSmithWaterman][l] = 1.0;
      caps[kMongeElkan][l] = 1.0;
    }
    double bound[L] = {};
    for (size_t k = 0; k < order; ++k) {
      const double w = weights_[batch_order_[k]];
      const double* row = caps[batch_order_[k]];
      for (int l = 0; l < L; ++l) bound[l] += w * row[l];
    }
    // Reject lanes whose refined bound cannot reach the threshold. The
    // 1e-9 margin absorbs both accumulation-order rounding and the
    // sub-ulp rounding of the cap arithmetic, so no lane whose canonical
    // score is >= threshold is ever rejected here.
    for (size_t l = 0; l < count; ++l) {
      if (!survive[l] || bound[l] >= threshold - 1e-9) continue;
      out[l] = bound[l];
      survive[l] = false;
      if (stats != nullptr) {
        ++stats->early_exits;
        stats->features_skipped += order;
      }
    }
  }

  // Stage B: surviving lanes run the per-feature sweep in batch order
  // with a per-lane refined remaining mass (suffix sums of w * cap).
  // Completed lanes replay the weighted sum in canonical feature order:
  // skipped and zero-weight terms add +0.0, an identity on the
  // non-negative running sum, so every kept value is bitwise Score().
  KernelScratch& sc = ThreadScratch();
  for (size_t l = 0; l < count; ++l) {
    if (!survive[l]) continue;
    const std::string_view d = data_labels[l];
    const int data_type = data_types != nullptr ? data_types[l] : -1;
    sc.Reset(d);
    double remaining[kFeatureCount + 1];
    if (threshold >= 0.0) {
      remaining[order] = 0.0;
      for (size_t k = order; k-- > 0;) {
        remaining[k] = remaining[k + 1] +
                       weights_[batch_order_[k]] * caps[batch_order_[k]][l];
      }
    }
    double f[kFeatureCount] = {};
    double partial = 0.0;
    bool exited = false;
    size_t pinned = 0;  // features skipped for a zero cap
    for (size_t k = 0; k < order; ++k) {
      if (threshold >= 0.0 && partial + remaining[k] < threshold - 1e-9) {
        out[l] = partial + remaining[k];
        if (stats != nullptr) {
          ++stats->early_exits;
          stats->features_evaluated += k - pinned;
          stats->features_skipped += order - k + pinned;
        }
        exited = true;
        break;
      }
      const int i = batch_order_[k];
      // Every cap dominates a feature in [0, 1], so a zero cap means the
      // feature is exactly 0: f[i] stays 0 without evaluating it.
      if (threshold >= 0.0 && caps[i][l] == 0.0) {
        ++pinned;
        continue;
      }
      f[i] = EvalKernelFeature(i, context_, p, sc, d, query_type, data_type);
      partial += weights_[i] * f[i];
    }
    if (exited) continue;
    if (stats != nullptr) {
      stats->features_evaluated += order - pinned;
      stats->features_skipped += pinned;
    }
    double s = 0.0;
    for (int i = 0; i < kFeatureCount; ++i) s += weights_[i] * f[i];
    out[l] = s;
  }
}

double SimilarityEnsemble::RetrievalNodeBound(const PreparedLabelBatch& p,
                                              size_t data_len,
                                              bool data_numeric,
                                              bool shares_token) const {
  const size_t m = p.label.size();
  // Equal byte length admits the case-insensitive-equality 1.0 and opens
  // every length-gated cap; the trivial bound is the only sound one.
  if (data_len == m) return 1.0;
  const double rr = static_cast<double>(std::min(data_len, m)) /
                    static_cast<double>(std::max(data_len, m));
  const double minlen = static_cast<double>(std::min(data_len, m));
  const double len = static_cast<double>(data_len);
  const bool acr_len_match = p.initials.size() == data_len && data_len >= 2;

  // The rows below are the batched kernel's stage-A caps (see
  // ScoreBatchAgainstThreshold), evaluated from index-carried facts
  // instead of per-lane ones. Eq-gated caps are 0: equal byte lengths
  // returned 1.0 above.
  const double tok_ok = (!shares_token && !p.tokens.empty()) ? 0.0 : 1.0;
  const double syn_tok = p.synonym_needs_token ? tok_ok : 1.0;
  const double num_tok = p.numeral_needs_token ? tok_ok : 1.0;
  const double qtri = static_cast<double>(p.trigrams.size);
  const double qbi = static_cast<double>(p.bigrams.size);
  const double qtok = static_cast<double>(p.tokens.size());
  const double qnum = static_cast<double>(p.numerals.size());
  const bool acr_q = p.tokens.size() == 1 && p.lower.size() >= 2;
  const double qlen = static_cast<double>(p.lower.size());
  const double tri_max = len >= 3.0 ? len - 2.0 : (len > 0.0 ? 1.0 : 0.0);
  const double bi_max = len >= 2.0 ? len - 1.0 : (len > 0.0 ? 1.0 : 0.0);
  const double tok_max = std::floor((len + 1.0) / 2.0);

  double caps[kFeatureCount];
  caps[kExact] = 0.0;
  caps[kCaseInsensitive] = 0.0;
  caps[kHamming] = 0.0;
  caps[kLevenshtein] = rr;
  caps[kDamerauLevenshtein] = rr;
  caps[kLcs] = rr;
  caps[kLongestCommonSubstring] = rr;
  caps[kContainment] = rr;
  caps[kLengthRatio] = rr;
  const double jb = (2.0 + rr) / 3.0;
  caps[kJaro] = jb;
  caps[kJaroWinkler] = 0.6 * jb + 0.4;
  caps[kAbbreviation] = minlen < 2.0 ? 0.0 : 0.5 * rr + 0.5;
  caps[kNumeric] = (p.looks_numeric || data_numeric) ? 1.0 : 0.0;
  caps[kDate] = p.contains_digit ? 1.0 : 0.0;
  caps[kPhonetic] = p.soundex.empty() ? 0.0 : 1.0;
  caps[kTfIdfCosine] =
      (context_.tfidf != nullptr && context_.tfidf->finalized()) ? tok_ok
                                                                  : 0.0;
  caps[kSynonym] = context_.synonyms != nullptr ? syn_tok : 0.0;
  caps[kTypeOntology] = context_.ontology != nullptr ? 1.0 : 0.0;
  caps[kNGramJaccard] = qtri > 0.0 ? std::min(qtri, tri_max) / qtri : 1.0;
  caps[kBigramDice] =
      (qbi > 0.0 && bi_max < qbi) ? 2.0 * bi_max / (qbi + bi_max) : 1.0;
  caps[kTokenSequenceEdit] = (qtok > tok_max ? tok_max / qtok : 1.0) * tok_ok;
  caps[kNumeralAware] = (qnum > tok_max ? 0.0 : 1.0) * num_tok;
  caps[kAcronym] =
      ((acr_q && qlen >= 2.0 && qlen <= tok_max) || acr_len_match) ? 1.0 : 0.0;
  caps[kTokenJaccard] = tok_ok;
  caps[kTokenDice] = tok_ok;
  caps[kTokenOverlap] = tok_ok;
  caps[kPrefix] = 1.0;
  caps[kSuffix] = 1.0;
  caps[kSmithWaterman] = 1.0;
  caps[kMongeElkan] = 1.0;

  double bound = 0.0;
  for (const int i : batch_order_) bound += weights_[i] * caps[i];
  return bound;
}

size_t SimilarityEnsemble::ThreadTokenTableSize() {
  return ThreadScratch().token_table.Size();
}

const std::vector<std::string>& SimilarityEnsemble::FeatureNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "exact",        "case_insensitive", "levenshtein", "damerau",
      "jaro",         "jaro_winkler",     "prefix",      "suffix",
      "containment",  "token_jaccard",    "token_dice",  "token_overlap",
      "ngram_jaccard", "acronym",         "abbreviation", "length_ratio",
      "numeric",      "lcs",              "phonetic",    "synonym",
      "tfidf_cosine", "type_ontology",    "monge_elkan",
      "longest_common_substring",         "hamming",     "smith_waterman",
      "bigram_dice",  "token_sequence_edit",             "date",
      "numeral_aware"};
  return *names;
}

}  // namespace star::text
