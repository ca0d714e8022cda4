#ifndef STAR_COMMON_STRING_UTIL_H_
#define STAR_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace star {

/// Heterogeneous hash for string-keyed unordered containers: with
/// std::equal_to<> as the key-equality functor, find()/contains() accept
/// std::string_view (and const char*) directly, so probes no longer
/// allocate a temporary std::string per lookup. Hashes through
/// std::hash<std::string_view>, which std::hash<std::string> is required
/// to agree with.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// ASCII-lowercases `s` into `*out`, reusing its capacity (no allocation
/// once the buffer has grown to the longest label seen). `out` must not
/// alias `s`.
void ToLowerInto(std::string_view s, std::string* out);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// The delimiter set label tokenization splits on.
inline constexpr std::string_view kDefaultDelimiters = " \t_-./,";

/// Splits on any of the given delimiter characters; empty pieces dropped.
std::vector<std::string> SplitTokens(
    std::string_view s, std::string_view delims = kDefaultDelimiters);

/// SplitTokens into a reusable vector: existing elements are assign()ed in
/// place so their heap buffers (and the vector's) are reused across calls.
/// Produces exactly the tokens SplitTokens would.
void SplitTokensInto(std::string_view s, std::vector<std::string>* out,
                     std::string_view delims = kDefaultDelimiters);

/// The tokens SplitTokens(s) returns, as views into `s`, into a reused
/// vector: the same split without copying a token.
void SplitTokenViewsInto(std::string_view s,
                         std::vector<std::string_view>* out);

/// Splits on a single character, keeping empty fields (TSV parsing).
std::vector<std::string> SplitFields(std::string_view s, char delim);

/// Joins pieces with the separator.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if every character is an ASCII digit (and s non-empty).
bool IsNumeric(std::string_view s);

/// Separator of cache-key segments, below any canonical-signature byte's
/// meaning.
inline constexpr char kKeySep = '\x1d';

/// Appends `v` as 16 lowercase hex digits (fixed width, so adjacent fields
/// never run together). A double goes in as std::bit_cast<uint64_t>:
/// bit-exact, with no decimal round trip.
void AppendHex64(std::string& s, uint64_t v);

/// Appends one fixed-width cache-key segment: AppendHex64(v), then kKeySep.
void AppendKeyU64(std::string& s, uint64_t v);

}  // namespace star

#endif  // STAR_COMMON_STRING_UTIL_H_
