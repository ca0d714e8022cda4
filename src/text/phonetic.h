#ifndef STAR_TEXT_PHONETIC_H_
#define STAR_TEXT_PHONETIC_H_

#include <string>
#include <string_view>

namespace star::text {

/// American Soundex code of the first token of `s` (e.g. "Robert" -> "R163").
/// Empty input yields an empty code.
std::string Soundex(std::string_view s);

/// Soundex code of a single, already-split token (case-insensitive; empty
/// for tokens without letters).
std::string SoundexToken(std::string_view token);

/// 1 if the Soundex codes of the two strings match (token-wise best match
/// for multi-token strings), 0 otherwise. Part of the Eq. 1 feature family.
double PhoneticSimilarity(std::string_view a, std::string_view b);

}  // namespace star::text

#endif  // STAR_TEXT_PHONETIC_H_
