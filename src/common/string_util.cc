#include "common/string_util.h"

#include <cctype>
#include <cstdio>

namespace star {

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

void ToLowerInto(std::string_view s, std::string* out) {
  out->resize(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    (*out)[i] =
        static_cast<char>(std::tolower(static_cast<unsigned char>(s[i])));
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

/// Membership table of a delimiter set: one lookup per byte instead of a
/// string_view::find over the set.
class DelimiterTable {
 public:
  explicit DelimiterTable(std::string_view delims) {
    for (const char c : delims) is_delim_[Byte(c)] = true;
  }

  bool operator()(char c) const { return is_delim_[Byte(c)]; }

 private:
  static unsigned char Byte(char c) { return static_cast<unsigned char>(c); }

  bool is_delim_[256] = {};
};

/// The table of `delims`: the default set's is built once, others per call.
template <typename Fn>
void WithDelimiters(std::string_view delims, Fn&& fn) {
  static const DelimiterTable kDefault(kDefaultDelimiters);
  if (delims == kDefaultDelimiters) {
    fn(kDefault);
  } else {
    fn(DelimiterTable(delims));
  }
}

/// Calls emit(begin, end) for every maximal run of non-delimiter bytes.
template <typename Emit>
void ForEachToken(std::string_view s, const DelimiterTable& is_delim,
                  Emit&& emit) {
  size_t i = 0;
  const size_t n = s.size();
  while (i < n) {
    while (i < n && is_delim(s[i])) ++i;
    if (i == n) break;
    const size_t begin = i;
    while (i < n && !is_delim(s[i])) ++i;
    emit(begin, i);
  }
}

}  // namespace

std::vector<std::string> SplitTokens(std::string_view s,
                                     std::string_view delims) {
  std::vector<std::string> out;
  WithDelimiters(delims, [&](const DelimiterTable& is_delim) {
    ForEachToken(s, is_delim, [&](size_t b, size_t e) {
      out.emplace_back(s.substr(b, e - b));
    });
  });
  return out;
}

void SplitTokensInto(std::string_view s, std::vector<std::string>* out,
                     std::string_view delims) {
  size_t count = 0;
  WithDelimiters(delims, [&](const DelimiterTable& is_delim) {
    ForEachToken(s, is_delim, [&](size_t b, size_t e) {
      if (count < out->size()) {
        (*out)[count].assign(s.substr(b, e - b));
      } else {
        out->emplace_back(s.substr(b, e - b));
      }
      ++count;
    });
  });
  out->resize(count);
}

void SplitTokenViewsInto(std::string_view s,
                         std::vector<std::string_view>* out) {
  out->clear();
  WithDelimiters(kDefaultDelimiters, [&](const DelimiterTable& is_delim) {
    ForEachToken(s, is_delim, [&](size_t b, size_t e) {
      out->push_back(s.substr(b, e - b));
    });
  });
}

std::vector<std::string> SplitFields(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool IsNumeric(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}

void AppendKeyU64(std::string& s, uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  s += buf;
  s += kKeySep;
}

}  // namespace star
