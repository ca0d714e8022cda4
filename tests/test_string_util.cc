#include "common/string_util.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace star {
namespace {

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("Brad PITT"), "brad pitt");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("123-aBc"), "123-abc");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringUtilTest, SplitTokens) {
  EXPECT_EQ(SplitTokens("Brad Pitt"), (std::vector<std::string>{"Brad", "Pitt"}));
  EXPECT_EQ(SplitTokens("a_b-c.d/e"),
            (std::vector<std::string>{"a", "b", "c", "d", "e"}));
  EXPECT_TRUE(SplitTokens("").empty());
  EXPECT_TRUE(SplitTokens("  ").empty());
  EXPECT_EQ(SplitTokens("one"), (std::vector<std::string>{"one"}));
}

// Naive reference splitter: one delimiter-set scan per byte. The scoring
// kernel and the similarity references share SplitTokens, so their
// identity sweeps cannot catch a tokenizer bug; this test can.
std::vector<std::string> NaiveSplit(std::string_view s,
                                    std::string_view delims) {
  std::vector<std::string> out(1);
  for (const char c : s) {
    if (delims.find(c) == std::string_view::npos) {
      out.back().push_back(c);
    } else if (!out.back().empty()) {
      out.emplace_back();
    }
  }
  if (out.back().empty()) out.pop_back();
  return out;
}

TEST(StringUtilTest, SplitTokensMatchesNaiveSplitterOnRandomBytes) {
  Rng rng(515);
  const std::string custom_high = {'\x80', '\xff', 'a', '\0'};
  const std::vector<std::string_view> delim_sets = {
      kDefaultDelimiters, "", ",", "ab", std::string_view(custom_high),
      "\t_-./, "};
  // Bytes drawn from the default delimiters, ASCII letters and digits,
  // NUL and every byte >= 0x80; lengths 0..40.
  const std::string pool = std::string(" \t_-./,aZ9\0", 11);
  std::vector<std::string> reused = {"stale", "buffers", "x"};
  std::vector<std::string_view> views = {"stale"};
  for (int trial = 0; trial < 3000; ++trial) {
    std::string s;
    const size_t len = rng.Below(41);
    for (size_t i = 0; i < len; ++i) {
      s.push_back(rng.Below(3) == 0
                      ? static_cast<char>(0x80 + rng.Below(0x80))
                      : pool[rng.Below(pool.size())]);
    }
    const std::string_view delims = delim_sets[trial % delim_sets.size()];
    const auto expected = NaiveSplit(s, delims);
    EXPECT_EQ(SplitTokens(s, delims), expected) << "trial " << trial;
    SplitTokensInto(s, &reused, delims);
    EXPECT_EQ(reused, expected) << "trial " << trial;
    if (delims == kDefaultDelimiters) {
      SplitTokenViewsInto(s, &views);
      EXPECT_EQ(std::vector<std::string>(views.begin(), views.end()),
                expected)
          << "trial " << trial;
    }
  }
  // The default argument is the default set.
  EXPECT_EQ(SplitTokens("a b\tc_d-e.f/g,h"), NaiveSplit("a b\tc_d-e.f/g,h",
                                                        kDefaultDelimiters));
}

TEST(StringUtilTest, SplitFieldsKeepsEmpties) {
  EXPECT_EQ(SplitFields("a\t\tb", '\t'),
            (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(SplitFields("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(SplitFields("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("prefix-rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(StringUtilTest, IsNumeric) {
  EXPECT_TRUE(IsNumeric("12345"));
  EXPECT_FALSE(IsNumeric(""));
  EXPECT_FALSE(IsNumeric("12a"));
  EXPECT_FALSE(IsNumeric("-12"));  // digits only by design
}

}  // namespace
}  // namespace star
