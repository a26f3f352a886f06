// Unit tests for Pattern: sub-pattern search, positional overlap (Def. 6)
// and the §7.3 multiplicity helper.

#include "src/query/pattern.h"

#include <gtest/gtest.h>

#include <vector>

namespace sharon {
namespace {

TEST(PatternTest, Basics) {
  Pattern p({1, 2, 3});
  EXPECT_EQ(p.length(), 3u);
  EXPECT_EQ(p.front(), 1u);
  EXPECT_EQ(p.back(), 3u);
  EXPECT_EQ(p.Sub(1, 2), Pattern({2, 3}));
}

TEST(PatternTest, FindOccurrences) {
  Pattern p({1, 2, 3, 4});
  EXPECT_EQ(p.FindOccurrences(Pattern({2, 3})), (std::vector<size_t>{1}));
  EXPECT_EQ(p.FindOccurrences(Pattern({1, 2, 3, 4})),
            (std::vector<size_t>{0}));
  EXPECT_TRUE(p.FindOccurrences(Pattern({3, 2})).empty());
  EXPECT_TRUE(p.FindOccurrences(Pattern({1, 2, 3, 4, 5})).empty());
}

TEST(PatternTest, FindOccurrencesWithRepeats) {
  Pattern p({1, 2, 1, 2});
  EXPECT_EQ(p.FindOccurrences(Pattern({1, 2})), (std::vector<size_t>{0, 2}));
  EXPECT_EQ(p.CountType(1), 2u);
  EXPECT_EQ(p.CountType(3), 0u);
}

TEST(PatternTest, OverlapsIntersectingRanges) {
  // q4 = (Park, Oak, Main, West) with Park=0 Oak=1 Main=2 West=3.
  Pattern q({0, 1, 2, 3});
  // p2 = (Park, Oak) [0,1] and p1 = (Oak, Main) [1,2] overlap at Oak.
  EXPECT_TRUE(q.Overlaps(Pattern({0, 1}), Pattern({1, 2})));
  // p2 [0,1] and p4 = (Main, West) [2,3] are disjoint (Example 5).
  EXPECT_FALSE(q.Overlaps(Pattern({0, 1}), Pattern({2, 3})));
  // Containment overlaps: p3 = (Park, Oak, Main) vs p1 = (Oak, Main).
  EXPECT_TRUE(q.Overlaps(Pattern({0, 1, 2}), Pattern({1, 2})));
  // A pattern trivially overlaps itself.
  EXPECT_TRUE(q.Overlaps(Pattern({1, 2}), Pattern({1, 2})));
  // Absent patterns never overlap.
  EXPECT_FALSE(q.Overlaps(Pattern({7, 8}), Pattern({1, 2})));
}

// Def. 6 stated over occurrence lists: some occurrence of a and some of
// b intersect positionally. Overlaps scans only the positions of b that
// could intersect each occurrence of a; it must agree with this on every
// small pattern, repeated types (§7.3) included.
bool OccurrencePairsOverlap(const Pattern& q, const Pattern& a,
                            const Pattern& b) {
  for (size_t ia : q.FindOccurrences(a)) {
    for (size_t ib : q.FindOccurrences(b)) {
      if (ia < ib + b.length() && ib < ia + a.length()) return true;
    }
  }
  return false;
}

std::vector<Pattern> AllPatterns(size_t max_length, EventTypeId types) {
  std::vector<Pattern> out = {Pattern()};
  for (size_t i = 0; out[i].length() < max_length; ++i) {
    for (EventTypeId t = 0; t < types; ++t) {
      std::vector<EventTypeId> next = out[i].types();
      next.push_back(t);
      out.emplace_back(std::move(next));
    }
  }
  return out;
}

TEST(PatternTest, OverlapsMatchesOccurrencePairs) {
  const std::vector<Pattern> queries = AllPatterns(6, 2);
  const std::vector<Pattern> subs = AllPatterns(3, 3);
  TypeRegistry reg;
  for (const char* name : {"A", "B", "C"}) reg.Intern(name);
  for (const Pattern& q : queries) {
    for (const Pattern& a : subs) {
      for (const Pattern& b : subs) {
        ASSERT_EQ(q.Overlaps(a, b), OccurrencePairsOverlap(q, a, b))
            << q.ToString(reg) << " " << a.ToString(reg) << " "
            << b.ToString(reg);
      }
    }
  }
}

TEST(PatternTest, OrderingIsLexicographic) {
  EXPECT_LT(Pattern({1, 2}), Pattern({1, 3}));
  EXPECT_LT(Pattern({1, 2}), Pattern({1, 2, 0}));
}

TEST(PatternTest, ToStringUsesRegistry) {
  TypeRegistry reg;
  EventTypeId a = reg.Intern("OakSt");
  EventTypeId b = reg.Intern("MainSt");
  EXPECT_EQ(Pattern({a, b}).ToString(reg), "(OakSt,MainSt)");
}

TEST(TypeRegistryTest, InternIsIdempotent) {
  TypeRegistry reg;
  EXPECT_EQ(reg.Intern("A"), reg.Intern("A"));
  EXPECT_NE(reg.Intern("A"), reg.Intern("B"));
  EXPECT_EQ(reg.Find("C"), kInvalidType);
  EXPECT_EQ(reg.Name(reg.Find("B")), "B");
}

}  // namespace
}  // namespace sharon
