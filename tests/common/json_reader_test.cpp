#include "common/json_reader.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>

namespace pq {
namespace {

TEST(JsonCursor, NumberStopsAtTheEndOfTheView) {
  // The view ends mid-token; the digits after it must not be read.
  const std::string text = "12345";
  JsonCursor c(std::string_view(text).substr(0, 3));
  double v = 0.0;
  ASSERT_TRUE(c.number(v));
  EXPECT_DOUBLE_EQ(v, 123.0);
  EXPECT_EQ(c.offset(), 3u);
  EXPECT_TRUE(c.done());
}

TEST(JsonCursor, NumberReadsLikeStrtodUpToADelimiter) {
  JsonCursor c(" 1.5e3, -2}");
  double v = 0.0;
  ASSERT_TRUE(c.number(v));
  EXPECT_DOUBLE_EQ(v, 1500.0);
  EXPECT_TRUE(c.eat(','));
  ASSERT_TRUE(c.number(v));
  EXPECT_DOUBLE_EQ(v, -2.0);
  EXPECT_TRUE(c.eat('}'));
  EXPECT_TRUE(c.done());

  JsonCursor word("lots");
  EXPECT_FALSE(word.number(v));
}

TEST(JsonCursor, StringsAndIntegers) {
  JsonCursor c(R"( "name" : 42 )");
  std::string s;
  ASSERT_TRUE(c.string(s));
  EXPECT_EQ(s, "name");
  EXPECT_TRUE(c.eat(':'));
  std::uint64_t n = 0;
  ASSERT_TRUE(c.u64(n));
  EXPECT_EQ(n, 42u);
  EXPECT_TRUE(c.done());

  JsonCursor escaped(R"("a\"b")");
  EXPECT_FALSE(escaped.string(s));
  JsonCursor unterminated(R"("abc)");
  EXPECT_FALSE(unterminated.string(s));
  JsonCursor negative("-1");
  EXPECT_FALSE(negative.u64(n));
}

}  // namespace
}  // namespace pq
