// Unit tests for the util substrate: Bitset, JSON escaping, strings,
// xorshift.
#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/util/bitset.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"
#include "src/util/xorshift.hpp"

namespace punt {
namespace {

TEST(Bitset, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  EXPECT_EQ(b.find_first(), Bitset::npos);
}

TEST(Bitset, SetTestReset) {
  Bitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, FindFirstAndNext) {
  Bitset b(200);
  b.set(3);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.find_first(), 3u);
  EXPECT_EQ(b.find_next(3), 64u);
  EXPECT_EQ(b.find_next(64), 199u);
  EXPECT_EQ(b.find_next(199), Bitset::npos);
}

TEST(Bitset, ForEachAscending) {
  Bitset b(70);
  b.set(69);
  b.set(0);
  b.set(33);
  EXPECT_EQ(b.to_indices(), (std::vector<std::size_t>{0, 33, 69}));
}

TEST(Bitset, BooleanOperators) {
  Bitset a(66), b(66);
  a.set(1);
  a.set(65);
  b.set(65);
  b.set(2);
  Bitset i = a & b;
  EXPECT_EQ(i.to_indices(), (std::vector<std::size_t>{65}));
  Bitset u = a | b;
  EXPECT_EQ(u.to_indices(), (std::vector<std::size_t>{1, 2, 65}));
  Bitset d = a;
  d.subtract(b);
  EXPECT_EQ(d.to_indices(), (std::vector<std::size_t>{1}));
}

TEST(Bitset, WordRowOperatorsMatchBitsetOperators) {
  XorShift rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    Bitset a(130), b(130);
    for (std::size_t i = 0; i < 130; ++i) {
      if ((rng.next() & 1u) != 0) a.set(i);
      if ((rng.next() & 1u) != 0) b.set(i);
    }
    const std::span<const std::uint64_t> row = b.words();
    Bitset x = a, y = a, z = a;
    x &= row;
    y |= row;
    z.subtract(row);
    EXPECT_EQ(x, a & b);
    EXPECT_EQ(y, a | b);
    Bitset want = a;
    want.subtract(b);
    EXPECT_EQ(z, want);
  }
}

TEST(Bitset, Transpose64SwapsRowsAndColumns) {
  XorShift rng(5);
  std::uint64_t rows[64];
  std::uint64_t original[64];
  for (std::size_t i = 0; i < 64; ++i) original[i] = rows[i] = rng.next();
  transpose64(rows);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = 0; j < 64; ++j) {
      EXPECT_EQ((rows[i] >> j) & 1u, (original[j] >> i) & 1u) << i << "," << j;
    }
  }
}

TEST(Bitset, SubsetAndIntersects) {
  Bitset a(10), b(10);
  a.set(3);
  b.set(3);
  b.set(7);
  EXPECT_TRUE(a.is_subset_of(b));
  EXPECT_FALSE(b.is_subset_of(a));
  EXPECT_TRUE(a.intersects(b));
  Bitset c(10);
  c.set(1);
  EXPECT_FALSE(a.intersects(c));
}

TEST(Bitset, ResizePreservesAndMasksTail) {
  Bitset b(64);
  b.set(63);
  b.resize(70);
  EXPECT_TRUE(b.test(63));
  EXPECT_EQ(b.count(), 1u);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  b.resize(3);
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, EqualityAndHash) {
  Bitset a(50), b(50);
  a.set(10);
  b.set(10);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  b.set(11);
  EXPECT_FALSE(a == b);
}

TEST(Bitset, ToString) {
  Bitset b(8);
  b.set(1);
  b.set(4);
  EXPECT_EQ(b.to_string(), "{1, 4}");
}

TEST(Strings, SplitDropsEmptyTokens) {
  EXPECT_EQ(split("  a  bb\tc "), (std::vector<std::string>{"a", "bb", "c"}));
  EXPECT_TRUE(split("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x y \t"), "x y");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with(".inputs a b", ".inputs"));
  EXPECT_FALSE(starts_with(".in", ".inputs"));
}

TEST(Strings, LogicalLinesJoinsContinuations) {
  const auto lines = logical_lines("a b \\\nc d\ne");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a b c d");
  EXPECT_EQ(lines[1], "e");
}

TEST(Strings, LogicalLinesStripsCarriageReturn) {
  const auto lines = logical_lines("a\r\nb\r");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "a");
  EXPECT_EQ(lines[1], "b");
}

TEST(Bitset, WordsRoundTripThroughFromWords) {
  Bitset b(130);
  b.set(0);
  b.set(64);
  b.set(129);
  const Bitset rebuilt = Bitset::from_words(b.size(), b.words());
  EXPECT_TRUE(rebuilt == b);

  // Size/word-count mismatches and stray tail bits are corruption, not data.
  EXPECT_THROW((void)Bitset::from_words(200, b.words()), ValidationError);
  std::vector<std::uint64_t> tail = b.words();
  tail.back() |= std::uint64_t{1} << 10;  // bit 138 > size 130
  EXPECT_THROW((void)Bitset::from_words(130, std::move(tail)), ValidationError);
}

TEST(Json, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(util::json_escape("plain"), "plain");
  EXPECT_EQ(util::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(util::json_escape("back\\slash"), "back\\\\slash");
  EXPECT_EQ(util::json_escape("line\nbreak\ttab\rret"), "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(util::json_escape(std::string("nul\x01") + "byte"), "nul\\u0001byte");
  EXPECT_EQ(util::json_escape("unit\x1fsep"), "unit\\u001fsep");
}

TEST(Json, ParserHandlesTheSchemaShapes) {
  const util::JsonValue root = util::parse_json(
      R"({"s": "text", "n": 1.5, "b": true, "a": [1, 2], "o": {"k": "v"}})");
  ASSERT_EQ(root.type, util::JsonValue::Type::Object);
  EXPECT_EQ(util::json_string(root, "s", "doc"), "text");
  EXPECT_DOUBLE_EQ(util::json_number(root, "n", "doc"), 1.5);
  EXPECT_TRUE(util::json_bool(root, "b", "doc"));
  EXPECT_EQ(util::json_require(root, "a", util::JsonValue::Type::Array, "doc")
                .array.size(), 2u);
  EXPECT_THROW((void)util::json_string(root, "missing", "doc"), ParseError);
  EXPECT_THROW((void)util::json_count(root, "s", "doc"), ParseError);  // mistyped
}

TEST(Json, DeeplyNestedInputIsRejectedNotAStackOverflow) {
  // The serve protocol feeds this parser untrusted socket bytes; without a
  // depth bound a frame of a million '[' would overflow the stack and kill
  // the daemon.  The bound must reject far below that, and far above any
  // legitimate punt schema (which nests < 8 deep).
  const std::string hostile(1u << 20, '[');
  EXPECT_THROW((void)util::parse_json(hostile), ParseError);
  std::string nested_ok = "1";
  for (int i = 0; i < 8; ++i) nested_ok = "[" + nested_ok + "]";
  EXPECT_NO_THROW((void)util::parse_json(nested_ok));
}

TEST(XorShift, DeterministicForFixedSeed) {
  XorShift a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(XorShift, BelowStaysInRange) {
  XorShift rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

}  // namespace
}  // namespace punt
