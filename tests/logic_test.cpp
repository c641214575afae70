// Unit and property tests for cubes, covers and the espresso minimiser.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/logic/cover.hpp"
#include "src/logic/cube.hpp"
#include "src/logic/espresso.hpp"
#include "src/util/error.hpp"
#include "src/util/xorshift.hpp"

namespace punt::logic {
namespace {

std::vector<std::uint8_t> point(std::initializer_list<int> bits) {
  std::vector<std::uint8_t> out;
  for (const int b : bits) out.push_back(static_cast<std::uint8_t>(b));
  return out;
}

/// Enumerates all 2^n points of an n-variable space (n <= 20).
std::vector<std::vector<std::uint8_t>> all_points(std::size_t n) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t v = 0; v < (std::size_t{1} << n); ++v) {
    std::vector<std::uint8_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = (v >> i) & 1;
    out.push_back(std::move(p));
  }
  return out;
}

TEST(Cube, FromStringAndBack) {
  const Cube c = Cube::from_string("10-1");
  EXPECT_EQ(c.to_string(), "10-1");
  EXPECT_EQ(c.get(0), Lit::One);
  EXPECT_EQ(c.get(1), Lit::Zero);
  EXPECT_EQ(c.get(2), Lit::DC);
  EXPECT_EQ(c.literal_count(), 3u);
}

TEST(Cube, FromStringRejectsJunk) {
  EXPECT_THROW(Cube::from_string("10x"), Error);
}

TEST(Cube, Containment) {
  const Cube big = Cube::from_string("1--");
  const Cube small = Cube::from_string("101");
  EXPECT_TRUE(big.contains(small));
  EXPECT_FALSE(small.contains(big));
  EXPECT_TRUE(big.contains(big));
}

TEST(Cube, IntersectionAndDistance) {
  const Cube a = Cube::from_string("1-0");
  const Cube b = Cube::from_string("-10");
  const auto i = a.intersect(b);
  ASSERT_TRUE(i.has_value());
  EXPECT_EQ(i->to_string(), "110");
  const Cube c = Cube::from_string("0-0");
  EXPECT_FALSE(a.intersect(c).has_value());
  EXPECT_EQ(a.distance(c), 1u);
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.intersects(c));
}

TEST(Cube, Supercube) {
  const Cube a = Cube::from_string("101");
  const Cube b = Cube::from_string("111");
  EXPECT_EQ(a.supercube_with(b).to_string(), "1-1");
}

TEST(Cube, CoversPoint) {
  const Cube c = Cube::from_string("1-0");
  EXPECT_TRUE(c.covers_point(point({1, 0, 0})));
  EXPECT_TRUE(c.covers_point(point({1, 1, 0})));
  EXPECT_FALSE(c.covers_point(point({0, 1, 0})));
}

TEST(Cube, FromBitsMatchesFromCodeWithDcRaised) {
  // Widths around the word boundaries of both layouts: 32 pairs per cube
  // word, 64 bits per code word, inline cubes up to 64 variables.
  XorShift rng(7);
  for (const std::size_t n : {0, 1, 31, 32, 33, 63, 64, 65, 96, 128, 130}) {
    for (int trial = 0; trial < 20; ++trial) {
      std::vector<std::uint8_t> code(n);
      std::vector<std::uint64_t> values((n + 63) / 64), dc((n + 63) / 64);
      for (std::size_t v = 0; v < n; ++v) {
        code[v] = static_cast<std::uint8_t>(rng.next() & 1u);
        if (code[v] != 0) values[v / 64] |= std::uint64_t{1} << (v % 64);
      }
      Cube want = Cube::from_code(code);
      for (std::size_t v = 0; v < n; ++v) {
        if ((rng.next() & 3u) == 0) {
          dc[v / 64] |= std::uint64_t{1} << (v % 64);
          want.set(v, Lit::DC);
        }
      }
      EXPECT_EQ(Cube::from_bits(values, dc, n), want) << n << " variables";
    }
  }
}

TEST(Cube, ExprRendering) {
  const std::vector<std::string> names{"a", "b", "c"};
  EXPECT_EQ(Cube::from_string("10-").to_expr(names), "a b'");
  EXPECT_EQ(Cube::from_string("---").to_expr(names), "1");
}

TEST(Cover, PointMembership) {
  Cover f(3);
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("--1"));
  EXPECT_TRUE(f.covers_point(point({1, 0, 0})));
  EXPECT_TRUE(f.covers_point(point({0, 0, 1})));
  EXPECT_FALSE(f.covers_point(point({0, 1, 0})));
}

TEST(Cover, SccRemovesContainedCubes) {
  Cover f(3);
  f.add(Cube::from_string("101"));
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("1--"));
  f.make_irredundant_scc();
  EXPECT_EQ(f.cube_count(), 1u);
  EXPECT_EQ(f.cube(0).to_string(), "1--");
}

/// 100 pairwise-disjoint cubes (distinct constants on the first 7 of 12
/// variables) with 7 to 10 literals: containment drops none of them, and
/// the many equal literal counts make std::sort's order differ from a
/// stable sort's.
std::vector<Cube> disjoint_cubes_with_tied_sizes() {
  std::vector<Cube> cubes;
  for (std::size_t i = 0; i < 100; ++i) {
    Cube c(12);
    for (std::size_t v = 0; v < 7; ++v) c.set(v, ((i >> v) & 1) != 0 ? Lit::One : Lit::Zero);
    for (std::size_t v = 7; v < 7 + (i * 7) % 4; ++v) c.set(v, Lit::One);
    cubes.push_back(std::move(c));
  }
  return cubes;
}

TEST(Cover, SccKeepsTheOrderOfStdSortByLiteralCount) {
  // Covers feed espresso in this order, so equations depend on it.
  const std::vector<Cube> cubes = disjoint_cubes_with_tied_sizes();
  const auto by_literals = [](const Cube& a, const Cube& b) {
    return a.literal_count() < b.literal_count();
  };
  std::vector<Cube> expected = cubes;
  std::sort(expected.begin(), expected.end(), by_literals);
  std::vector<Cube> stable = cubes;
  std::stable_sort(stable.begin(), stable.end(), by_literals);
  ASSERT_NE(stable, expected);  // the input tells the two orders apart

  Cover f(12, cubes);
  f.make_irredundant_scc();
  EXPECT_EQ(f.cubes(), expected);
}

TEST(Cover, TautologyBasics) {
  EXPECT_TRUE(Cover::one(4).tautology());
  EXPECT_FALSE(Cover(4).tautology());
  Cover f(1);
  f.add(Cube::from_string("0"));
  f.add(Cube::from_string("1"));
  EXPECT_TRUE(f.tautology());
}

TEST(Cover, TautologyNeedsBothBranches) {
  Cover f(2);
  f.add(Cube::from_string("1-"));
  f.add(Cube::from_string("01"));
  EXPECT_FALSE(f.tautology());  // point 00 uncovered
  f.add(Cube::from_string("-0"));
  EXPECT_TRUE(f.tautology());
}

TEST(Cover, ContainsCubeJointly) {
  Cover f(2);
  f.add(Cube::from_string("1-"));
  f.add(Cube::from_string("0-"));
  // Neither cube alone contains "--", but together they do.
  EXPECT_TRUE(f.contains_cube(Cube::from_string("--")));
  Cover g(2);
  g.add(Cube::from_string("11"));
  EXPECT_FALSE(g.contains_cube(Cube::from_string("1-")));
}

TEST(Cover, ComplementSingleCube) {
  Cover f(3);
  f.add(Cube::from_string("10-"));
  Cover c = f.complement();
  // De Morgan: a'+b — as cubes {0--, -1-}.
  c.normalize();
  EXPECT_EQ(c.cube_count(), 2u);
  for (const auto& p : all_points(3)) {
    EXPECT_NE(f.covers_point(p), c.covers_point(p));
  }
}

TEST(Cover, ComplementExhaustiveAgreement) {
  // complement() must disagree with the cover on every point.
  XorShift rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.below(5);
    Cover f(n);
    const std::size_t cubes = rng.below(5);
    for (std::size_t i = 0; i < cubes; ++i) {
      Cube c(n);
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t r = rng.below(3);
        c.set(v, r == 0 ? Lit::Zero : (r == 1 ? Lit::One : Lit::DC));
      }
      f.add(c);
    }
    const Cover comp = f.complement();
    for (const auto& p : all_points(n)) {
      EXPECT_NE(f.covers_point(p), comp.covers_point(p))
          << "n=" << n << " point mismatch; F=" << f.to_pla();
    }
  }
}

TEST(Cover, IntersectMatchesPointwiseAnd) {
  Cover f(3), g(3);
  f.add(Cube::from_string("1--"));
  f.add(Cube::from_string("-0-"));
  g.add(Cube::from_string("--1"));
  const Cover i = f.intersect(g);
  for (const auto& p : all_points(3)) {
    EXPECT_EQ(i.covers_point(p), f.covers_point(p) && g.covers_point(p));
  }
  EXPECT_TRUE(f.intersects(g));
  Cover h(3);
  h.add(Cube::from_string("00-"));
  Cover k(3);
  k.add(Cube::from_string("11-"));
  EXPECT_FALSE(h.intersects(k));
}

TEST(Cover, CofactorSemantics) {
  Cover f(3);
  f.add(Cube::from_string("11-"));
  f.add(Cube::from_string("0-1"));
  const Cover fc = f.cofactor(Cube::from_string("1--"));
  // In the a=1 subspace only the first cube survives (as "-1-" with a freed).
  EXPECT_EQ(fc.cube_count(), 1u);
  EXPECT_EQ(fc.cube(0).to_string(), "-1-");
}

TEST(Cover, ExprRendering) {
  Cover f(3);
  EXPECT_EQ(f.to_expr({"a", "b", "c"}), "0");
  f.add(Cube::from_string("1-1"));
  f.add(Cube::from_string("0--"));
  EXPECT_EQ(f.to_expr({"a", "b", "c"}), "a c + a'");
}

// --- Espresso ---------------------------------------------------------------

/// The paper's running example: On(b) = {100,101,110,111,001,011},
/// Off(b) = {010,000}; minimal cover is a + c (2 literals).
TEST(Espresso, PaperExampleAPlusC) {
  Cover on(3), off(3);
  for (const char* s : {"100", "101", "110", "111", "001", "011"}) {
    on.add(Cube::from_string(s));
  }
  for (const char* s : {"010", "000"}) off.add(Cube::from_string(s));
  MinimizeStats stats;
  const Cover min = espresso(on, off, &stats);
  EXPECT_EQ(min.literal_count(), 2u);
  EXPECT_EQ(min.cube_count(), 2u);
  min.to_expr({"a", "b", "c"});  // must not throw
  // Verify semantics: covers all of on, avoids all of off.
  EXPECT_TRUE(min.contains_cover(on));
  EXPECT_FALSE(min.intersects(off));
  EXPECT_EQ(stats.initial_literals, 18u);
  EXPECT_EQ(stats.final_literals, 2u);
}

TEST(Espresso, OffsetExampleNotAC) {
  // C_Off of the same example: {010, 000} -> a'c'.
  Cover on(3), off(3);
  for (const char* s : {"010", "000"}) on.add(Cube::from_string(s));
  for (const char* s : {"100", "101", "110", "111", "001", "011"}) {
    off.add(Cube::from_string(s));
  }
  const Cover min = espresso(on, off);
  EXPECT_EQ(min.literal_count(), 2u);
  EXPECT_EQ(min.cube_count(), 1u);
  EXPECT_EQ(min.cube(0).to_string(), "0-0");
}

TEST(Espresso, ContradictoryInputsRejected) {
  Cover on(2), off(2);
  on.add(Cube::from_string("1-"));
  off.add(Cube::from_string("11"));
  EXPECT_THROW(espresso(on, off), Error);
}

TEST(Espresso, UsesDontCares) {
  // on = {11}, off = {00}; everything else DC -> a single literal suffices.
  Cover on(2), off(2);
  on.add(Cube::from_string("11"));
  off.add(Cube::from_string("00"));
  const Cover min = espresso(on, off);
  EXPECT_EQ(min.literal_count(), 1u);
}

TEST(Espresso, WithExplicitDcWrapper) {
  Cover on(2), dc(2);
  on.add(Cube::from_string("11"));
  dc.add(Cube::from_string("10"));
  dc.add(Cube::from_string("01"));
  Cover care = on;
  care.add_all(dc);
  const Cover min = espresso(on, care.complement());
  // off = {00}; one literal covers on within on+dc.
  EXPECT_EQ(min.literal_count(), 1u);
  EXPECT_TRUE(min.contains_cover(on));
  EXPECT_FALSE(min.covers_point(point({0, 0})));
}

/// Property sweep: random on/off partitions of small spaces; the minimised
/// cover must cover `on` exactly-or-more and never touch `off`.
class EspressoProperty : public ::testing::TestWithParam<int> {};

TEST_P(EspressoProperty, CorrectOnRandomPartitions) {
  XorShift rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  const std::size_t n = 2 + rng.below(4);  // 2..5 variables
  Cover on(n), off(n);
  for (const auto& p : all_points(n)) {
    const std::uint64_t bucket = rng.below(3);  // on / off / dc
    if (bucket == 0) on.add(Cube::from_code(p));
    if (bucket == 1) off.add(Cube::from_code(p));
  }
  if (on.empty()) return;  // nothing to minimise
  MinimizeStats stats;
  const Cover min = espresso(on, off, &stats);
  EXPECT_TRUE(min.contains_cover(on));
  EXPECT_FALSE(min.intersects(off));
  EXPECT_LE(stats.final_literals, stats.initial_literals);
}

INSTANTIATE_TEST_SUITE_P(RandomPartitions, EspressoProperty, ::testing::Range(0, 40));

}  // namespace
}  // namespace punt::logic
