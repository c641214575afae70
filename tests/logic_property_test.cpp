// Randomised cross-checks of the cover algebra against brute-force
// pointwise evaluation: every operator used by the synthesis pipeline
// (intersect, cofactor, containment, tautology, complement, espresso) is
// compared with its set-theoretic definition on exhaustively enumerated
// small spaces.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/core/synthesis.hpp"
#include "src/logic/cover.hpp"
#include "src/logic/espresso.hpp"
#include "src/stg/generators.hpp"
#include "src/util/xorshift.hpp"
#include "tests/dc_espresso_reference.hpp"

namespace punt::logic {
namespace {

std::vector<std::vector<std::uint8_t>> all_points(std::size_t n) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t v = 0; v < (std::size_t{1} << n); ++v) {
    std::vector<std::uint8_t> p(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = (v >> i) & 1;
    out.push_back(std::move(p));
  }
  return out;
}

Cover random_cover(XorShift& rng, std::size_t n, std::size_t max_cubes) {
  Cover f(n);
  const std::size_t cubes = rng.below(max_cubes + 1);
  for (std::size_t i = 0; i < cubes; ++i) {
    Cube c(n);
    for (std::size_t v = 0; v < n; ++v) {
      const auto r = rng.below(4);  // bias towards DC for wider cubes
      c.set(v, r == 0 ? Lit::Zero : (r == 1 ? Lit::One : Lit::DC));
    }
    f.add(c);
  }
  return f;
}

class CoverAlgebra : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    XorShift rng(static_cast<std::uint64_t>(GetParam()) * 0x9E37 + 5);
    n = 2 + rng.below(4);  // 2..5 variables
    f = random_cover(rng, n, 5);
    g = random_cover(rng, n, 5);
    points = all_points(n);
    rng_state = rng;
  }
  std::size_t n = 0;
  Cover f{0}, g{0};
  std::vector<std::vector<std::uint8_t>> points;
  XorShift rng_state{1};
};

TEST_P(CoverAlgebra, IntersectIsPointwiseAnd) {
  const Cover i = f.intersect(g);
  for (const auto& p : points) {
    EXPECT_EQ(i.covers_point(p), f.covers_point(p) && g.covers_point(p));
  }
}

TEST_P(CoverAlgebra, IntersectsAgreesWithProduct) {
  EXPECT_EQ(f.intersects(g), !f.intersect(g).empty());
}

TEST_P(CoverAlgebra, ComplementIsPointwiseNot) {
  const Cover c = f.complement();
  for (const auto& p : points) {
    EXPECT_NE(c.covers_point(p), f.covers_point(p));
  }
}

TEST_P(CoverAlgebra, TautologyIffAllPointsCovered) {
  bool all = true;
  for (const auto& p : points) all = all && f.covers_point(p);
  EXPECT_EQ(f.tautology(), all);
}

TEST_P(CoverAlgebra, ContainsCoverIffPointwiseSubset) {
  bool subset = true;
  for (const auto& p : points) {
    if (g.covers_point(p) && !f.covers_point(p)) subset = false;
  }
  EXPECT_EQ(f.contains_cover(g), subset);
}

TEST_P(CoverAlgebra, SccPreservesSemantics) {
  Cover reduced = f;
  reduced.make_irredundant_scc();
  EXPECT_LE(reduced.cube_count(), f.cube_count());
  for (const auto& p : points) {
    EXPECT_EQ(reduced.covers_point(p), f.covers_point(p));
  }
}

TEST_P(CoverAlgebra, CofactorSemantics) {
  // F|c covers p (in the free coordinates) iff F covers the point obtained
  // by overriding p with c's constants.
  XorShift rng = rng_state;
  Cube c(n);
  for (std::size_t v = 0; v < n; ++v) {
    const auto r = rng.below(3);
    c.set(v, r == 0 ? Lit::Zero : (r == 1 ? Lit::One : Lit::DC));
  }
  const Cover fc = f.cofactor(c);
  for (const auto& p : points) {
    std::vector<std::uint8_t> forced = p;
    for (std::size_t v = 0; v < n; ++v) {
      if (c.get(v) != Lit::DC) forced[v] = c.get(v) == Lit::One ? 1 : 0;
    }
    EXPECT_EQ(fc.covers_point(p), f.covers_point(forced));
  }
}

TEST_P(CoverAlgebra, EspressoSoundOnDisjointPair) {
  // Blocking = points not in f (exact complement): result must equal f as a
  // point set and never grow beyond what the DC-freedom (none here) allows.
  const Cover blocking = f.complement();
  const Cover min = espresso(f, blocking);
  for (const auto& p : points) {
    EXPECT_EQ(min.covers_point(p), f.covers_point(p));
  }
  EXPECT_LE(min.literal_count(), f.literal_count() + 1);
}

TEST_P(CoverAlgebra, EspressoMatchesTheDcReference) {
  // A random on/off partition, on = f and off = g minus f, with every
  // other point free; both phases, cube list for cube list.
  const Cover& on_set = f;
  const Cover off = g.intersect(f.complement());
  for (const auto& [on, blocking] : {std::pair{&on_set, &off}, std::pair{&off, &on_set}}) {
    const std::optional<Cover> dc = reference::dont_care(*on, *blocking);
    ASSERT_TRUE(dc.has_value());
    EXPECT_EQ(espresso(*on, *blocking).cubes(), reference::espresso(*on, *blocking, *dc).cubes())
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoverAlgebra, ::testing::Range(0, 25));

TEST(EspressoReference, IteratingMinimisationsMatch) {
  // Random point partitions of 8 variables.  Only a REDUCE / EXPAND /
  // IRREDUNDANT round that lowers the cost carries REDUCE's result into the
  // output, and on these about one run in nine takes one.
  std::size_t iterating = 0;
  for (int seed = 0; seed < 200; ++seed) {
    XorShift rng(static_cast<std::uint64_t>(seed) * 7919 + 8);
    Cover on(8), off(8);
    for (const auto& p : all_points(8)) {
      const std::uint64_t bucket = rng.below(3);  // on / off / free
      if (bucket == 0) on.add(Cube::from_code(p));
      if (bucket == 1) off.add(Cube::from_code(p));
    }
    MinimizeStats stats;
    const Cover min = espresso(on, off, &stats);
    const std::optional<Cover> dc = reference::dont_care(on, off);
    ASSERT_TRUE(dc.has_value());
    EXPECT_EQ(min.cubes(), reference::espresso(on, off, *dc).cubes()) << "seed " << seed;
    iterating += stats.iterations > 0 ? 1 : 0;
  }
  EXPECT_GT(iterating, 0u);
}

// --- Wide cubes: the packed kernel against a byte-per-variable reference ----
//
// Cube packs 2 bits per variable into 64-bit words, inline up to 64
// variables and on the heap beyond.  The widths below straddle every word
// and storage boundary; RefCube is the scalar definition of each operation
// (Zero = 0, One = 1, DC = 2, one byte per variable).

using RefCube = std::vector<std::uint8_t>;

constexpr std::uint8_t kDc = 2;

RefCube random_ref(XorShift& rng, std::size_t n, std::uint64_t dc_percent) {
  RefCube c(n);
  for (auto& l : c) {
    l = rng.below(100) < dc_percent ? kDc : static_cast<std::uint8_t>(rng.below(2));
  }
  return c;
}

Cube packed(const RefCube& ref) {
  Cube c(ref.size());
  for (std::size_t v = 0; v < ref.size(); ++v) c.set(v, static_cast<Lit>(ref[v]));
  return c;
}

RefCube unpacked(const Cube& c) {
  RefCube ref(c.size());
  for (std::size_t v = 0; v < c.size(); ++v) ref[v] = static_cast<std::uint8_t>(c.get(v));
  return ref;
}

std::size_t ref_literals(const RefCube& a) {
  return static_cast<std::size_t>(std::count_if(a.begin(), a.end(), [](auto l) { return l != kDc; }));
}

bool ref_contains(const RefCube& a, const RefCube& b) {
  for (std::size_t v = 0; v < a.size(); ++v) {
    if (a[v] != kDc && a[v] != b[v]) return false;
  }
  return true;
}

std::size_t ref_distance(const RefCube& a, const RefCube& b) {
  std::size_t n = 0;
  for (std::size_t v = 0; v < a.size(); ++v) n += a[v] != kDc && b[v] != kDc && a[v] != b[v];
  return n;
}

RefCube ref_product(const RefCube& a, const RefCube& b) {
  RefCube out(a.size());
  for (std::size_t v = 0; v < a.size(); ++v) out[v] = a[v] == kDc ? b[v] : a[v];
  return out;
}

RefCube ref_supercube(const RefCube& a, const RefCube& b) {
  RefCube out(a.size());
  for (std::size_t v = 0; v < a.size(); ++v) out[v] = a[v] == b[v] ? a[v] : kDc;
  return out;
}

class WideCube : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WideCube, OperationsMatchTheByteReference) {
  const std::size_t n = GetParam();
  XorShift rng(n * 7919 + 3);
  constexpr std::uint64_t kDcPercents[] = {0, 10, 50, 90, 100};
  for (int round = 0; round < 200; ++round) {
    // Sparse and dense cubes, and pairs that differ in a single variable.
    const std::uint64_t dc = kDcPercents[round % 5];
    const RefCube ra = random_ref(rng, n, dc);
    RefCube rb = round % 3 == 0 ? ra : random_ref(rng, n, dc);
    if (round % 3 == 0) rb[rng.below(n)] = static_cast<std::uint8_t>(rng.below(3));
    const Cube a = packed(ra);
    const Cube b = packed(rb);

    ASSERT_EQ(a.size(), n);
    ASSERT_EQ(unpacked(a), ra);
    EXPECT_EQ(a.literal_count(), ref_literals(ra));
    EXPECT_EQ(a.contains(b), ref_contains(ra, rb));
    EXPECT_EQ(b.contains(a), ref_contains(rb, ra));
    EXPECT_EQ(a.distance(b), ref_distance(ra, rb));
    EXPECT_EQ(a.intersects(b), ref_distance(ra, rb) == 0);
    const auto product = a.intersect(b);
    ASSERT_EQ(product.has_value(), ref_distance(ra, rb) == 0);
    if (product) {
      EXPECT_EQ(unpacked(*product), ref_product(ra, rb));
    }
    EXPECT_EQ(unpacked(a.supercube_with(b)), ref_supercube(ra, rb));
    EXPECT_EQ(a == b, ra == rb);
    EXPECT_EQ(a < b, ra < rb);
    EXPECT_EQ(b < a, rb < ra);
    std::vector<std::pair<std::size_t, Lit>> visited;
    a.for_each_literal([&](std::size_t v, Lit l) { visited.emplace_back(v, l); });
    ASSERT_EQ(visited.size(), ref_literals(ra));
    for (const auto& [v, l] : visited) EXPECT_EQ(static_cast<std::uint8_t>(l), ra[v]);
  }
}

TEST_P(WideCube, FillConstructorAndPointsMatchTheReference) {
  const std::size_t n = GetParam();
  for (const Lit fill : {Lit::Zero, Lit::One, Lit::DC}) {
    const Cube c(n, fill);
    EXPECT_EQ(unpacked(c), RefCube(n, static_cast<std::uint8_t>(fill)));
    EXPECT_EQ(c.literal_count(), fill == Lit::DC ? 0 : n);
  }
  XorShift rng(n + 11);
  for (int round = 0; round < 50; ++round) {
    std::vector<std::uint8_t> code(n);
    for (auto& bit : code) bit = static_cast<std::uint8_t>(rng.below(2));
    const Cube minterm = Cube::from_code(code);
    EXPECT_EQ(unpacked(minterm), code);
    const RefCube ref = random_ref(rng, n, 80);
    bool inside = true;
    for (std::size_t v = 0; v < n; ++v) inside = inside && (ref[v] == kDc || ref[v] == code[v]);
    EXPECT_EQ(packed(ref).covers_point(code), inside);
    EXPECT_EQ(Cube::from_string(packed(ref).to_string()), packed(ref));
  }
}

TEST_P(WideCube, CofactorRaisesTheFixedVariables) {
  const std::size_t n = GetParam();
  XorShift rng(n * 31 + 1);
  for (int round = 0; round < 100; ++round) {
    const RefCube ra = random_ref(rng, n, 60);
    const RefCube rc = random_ref(rng, n, 80);
    const auto cofactor = packed(ra).cofactor(packed(rc));
    ASSERT_EQ(cofactor.has_value(), ref_distance(ra, rc) == 0);
    if (!cofactor) continue;
    RefCube expected = ra;
    for (std::size_t v = 0; v < n; ++v) {
      if (rc[v] != kDc) expected[v] = kDc;
    }
    EXPECT_EQ(unpacked(*cofactor), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideCube,
                         ::testing::Values(1, 31, 32, 33, 63, 64, 65, 130));

// Up to 64 variables a cube is its 24 bytes: no allocation per cube.
static_assert(sizeof(Cube) <= 24);

TEST(WideCubeStorage, CopyMoveAndSelfAssignmentAcrossTheInlineBoundary) {
  // The default cube is the 0-variable universal cube, padding included.
  EXPECT_EQ(Cube(), Cube(0));
  EXPECT_TRUE(Cube().intersects(Cube(0)));
  EXPECT_TRUE(Cube(0).contains(Cube()));
  XorShift rng(42);
  const std::vector<std::size_t> widths = {0, 5, 64, 65, 130, 200};
  for (const std::size_t from : widths) {
    for (const std::size_t to : widths) {
      const RefCube rsource = random_ref(rng, from, 30);
      const Cube source = packed(rsource);

      Cube copied = packed(random_ref(rng, to, 30));
      copied = source;
      EXPECT_EQ(unpacked(copied), rsource);
      EXPECT_EQ(copied, source);

      Cube moved_from = source;
      Cube moved = packed(random_ref(rng, to, 30));
      moved = std::move(moved_from);
      EXPECT_EQ(unpacked(moved), rsource);
      EXPECT_EQ(moved_from.size(), 0u);  // NOLINT(bugprone-use-after-move)
      moved_from = packed(random_ref(rng, to, 30));  // a moved-from cube is reusable
      EXPECT_EQ(moved_from.size(), to);

      Cube constructed(std::move(moved));
      EXPECT_EQ(unpacked(constructed), rsource);
      Cube copy_constructed(constructed);
      if (from > 0) {
        copy_constructed.set(from - 1, rsource[from - 1] == kDc ? Lit::One : Lit::DC);
        EXPECT_EQ(unpacked(constructed), rsource);  // the copy owns its words
      }

      Cube& self = copied;
      copied = self;
      EXPECT_EQ(unpacked(copied), rsource);
      copied = std::move(self);
      EXPECT_EQ(unpacked(copied), rsource);
    }
  }
}

// --- Cover::intersects against the all-pairs definition ----------------------

bool all_pairs_intersect(const Cover& f, const Cover& g) {
  for (const Cube& a : f.cubes()) {
    for (const Cube& b : g.cubes()) {
      if (a.intersects(b)) return true;
    }
  }
  return false;
}

Cover random_wide_cover(XorShift& rng, std::size_t n, std::size_t count,
                        std::uint64_t dc_percent) {
  Cover f(n);
  for (std::size_t i = 0; i < count; ++i) f.add(packed(random_ref(rng, n, dc_percent)));
  return f;
}

/// `count` random cubes that each miss every cube of f: a cube that meets
/// some a in f gets the opposite of a's constant at one of its own DC
/// variables, which keeps every conflict made so far.
Cover cover_missing(XorShift& rng, const Cover& f, std::size_t count, std::uint64_t dc_percent) {
  Cover g(f.variable_count());
  for (std::size_t tries = 0; g.cube_count() < count && tries < 100 * count; ++tries) {
    Cube c = packed(random_ref(rng, f.variable_count(), dc_percent));
    bool ok = true;
    for (const Cube& a : f.cubes()) {
      if (!a.intersects(c)) continue;
      std::vector<std::size_t> choices;
      for (std::size_t v = 0; v < c.size(); ++v) {
        if (a.get(v) != Lit::DC && c.get(v) == Lit::DC) choices.push_back(v);
      }
      if (choices.empty()) {
        ok = false;
        break;
      }
      const std::size_t v = choices[rng.below(choices.size())];
      c.set(v, a.get(v) == Lit::One ? Lit::Zero : Lit::One);
    }
    if (ok) g.add(std::move(c));
  }
  return g;
}

struct IntersectsCase {
  std::size_t variables;
  std::size_t cubes;
  std::uint64_t dc_percent;
};

class SplittingIntersects : public ::testing::TestWithParam<IntersectsCase> {};

TEST_P(SplittingIntersects, AgreesWithAllPairs) {
  const IntersectsCase param = GetParam();
  XorShift rng(param.variables * 131 + param.cubes * 7 + param.dc_percent);
  std::size_t meeting = 0;
  std::size_t apart = 0;
  for (int round = 0; round < 40; ++round) {
    const Cover f = random_wide_cover(rng, param.variables, param.cubes, param.dc_percent);
    Cover g = round % 2 == 0 ? random_wide_cover(rng, param.variables, param.cubes, param.dc_percent)
                             : cover_missing(rng, f, param.cubes, param.dc_percent);
    if (round % 4 == 3) {
      // Plant a minterm of one cube of f: a meets it through its DC
      // variables, which a split must send to both halves.
      Cube inside = f.cube(rng.below(f.cube_count()));
      for (std::size_t v = 0; v < inside.size(); ++v) {
        if (inside.get(v) == Lit::DC) inside.set(v, rng.below(2) != 0 ? Lit::One : Lit::Zero);
      }
      g.add(std::move(inside));
    }
    ASSERT_GE(g.cube_count(), 9u);  // large enough to split
    const bool expected = all_pairs_intersect(f, g);
    EXPECT_EQ(f.intersects(g), expected) << "round " << round;
    EXPECT_EQ(g.intersects(f), expected) << "round " << round;
    (expected ? meeting : apart) += 1;
  }
  // Each case must exercise both answers.
  EXPECT_GT(meeting, 0u);
  EXPECT_GT(apart, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SplittingIntersects,
    ::testing::Values(IntersectsCase{12, 40, 0},     // minterm-only, like SG covers
                      IntersectsCase{24, 300, 0},    // minterm-only, deep splits
                      IntersectsCase{24, 30, 70},    // DC-heavy
                      IntersectsCase{20, 60, 10},    // a few DCs, still splitting
                      IntersectsCase{20, 60, 30},    // mixed
                      IntersectsCase{70, 50, 40},    // wider than the inline words
                      IntersectsCase{130, 20, 90}),  // wide and DC-heavy
    [](const auto& info) {
      return std::to_string(info.param.variables) + "vars_" + std::to_string(info.param.cubes) +
             "cubes_" + std::to_string(info.param.dc_percent) + "dc";
    });

TEST(SplittingIntersects, EmptySideNeverIntersects) {
  XorShift rng(5);
  for (const std::size_t n : {12, 70}) {
    const Cover f = random_wide_cover(rng, n, 40, 50);
    const Cover g = random_wide_cover(rng, n, 40, 50);
    const Cover empty(n);
    EXPECT_FALSE(f.intersects(empty));
    EXPECT_FALSE(empty.intersects(g));
    EXPECT_FALSE(empty.intersects(empty));
  }
}

TEST(SplittingIntersects, DcCubesReachBothHalves) {
  // Minterms with x0 = side on one side and x0 = !side on the other, plus
  // one cube with x0 = DC: every pair but one is split apart by x0, so the
  // test splits there first, and the one meeting pair (through the DC) must
  // meet again in a half.
  for (const std::uint8_t side : {0, 1}) {
    Cover f(8);
    Cover g(8);
    for (std::uint32_t p = 0; p < 128; ++p) {
      std::vector<std::uint8_t> code(8);
      for (std::size_t v = 1; v < 8; ++v) code[v] = (p >> (v - 1)) & 1;
      code[0] = side;
      f.add(Cube::from_code(code));
      code[0] = 1 - side;
      g.add(Cube::from_code(code));
    }
    EXPECT_FALSE(f.intersects(g));
    Cube bridge = f.cube(77);
    bridge.set(0, Lit::DC);
    f.add(bridge);
    EXPECT_TRUE(f.intersects(g)) << "side " << int{side};
    EXPECT_TRUE(g.intersects(f)) << "side " << int{side};
  }
}

TEST(SplittingIntersects, MintermCoversOfASpaceSplitExactly) {
  // Every point of a 10-variable space, dealt round-robin into two covers:
  // disjoint, and meeting once a single point is shared.
  Cover even(10);
  Cover odd(10);
  for (std::uint32_t p = 0; p < 1024; ++p) {
    std::vector<std::uint8_t> code(10);
    for (std::size_t v = 0; v < 10; ++v) code[v] = (p >> v) & 1;
    (std::popcount(p) % 2 == 0 ? even : odd).add(Cube::from_code(code));
  }
  EXPECT_FALSE(even.intersects(odd));
  odd.add(even.cube(300));
  EXPECT_TRUE(even.intersects(odd));
  EXPECT_TRUE(odd.intersects(even));
}

// --- The complement kernel against the reference recursion ------------------
//
// reference::complement_rec (tests/dc_espresso_reference.hpp) is the
// list-per-node recursion the DC reference builds its don't-care sets with.
// Cover::complement runs the same recursion (DESIGN.md §6), so both give
// the same cube lists, in order: the reference's DC is the cover production
// code would compute from the same care set.

/// Cover::complement's cubes equal the reference's wherever the reference
/// fits under `limit`.  Returns whether it fit.
bool expect_kernel_matches_reference(const Cover& f, std::size_t limit, const std::string& label) {
  const std::optional<Cover> expected = reference::complement(f, limit);
  if (!expected) return false;
  const Cover kernel = f.complement();
  EXPECT_TRUE(kernel == *expected) << label << "\nkernel:\n"
                                   << kernel.to_pla() << "reference:\n"
                                   << expected->to_pla();
  return true;
}

TEST_P(CoverAlgebra, ComplementKernelMatchesTheReference) {
  Cover both = f;
  both.add_all(g);
  for (const Cover* cover : {&f, &g, &both}) {
    EXPECT_TRUE(expect_kernel_matches_reference(*cover, std::size_t{1} << 20,
                                                "seed " + std::to_string(GetParam())));
  }
}

TEST(ComplementKernel, WideCoversMatchTheReference) {
  // Cubes wider than the inline words.  Complements past the reference's
  // cap are too large to compare here and are skipped.
  XorShift rng(2024);
  std::size_t fitted = 0;
  for (int round = 0; round < 60; ++round) {
    const std::size_t n = round % 3 == 0 ? 70 : (round % 3 == 1 ? 130 : 65);
    const std::size_t count = 3 + rng.below(8);
    const Cover f = random_wide_cover(rng, n, count, 93 + rng.below(5));
    if (expect_kernel_matches_reference(f, 4000, "round " + std::to_string(round))) ++fitted;
  }
  EXPECT_GT(fitted, 0u);
}

TEST(ComplementKernel, DuplicateAndContainedCubesMatchTheReference) {
  // Repeated cubes reach the recursion's leaves and merges unchanged.
  XorShift rng(77);
  for (int round = 0; round < 40; ++round) {
    const std::size_t n = 6 + rng.below(5);
    Cover f = random_wide_cover(rng, n, 6 + rng.below(20), 60);
    const std::size_t repeats = f.cube_count();
    for (std::size_t i = 0; i < repeats; i += 2) f.add(f.cube(i));
    EXPECT_TRUE(expect_kernel_matches_reference(f, std::size_t{1} << 20,
                                                "round " + std::to_string(round)));
  }
}

TEST(CoverDuplicates, RemoveDuplicatesKeepsFirstOccurrences) {
  XorShift rng(9);
  for (const std::size_t n : {5, 70}) {
    std::vector<Cube> distinct;
    for (int i = 0; i < 40; ++i) distinct.push_back(packed(random_ref(rng, n, 50)));
    Cover f(n);
    std::vector<Cube> expected;
    for (int i = 0; i < 200; ++i) {
      const Cube& c = distinct[rng.below(distinct.size())];
      f.add(c);
      if (std::find(expected.begin(), expected.end(), c) == expected.end()) expected.push_back(c);
    }
    f.remove_duplicates();
    EXPECT_EQ(f.cubes(), expected) << n << " variables";
  }
}

TEST(WideCubeSynthesis, Muller64PipelineUsesHeapCubes) {
  // 65 signals: every cube of the flow lives on the heap.  Each of the 63
  // inner stages is a 6-literal C-element and the last stage a wire.
  const core::SynthesisResult result = core::synthesize(stg::make_muller_pipeline(64), {});
  ASSERT_EQ(result.signals.size(), 64u);
  EXPECT_EQ(result.signals.front().on_cover.variable_count(), 65u);
  EXPECT_EQ(result.literal_count(), 379u);  // 6 * 63 + 1
}

}  // namespace
}  // namespace punt::logic
