// Exact synthesis from the segment (paper §4.1): slices, cut enumeration,
// exact covers.  Reference: Fig. 3 — On(b) = {100,101,110,111,001,011},
// Off(b) = {010,000}.
#include <gtest/gtest.h>

#include <set>

#include "src/core/slices.hpp"
#include "src/sg/analysis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

namespace punt::core {
namespace {

using stg::SignalId;
using stg::Stg;
using unf::Unfolding;

std::set<std::string> code_set(const std::vector<stg::Code>& codes) {
  std::set<std::string> out;
  for (const auto& c : codes) out.insert(stg::code_to_string(c));
  return out;
}

std::set<std::string> cover_cubes(logic::Cover cover) {
  cover.normalize();
  std::set<std::string> out;
  for (const auto& cube : cover.cubes()) out.insert(cube.to_string());
  return out;
}

TEST(Slices, Fig1OnSetPartitioningOfB) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  const auto slices = signal_slices(unf, b, true);
  // Two rising instances (b+ and b+/2), no ⊥ slice since b starts at 0.
  ASSERT_EQ(slices.size(), 2u);
  std::size_t bounded = 0;
  for (const Slice& s : slices) {
    EXPECT_FALSE(unf.is_initial(s.entry));
    for (const auto g : s.bounds) {
      EXPECT_EQ(stg.transition_name(unf.transition(g)), "b-");
      ++bounded;
    }
  }
  // Only the b+/2 branch sees b- inside the segment; the b+ branch leaves
  // through the -a' cutoff, so its slice is bounded by the segment frontier
  // (paper §4.1: "the cut reached by such configuration bounds the slice").
  EXPECT_EQ(bounded, 1u);
}

TEST(Slices, Fig1OffSetHasInitialSlice) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  const auto slices = signal_slices(unf, b, false);
  // One falling instance (b-) plus the ⊥ slice (b starts at 0).
  ASSERT_EQ(slices.size(), 2u);
  bool has_initial = false;
  for (const Slice& s : slices) {
    if (unf.is_initial(s.entry)) {
      has_initial = true;
      // The ⊥ off-slice is bounded by first(b) = the two b+ instances.
      EXPECT_EQ(s.bounds.size(), 2u);
    }
  }
  EXPECT_TRUE(has_initial);
}

TEST(Slices, Fig1MinCutsMatchPaper) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  std::set<std::set<std::string>> min_cut_places;
  for (const Slice& s : signal_slices(unf, b, true)) {
    std::set<std::string> places;
    slice_min_cut(unf, s).for_each([&](std::size_t c) {
      places.insert(stg.net().place_name(
          unf.place(unf::ConditionId(static_cast<std::uint32_t>(c)))));
    });
    min_cut_places.insert(places);
  }
  // Paper Fig. 3: S1 starts at (p4), S2 at (p2, p3).
  EXPECT_TRUE(min_cut_places.contains(std::set<std::string>{"p4"}));
  EXPECT_TRUE(min_cut_places.contains(std::set<std::string>{"p2", "p3"}));
}

TEST(Slices, Fig1SliceStatesOfBranchB) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  for (const Slice& s : signal_slices(unf, b, true)) {
    std::set<std::string> places;
    slice_min_cut(unf, s).for_each([&](std::size_t c) {
      places.insert(stg.net().place_name(
          unf.place(unf::ConditionId(static_cast<std::uint32_t>(c)))));
    });
    if (places == std::set<std::string>{"p4"}) {
      // Paper: On1(b) = {001, 011}.
      const SliceStates states = enumerate_slice(unf, b, s);
      EXPECT_EQ(code_set(states.codes), (std::set<std::string>{"001", "011"}));
    }
  }
}

TEST(ExactCover, Fig1MatchesPaperOnAndOffSets) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  const logic::Cover on = exact_cover(unf, b, true);
  EXPECT_EQ(cover_cubes(on), (std::set<std::string>{"100", "101", "110", "111",
                                                    "001", "011"}));
  const logic::Cover off = exact_cover(unf, b, false);
  EXPECT_EQ(cover_cubes(off), (std::set<std::string>{"010", "000"}));
  EXPECT_FALSE(on.intersects(off));
}

TEST(ExactCover, Fig1ErCoverOfB) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  EXPECT_EQ(cover_cubes(exact_er_cover(unf, b, true)),
            (std::set<std::string>{"100", "101", "001"}));
  EXPECT_EQ(cover_cubes(exact_er_cover(unf, b, false)),
            (std::set<std::string>{"010"}));
}

TEST(ExactCover, CutBudgetEnforced) {
  const Stg stg = stg::make_muller_pipeline(6);
  const Unfolding unf = Unfolding::build(stg);
  const SignalId a3 = *stg.find_signal("a3");
  EXPECT_THROW(exact_cover(unf, a3, true, /*cut_budget=*/3), CapacityError);
}

/// The paper's equivalence claim: exact covers from the segment equal the
/// SG-derived covers — across every example STG and every signal.
class ExactEquivalence : public ::testing::TestWithParam<int> {
 protected:
  static Stg make(int which) {
    switch (which) {
      case 0: return stg::make_paper_fig1();
      case 1: return stg::make_paper_fig4ab();
      case 2: return stg::make_paper_fig4c();
      case 3: return stg::make_muller_pipeline(2);
      case 4: return stg::make_muller_pipeline(4);
      default: return stg::make_vme_bus();
    }
  }
};

TEST_P(ExactEquivalence, UnfoldingCoversEqualStateGraphCovers) {
  const Stg stg = make(GetParam());
  const Unfolding unf = Unfolding::build(stg);
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  for (std::size_t si = 0; si < stg.signal_count(); ++si) {
    const SignalId s(static_cast<std::uint32_t>(si));
    if (stg.signal_kind(s) == stg::SignalKind::Dummy) continue;
    EXPECT_EQ(cover_cubes(exact_cover(unf, s, true)),
              cover_cubes(sg::on_cover(sgraph, s)))
        << "on-set mismatch for " << stg.signal_name(s) << " in " << stg.name();
    EXPECT_EQ(cover_cubes(exact_cover(unf, s, false)),
              cover_cubes(sg::off_cover(sgraph, s)))
        << "off-set mismatch for " << stg.signal_name(s) << " in " << stg.name();
    EXPECT_EQ(cover_cubes(exact_er_cover(unf, s, true)),
              cover_cubes(sg::er_cover(stg, sgraph, s, true)))
        << "ER+ mismatch for " << stg.signal_name(s) << " in " << stg.name();
    EXPECT_EQ(cover_cubes(exact_er_cover(unf, s, false)),
              cover_cubes(sg::er_cover(stg, sgraph, s, false)))
        << "ER- mismatch for " << stg.signal_name(s) << " in " << stg.name();
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, ExactEquivalence, ::testing::Range(0, 6));

}  // namespace
}  // namespace punt::core
