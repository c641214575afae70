// Cover approximation (paper §4.2).  Reference: the Fig. 4(a)/(b) worked
// example — C*e(+d') = a d' g', C*mr(p4) = a d' g', C*mr(p7) = a d g',
// C(p10) = a d f' g + a d e' g, and the full on-set approximation of a.
#include <gtest/gtest.h>

#include <set>

#include "src/core/approx.hpp"
#include "src/sg/analysis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"

namespace punt::core {
namespace {

using stg::SignalId;
using stg::Stg;
using unf::ConditionId;
using unf::EventId;
using unf::Unfolding;

EventId event_by_name(const Unfolding& unf, const std::string& name) {
  for (std::size_t i = 1; i < unf.event_count(); ++i) {
    const EventId e(static_cast<std::uint32_t>(i));
    if (unf.stg().transition_name(unf.transition(e)) == name) return e;
  }
  ADD_FAILURE() << "no instance of " << name;
  return EventId();
}

ConditionId condition_by_place(const Unfolding& unf, const std::string& place) {
  for (std::size_t i = 0; i < unf.condition_count(); ++i) {
    const ConditionId c(static_cast<std::uint32_t>(i));
    if (unf.stg().net().place_name(unf.place(c)) == place) return c;
  }
  ADD_FAILURE() << "no condition for place " << place;
  return ConditionId();
}

std::set<std::string> cover_cubes(logic::Cover cover) {
  cover.normalize();
  std::set<std::string> out;
  for (const auto& cube : cover.cubes()) out.insert(cube.to_string());
  return out;
}

/// Slice of signal a's on-set in Fig. 4(b): entry +a', bound -a'.
struct Fig4Fixture {
  Stg stg = stg::make_paper_fig4ab();
  Unfolding unf = Unfolding::build(stg);
  SignalId a = *stg.find_signal("a");
  std::vector<Slice> slices = signal_slices(unf, a, true);
  Bitset events;

  Fig4Fixture() {
    EXPECT_EQ(slices.size(), 1u);
    events = slice_events(unf, slices.front());
  }
};

TEST(Approx, Fig4ExcitationCoverOfDPlus) {
  Fig4Fixture fx;
  const EventId d_up = event_by_name(fx.unf, "d+");
  // Signal order a..g: a=1, d=0, g=0, rest don't-care.
  EXPECT_EQ(excitation_cover(fx.unf, d_up).to_string(), "1--0--0");
}

TEST(Approx, Fig4ExcitationCoverOfAPlusIsMinterm) {
  Fig4Fixture fx;
  const EventId a_up = event_by_name(fx.unf, "a+");
  // Nothing is concurrent with +a': the single ER state 0000000.
  EXPECT_EQ(excitation_cover(fx.unf, a_up).to_string(), "0000000");
}

TEST(Approx, Fig4MrCovers) {
  Fig4Fixture fx;
  const ConditionId p4 = condition_by_place(fx.unf, "p4");
  const ConditionId p7 = condition_by_place(fx.unf, "p7");
  EXPECT_EQ(mr_cover(fx.unf, p4, fx.events).to_string(), "1--0--0");  // a d' g'
  EXPECT_EQ(mr_cover(fx.unf, p7, fx.events).to_string(), "1--1--0");  // a d g'
}

TEST(Approx, Fig4RestrictedCoverOfP10) {
  Fig4Fixture fx;
  const ConditionId p10 = condition_by_place(fx.unf, "p10");
  const EventId a_dn = event_by_name(fx.unf, "a-");
  const logic::Cover cover = restricted_next_cover(fx.unf, p10, a_dn, fx.events);
  // Paper: C(p10) = a d e' g + a d f' g.
  EXPECT_EQ(cover_cubes(cover), (std::set<std::string>{"1--10-1", "1--1-01"}));
}

TEST(Approx, Fig4PaperChainsSelectsP4P7P10) {
  Fig4Fixture fx;
  const ApproxCover approx =
      approximate_cover(fx.unf, fx.a, true, ApproxSetPolicy::PaperChains);
  std::set<std::string> mr_places;
  for (const CoverAtom& atom : approx.atoms) {
    if (!atom.element.is_event) {
      mr_places.insert(fx.stg.net().place_name(fx.unf.place(atom.element.condition)));
    }
  }
  EXPECT_EQ(mr_places, (std::set<std::string>{"p4", "p7", "p10"}));
}

TEST(Approx, Fig4CombinedOnCoverMatchesPaper) {
  Fig4Fixture fx;
  const ApproxCover approx =
      approximate_cover(fx.unf, fx.a, true, ApproxSetPolicy::PaperChains);
  // C*On(a) = a'b'c'd'e'f'g' + a d' g' + a d g' + a d e' g + a d f' g.
  EXPECT_EQ(cover_cubes(approx.combined(fx.stg.signal_count())),
            (std::set<std::string>{"0000000", "1--0--0", "1--1--0", "1--10-1",
                                   "1--1-01"}));
}

TEST(Approx, FullPolicyIsSuperset) {
  // The Full policy must cover at least everything PaperChains covers.
  Fig4Fixture fx;
  const logic::Cover chains =
      approximate_cover(fx.unf, fx.a, true, ApproxSetPolicy::PaperChains)
          .combined(fx.stg.signal_count());
  const logic::Cover full = approximate_cover(fx.unf, fx.a, true, ApproxSetPolicy::Full)
                                .combined(fx.stg.signal_count());
  EXPECT_TRUE(full.contains_cover(chains));
}

/// Correctness of approximations: the approximated on-cover must contain the
/// exact on-set.  (It may intersect the off-set before refinement.)
class ApproxSoundness : public ::testing::TestWithParam<int> {};

TEST_P(ApproxSoundness, ApproxCoverContainsExactOnSet) {
  Stg stg;
  switch (GetParam() % 4) {
    case 0: stg = stg::make_paper_fig1(); break;
    case 1: stg = stg::make_paper_fig4ab(); break;
    case 2: stg = stg::make_muller_pipeline(3); break;
    case 3: stg = stg::make_paper_fig4c(); break;
  }
  const ApproxSetPolicy policy =
      GetParam() < 4 ? ApproxSetPolicy::Full : ApproxSetPolicy::PaperChains;
  const Unfolding unf = Unfolding::build(stg);
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  for (std::size_t si = 0; si < stg.signal_count(); ++si) {
    const SignalId s(static_cast<std::uint32_t>(si));
    for (const bool value : {true, false}) {
      const logic::Cover approx =
          approximate_cover(unf, s, value, policy).combined(stg.signal_count());
      const logic::Cover exact =
          value ? sg::on_cover(sgraph, s) : sg::off_cover(sgraph, s);
      EXPECT_TRUE(approx.contains_cover(exact))
          << "approximation lost states of " << stg.signal_name(s) << " (value "
          << value << ") in " << stg.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Examples, ApproxSoundness, ::testing::Range(0, 8));

}  // namespace
}  // namespace punt::core
