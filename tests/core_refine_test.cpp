// Cover refinement (paper §4.3).  Reference: the Fig. 4(c) worked example —
// refining the MR cover d e' of p5 with P'r = {p2,p4,p7,p9} yields
// a c' d e' + b c d e' (as a point set).
//
// The equivalence suites below pin the word-level derive layer to scalar
// references: refine_until_disjoint against the all-pairs loop over atoms
// refined with the logic::Cover primitives, ApproxCover::combined against
// adding every atom cube and removing single-cube containment, the
// segment's word rows and rank tables against Unfolding::co, precedes and
// label(), the approximation primitives against their per-event
// definitions, the rank rule against the concurrent_signals fold, and
// approximate_cover against atoms rebuilt from the fold-based primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/approx.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/slices.hpp"
#include "src/logic/espresso.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

namespace punt::core {
namespace {

using stg::SignalId;
using stg::Stg;
using unf::ConditionId;
using unf::EventId;
using unf::Unfolding;

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

/// Appends an atom holding the cubes of `cover` to `owner`, packed as
/// ApproxCover::cubes keeps them.
void add_atom(ApproxCover& owner, const SliceElement& element, std::size_t slice_index,
              const logic::Cover& cover) {
  const std::size_t w = (owner.variables + 63) / 64;
  owner.atoms.push_back({element, slice_index, owner.cubes.size() / (2 * w), cover.cube_count()});
  for (const logic::Cube& cube : cover.cubes()) {
    std::vector<std::uint64_t> words(2 * w);
    for (std::size_t v = 0; v < owner.variables; ++v) {
      const std::uint64_t bit = std::uint64_t{1} << (v % 64);
      if (cube.get(v) == logic::Lit::DC) words[w + v / 64] |= bit;
      if (cube.get(v) == logic::Lit::One) words[v / 64] |= bit;
    }
    owner.cubes.insert(owner.cubes.end(), words.begin(), words.end());
  }
}

/// The slice hosting the Fig. 4(c) fragment: signal d's on-set slice (entry
/// +d', unbounded — d never falls), which contains the whole fragment.
struct Fig4cFixture {
  Stg stg = stg::make_paper_fig4c();
  Unfolding unf = Unfolding::build(stg);
  SignalId d = *stg.find_signal("d");
  std::vector<Slice> slices = signal_slices(unf, d, true);
  Bitset events;

  Fig4cFixture() {
    EXPECT_EQ(slices.size(), 1u);
    EXPECT_TRUE(slices.front().bounds.empty());
    events = slice_events(unf, slices.front());
  }

  /// d's on-set slice holding one atom, the MR cover d e' of p5.
  ApproxCover owner_of_p5() const {
    ApproxCover owner;
    owner.signal = d;
    owner.value = true;
    owner.variables = stg.signal_count();
    owner.slices = slices;
    owner.slice_event_sets.push_back(events);
    const ConditionId p5 = condition_by_place(unf, "p5");
    add_atom(owner, SliceElement::of(p5), 0,
             logic::Cover(stg.signal_count(), {mr_cover(unf, p5, events)}));
    return owner;
  }
};

TEST(Refine, Fig4cBaseMrCoverOfP5) {
  Fig4cFixture fx;
  const ConditionId p5 = condition_by_place(fx.unf, "p5");
  // Signals a..e: base code of [+d'] is 10010; a, b, c have concurrent
  // instances in the slice (+b', +c', -a') -> d e'.
  EXPECT_EQ(mr_cover(fx.unf, p5, fx.events).to_string(), "---10");
}

TEST(Refine, Fig4cRefiningSetIsParallelChain) {
  Fig4cFixture fx;
  const ConditionId p5 = condition_by_place(fx.unf, "p5");
  const auto refining = refining_set(fx.unf, SliceElement::of(p5), fx.slices.front());
  std::set<std::string> places;
  for (const ConditionId c : refining) {
    places.insert(fx.stg.net().place_name(fx.unf.place(c)));
  }
  EXPECT_EQ(places, (std::set<std::string>{"p2", "p4", "p7", "p9"}));
}

TEST(Refine, Fig4cRestrictedMrCovers) {
  Fig4cFixture fx;
  const ConditionId p5 = condition_by_place(fx.unf, "p5");
  const SliceElement x = SliceElement::of(p5);
  // Only +e' (the successor of p5 concurrent with the chain) is dashed; the
  // a, b, c literals keep their base-code values (paper: {1001-}, {1101-},
  // {1111-}, {0111-}).
  EXPECT_EQ(refinement_mr_cover(fx.unf, condition_by_place(fx.unf, "p2"), x, fx.events)
                .to_string(),
            "1001-");
  EXPECT_EQ(refinement_mr_cover(fx.unf, condition_by_place(fx.unf, "p4"), x, fx.events)
                .to_string(),
            "1101-");
  EXPECT_EQ(refinement_mr_cover(fx.unf, condition_by_place(fx.unf, "p7"), x, fx.events)
                .to_string(),
            "1111-");
  EXPECT_EQ(refinement_mr_cover(fx.unf, condition_by_place(fx.unf, "p9"), x, fx.events)
                .to_string(),
            "0111-");
}

TEST(Refine, Fig4cRefineAtomMatchesPaperResult) {
  Fig4cFixture fx;
  ApproxCover owner = fx.owner_of_p5();
  EXPECT_EQ(cover_cubes(owner.cover(0)), (std::set<std::string>{"---10"}));  // d e'

  ASSERT_TRUE(refine_atom(fx.unf, owner, 0, *fx.stg.find_signal("a")));

  // Paper: the refined cover is the exact MR of p5 = a c' d e' + b c d e',
  // i.e. the point set {10010, 11010, 11110, 01110}.
  const logic::Cover refined = owner.cover(0);
  EXPECT_EQ(cover_cubes(refined),
            (std::set<std::string>{"10010", "11010", "11110", "01110"}));

  // Minimising against its exact complement reproduces the paper's two-term
  // form (4 + 4 literals).
  const logic::Cover minimized = logic::espresso(refined, refined.complement());
  EXPECT_EQ(minimized.cube_count(), 2u);
  EXPECT_EQ(minimized.literal_count(), 8u);
}

TEST(Refine, RefineAtomIsIdempotentOnExactCover) {
  Fig4cFixture fx;
  ApproxCover owner = fx.owner_of_p5();
  ASSERT_TRUE(refine_atom(fx.unf, owner, 0, *fx.stg.find_signal("a")));
  const logic::Cover refined = owner.cover(0);
  // A second refinement step can tighten no further.
  EXPECT_FALSE(refine_atom(fx.unf, owner, 0, *fx.stg.find_signal("b")));
  EXPECT_EQ(owner.cover(0), refined);
}

TEST(Refine, RefineUntilDisjointSucceedsOnCleanExamples) {
  for (int which = 0; which < 3; ++which) {
    Stg stg;
    switch (which) {
      case 0: stg = stg::make_paper_fig1(); break;
      case 1: stg = stg::make_paper_fig4ab(); break;
      case 2: stg = stg::make_muller_pipeline(3); break;
    }
    const Unfolding unf = Unfolding::build(stg);
    for (const SignalId s : stg.non_input_signals()) {
      ApproxCover on = approximate_cover(unf, s, true);
      ApproxCover off = approximate_cover(unf, s, false);
      const RefineStats stats = refine_until_disjoint(unf, on, off);
      EXPECT_TRUE(stats.disjoint)
          << "refinement failed for " << stg.signal_name(s) << " in " << stg.name();
      EXPECT_FALSE(on.combined(stg.signal_count())
                       .intersects(off.combined(stg.signal_count())));
    }
  }
}

// --- Equivalence with the scalar references ----------------------------------

/// An atom held as a logic::Cover, as the references build and refine it.
struct ReferenceAtom {
  SliceElement element;
  std::size_t slice_index = 0;
  logic::Cover cover;
};

std::vector<ReferenceAtom> reference_atoms(const ApproxCover& approx) {
  std::vector<ReferenceAtom> out;
  for (std::size_t k = 0; k < approx.atoms.size(); ++k) {
    out.push_back({approx.atoms[k].element, approx.atoms[k].slice_index, approx.cover(k)});
  }
  return out;
}

/// refine_atom with the logic::Cover primitives: the atom's cover times the
/// sum of the refinement MR covers over its refining set, normalized.
bool reference_refine(const Unfolding& unf, const ApproxCover& owner, ReferenceAtom& atom) {
  const std::vector<ConditionId> refining =
      refining_set(unf, atom.element, owner.slices[atom.slice_index]);
  if (refining.empty()) return false;
  logic::Cover mask(owner.variables);
  for (const ConditionId c : refining) {
    mask.add(refinement_mr_cover(unf, c, atom.element,
                                 owner.slice_event_sets[atom.slice_index]));
  }
  mask.make_irredundant_scc();
  logic::Cover refined = atom.cover.intersect(mask);
  refined.normalize();
  logic::Cover before = atom.cover;
  before.normalize();
  if (refined == before) return false;
  atom.cover = std::move(refined);
  return true;
}

/// The all-pairs refinement loop over reference atoms: every on/off atom
/// pair is tested for intersection, and the first intersecting pair that
/// is not stuck (in row-major order) is refined with reference_refine.
/// refine_until_disjoint must reproduce it step for step.
RefineStats all_pairs_refine(const Unfolding& unf, const ApproxCover& on_owner,
                             const ApproxCover& off_owner, std::vector<ReferenceAtom>& on,
                             std::vector<ReferenceAtom>& off, std::size_t max_iterations = 1000) {
  RefineStats stats;
  std::set<std::pair<std::size_t, std::size_t>> stuck;
  while (stats.iterations < max_iterations) {
    std::size_t oi = 0, oj = 0;
    bool found = false;
    bool any_intersecting = false;
    for (std::size_t i = 0; i < on.size() && !found; ++i) {
      for (std::size_t j = 0; j < off.size(); ++j) {
        if (!on[i].cover.intersects(off[j].cover)) continue;
        any_intersecting = true;
        if (stuck.contains({i, j})) continue;
        oi = i;
        oj = j;
        found = true;
        break;
      }
    }
    if (!any_intersecting) {
      stats.disjoint = true;
      return stats;
    }
    if (!found) return stats;
    ++stats.iterations;
    const bool a = reference_refine(unf, on_owner, on[oi]);
    const bool b = reference_refine(unf, off_owner, off[oj]);
    if (a) ++stats.refined_atoms;
    if (b) ++stats.refined_atoms;
    if (!a && !b) stuck.insert({oi, oj});
  }
  return stats;
}

/// A 4-signal spec whose output a falls by one of two instances, each
/// behind a choice between inputs: a condition of a's slices meets two
/// compatible bounds, so approximate_cover intersects their restricted
/// covers (once 2 cubes by 2), which no other swept spec does.
constexpr const char* kTwoBoundSpec =
    ".model twobound\n.inputs i j k\n.outputs a\n.graph\n"
    "a+ p q u\nq i+ j+\nu k+\ni+ r1\nj+ r2\nk+ t\np a- a-/2\nr1 a-\nr2 a-/2\n"
    "t a- a-/2\na- s1 v1\na-/2 s2 v2\ns1 i-\nv1 k-\ns2 j-\nv2 k-/2\ni- m0\nj- m0\n"
    "k- m1\nk-/2 m1\nm0 a+\nm1 a+\n.marking { m0 m1 }\n.end\n";

/// The swept specs: every registry row, Muller pipelines of 4, 9 and 14
/// stages, a counterflow pipeline of 3 stages, the paper's Fig. 1, Fig. 4(a/b)
/// and Fig. 4(c), the VME bus controller, then two long runs: muller29,
/// whose last stage takes 55 refinement iterations, and cfpp34, the 16-stage
/// counterflow pipeline of Fig. 6's circled dot; and last the two-bound spec
/// above.  New specs go last so that the others keep their parameter indices.
constexpr int kSweptSpecs = 32;

std::pair<std::string, Stg> swept_spec(int index) {
  const auto& registry = benchmarks::table1();
  if (index < static_cast<int>(registry.size())) {
    const auto& row = registry[static_cast<std::size_t>(index)];
    return {row.name, row.make()};
  }
  switch (index - static_cast<int>(registry.size())) {
    case 0: return {"muller4", stg::make_muller_pipeline(4)};
    case 1: return {"muller9", stg::make_muller_pipeline(9)};
    case 2: return {"muller14", stg::make_muller_pipeline(14)};
    case 3: return {"counterflow3", stg::make_counterflow_pipeline(3)};
    case 4: return {"fig1", stg::make_paper_fig1()};
    case 5: return {"fig4ab", stg::make_paper_fig4ab()};
    case 6: return {"fig4c", stg::make_paper_fig4c()};
    case 7: return {"vme", stg::make_vme_bus()};
    case 8: return {"muller29", stg::make_muller_pipeline(29)};
    case 9: return {"cfpp34", stg::make_counterflow_pipeline(16)};
    default: return {"twobound", stg::parse_g(kTwoBoundSpec)};
  }
}

std::string test_name(std::string name) {
  for (char& ch : name) {
    if (std::isalnum(static_cast<unsigned char>(ch)) == 0) ch = '_';
  }
  return name;
}

bool same_element(const SliceElement& a, const SliceElement& b) {
  return a.is_event == b.is_event && (a.is_event ? a.event == b.event : a.condition == b.condition);
}

/// Every atom of `got` has the element, the slice and the cube list, in
/// order, of the same atom of `want`.
void expect_same_atoms(const ApproxCover& got, const std::vector<ReferenceAtom>& want,
                       const std::string& where) {
  ASSERT_EQ(got.atoms.size(), want.size()) << where;
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_TRUE(same_element(got.atoms[k].element, want[k].element)) << where << " atom " << k;
    EXPECT_EQ(got.atoms[k].slice_index, want[k].slice_index) << where << " atom " << k;
    const logic::Cover cover = got.cover(k);
    EXPECT_TRUE(cover == want[k].cover)
        << where << " atom " << k << ":\n" << cover.to_pla() << "vs\n" << want[k].cover.to_pla();
  }
}

class RefineEquivalence
    : public ::testing::TestWithParam<std::tuple<int, ApproxSetPolicy>> {};

TEST_P(RefineEquivalence, UnionCheckReproducesAllPairsLoop) {
  const auto [index, policy] = GetParam();
  const auto [name, stg] = swept_spec(index);
  const Unfolding unf = Unfolding::build(stg);
  for (const SignalId s : stg.non_input_signals()) {
    const std::string where = name + "/" + stg.signal_name(s);
    ApproxCover on = approximate_cover(unf, s, true, policy);
    ApproxCover off = approximate_cover(unf, s, false, policy);
    std::vector<ReferenceAtom> reference_on = reference_atoms(on);
    std::vector<ReferenceAtom> reference_off = reference_atoms(off);
    const RefineStats got = refine_until_disjoint(unf, on, off);
    const RefineStats want = all_pairs_refine(unf, on, off, reference_on, reference_off);
    EXPECT_EQ(got.iterations, want.iterations) << where;
    EXPECT_EQ(got.refined_atoms, want.refined_atoms) << where;
    EXPECT_EQ(got.disjoint, want.disjoint) << where;
    expect_same_atoms(on, reference_on, where + " on");
    expect_same_atoms(off, reference_off, where + " off");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Specs, RefineEquivalence,
    ::testing::Combine(::testing::Range(0, kSweptSpecs),
                       ::testing::Values(ApproxSetPolicy::Full, ApproxSetPolicy::PaperChains)),
    [](const auto& info) {
      return test_name(swept_spec(std::get<0>(info.param)).first) +
             (std::get<1>(info.param) == ApproxSetPolicy::Full ? "_Full" : "_PaperChains");
    });

/// Every atom cube of `approx`, in atom order, with single-cube containment
/// removed by Cover::make_irredundant_scc.
logic::Cover add_all_then_scc(const ApproxCover& approx) {
  logic::Cover out(approx.variables);
  for (std::size_t k = 0; k < approx.atoms.size(); ++k) out.add_all(approx.cover(k));
  out.make_irredundant_scc();
  return out;
}

void expect_same_cover(const logic::Cover& got, const logic::Cover& want,
                       const std::string& where) {
  EXPECT_TRUE(got == want) << where << ":\n" << got.to_pla() << "vs\n" << want.to_pla();
}

class CombinedUnion : public ::testing::TestWithParam<int> {};

TEST_P(CombinedUnion, MatchesAddAllThenScc) {
  // Cube for cube and in order: the union sorts (literal count, position)
  // keys as make_irredundant_scc does, and a tie broken otherwise reorders
  // the golden equations.
  const auto [name, stg] = swept_spec(GetParam());
  const Unfolding unf = Unfolding::build(stg);
  const std::size_t n = stg.signal_count();
  for (const SignalId s : stg.non_input_signals()) {
    const std::string where = name + "/" + stg.signal_name(s);
    ApproxCover on = approximate_cover(unf, s, true);
    ApproxCover off = approximate_cover(unf, s, false);
    expect_same_cover(on.combined(n), add_all_then_scc(on), where + " on");
    expect_same_cover(off.combined(n), add_all_then_scc(off), where + " off");
    const RefineStats stats = refine_until_disjoint(unf, on, off);
    expect_same_cover(on.combined(n), add_all_then_scc(on), where + " refined on");
    expect_same_cover(off.combined(n), add_all_then_scc(off), where + " refined off");
    expect_same_cover(stats.on_union, on.combined(n), where + " on_union");
    expect_same_cover(stats.off_union, off.combined(n), where + " off_union");
    EXPECT_THROW((void)on.combined(n + 1), ValidationError) << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, CombinedUnion, ::testing::Range(0, kSweptSpecs),
                         [](const auto& info) { return test_name(swept_spec(info.param).first); });

bool in_row(std::span<const std::uint64_t> row, std::size_t i) {
  return ((row[i / 64] >> (i % 64)) & 1u) != 0;
}

/// The first signal two of whose instances are causally unordered, one
/// precedes() query per pair; invalid when every signal's instances are
/// totally ordered.
SignalId scalar_branching_signal(const Unfolding& unf) {
  for (std::size_t s = 0; s < unf.stg().signal_count(); ++s) {
    const auto& instances = unf.instances_of_signal(SignalId(static_cast<std::uint32_t>(s)));
    for (const EventId e : instances) {
      for (const EventId f : instances) {
        if (!unf.precedes(e, f) && !unf.precedes(f, e)) {
          return SignalId(static_cast<std::uint32_t>(s));
        }
      }
    }
  }
  return SignalId();
}

/// Number of entries where a rank table disagrees with its scalar
/// definition: config_instances against precedes(f, e) over t's instances,
/// and first_outside_co against co(c, f) for the first instance f outside
/// [producer(c)].
std::size_t rank_mismatches(const Unfolding& unf) {
  std::size_t mismatches = 0;
  for (std::size_t s = 0; s < unf.stg().signal_count(); ++s) {
    const SignalId t(static_cast<std::uint32_t>(s));
    const auto& instances = unf.instances_of_signal(t);
    for (std::size_t ei = 0; ei < unf.event_count(); ++ei) {
      const EventId e(static_cast<std::uint32_t>(ei));
      std::uint32_t before = 0;
      for (const EventId f : instances) {
        if (unf.precedes(f, e)) ++before;
      }
      if (unf.config_instances(e, t) != before) ++mismatches;
    }
    for (std::size_t ci = 0; ci < unf.condition_count(); ++ci) {
      const ConditionId c(static_cast<std::uint32_t>(ci));
      const EventId producer = unf.producer(c);
      bool want = false;
      for (const EventId f : instances) {
        if (unf.precedes(f, producer)) continue;
        want = unf.co(c, f);
        break;
      }
      if (in_row(unf.first_outside_co(c), s) != want) ++mismatches;
    }
  }
  return mismatches;
}

/// Number of entries where a word row disagrees with its scalar definition:
/// condition co rows against co(c, e), successor rows against precedes(e, f),
/// event co rows against co(e, f), code_bits against code(e), signal_of
/// and instances_of_signal against label(), and branching_signal and the
/// rank tables against their scalar definitions.
std::size_t row_mismatches(const Unfolding& unf) {
  std::size_t mismatches = 0;
  const std::size_t words = (unf.event_count() + 63) / 64;
  EXPECT_EQ(unf.event_words(), words);
  for (std::size_t ci = 0; ci < unf.condition_count(); ++ci) {
    const ConditionId c(static_cast<std::uint32_t>(ci));
    const auto row = unf.co_events(c);
    EXPECT_EQ(row.size(), words);
    for (std::size_t fi = 0; fi < unf.event_count(); ++fi) {
      if (in_row(row, fi) != unf.co(c, EventId(static_cast<std::uint32_t>(fi)))) ++mismatches;
    }
  }
  for (std::size_t ei = 0; ei < unf.event_count(); ++ei) {
    const EventId e(static_cast<std::uint32_t>(ei));
    const auto successors = unf.successors(e);
    const Bitset co = unf.co_events(e);
    EXPECT_EQ(successors.size(), words);
    EXPECT_EQ(co.size(), unf.event_count());
    for (std::size_t fi = 0; fi < unf.event_count(); ++fi) {
      const EventId f(static_cast<std::uint32_t>(fi));
      if (in_row(successors, fi) != unf.precedes(e, f)) ++mismatches;
      if (co.test(fi) != unf.co(e, f)) ++mismatches;
    }
    const stg::Label* label = unf.label(e);
    const stg::SignalId want =
        label == nullptr || label->dummy ? stg::SignalId() : label->signal;
    if (unf.signal_of(e) != want) ++mismatches;
    const auto code = unf.code_bits(e);
    for (std::size_t s = 0; s < unf.stg().signal_count(); ++s) {
      if (in_row(code, s) != (unf.code(e)[s] != 0)) ++mismatches;
    }
  }
  for (std::size_t s = 0; s < unf.stg().signal_count(); ++s) {
    std::vector<EventId> instances;
    for (std::size_t ei = 1; ei < unf.event_count(); ++ei) {
      const stg::Label* label = unf.label(EventId(static_cast<std::uint32_t>(ei)));
      if (!label->dummy && label->signal.index() == s) {
        instances.push_back(EventId(static_cast<std::uint32_t>(ei)));
      }
    }
    if (unf.instances_of_signal(stg::SignalId(static_cast<std::uint32_t>(s))) != instances) {
      ++mismatches;
    }
  }
  if (unf.branching_signal() != scalar_branching_signal(unf)) ++mismatches;
  if (!unf.branching_signal().valid()) mismatches += rank_mismatches(unf);
  return mismatches;
}

class CoRows : public ::testing::TestWithParam<int> {};

TEST_P(CoRows, MatchScalarCoAfterBuild) {
  const auto [name, stg] = swept_spec(GetParam());
  const auto model = SemanticModel::build(stg, SynthesisOptions{});
  ASSERT_NE(model->unfolding, nullptr);
  EXPECT_EQ(row_mismatches(*model->unfolding), 0u) << name;
}

INSTANTIATE_TEST_SUITE_P(Specs, CoRows, ::testing::Range(0, kSweptSpecs),
                         [](const auto& info) { return test_name(swept_spec(info.param).first); });

/// The code of c's producer with DC at every signal owning an instance in
/// `events` that is concurrent with c and accepted by `keep`, one scalar
/// co(c, f) query per event.
template <typename Keep>
logic::Cube scalar_mr_cube(const Unfolding& unf, ConditionId c,
                           const std::vector<EventId>& events, Keep keep) {
  logic::Cube cube = logic::Cube::from_code(unf.code(unf.producer(c)));
  for (const EventId f : events) {
    const stg::Label* label = unf.label(f);
    if (label == nullptr || label->dummy) continue;
    if (unf.co(c, f) && keep(f)) cube.set(label->signal.index(), logic::Lit::DC);
  }
  return cube;
}

/// Scalar concurrent_signals: the signal of every event of `events`
/// concurrent with c, one co(c, f) query and one label() per event.
Bitset scalar_concurrent_signals(const Unfolding& unf, ConditionId c,
                                 const std::vector<EventId>& events) {
  Bitset out(unf.stg().signal_count());
  for (const EventId f : events) {
    const stg::Label* label = unf.label(f);
    if (label != nullptr && !label->dummy && unf.co(c, f)) out.set(label->signal.index());
  }
  return out;
}

/// Scalar "f fires strictly after `element`".
bool scalar_after(const Unfolding& unf, const SliceElement& element, EventId f) {
  if (element.is_event) return f != element.event && unf.precedes(element.event, f);
  const EventId producer = unf.producer(element.condition);
  return f != producer && unf.precedes(producer, f) && !unf.co(element.condition, f);
}

/// Scalar slice_events: every event concurrent with or causally after the
/// entry and after no bound, one precedes/co query per pair.
std::vector<EventId> scalar_slice_events(const Unfolding& unf, const Slice& slice) {
  std::vector<EventId> out;
  for (std::size_t i = 0; i < unf.event_count(); ++i) {
    const EventId f(static_cast<std::uint32_t>(i));
    if (!unf.precedes(slice.entry, f) && !unf.co(slice.entry, f)) continue;
    bool past_bound = false;
    for (const EventId g : slice.bounds) {
      if (unf.precedes(g, f)) {
        past_bound = true;
        break;
      }
    }
    if (!past_bound) out.push_back(f);
  }
  return out;
}

/// Scalar excitation_cover: DC at the signal of every event concurrent with
/// the entry, one co(entry, f) query and one label() per event.
logic::Cube scalar_excitation_cover(const Unfolding& unf, EventId entry) {
  logic::Cube cube = logic::Cube::from_code(unf.excitation_code(entry));
  for (std::size_t i = 1; i < unf.event_count(); ++i) {
    const EventId f(static_cast<std::uint32_t>(i));
    const stg::Label* label = unf.label(f);
    if (label == nullptr || label->dummy) continue;
    if (unf.co(entry, f)) cube.set(label->signal.index(), logic::Lit::DC);
  }
  return cube;
}

std::vector<EventId> events_of(const Bitset& bits) {
  std::vector<EventId> out;
  bits.for_each([&](std::size_t i) { out.push_back(EventId(static_cast<std::uint32_t>(i))); });
  return out;
}

/// approximate_cover under the Full policy, rebuilt with the logic::Cover
/// primitives, whose DC signals come from the concurrent_signals fold: the
/// entry's scalar excitation cover, then for each slice condition not
/// produced by a cutoff its plain MR cover, or the intersection of its
/// restricted covers over the compatible bounds when the intersection is
/// not empty.
std::vector<ReferenceAtom> fold_approximate_cover(const Unfolding& unf, SignalId s, bool value) {
  std::vector<ReferenceAtom> out;
  const std::vector<Slice> slices = signal_slices(unf, s, value);
  const std::size_t n = unf.stg().signal_count();
  for (std::size_t si = 0; si < slices.size(); ++si) {
    const Slice& slice = slices[si];
    const Bitset events = slice_events(unf, slice);
    if (!unf.is_initial(slice.entry)) {
      out.push_back({SliceElement::of(slice.entry), si, logic::Cover(n)});
      out.back().cover.add(scalar_excitation_cover(unf, slice.entry));
    }
    for (const ConditionId c : slice_conditions(unf, slice, events)) {
      if (unf.is_cutoff(unf.producer(c))) continue;
      std::optional<logic::Cover> restricted;
      for (const EventId g : slice.bounds) {
        const auto& pre = unf.preset(g);
        if (!unf.co(c, g) && std::find(pre.begin(), pre.end(), c) == pre.end()) continue;
        logic::Cover next = restricted_next_cover(unf, c, g, events);
        restricted = restricted ? restricted->intersect(next) : std::move(next);
      }
      if (restricted && restricted->empty()) continue;
      out.push_back({SliceElement::of(c), si, logic::Cover(n)});
      if (restricted) {
        out.back().cover = std::move(*restricted);
      } else {
        out.back().cover.add(mr_cover(unf, c, events));
      }
    }
  }
  return out;
}

class PrimitiveEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(PrimitiveEquivalence, WordLevelPrimitivesMatchScalarDefinitions) {
  const auto [name, stg] = swept_spec(GetParam());
  const Unfolding unf = Unfolding::build(stg);
  // The per-slice scalar checks below cost a slice's conditions times its
  // events.  On the two Fig. 6 specs (466 and 308 events; every other swept
  // spec has at most 121) they run on every eighth slice, which keeps a
  // Debug build's sweep within seconds; every atom is checked regardless.
  const std::size_t slice_stride = name == "muller29" || name == "cfpp34" ? 8 : 1;
  for (const SignalId s : stg.non_input_signals()) {
    for (const bool value : {true, false}) {
      // On Fig. 1 approximate_cover folds co rows; everywhere else it reads
      // the rank tables.  Both must give the fold primitives' atoms.
      expect_same_atoms(approximate_cover(unf, s, value), fold_approximate_cover(unf, s, value),
                        name + "/" + stg.signal_name(s) + (value ? " on" : " off"));
      const std::vector<Slice> slices = signal_slices(unf, s, value);
      for (std::size_t si = 0; si < slices.size(); si += slice_stride) {
        const Slice& slice = slices[si];
        const std::string where = name + "/" + stg.signal_name(s) + " entry " +
                                  unf.event_name(slice.entry);
        const Bitset event_set = slice_events(unf, slice);
        const std::vector<EventId> events = events_of(event_set);
        EXPECT_EQ(events, scalar_slice_events(unf, slice)) << where;
        if (!unf.is_initial(slice.entry)) {
          EXPECT_EQ(excitation_cover(unf, slice.entry),
                    scalar_excitation_cover(unf, slice.entry))
              << where;
        }
        const std::vector<ConditionId> conditions = slice_conditions(unf, slice, event_set);
        std::vector<SliceElement> elements;
        if (!unf.is_initial(slice.entry)) elements.push_back(SliceElement::of(slice.entry));
        // A few condition elements per slice keep the sweep linear in size.
        for (std::size_t k = 0; k < conditions.size(); k += 1 + conditions.size() / 3) {
          elements.push_back(SliceElement::of(conditions[k]));
        }
        // All of a slice's conditions at once, as approximate_cover folds
        // them (more than 64 in the larger pipelines' slices).
        const std::vector<Bitset> dc = concurrent_signals(unf, conditions, event_set);
        ASSERT_EQ(dc.size(), conditions.size()) << where;
        for (std::size_t k = 0; k < conditions.size(); ++k) {
          EXPECT_EQ(dc[k], scalar_concurrent_signals(unf, conditions[k], events))
              << where << " concurrent signals of " << unf.condition_name(conditions[k]);
        }
        // The rank rule that approximate_cover reads when every signal's
        // instances form a chain gives the fold's answer on every condition.
        if (!unf.branching_signal().valid()) {
          for (std::size_t k = 0; k < conditions.size(); ++k) {
            EXPECT_EQ(ranked_concurrent_signals(unf, conditions[k], slice), dc[k])
                << where << " ranked signals of " << unf.condition_name(conditions[k]);
          }
        }
        for (const ConditionId c : conditions) {
          EXPECT_EQ(mr_cover(unf, c, event_set),
                    scalar_mr_cube(unf, c, events, [](EventId) { return true; }))
              << where << " mr " << unf.condition_name(c);
        }
        for (const SliceElement& element : elements) {
          std::vector<ConditionId> scalar_refining;
          for (const ConditionId c : conditions) {
            if (element.is_event ? unf.co(c, element.event) : unf.co(c, element.condition)) {
              scalar_refining.push_back(c);
            }
          }
          EXPECT_EQ(refining_set(unf, element, slice), scalar_refining) << where;
          for (const ConditionId c : scalar_refining) {
            EXPECT_EQ(refinement_mr_cover(unf, c, element, event_set),
                      scalar_mr_cube(unf, c, events, [&](EventId f) {
                        return scalar_after(unf, element, f);
                      }))
                << where << " refinement " << unf.condition_name(c);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Specs, PrimitiveEquivalence, ::testing::Range(0, kSweptSpecs),
                         [](const auto& info) { return test_name(swept_spec(info.param).first); });

TEST(PackedAtoms, SweepMeetsMultiCubeRestrictedAtoms) {
  // A condition behind a bound with several usable triggers gets a
  // restricted atom of several cubes, which approximate_cover builds through
  // packed products and containment.  PrimitiveEquivalence checks those
  // against the Cover primitives only if the sweep holds some.
  std::size_t multi_cube = 0;
  for (int index = 0; index < kSweptSpecs; ++index) {
    const auto [name, stg] = swept_spec(index);
    const Unfolding unf = Unfolding::build(stg);
    for (const SignalId s : stg.non_input_signals()) {
      for (const bool value : {true, false}) {
        const ApproxCover approx = approximate_cover(unf, s, value);
        for (const CoverAtom& atom : approx.atoms) {
          if (!atom.element.is_event && atom.count > 1) ++multi_cube;
        }
      }
    }
  }
  EXPECT_GT(multi_cube, 0u);
}

TEST(PackedAtoms, SweepIntersectsMultiCubeRestrictedCovers) {
  // A condition with several compatible bounds gets the intersection of
  // their restricted covers, which approximate_cover forms on packed cube
  // lists.  PrimitiveEquivalence checks that against Cover::intersect only
  // if the sweep holds such a condition with a restricted cover of several
  // cubes.
  std::size_t multi_cube = 0;
  for (int index = 0; index < kSweptSpecs; ++index) {
    const auto [name, stg] = swept_spec(index);
    const Unfolding unf = Unfolding::build(stg);
    for (const SignalId s : stg.non_input_signals()) {
      for (const bool value : {true, false}) {
        for (const Slice& slice : signal_slices(unf, s, value)) {
          const Bitset events = slice_events(unf, slice);
          for (const ConditionId c : slice_conditions(unf, slice, events)) {
            if (unf.is_cutoff(unf.producer(c))) continue;
            std::vector<std::size_t> cubes;
            for (const EventId g : slice.bounds) {
              const auto& pre = unf.preset(g);
              if (!unf.co(c, g) && std::find(pre.begin(), pre.end(), c) == pre.end()) continue;
              cubes.push_back(restricted_next_cover(unf, c, g, events).cube_count());
            }
            if (cubes.size() > 1 && *std::max_element(cubes.begin(), cubes.end()) > 1) {
              ++multi_cube;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(multi_cube, 0u);
}

TEST(InstanceRanks, OnlyFig1AndTwoBoundHaveBranchingInstances) {
  // Fig. 1's choice gives one signal two unordered instances, and the
  // two-bound spec's choices give a and k two each; every other swept spec,
  // muller29 and cfpp34 among them, keeps each signal on one chain.
  std::vector<std::string> branching;
  for (int index = 0; index < kSweptSpecs; ++index) {
    const auto [name, stg] = swept_spec(index);
    if (Unfolding::build(stg).branching_signal().valid()) branching.push_back(name);
  }
  EXPECT_EQ(branching, (std::vector<std::string>{"fig1", "twobound"}));
}

TEST(InstanceRanks, FindTheBranchingSignalInEveryPosition) {
  // x+ and x+/2 are a free choice, so x's instances branch; a and y each
  // cycle on their own, one chain apiece.  Declaring x first, second and
  // last puts its id at each end of the signal range and between.
  for (const char* outputs : {"x a y", "a x y", "a y x"}) {
    const Stg stg = stg::parse_g(std::string(".model one_branch\n.outputs ") + outputs +
                                 "\n.graph\n"
                                 "p0 x+ x+/2\nx+ p1\nx+/2 p1\np1 x-\nx- p0\n"
                                 "a+ p2\np2 a-\na- p3\np3 a+\n"
                                 "y+ p4\np4 y-\ny- p5\np5 y+\n"
                                 ".marking { p0 p3 p5 }\n.end\n");
    const Unfolding unf = Unfolding::build(stg);
    ASSERT_TRUE(unf.branching_signal().valid()) << outputs;
    EXPECT_EQ(stg.signal_name(unf.branching_signal()), "x") << outputs;
    EXPECT_EQ(unf.branching_signal(), scalar_branching_signal(unf)) << outputs;
  }
}

}  // namespace
}  // namespace punt::core
