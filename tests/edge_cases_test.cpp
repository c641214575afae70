// Edge cases across the stack: signals starting at 1 (the ⊥-slice corner),
// constant signals, espresso stats, zero-variable covers, generator
// validity, round-trips of non-trivial markings.
#include <gtest/gtest.h>

#include "src/benchmarks/templates.hpp"
#include "src/core/slices.hpp"
#include "src/core/synthesis.hpp"
#include "src/logic/espresso.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

namespace punt {
namespace {

using stg::Polarity;
using stg::SignalId;
using stg::SignalKind;
using stg::Stg;

/// Two-signal ring that starts with both signals HIGH: x- ; y- ; x+ ; y+.
Stg make_high_start_ring() {
  Stg stg;
  stg.set_name("high_start");
  const SignalId x = stg.add_signal("x", SignalKind::Output);
  const SignalId y = stg.add_signal("y", SignalKind::Output);
  const auto x_dn = stg.add_transition(x, Polarity::Fall);
  const auto y_dn = stg.add_transition(y, Polarity::Fall);
  const auto x_up = stg.add_transition(x, Polarity::Rise);
  const auto y_up = stg.add_transition(y, Polarity::Rise);
  auto& net = stg.net();
  const auto p0 = net.add_place("p0");
  const auto p1 = net.add_place("p1");
  const auto p2 = net.add_place("p2");
  const auto p3 = net.add_place("p3");
  net.add_arc(p0, x_dn);
  net.add_arc(x_dn, p1);
  net.add_arc(p1, y_dn);
  net.add_arc(y_dn, p2);
  net.add_arc(p2, x_up);
  net.add_arc(x_up, p3);
  net.add_arc(p3, y_up);
  net.add_arc(y_up, p0);
  net.set_initial_tokens(p0, 1);
  stg.set_initial_value(x, 1);
  stg.set_initial_value(y, 1);
  stg.validate();
  return stg;
}

TEST(HighStart, InitialOneSignalsSynthesise) {
  const Stg stg = make_high_start_ring();
  for (const core::Method m : {core::Method::UnfoldingApprox,
                               core::Method::UnfoldingExact,
                               core::Method::StateGraph}) {
    core::SynthesisOptions options;
    options.method = m;
    const auto result = core::synthesize(stg, options);
    // x = y' and y = x (1 literal each) or equivalent phase choices.
    EXPECT_EQ(result.literal_count(), 2u) << int(m);
    const auto netlist = net::Netlist::from_synthesis(stg, result);
    const auto sgraph = sg::StateGraph::build(stg);
    EXPECT_TRUE(net::verify_conformance(sgraph, netlist).empty()) << int(m);
  }
}

TEST(HighStart, BottomSliceCarriesOnSet) {
  // v0[x] = 1, so the on-set partitioning of x includes a ⊥-entry slice
  // bounded by first(x) = the falling instance.
  const Stg stg = make_high_start_ring();
  const auto unf = unf::Unfolding::build(stg);
  const SignalId x = *stg.find_signal("x");
  const auto slices = core::signal_slices(unf, x, true);
  bool has_bottom = false;
  for (const auto& slice : slices) {
    if (unf.is_initial(slice.entry)) {
      has_bottom = true;
      ASSERT_FALSE(slice.bounds.empty());
      EXPECT_EQ(stg.transition_name(unf.transition(slice.bounds.front())), "x-");
    }
  }
  EXPECT_TRUE(has_bottom);
}

TEST(ConstantSignal, SignalWithoutTransitionsBecomesConstantGate) {
  // 'mode' never toggles: its gate must be the constant of its value.
  Stg stg = stg::make_paper_fig1();
  const SignalId mode = stg.add_signal("mode", SignalKind::Output);
  stg.set_initial_value(mode, 1);
  const auto result = core::synthesize(stg);
  const auto& impl = result.implementation(mode);
  const auto sgraph = sg::StateGraph::build(stg);
  for (std::size_t s = 0; s < sgraph.state_count(); ++s) {
    const bool value = impl.gate_covers_on ? impl.gate.covers_point(sgraph.code(s))
                                           : !impl.gate.covers_point(sgraph.code(s));
    EXPECT_TRUE(value);  // constant 1 in every reachable state
  }
}

TEST(Espresso, StatsAreFilled) {
  logic::Cover on(3), off(3);
  for (const char* s : {"100", "101", "110", "111"}) on.add(logic::Cube::from_string(s));
  off.add(logic::Cube::from_string("0--"));
  logic::MinimizeStats stats;
  const auto min = logic::espresso(on, off, &stats);
  EXPECT_EQ(stats.initial_cubes, 4u);
  EXPECT_EQ(stats.initial_literals, 12u);
  EXPECT_EQ(stats.final_cubes, min.cube_count());
  EXPECT_EQ(stats.final_literals, 1u);  // f = a
}

TEST(Cover, ZeroVariableCovers) {
  logic::Cover zero(0);
  EXPECT_FALSE(zero.tautology());
  logic::Cover one = logic::Cover::one(0);
  EXPECT_TRUE(one.tautology());
  EXPECT_TRUE(one.covers_point({}));
  EXPECT_EQ(one.complement().cube_count(), 0u);
  EXPECT_EQ(zero.complement().cube_count(), 1u);
}

TEST(GFormat, InternalAndDummySections) {
  const char* text = R"(
.model mix
.inputs a
.outputs b
.internal w
.dummy eps
.graph
a+ eps
eps b+
b+ w+
w+ a-
a- b-
b- w-
w- a+
.marking { <w-,a+> }
.end
)";
  const Stg stg = stg::parse_g(text);
  EXPECT_EQ(stg.signal_kind(*stg.find_signal("w")), SignalKind::Internal);
  EXPECT_TRUE(stg.has_dummies());
  // Dummies block synthesis with a clear message, but the SG still builds.
  EXPECT_NO_THROW(sg::StateGraph::build(stg));
  EXPECT_THROW(core::synthesize(stg), ImplementabilityError);
}

TEST(GFormat, RoundTripChoiceController) {
  const Stg original = benchmarks::choice_controller("cc_rt", {2, 3});
  const Stg reparsed = stg::parse_g(stg::write_g(original));
  const auto sg_a = sg::StateGraph::build(original);
  const auto sg_b = sg::StateGraph::build(reparsed);
  EXPECT_EQ(sg_a.state_count(), sg_b.state_count());
}

TEST(Generators, CounterflowIsTwoIndependentPipelines) {
  const Stg stg = stg::make_counterflow_pipeline(2);
  EXPECT_EQ(stg.signal_count(), 6u);
  const auto unf = unf::Unfolding::build(stg);
  // Both pipeline heads start concurrently.
  const auto enabled = stg.net().enabled_transitions(stg.net().initial_marking());
  ASSERT_EQ(enabled.size(), 2u);
}

TEST(Slices, ConstantSignalSliceSpansEverything) {
  // A signal stuck at 0 has a single ⊥ off-slice with no bounds.
  Stg stg = stg::make_paper_fig1();
  const SignalId mode = stg.add_signal("mode", SignalKind::Output);
  const auto unf = unf::Unfolding::build(stg);
  const auto slices = core::signal_slices(unf, mode, false);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_TRUE(unf.is_initial(slices.front().entry));
  EXPECT_TRUE(slices.front().bounds.empty());
  const auto states = core::enumerate_slice(unf, mode, slices.front());
  EXPECT_EQ(states.codes.size(), 8u);  // all reachable codes, mode column 0
}

TEST(Synthesis, CutBudgetSurfacesFromExactMethod) {
  core::SynthesisOptions options;
  options.method = core::Method::UnfoldingExact;
  options.cut_budget = 2;
  EXPECT_THROW(core::synthesize(stg::make_muller_pipeline(6), options), CapacityError);
}

}  // namespace
}  // namespace punt
