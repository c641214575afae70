// Heuristic two-level minimisation in the style of Espresso.
//
// This is the stand-in for the paper's "EspTim" column: the classic
// EXPAND / IRREDUNDANT / (REDUCE, EXPAND, IRREDUNDANT)* loop, driven by a
// *blocking* cover rather than a complement.
//
// Blocking semantics: the result must cover every point of `on` and avoid
// every point of `blocking`; points outside both are free.  This mirrors the
// paper's stronger correctness condition for approximated covers — the
// off-set cover produced by the unfolding flow acts as the blocking set, so
// part of the true DC-set may be walled off, which the paper notes can cost
// a literal or two versus exact-DC minimisation.
//
// Espresso never complements the care set: IRREDUNDANT and REDUCE decide
// against the on-set (Brayton et al.'s F/D/R formulation, DESIGN.md §6), and
// the only complements taken are of cofactors of the current cover.
#pragma once

#include <cstddef>

#include "src/logic/cover.hpp"

namespace punt::logic {

/// Size bookkeeping: cube and literal counts before and after minimisation
/// (kept per signal in SignalImplementation::min_stats; perfbench sums them).
struct MinimizeStats {
  std::size_t initial_cubes = 0;
  std::size_t initial_literals = 0;
  std::size_t final_cubes = 0;
  std::size_t final_literals = 0;
  std::size_t iterations = 0;
};

/// Minimises `on` against the `blocking` cover.  The result R satisfies
/// R ⊇ on and R ∩ blocking = ∅.  Throws ValidationError when `on` and
/// `blocking` already intersect (the inputs are contradictory).  The
/// refinement loop runs until a round stops lowering literals + cubes.
Cover espresso(const Cover& on, const Cover& blocking, MinimizeStats* stats = nullptr);

}  // namespace punt::logic
