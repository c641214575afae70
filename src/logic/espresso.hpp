// Heuristic two-level minimisation in the style of Espresso.
//
// This is the stand-in for the paper's "EspTim" column: the classic
// EXPAND / IRREDUNDANT / (REDUCE, EXPAND, IRREDUNDANT)* loop, driven by a
// *blocking* cover rather than a complement where possible.
//
// Blocking semantics: the result must cover every point of `on` and avoid
// every point of `blocking`; points outside both are free.  This mirrors the
// paper's stronger correctness condition for approximated covers — the
// off-set cover produced by the unfolding flow acts as the blocking set, so
// part of the true DC-set may be walled off, which the paper notes can cost
// a literal or two versus exact-DC minimisation.
#pragma once

#include <cstddef>

#include "src/logic/cover.hpp"

namespace punt::logic {

/// Size bookkeeping for reports and the ablation bench.
struct MinimizeStats {
  std::size_t initial_cubes = 0;
  std::size_t initial_literals = 0;
  std::size_t final_cubes = 0;
  std::size_t final_literals = 0;
  std::size_t iterations = 0;
  /// 1 when the don't-care complement overflowed its cap and minimisation
  /// ran with an empty DC.  Set by the call that computed the DC; a
  /// signal's stats count it once however many phases shared that DC.
  std::size_t dc_capped = 0;
};

struct EspressoOptions {
  /// Upper bound on (REDUCE, EXPAND, IRREDUNDANT) refinement rounds.
  std::size_t max_iterations = 5;
};

/// Cubes past which dont_care_cover gives up on the complement.
constexpr std::size_t kDcComplementCap = 200000;

/// The don't-care cover of a care set: the points outside `care`, i.e.
/// care.complement_capped(kDcComplementCap), or the empty cover when that
/// complement overflows (then *capped is set).  The DC only sharpens
/// IRREDUNDANT and REDUCE, so the empty fallback stays correct, marginally
/// less minimal.  Espresso reads only the DC's Boolean function, and the
/// complement's cubes and cap decision depend only on the multiset of
/// care's cubes, so `on + off` and `off + on` give one DC (DESIGN.md §6).
Cover dont_care_cover(const Cover& care, bool* capped = nullptr);

/// Minimises `on` against the `blocking` cover.  The result R satisfies
/// R ⊇ on and R ∩ blocking = ∅.  Throws ValidationError when `on` and
/// `blocking` already intersect (the inputs are contradictory).  The DC is
/// dont_care_cover(on + blocking), and stats->dc_capped reports its cap.
Cover espresso(const Cover& on, const Cover& blocking, MinimizeStats* stats = nullptr,
               const EspressoOptions& options = {});

/// The same minimisation with the don't-care cover given: `dc` must be
/// dont_care_cover(on + blocking), or that of a care set with the same
/// cubes in another order, which callers computing several phases over one
/// care set share.  Leaves stats->dc_capped to the caller.
Cover espresso(const Cover& on, const Cover& blocking, const Cover& dc,
               MinimizeStats* stats = nullptr, const EspressoOptions& options = {});

/// Convenience wrapper: minimise with an explicit don't-care cover; the
/// blocking set is complement(on + dc).
Cover espresso_with_dc(const Cover& on, const Cover& dc, MinimizeStats* stats = nullptr,
                       const EspressoOptions& options = {});

}  // namespace punt::logic
