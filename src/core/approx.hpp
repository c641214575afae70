// Cover approximation and refinement from the STG-unfolding segment
// (paper §4.2 and §4.3).
//
// The approximated on-set cover of a signal is assembled per slice from
//   * the excitation-region cover C*e of the slice's entry instance: the
//     binary code of its minimal excitation cut with every signal that has a
//     concurrent instance inside the slice turned into a don't-care; and
//   * marked-region covers C*mr for an approximation set P'a of conditions
//     sequential to the entry; conditions feeding a bounding instance get
//     the *restricted* sum-form cover that avoids the bound's excitation
//     states.
//
// If the resulting on- and off-set approximations intersect, the refinement
// loop (Fig. 5 of the paper) intersects the offending covers with sums of
// *restricted* MR covers over a refining set P'r, monotonically shrinking
// them towards the exact covers.  Refinement that stalls is reported so the
// driver can fall back to exact per-slice enumeration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/slices.hpp"
#include "src/logic/cover.hpp"
#include "src/stg/stg.hpp"
#include "src/unfolding/unfolding.hpp"

namespace punt::core {

/// How the approximation set P'a is chosen (DESIGN.md §5).
enum class ApproxSetPolicy {
  /// Every slice condition sequential to the entry.  Guarantees that every
  /// quiescent-region cut is covered by some MR cover (sound by
  /// construction); espresso removes the redundancy afterwards.
  Full,
  /// The paper's choice: per bounding instance, one input condition plus
  /// the backward chain of conditions towards the entry (e.g. {p4,p7,p10}
  /// in Fig. 4(b)), plus the deadlock frontier.  Smaller initial covers;
  /// relies on the refinement/fallback safety net for exotic nets.
  PaperChains,
};

/// An element of the unfolding a cover piece is anchored to: a slice-entry
/// event (excitation cover) or a condition (marked-region cover).
struct SliceElement {
  bool is_event = true;
  unf::EventId event;
  unf::ConditionId condition;

  static SliceElement of(unf::EventId e) { return SliceElement{true, e, {}}; }
  static SliceElement of(unf::ConditionId c) { return SliceElement{false, {}, c}; }
};

/// One contribution to an approximated cover, refined independently: the
/// cubes [first, first + count) of its owner's cube array.
struct CoverAtom {
  SliceElement element;
  std::size_t slice_index = 0;  // into ApproxCover::slices
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The approximated cover of one signal's on- or off-set, kept in atom form
/// so refinement can re-constrain individual pieces.
///
/// Every atom cube is packed (DESIGN.md §5): ⌈variables/64⌉ code words, then
/// as many DC words, bit v%64 of word v/64 standing for variable v.  A code
/// bit under a DC bit is clear, and so is every bit past the last variable,
/// so equal cubes have equal words.
struct ApproxCover {
  stg::SignalId signal;
  bool value = true;
  std::size_t variables = 0;
  std::vector<Slice> slices;
  std::vector<Bitset> slice_event_sets;  // slice_events of each slice
  std::vector<CoverAtom> atoms;
  std::vector<std::uint64_t> cubes;  // the atom cubes, packed; a refined atom's
                                     // cubes replace its range at the end

  /// The cubes of atom k, in order.
  logic::Cover cover(std::size_t k) const;

  /// Union of all atom covers with single-cube containment removed: the
  /// cubes, in order, that adding every atom's cover in atom order and
  /// then calling make_irredundant_scc keeps.
  logic::Cover combined(std::size_t variable_count) const;
};

// --- Primitives (unit-tested against the paper's worked examples) -----------

/// C*e of a non-⊥ entry: excitation-cut code with DC at every signal owning
/// an instance concurrent with the entry (paper §4.2; Fig. 4(a): C*e(+d') =
/// a d' g').
logic::Cube excitation_cover(const unf::Unfolding& unf, unf::EventId entry);

/// For each condition of `conditions`, the signals owning a slice instance
/// concurrent with it — the DC signals of its MR cover — as a bitset over
/// signal indices.
std::vector<Bitset> concurrent_signals(const unf::Unfolding& unf,
                                       const std::vector<unf::ConditionId>& conditions,
                                       const Bitset& slice_events);

/// concurrent_signals(unf, {c}, slice_events(unf, slice)) for a condition
/// `c` sequential to the slice's entry, read from the segment's instance
/// ranks and successor rows with one bit per signal (DESIGN.md §5).  Valid
/// only when every signal's instances form a causal chain
/// (!unf.branching_signal().valid()); approximate_cover takes this path
/// then, and the fold otherwise.
Bitset ranked_concurrent_signals(const unf::Unfolding& unf, unf::ConditionId c,
                                 const Slice& slice);

/// Plain MR cover of condition `c`: the code of its producer's local
/// configuration with DC at signals owning a slice instance concurrent with
/// `c` (Fig. 4(b): C*mr(p7) = a d g').
logic::Cube mr_cover(const unf::Unfolding& unf, unf::ConditionId c,
                     const Bitset& slice_events);

/// Restricted MR cover for a condition `c` that can be marked while the
/// bounding instance `bound` is enabled (c feeds the bound, or is concurrent
/// with the bound's whole preset): one term per *usable* trigger of the
/// bound — a preset producer that has not already fired in [producer(c)] —
/// pinning that trigger's signal to its not-yet-fired value (Fig. 4(b):
/// C(p10) = a d f' g + a d e' g).  Returns an empty cover when no trigger
/// can be pinned (every marking of `c` may excite the bound, so `c`
/// contributes nothing to this set); the caller then drops the condition.
logic::Cover restricted_next_cover(const unf::Unfolding& unf, unf::ConditionId c,
                                   unf::EventId bound, const Bitset& slice_events);

/// The refining set P'r for `element` (paper §4.3): every slice condition
/// concurrent with it.
std::vector<unf::ConditionId> refining_set(const unf::Unfolding& unf,
                                           const SliceElement& element,
                                           const Slice& slice);

/// Restricted MR cover used during refinement: DC only at signals owning a
/// slice instance concurrent with `c` *and* causally after `element`
/// (Fig. 4(c): C^r_mr(p2) = {1001-}).
logic::Cube refinement_mr_cover(const unf::Unfolding& unf, unf::ConditionId c,
                                const SliceElement& element, const Bitset& slice_events);

/// One refinement step on owner.atoms[k]: intersects the atom's cover with
/// the sum of restricted MR covers over P'r (Fig. 4(c): refining the d e'
/// cover of p5 w.r.t. signal a yields a c' d e' + b c d e').  A refined
/// atom keeps its cubes normalized (Cover::normalize).  Returns true when
/// the cover changed.
bool refine_atom(const unf::Unfolding& unf, ApproxCover& owner, std::size_t k,
                 stg::SignalId offending);

// --- Whole-signal approximation and refinement ------------------------------

/// Builds the approximated cover of `signal`'s on- (`value`=1) or off-set.
ApproxCover approximate_cover(const unf::Unfolding& unf, stg::SignalId signal,
                              bool value, ApproxSetPolicy policy = ApproxSetPolicy::Full);

struct RefineStats {
  std::size_t iterations = 0;
  std::size_t refined_atoms = 0;
  bool disjoint = false;  // success: the covers no longer intersect
  /// on.combined(n) and off.combined(n) of the refined covers, built to
  /// decide `disjoint`; filled whenever `disjoint` holds.
  logic::Cover on_union;
  logic::Cover off_union;
};

/// Runs the Fig. 5 refinement loop until the on/off covers are disjoint or
/// no offending pair can be refined further.  Returns the stats, with the
/// final unions when disjoint; callers fall back to exact covers when
/// !disjoint.
RefineStats refine_until_disjoint(const unf::Unfolding& unf, ApproxCover& on,
                                  ApproxCover& off, std::size_t max_iterations = 1000);

}  // namespace punt::core
