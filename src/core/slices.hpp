// Slices of the STG-unfolding segment (paper §3.3 / §4.1).
//
// A slice represents the connected set of SG states between a min-cut and a
// set of max-cuts.  For synthesis, every output signal's on-set (off-set) is
// partitioned into one slice per rising (falling) instance: the slice starts
// at the instance's minimal excitation cut and extends as far as the system
// can advance without exciting the opposite edge.
//
// Exact covers are derived by enumerating the cuts encapsulated in each
// slice (guarded BFS over the token game of the segment) and recovering
// their binary codes — the paper's exact method, exponential in concurrency
// but exactly equivalent to SG-based synthesis.
#pragma once

#include <cstddef>
#include <vector>

#include "src/logic/cover.hpp"
#include "src/stg/stg.hpp"
#include "src/unfolding/unfolding.hpp"

namespace punt::core {

/// One slice of the on- or off-set partitioning of a signal.
struct Slice {
  /// The entry instance: a rising/falling instance of the signal, or ⊥.
  unf::EventId entry;
  /// next(entry): the same-signal instances bounding the slice (empty when
  /// every continuation deadlocks or leaves through a cutoff).
  std::vector<unf::EventId> bounds;
  /// Value the signal's implementation must produce inside the slice.
  bool on_value = true;
};

/// The per-instance slices representing the on-set (`value`=1) or off-set
/// (`value`=0) of `signal` (paper §4.1): one per matching-polarity instance,
/// plus a ⊥ slice when the initial value already lies in the set.
std::vector<Slice> signal_slices(const unf::Unfolding& unf, stg::SignalId signal,
                                 bool value);

/// The slice's min-cut: the entry's minimal excitation cut, or its minimal
/// stable cut when the entry is ⊥.
Bitset slice_min_cut(const unf::Unfolding& unf, const Slice& slice);

/// Events belonging to the slice, as a bitset over event ids: instances that
/// can fire between the min-cut and a max-cut — concurrent with or causally
/// after the entry and not past any bounding instance.  The entry itself is
/// included; bounds are not.
Bitset slice_events(const unf::Unfolding& unf, const Slice& slice);

/// Conditions of the slice that are *sequential to the entry*: produced by a
/// slice event causally at-or-after the entry, in ascending producer order.
/// These are the candidates for the approximation set P'a (paper §4.2).
/// `events` is slice_events(unf, slice), which callers compute once per slice.
std::vector<unf::ConditionId> slice_conditions(const unf::Unfolding& unf,
                                               const Slice& slice, const Bitset& events);

/// Result of exact cut enumeration over one slice.
struct SliceStates {
  /// Distinct binary codes of the encapsulated cuts.
  std::vector<stg::Code> codes;
  /// Number of distinct cuts visited (>= codes.size()).
  std::size_t cut_count = 0;
};

/// Enumerates the cuts encapsulated in `slice` (guarded BFS: a cut belongs
/// iff the signal's implied value there equals slice.on_value; expansion
/// stops at excluded cuts).  The implied value is evaluated on the original
/// net's token game, so truncation at cutoffs cannot misclassify a state.
/// Throws CapacityError past `cut_budget` distinct cuts (0 = unlimited).
SliceStates enumerate_slice(const unf::Unfolding& unf, stg::SignalId signal,
                            const Slice& slice, std::size_t cut_budget = 0);

/// Exact cover of the on-set (`value`=1) or off-set (`value`=0) of `signal`,
/// as the union of its slices' state codes — one minterm cube per distinct
/// code (paper §4.1).  Equivalent to the SG-derived cover.
logic::Cover exact_cover(const unf::Unfolding& unf, stg::SignalId signal, bool value,
                         std::size_t cut_budget = 0);

/// Exact cover of the excitation region ER(+signal) (`rising`) or
/// ER(-signal): guarded BFS from each matching instance's minimal excitation
/// cut while the edge stays enabled (output persistency keeps each region
/// connected).  Used by the standard-C / RS-latch architectures.
logic::Cover exact_er_cover(const unf::Unfolding& unf, stg::SignalId signal,
                            bool rising, std::size_t cut_budget = 0);

}  // namespace punt::core
