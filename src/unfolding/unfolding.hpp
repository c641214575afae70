// The STG-unfolding segment (paper §3.1).
//
// An occurrence net unfolding of the STG's underlying Petri net, cut off
// when the ⟨final marking, binary code⟩ of a new instance's local
// configuration repeats (McMillan's criterion lifted to STGs).  Each event
// carries the binary code reached by firing its local configuration, so the
// segment implicitly represents every reachable SG state as the cut of some
// configuration.
//
// Conditions (place instances) and events (transition instances) are dense
// ids.  Event 0 is the virtual initial transition ⊥ whose postset maps onto
// the initial marking and whose code is the initial binary state.
//
// Relations (paper §3):
//   * causality  e ≤ f  — e belongs to the local configuration of f;
//   * conflict   e # f  — their pasts consume a shared condition;
//   * concurrency (co)  — neither ordered nor in conflict; maintained
//     incrementally between conditions, derived for events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/pn/ids.hpp"
#include "src/pn/marking.hpp"
#include "src/stg/stg.hpp"
#include "src/util/bitset.hpp"
#include "src/util/page_allocator.hpp"

namespace punt::unf {

/// Construction bounds.  Cutoffs follow McMillan's rule: e is a cutoff iff
/// an existing event f has the same ⟨marking, code⟩ and a strictly smaller
/// local configuration.
struct UnfoldOptions {
  /// Hard bound on instantiated events (⊥ excluded); exceeded => CapacityError.
  std::size_t event_budget = 100000;
  /// Safety bound on cut markings (1 = safe nets); 0 disables the check.
  std::uint32_t capacity = 1;
};

struct UnfoldStats {
  std::size_t events = 0;      // excluding ⊥
  std::size_t conditions = 0;
  std::size_t cutoffs = 0;
};

/// The finite STG-unfolding segment.  Immutable once built.
class Unfolding {
 public:
  /// Unfolds `stg` until every continuation is behind a cutoff.  Throws
  /// ImplementabilityError on inconsistent state assignment, CapacityError
  /// on unsafe markings or budget exhaustion.  The unfolding keeps its own
  /// copy of the STG, so temporaries are safe to pass.
  static Unfolding build(const stg::Stg& stg, const UnfoldOptions& options = {});

  const stg::Stg& stg() const { return *stg_; }
  const UnfoldStats& stats() const { return stats_; }

  static constexpr EventId initial_event() { return EventId(0); }
  bool is_initial(EventId e) const { return e.value == 0; }

  std::size_t event_count() const { return transitions_.size(); }
  std::size_t condition_count() const { return places_.size(); }

  // --- Per-event data ---------------------------------------------------

  /// The STG transition this event instantiates (invalid for ⊥).
  pn::TransitionId transition(EventId e) const { return transitions_[e.index()]; }

  /// Label of the instantiated transition, or nullptr for ⊥.
  const stg::Label* label(EventId e) const;

  const std::vector<ConditionId>& preset(EventId e) const { return e_pre_[e.index()]; }
  const std::vector<ConditionId>& postset(EventId e) const { return e_post_[e.index()]; }

  /// Bitset of the local configuration [e] over event ids (⊥'s bit is set).
  const Bitset& local_config(EventId e) const { return configs_[e.index()]; }

  /// |[e]| excluding ⊥ (0 for ⊥ itself) — McMillan's adequate measure.
  std::size_t config_size(EventId e) const { return config_sizes_[e.index()]; }

  /// Binary code reached by firing [e] from the initial state.
  const stg::Code& code(EventId e) const { return codes_[e.index()]; }

  /// Binary code at the minimal excitation cut of e: code([e] \ {e}).
  stg::Code excitation_code(EventId e) const;

  /// Final state of [e]: the marking of the original STG reached by [e].
  const pn::Marking& final_marking(EventId e) const { return markings_[e.index()]; }

  bool is_cutoff(EventId e) const { return cutoff_[e.index()] != 0; }
  /// The earlier event with the same ⟨marking, code⟩ (valid iff is_cutoff).
  EventId cutoff_image(EventId e) const { return cutoff_image_[e.index()]; }

  /// Readable instance name, e.g. "b+/2@7" (or "_|_" for ⊥).
  std::string event_name(EventId e) const;

  // --- Per-condition data -------------------------------------------------

  pn::PlaceId place(ConditionId c) const { return places_[c.index()]; }
  EventId producer(ConditionId c) const { return producers_[c.index()]; }
  const std::vector<EventId>& consumers(ConditionId c) const {
    return consumers_[c.index()];
  }
  /// Readable instance name, e.g. "p4@9".
  std::string condition_name(ConditionId c) const;

  // --- Relations ------------------------------------------------------------

  /// Causal precedence e ≤ f (reflexive).
  bool precedes(EventId e, EventId f) const;

  /// Concurrency between conditions (irreflexive).
  bool co(ConditionId a, ConditionId b) const;
  /// Concurrency between a condition and an event: c can be marked while e
  /// fires (c co every input of e).
  bool co(ConditionId c, EventId e) const;
  /// Concurrency between events (both can fire in one run, unordered).
  bool co(EventId e, EventId f) const;
  /// Conflict: no single run fires both.
  bool in_conflict(EventId e, EventId f) const;

  // --- Relations as word rows (DESIGN.md §5) ------------------------------
  //
  // An event set is a row of event_words() 64-bit words: bit f%64 of word
  // f/64 is event f, so callers combine sets word by word.

  std::size_t event_words() const { return row_words_; }
  /// co(c, e) for every event e at once.
  std::span<const std::uint64_t> co_events(ConditionId c) const {
    return {rows_.data() + c.index() * row_words_, row_words_};
  }
  /// co(e, f) for every event f at once: the AND of co_events(x) over e's
  /// preset (empty for ⊥).  Computed on each call, not stored.
  Bitset co_events(EventId e) const;
  /// The causal successors of e, {f : e ≤ f}; e's own bit is set.
  std::span<const std::uint64_t> successors(EventId e) const {
    return {rows_.data() + (condition_count() + e.index()) * row_words_, row_words_};
  }
  /// The signal e's label drives; invalid for ⊥ and dummy events.
  stg::SignalId signal_of(EventId e) const { return signals_[e.index()]; }
  /// code(e) packed one bit per signal: bit s%64 of word s/64 is signal s.
  std::span<const std::uint64_t> code_bits(EventId e) const {
    return {rows_.data() + (condition_count() + event_count()) * row_words_ +
                e.index() * code_words_,
            code_words_};
  }

  // --- STG-specific queries ---------------------------------------------

  /// Non-⊥ instances of any transition of `signal`, ascending.
  const std::vector<EventId>& instances_of_signal(stg::SignalId signal) const {
    return instances_[signal.index()];
  }

  /// next(e): instances of e's signal causally after e with no intermediate
  /// instance of that signal (paper §3.1).
  std::vector<EventId> next_instances(EventId e) const;

  /// first(a): instances of `signal` with no preceding instance of it.
  std::vector<EventId> first_instances(stg::SignalId signal) const;

  // --- Instance ranks (DESIGN.md §5) --------------------------------------
  //
  // An instance's rank is its index in instances_of_signal.  When every
  // signal's instances form one causal chain, each preceding the next, a
  // local configuration holds a prefix of every chain, and the segment
  // keeps the two tables below; otherwise it keeps neither.

  /// The first signal two of whose instances are causally unordered (they
  /// branch under choice); invalid when every signal's instances form one
  /// causal chain, which is when the rank tables exist.
  stg::SignalId branching_signal() const { return branching_signal_; }
  /// The number of instances of `t` in [e], which is also the rank of the
  /// first one outside [e].
  std::uint32_t config_instances(EventId e, stg::SignalId t) const {
    const std::size_t i = t.index();
    return static_cast<std::uint32_t>(
        rows_[counts_at_ + e.index() * count_words_ + i / 2] >> (32 * (i & 1)));
  }
  /// Bit t%64 of word t/64 is set when the first instance of signal t
  /// outside [producer(c)] exists and is concurrent with c.
  std::span<const std::uint64_t> first_outside_co(ConditionId c) const {
    return {rows_.data() + first_co_at_ + c.index() * code_words_, code_words_};
  }

  // --- Configurations and cuts ----------------------------------------------

  /// Cut (condition set) reached by firing the configuration: conditions
  /// produced by its events (incl. ⊥'s postset) and not consumed by them.
  Bitset cut_of_config(const Bitset& config_events) const;

  /// Maps a cut onto a marking of the original STG.
  pn::Marking marking_of_cut(const Bitset& cut) const;

  /// Minimal stable cut of e: the cut of [e] (paper §3.2).
  Bitset min_stable_cut(EventId e) const { return cut_of_config(configs_[e.index()]); }

  /// Minimal excitation cut of e: the cut of [e] \ {e} — the first state at
  /// which e is enabled.
  Bitset min_excitation_cut(EventId e) const;

 private:
  friend class Unfolder;
  Unfolding() = default;

  /// Derives rows_, signals_, instances_ and branching_signal_ from the
  /// segment.  Called once the segment is complete, by build().
  void build_rows();

  std::shared_ptr<const stg::Stg> stg_;
  UnfoldStats stats_;

  // Events (index 0 = ⊥).
  std::vector<pn::TransitionId> transitions_;
  std::vector<std::vector<ConditionId>> e_pre_, e_post_;
  std::vector<Bitset> configs_;
  std::vector<std::size_t> config_sizes_;
  std::vector<stg::Code> codes_;
  std::vector<pn::Marking> markings_;
  std::vector<std::uint8_t> cutoff_;
  std::vector<EventId> cutoff_image_;

  // Conditions.
  std::vector<pn::PlaceId> places_;
  std::vector<EventId> producers_;
  std::vector<std::vector<EventId>> consumers_;

  // Triangular concurrency matrix: co_[c] holds bits for conditions with
  // ids < c; co(a, b) is looked up in the row of the larger id.
  std::vector<Bitset> co_;

  // Derived rows, in one flat allocation of whole pages
  // (page_allocator.hpp): the condition co rows (co_events) and the event
  // successor rows (successors), row_words_ words each, then the packed
  // codes (code_bits), code_words_ words each.  When every signal's
  // instances form a chain, the rank tables follow: from word counts_at_,
  // each event's config_instances, two 32-bit entries per word in
  // count_words_ words; from word first_co_at_, each condition's
  // first_outside_co bits in code_words_ words.
  std::size_t row_words_ = 0;
  std::size_t code_words_ = 0;
  std::size_t count_words_ = 0;
  std::size_t counts_at_ = 0;
  std::size_t first_co_at_ = 0;
  std::vector<std::uint64_t, util::PageAllocator<std::uint64_t>> rows_;
  // Per event: the signal of its label (signal_of); per signal: its
  // instances (instances_of_signal).  Derived.
  std::vector<stg::SignalId> signals_;
  std::vector<std::vector<EventId>> instances_;
  stg::SignalId branching_signal_;
};

/// A persistency (semi-modularity) violation found on the segment: firing
/// `disabler` steals a token from the excited output instance `victim`.
struct SegmentPersistencyViolation {
  EventId victim;
  EventId disabler;
  std::string describe(const Unfolding& unf) const;
};

/// Linear-time semi-modularity check on the segment (paper §3.1): direct
/// conflicts between an output-labelled instance and an instance of a
/// different signal that can be co-enabled.
std::vector<SegmentPersistencyViolation> segment_persistency_violations(
    const Unfolding& unf);

/// Enumerates the distinct markings of all cuts reachable inside the
/// segment (BFS over configurations).  Exponential in concurrency — used by
/// completeness tests and the exact synthesis path, never by approximation.
/// Throws CapacityError beyond `budget` distinct markings (0 = unlimited).
std::vector<pn::Marking> reachable_cut_markings(const Unfolding& unf,
                                                std::size_t budget = 0);

}  // namespace punt::unf
