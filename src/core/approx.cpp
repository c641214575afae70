#include "src/core/approx.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "src/util/error.hpp"

namespace punt::core {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Lit;

bool has_event(std::span<const std::uint64_t> row, std::size_t f) {
  return ((row[f >> 6] >> (f & 63)) & 1u) != 0;
}

/// The events as a bitset over event ids, to AND with co_events rows.
Bitset event_bits(const unf::Unfolding& unf, const std::vector<unf::EventId>& events) {
  Bitset bits(unf.event_count());
  for (const unf::EventId f : events) bits.set(f.index());
  return bits;
}

/// Signals owning an event in `events` that is concurrent with `c`:
/// co_events(c) & events folded into a bitset over signal indices (⊥ and
/// dummies own none).
Bitset concurrent_signals(const unf::Unfolding& unf, unf::ConditionId c,
                          const Bitset& events) {
  const std::span<const std::uint64_t> co = unf.co_events(c);
  const std::vector<std::uint64_t>& in = events.words();
  Bitset out(unf.stg().signal_count());
  for (std::size_t w = 0; w < co.size(); ++w) {
    for (std::uint64_t word = co[w] & in[w]; word != 0; word &= word - 1) {
      const unf::EventId f(static_cast<std::uint32_t>(w * 64 + __builtin_ctzll(word)));
      const stg::Label* label = unf.label(f);
      if (label != nullptr && !label->dummy) out.set(label->signal.index());
    }
  }
  return out;
}

/// Cube from `code` with the signals in `dc` dashed out.
Cube cube_with_dc(const stg::Code& code, const Bitset& dc) {
  Cube cube = Cube::from_code(code);
  dc.for_each([&cube](std::size_t s) { cube.set(s, Lit::DC); });
  return cube;
}

/// The MR cube of `c`: its producer's code with DC at the signals owning an
/// event in `events` concurrent with `c`.
Cube mr_cube(const unf::Unfolding& unf, unf::ConditionId c, const Bitset& events) {
  return cube_with_dc(unf.code(unf.producer(c)), concurrent_signals(unf, c, events));
}

/// Events that fire strictly after `element` in every run containing both:
/// the causal successors of an entry event, or of a condition's producer
/// minus those that can fire while the condition is still marked.
Bitset events_after(const unf::Unfolding& unf, const SliceElement& element) {
  const unf::EventId origin =
      element.is_event ? element.event : unf.producer(element.condition);
  Bitset out(unf.event_count());
  for (std::size_t i = 0; i < unf.event_count(); ++i) {
    const unf::EventId f(static_cast<std::uint32_t>(i));
    if (f == origin || !unf.precedes(origin, f)) continue;
    if (!element.is_event && has_event(unf.co_events(element.condition), i)) continue;
    out.set(i);
  }
  return out;
}

/// restricted_next_cover, given the plain don't-care signals of `c`.
Cover restricted_cover(const unf::Unfolding& unf, unf::ConditionId c, unf::EventId bound,
                       const Bitset& plain_dc) {
  const stg::Code& base = unf.code(unf.producer(c));
  Cover out(base.size());
  for (const unf::ConditionId x : unf.preset(bound)) {
    if (x == c) continue;
    const unf::EventId trigger = unf.producer(x);
    const stg::Label* label = unf.label(trigger);
    if (label == nullptr || label->dummy) continue;  // ⊥ or dummy trigger: skip
    if (unf.precedes(trigger, unf.producer(c))) {
      // The trigger fired before `c` came into existence: its signal already
      // holds the fired value in the base code, so pinning it cannot exclude
      // the bound's excitation states.  An unusable term.
      continue;
    }
    Bitset dc = plain_dc;
    dc.reset(label->signal.index());  // pin the trigger's signal to not-yet-fired
    out.add(cube_with_dc(base, dc));
  }
  out.make_irredundant_scc();
  return out;
}

/// The conditions among `conditions` concurrent with `element` (P'r).
std::vector<unf::ConditionId> concurrent_conditions(
    const unf::Unfolding& unf, const SliceElement& element,
    const std::vector<unf::ConditionId>& conditions) {
  std::vector<unf::ConditionId> out;
  for (const unf::ConditionId c : conditions) {
    const bool concurrent = element.is_event
                                ? has_event(unf.co_events(c), element.event.index())
                                : unf.co(c, element.condition);
    if (concurrent) out.push_back(c);
  }
  return out;
}

/// The slice events after `element`: the events a refinement MR cube
/// dashes out (paper §4.3).
Bitset refinement_candidates(const unf::Unfolding& unf, const SliceElement& element,
                             const std::vector<unf::EventId>& slice_events) {
  Bitset candidates = event_bits(unf, slice_events);
  candidates &= events_after(unf, element);
  return candidates;
}

}  // namespace

logic::Cover ApproxCover::combined(std::size_t variable_count) const {
  std::vector<const Cover*> covers;
  covers.reserve(atoms.size());
  for (const CoverAtom& atom : atoms) covers.push_back(&atom.cover);
  return Cover::union_of(variable_count, covers);
}

Cube excitation_cover(const unf::Unfolding& unf, unf::EventId entry) {
  // Everything concurrent with the entry can fire while it stays excited, so
  // the ER slice's instances are exactly the events concurrent with it.
  Bitset dc(unf.stg().signal_count());
  for (std::size_t i = 1; i < unf.event_count(); ++i) {
    const unf::EventId f(static_cast<std::uint32_t>(i));
    const stg::Label* label = unf.label(f);
    if (label == nullptr || label->dummy) continue;
    if (unf.co(entry, f)) dc.set(label->signal.index());
  }
  return cube_with_dc(unf.excitation_code(entry), dc);
}

Cube mr_cover(const unf::Unfolding& unf, unf::ConditionId c,
              const std::vector<unf::EventId>& slice_events) {
  return mr_cube(unf, c, event_bits(unf, slice_events));
}

Cover restricted_next_cover(const unf::Unfolding& unf, unf::ConditionId c,
                            unf::EventId bound,
                            const std::vector<unf::EventId>& slice_events) {
  return restricted_cover(unf, c, bound,
                          concurrent_signals(unf, c, event_bits(unf, slice_events)));
}

std::vector<unf::ConditionId> refining_set(const unf::Unfolding& unf,
                                           const SliceElement& element,
                                           const Slice& slice) {
  return concurrent_conditions(unf, element,
                               slice_conditions(unf, slice, slice_events(unf, slice)));
}

Cube refinement_mr_cover(const unf::Unfolding& unf, unf::ConditionId c,
                         const SliceElement& element,
                         const std::vector<unf::EventId>& slice_events) {
  return mr_cube(unf, c, refinement_candidates(unf, element, slice_events));
}

bool refine_atom(const unf::Unfolding& unf, const ApproxCover& owner, CoverAtom& atom,
                 stg::SignalId offending) {
  const Slice& slice = owner.slices[atom.slice_index];
  const auto& slice_events = owner.slice_event_sets[atom.slice_index];

  // Only conditions produced by instances of the offending signal (or their
  // surroundings) can sharpen that signal's literal, but the paper's mask is
  // the whole refining set — restricted covers pin every non-successor
  // signal, which includes the offending one whenever possible.
  const std::vector<unf::ConditionId> refining = concurrent_conditions(
      unf, atom.element, slice_conditions(unf, slice, slice_events));
  if (refining.empty()) return false;

  const Bitset candidates = refinement_candidates(unf, atom.element, slice_events);
  Cover mask(unf.stg().signal_count());
  for (const unf::ConditionId c : refining) {
    mask.add(mr_cube(unf, c, candidates));
  }
  mask.make_irredundant_scc();

  Cover refined = atom.cover.intersect(mask);
  refined.normalize();
  Cover before = atom.cover;
  before.normalize();
  if (refined == before) return false;

  // The mask may be unable to sharpen the offending signal (no instance of
  // it concurrent with the element); accept any strict shrink — progress is
  // measured by the caller through cover change.
  (void)offending;
  atom.cover = std::move(refined);
  return true;
}

namespace {

/// PaperChains policy: per bounding instance, choose the deepest input
/// condition and walk producers back to the entry; add the deadlock frontier
/// (conditions no slice event consumes) so unbounded runs stay covered.
std::vector<unf::ConditionId> chain_approximation_set(
    const unf::Unfolding& unf, const Slice& slice,
    const std::vector<unf::EventId>& slice_events,
    const std::vector<unf::ConditionId>& all_conditions) {
  std::set<unf::ConditionId> chosen;
  auto deeper = [&unf](unf::ConditionId a, unf::ConditionId b) {
    const std::size_t da = unf.config_size(unf.producer(a));
    const std::size_t db = unf.config_size(unf.producer(b));
    if (da != db) return da > db;
    return a > b;
  };
  const std::set<unf::ConditionId> in_slice(all_conditions.begin(), all_conditions.end());

  // Walk producers back towards the entry, collecting one condition per
  // level — the branch token always sits on one of them (Fig. 4(b):
  // {p10, p7, p4}).
  auto walk_back = [&](unf::ConditionId start) {
    unf::ConditionId current = start;
    while (current.valid() && chosen.insert(current).second) {
      const unf::EventId producer = unf.producer(current);
      if (producer == slice.entry || unf.is_initial(producer)) break;
      unf::ConditionId next;
      for (const unf::ConditionId x : unf.preset(producer)) {
        if (!in_slice.contains(x)) continue;
        if (!next.valid() || deeper(x, next)) next = x;
      }
      current = next;
    }
  };

  // One chain per bounding instance, from its deepest in-slice input.
  for (const unf::EventId g : slice.bounds) {
    unf::ConditionId start;
    for (const unf::ConditionId x : unf.preset(g)) {
      if (!in_slice.contains(x)) continue;
      if (!start.valid() || deeper(x, start)) start = x;
    }
    if (start.valid()) walk_back(start);
  }

  // One chain per frontier condition: a condition consumed by no live slice
  // event (cutoff consumers do not count — their postsets are excluded from
  // approximation sets, so runs effectively park there).
  std::set<unf::EventId> live_consumers;
  for (const unf::EventId f : slice_events) {
    if (!unf.is_initial(f) && !unf.is_cutoff(f)) live_consumers.insert(f);
  }
  for (const unf::EventId g : slice.bounds) {
    if (!unf.is_cutoff(g)) live_consumers.insert(g);
  }
  for (const unf::ConditionId c : all_conditions) {
    bool consumed = false;
    for (const unf::EventId f : unf.consumers(c)) {
      if (live_consumers.contains(f)) {
        consumed = true;
        break;
      }
    }
    if (!consumed) walk_back(c);
  }
  return {chosen.begin(), chosen.end()};
}

}  // namespace

ApproxCover approximate_cover(const unf::Unfolding& unf, stg::SignalId signal,
                              bool value, ApproxSetPolicy policy) {
  ApproxCover out;
  out.signal = signal;
  out.value = value;
  out.slices = signal_slices(unf, signal, value);

  for (std::size_t si = 0; si < out.slices.size(); ++si) {
    const Slice& slice = out.slices[si];
    out.slice_event_sets.push_back(slice_events(unf, slice));
    const auto& events = out.slice_event_sets.back();
    const Bitset event_set = event_bits(unf, events);

    // C*e of the entry (absent for the ⊥ slice, paper §4.2).
    if (!unf.is_initial(slice.entry)) {
      CoverAtom atom;
      atom.element = SliceElement::of(slice.entry);
      atom.slice_index = si;
      atom.cover = Cover(unf.stg().signal_count());
      atom.cover.add(excitation_cover(unf, slice.entry));
      out.atoms.push_back(std::move(atom));
    }

    // Approximation set P'a and its MR covers.  Conditions produced by
    // cutoff events are skipped: their codes belong to states that the
    // cutoff's image represents with full context (DESIGN.md §5), and an
    // unrestricted frontier MR cover can poison the opposite set.
    std::vector<unf::ConditionId> all_conditions;
    for (const unf::ConditionId c : slice_conditions(unf, slice, events)) {
      if (!unf.is_cutoff(unf.producer(c))) all_conditions.push_back(c);
    }
    const std::vector<unf::ConditionId> pa =
        policy == ApproxSetPolicy::Full
            ? all_conditions
            : chain_approximation_set(unf, slice, events, all_conditions);

    for (const unf::ConditionId c : pa) {
      // A bound that can be enabled while c is marked makes every such
      // marking an opposite-set state; its excitation markings must be
      // excluded from c's MR cover (paper §4.2, generalised: the bound is
      // "compatible" when c feeds it or is concurrent with its whole
      // preset).
      std::vector<unf::EventId> compatible_bounds;
      for (const unf::EventId g : slice.bounds) {
        bool compatible = true;
        for (const unf::ConditionId x : unf.preset(g)) {
          if (x != c && !unf.co(c, x)) {
            compatible = false;
            break;
          }
        }
        if (compatible) compatible_bounds.push_back(g);
      }
      const Bitset plain_dc = concurrent_signals(unf, c, event_set);
      CoverAtom atom;
      atom.element = SliceElement::of(c);
      atom.slice_index = si;
      if (compatible_bounds.empty()) {
        atom.cover = Cover(unf.stg().signal_count());
        atom.cover.add(cube_with_dc(unf.code(unf.producer(c)), plain_dc));
      } else {
        Cover cover = restricted_cover(unf, c, compatible_bounds.front(), plain_dc);
        for (std::size_t k = 1; k < compatible_bounds.size(); ++k) {
          cover = cover.intersect(restricted_cover(unf, c, compatible_bounds[k], plain_dc));
        }
        if (cover.empty()) continue;  // every marking of c excites some bound
        atom.cover = std::move(cover);
      }
      out.atoms.push_back(std::move(atom));
    }
  }
  return out;
}

RefineStats refine_until_disjoint(const unf::Unfolding& unf, ApproxCover& on,
                                  ApproxCover& off, std::size_t max_iterations) {
  const std::size_t n = unf.stg().signal_count();
  RefineStats stats;
  std::set<std::pair<std::size_t, std::size_t>> stuck;
  while (stats.iterations < max_iterations) {
    // Some on/off atom pair intersects iff the two unions do: single-cube
    // containment keeps only atom cubes and drops only cubes that lie inside
    // a kept one (DESIGN.md §5).
    const Cover off_union = off.combined(n);
    if (!on.combined(n).intersects(off_union)) {
      stats.disjoint = true;
      return stats;
    }

    // The first offending, still refinable pair in row-major order.  By the
    // same argument, a row whose atom misses the off union has none.
    std::size_t oi = 0, oj = 0;
    bool found = false;
    for (std::size_t i = 0; i < on.atoms.size() && !found; ++i) {
      const Cover& row = on.atoms[i].cover;
      if (!row.intersects(off_union)) continue;
      for (std::size_t j = 0; j < off.atoms.size(); ++j) {
        if (!row.intersects(off.atoms[j].cover) || stuck.contains({i, j})) continue;
        oi = i;
        oj = j;
        found = true;
        break;
      }
    }
    if (!found) return stats;  // every offending pair is stuck: caller falls back

    ++stats.iterations;
    const bool a = refine_atom(unf, on, on.atoms[oi], off.signal);
    const bool b = refine_atom(unf, off, off.atoms[oj], on.signal);
    if (a) ++stats.refined_atoms;
    if (b) ++stats.refined_atoms;
    if (!a && !b) stuck.insert({oi, oj});
  }
  return stats;
}

}  // namespace punt::core
