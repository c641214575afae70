#include "src/core/approx.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "src/util/error.hpp"

namespace punt::core {
namespace {

using logic::Cover;
using logic::Cube;
using logic::Lit;

bool has_event(std::span<const std::uint64_t> row, std::size_t f) {
  return ((row[f >> 6] >> (f & 63)) & 1u) != 0;
}

/// Signals owning an event of `events`, as a bitset over signal indices
/// (⊥ and dummies own none).
Bitset signals_of(const unf::Unfolding& unf, const Bitset& events) {
  Bitset out(unf.stg().signal_count());
  events.for_each([&](std::size_t f) {
    const stg::SignalId s = unf.signal_of(unf::EventId(static_cast<std::uint32_t>(f)));
    if (s.valid()) out.set(s.index());
  });
  return out;
}

/// The code of `e` with the signals in `dc` dashed out.
Cube code_cube(const unf::Unfolding& unf, unf::EventId e, const Bitset& dc) {
  return Cube::from_bits(unf.code_bits(e), dc.words(), unf.stg().signal_count());
}

/// Events that fire strictly after `element` in every run containing both:
/// the causal successors of an entry event, or of a condition's producer
/// minus those that can fire while the condition is still marked.
Bitset events_after(const unf::Unfolding& unf, const SliceElement& element) {
  const unf::EventId origin =
      element.is_event ? element.event : unf.producer(element.condition);
  Bitset out(unf.event_count());
  out |= unf.successors(origin);
  out.reset(origin.index());
  if (!element.is_event) out.subtract(unf.co_events(element.condition));
  return out;
}

/// restricted_next_cover, given the plain MR cube of `c`.
Cover restricted_cover(const unf::Unfolding& unf, unf::ConditionId c, unf::EventId bound,
                       const Cube& plain) {
  const unf::EventId producer = unf.producer(c);
  Cover out(plain.size());
  for (const unf::ConditionId x : unf.preset(bound)) {
    if (x == c) continue;
    const unf::EventId trigger = unf.producer(x);
    const stg::SignalId signal = unf.signal_of(trigger);
    if (!signal.valid()) continue;  // ⊥ or dummy trigger: skip
    if (has_event(unf.successors(trigger), producer.index())) {
      // The trigger fired before `c` came into existence: its signal already
      // holds the fired value in the base code, so pinning it cannot exclude
      // the bound's excitation states.  An unusable term.
      continue;
    }
    // Pin the trigger's signal to its not-yet-fired value, the base code's.
    // When the plain cube already holds that literal, the term is the plain
    // cube itself, which contains every other term.
    if (plain.get(signal.index()) != Lit::DC) return Cover(plain.size(), {plain});
    Cube cube = plain;
    cube.set(signal.index(), has_event(unf.code_bits(producer), signal.index()) ? Lit::One
                                                                                : Lit::Zero);
    out.add(std::move(cube));
  }
  if (out.cube_count() > 1) out.make_irredundant_scc();
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
                             const Bitset& slice_events) {
  Bitset candidates = events_after(unf, element);
  candidates &= slice_events;
  return candidates;
}

/// The rank rule (DESIGN.md §5) over one slice, for segments whose signals'
/// instances form causal chains: signal t is a DC signal of a condition c
/// sequential to the entry when the first t-instance outside [producer(c)]
/// is concurrent with c and ranks below every bound's first t-successor.
class RankRule {
 public:
  RankRule(const unf::Unfolding& unf, const Slice& slice)
      : unf_(unf), kept_((unf.stg().signal_count() + 63) / 64) {
    // The instances of t after a bound are the suffix of t's chain that the
    // bound's successor row holds, found by binary search.  A signal with
    // no instance after any bound needs no comparison: a first instance
    // outside a configuration ranks below the chain's length.
    for (std::size_t i = 0; i < unf.stg().signal_count(); ++i) {
      const stg::SignalId t(static_cast<std::uint32_t>(i));
      const std::vector<unf::EventId>& chain = unf.instances_of_signal(t);
      std::size_t limit = chain.size();
      for (const unf::EventId g : slice.bounds) {
        const std::span<const std::uint64_t> after = unf.successors(g);
        const auto first = std::partition_point(
            chain.begin(), chain.end(), [&](unf::EventId f) { return !has_event(after, f.index()); });
        limit = std::min(limit, static_cast<std::size_t>(first - chain.begin()));
      }
      if (limit < chain.size()) limits_.emplace_back(t, static_cast<std::uint32_t>(limit));
    }
  }

  /// Writes the DC signals of c, a condition sequential to the entry, to
  /// `dc`.  A producer's conditions come in a row, so the ranks of its
  /// configuration are compared once for all of them.
  void dc_signals(unf::ConditionId c, std::span<std::uint64_t> dc) {
    const unf::EventId producer = unf_.producer(c);
    if (producer != producer_) {
      producer_ = producer;
      std::fill(kept_.begin(), kept_.end(), ~std::uint64_t{0});
      for (const auto& [t, limit] : limits_) {
        if (!(unf_.config_instances(producer, t) < limit)) {
          kept_[t.index() / 64] &= ~(std::uint64_t{1} << (t.index() % 64));
        }
      }
    }
    const std::span<const std::uint64_t> first_co = unf_.first_outside_co(c);
    for (std::size_t w = 0; w < dc.size(); ++w) dc[w] = first_co[w] & kept_[w];
  }

 private:
  const unf::Unfolding& unf_;
  /// Each signal with an instance after a bound, with the least rank of one.
  std::vector<std::pair<stg::SignalId, std::uint32_t>> limits_;
  unf::EventId producer_;       // whose comparison kept_ holds
  std::vector<std::uint64_t> kept_;  // the signals whose first instance outside
                                     // [producer_] ranks below its limit
};

}  // namespace

std::vector<Bitset> concurrent_signals(const unf::Unfolding& unf,
                                       const std::vector<unf::ConditionId>& conditions,
                                       const Bitset& events) {
  // A batch of up to 64 conditions at a time, as a bit matrix with a row
  // per condition and a column per event.  Transposing it one word of
  // events at a time gives each event's column, the batch's conditions
  // concurrent with it; OR-ing each column into its event's signal gives a
  // row per signal, the conditions that signal is a DC of; transposing
  // those back gives a row per condition again.  ⊥ and dummies carry the
  // invalid signal id, which min() maps to bit n, a sink past the last
  // signal.
  const std::size_t n = unf.stg().signal_count();
  const std::size_t signal_words = (n + 63) / 64;
  const std::vector<std::uint64_t>& in = events.words();
  std::vector<Bitset> out;
  out.reserve(conditions.size());
  std::vector<std::uint64_t> by_signal((n / 64 + 1) * 64);
  std::uint64_t block[64];
  for (std::size_t first = 0; first < conditions.size(); first += 64) {
    const std::size_t batch = std::min<std::size_t>(64, conditions.size() - first);
    std::fill(by_signal.begin(), by_signal.end(), 0);
    for (std::size_t w = 0; w < unf.event_words(); ++w) {
      if (in[w] == 0) continue;
      std::uint64_t any = 0;
      for (std::size_t k = 0; k < batch; ++k) {
        block[k] = unf.co_events(conditions[first + k])[w] & in[w];
        any |= block[k];
      }
      if (any == 0) continue;
      std::fill(block + batch, block + 64, 0);
      transpose64(block);
      for (std::uint64_t bits = in[w]; bits != 0; bits &= bits - 1) {
        const std::size_t b = static_cast<std::size_t>(__builtin_ctzll(bits));
        const unf::EventId f(static_cast<std::uint32_t>(w * 64 + b));
        by_signal[std::min<std::size_t>(unf.signal_of(f).index(), n)] |= block[b];
      }
    }
    for (std::size_t g = 0; g < signal_words; ++g) transpose64(by_signal.data() + g * 64);
    for (std::size_t k = 0; k < batch; ++k) {
      std::vector<std::uint64_t> words(signal_words);
      for (std::size_t g = 0; g < signal_words; ++g) words[g] = by_signal[g * 64 + k];
      if (n % 64 != 0) words.back() &= (std::uint64_t{1} << (n % 64)) - 1;  // the sink
      out.push_back(Bitset::from_words(n, std::move(words)));
    }
  }
  return out;
}

Bitset ranked_concurrent_signals(const unf::Unfolding& unf, unf::ConditionId c,
                                 const Slice& slice) {
  std::vector<std::uint64_t> dc((unf.stg().signal_count() + 63) / 64);
  RankRule(unf, slice).dc_signals(c, dc);
  return Bitset::from_words(unf.stg().signal_count(), std::move(dc));
}

logic::Cover ApproxCover::combined(std::size_t variable_count) const {
  std::vector<const Cover*> covers;
  covers.reserve(atoms.size());
  for (const CoverAtom& atom : atoms) covers.push_back(&atom.cover);
  return Cover::union_of(variable_count, covers);
}

Cube excitation_cover(const unf::Unfolding& unf, unf::EventId entry) {
  // Everything concurrent with the entry can fire while it stays excited, so
  // the ER slice's instances are exactly the events concurrent with it.
  const Bitset dc = signals_of(unf, unf.co_events(entry));
  // The code at the minimal excitation cut: the entry's own edge undone.
  const std::span<const std::uint64_t> code = unf.code_bits(entry);
  std::vector<std::uint64_t> before(code.begin(), code.end());
  if (const stg::SignalId s = unf.signal_of(entry); s.valid()) {
    before[s.index() / 64] ^= std::uint64_t{1} << (s.index() % 64);
  }
  return Cube::from_bits(before, dc.words(), unf.stg().signal_count());
}

Cube mr_cover(const unf::Unfolding& unf, unf::ConditionId c, const Bitset& slice_events) {
  return code_cube(unf, unf.producer(c), concurrent_signals(unf, {c}, slice_events).front());
}

Cover restricted_next_cover(const unf::Unfolding& unf, unf::ConditionId c,
                            unf::EventId bound, const Bitset& slice_events) {
  return restricted_cover(unf, c, bound, mr_cover(unf, c, slice_events));
}

std::vector<unf::ConditionId> refining_set(const unf::Unfolding& unf,
                                           const SliceElement& element,
                                           const Slice& slice) {
  return concurrent_conditions(unf, element,
                               slice_conditions(unf, slice, slice_events(unf, slice)));
}

Cube refinement_mr_cover(const unf::Unfolding& unf, unf::ConditionId c,
                         const SliceElement& element, const Bitset& slice_events) {
  return mr_cover(unf, c, refinement_candidates(unf, element, slice_events));
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
  const std::vector<Bitset> dc = concurrent_signals(unf, refining, candidates);
  Cover mask(unf.stg().signal_count());
  for (std::size_t k = 0; k < refining.size(); ++k) {
    mask.add(code_cube(unf, unf.producer(refining[k]), dc[k]));
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
    const Bitset& slice_events, const std::vector<unf::ConditionId>& all_conditions) {
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
  slice_events.for_each([&](std::size_t i) {
    const unf::EventId f(static_cast<std::uint32_t>(i));
    if (!unf.is_initial(f) && !unf.is_cutoff(f)) live_consumers.insert(f);
  });
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

  const std::size_t n = unf.stg().signal_count();
  const bool ranked = !unf.branching_signal().valid();
  std::vector<std::uint64_t> dc((n + 63) / 64);  // one condition's DC signals
  for (std::size_t si = 0; si < out.slices.size(); ++si) {
    const Slice& slice = out.slices[si];
    out.slice_event_sets.push_back(slice_events(unf, slice));
    const Bitset& events = out.slice_event_sets.back();

    // C*e of the entry (absent for the ⊥ slice, paper §4.2).
    if (!unf.is_initial(slice.entry)) {
      CoverAtom atom;
      atom.element = SliceElement::of(slice.entry);
      atom.slice_index = si;
      atom.cover = Cover(n);
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

    // The DC signals of each condition's plain MR cube: by the rank rule
    // when every signal's instances form a chain, else by the fold.
    std::optional<RankRule> rule;
    std::vector<Bitset> folded;
    if (ranked) {
      rule.emplace(unf, slice);
    } else {
      folded = concurrent_signals(unf, pa, events);
    }
    for (std::size_t k = 0; k < pa.size(); ++k) {
      const unf::ConditionId c = pa[k];
      if (rule) {
        rule->dc_signals(c, dc);
      } else {
        std::copy(folded[k].words().begin(), folded[k].words().end(), dc.begin());
      }
      Cube plain = Cube::from_bits(unf.code_bits(unf.producer(c)), dc, n);
      // A bound that can be enabled while c is marked makes every such
      // marking an opposite-set state; its excitation markings must be
      // excluded from c's MR cover (paper §4.2, generalised: the bound is
      // "compatible" when c feeds it or is concurrent with its whole
      // preset, i.e. with the bound itself).
      const std::span<const std::uint64_t> co = unf.co_events(c);
      Cover cover(n);
      bool restricted = false;
      for (const unf::EventId g : slice.bounds) {
        const auto& pre = unf.preset(g);
        if (!has_event(co, g.index()) && std::find(pre.begin(), pre.end(), c) == pre.end()) {
          continue;
        }
        Cover next = restricted_cover(unf, c, g, plain);
        cover = restricted ? cover.intersect(next) : std::move(next);
        restricted = true;
      }
      if (!restricted) {
        cover.add(std::move(plain));
      } else if (cover.empty()) {
        continue;  // every marking of c excites some bound
      }
      CoverAtom atom;
      atom.element = SliceElement::of(c);
      atom.slice_index = si;
      atom.cover = std::move(cover);
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
  // Refinement only shrinks atoms and only adds stuck pairs, so the set of
  // offending, refinable pairs only shrinks: the first one's row never
  // moves back, and the union of the off atoms as they were at the start
  // still contains the union of the current ones.  A row that misses the
  // old union therefore misses every current off atom.
  Cover off_union = off.combined(n);
  bool off_refined = false;  // off_union may then hold more than the atoms
  std::size_t first_row = 0;
  while (stats.iterations < max_iterations) {
    // The first offending, still refinable pair in row-major order.
    std::size_t oi = 0, oj = 0;
    bool found = false;
    for (std::size_t i = first_row; i < on.atoms.size() && !found; ++i) {
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
    if (!found) {
      // Disjoint unless some pair still intersects, every such pair stuck
      // (the caller then falls back).  Some on/off atom pair intersects iff
      // the two unions do: single-cube containment keeps only atom cubes and
      // drops only cubes that lie inside a kept one (DESIGN.md §5).
      if (off_refined) off_union = off.combined(n);
      stats.on_union = on.combined(n);
      stats.disjoint = !stats.on_union.intersects(off_union);
      stats.off_union = std::move(off_union);
      return stats;
    }
    first_row = oi;

    ++stats.iterations;
    const bool a = refine_atom(unf, on, on.atoms[oi], off.signal);
    const bool b = refine_atom(unf, off, off.atoms[oj], on.signal);
    if (a) ++stats.refined_atoms;
    if (b) {
      ++stats.refined_atoms;
      off_refined = true;
    }
    if (!a && !b) stuck.insert({oi, oj});
  }
  return stats;
}

}  // namespace punt::core
