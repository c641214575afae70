#include "src/core/approx.hpp"

#include <algorithm>
#include <bit>
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

/// The code of `e` with the signals in `dc` dashed out.
Cube code_cube(const unf::Unfolding& unf, unf::EventId e, const Bitset& dc) {
  return Cube::from_bits(unf.code_bits(e), dc.words(), unf.stg().signal_count());
}

// --- Packed cubes (DESIGN.md §5) -----------------------------------------------
//
// A packed cube over w = ⌈variables/64⌉ words is w code words, then w DC
// words, with every code bit under a DC bit clear (ApproxCover::cubes).  The
// functions below are Cube's operations on that layout.

/// a contains b: b is DC wherever a is, and equals a wherever a is not.
bool packed_contains(const std::uint64_t* a, const std::uint64_t* b, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if (((b[w + i] & ~a[w + i]) | ((a[i] ^ b[i]) & ~a[w + i])) != 0) return false;
  }
  return true;
}

/// a and b share a point: no variable holds opposite constants.
bool packed_meets(const std::uint64_t* a, const std::uint64_t* b, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    if (((a[i] ^ b[i]) & ~(a[w + i] | b[w + i])) != 0) return false;
  }
  return true;
}

/// Some cube of a[0, na) meets some cube of b[0, nb).
bool packed_any_meet(const std::uint64_t* a, std::size_t na, const std::uint64_t* b,
                     std::size_t nb, std::size_t w) {
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < nb; ++j) {
      if (packed_meets(a + 2 * w * i, b + 2 * w * j, w)) return true;
    }
  }
  return false;
}

/// Appends the product of a and b, two cubes that meet.
void append_product(const std::uint64_t* a, const std::uint64_t* b, std::size_t w,
                    std::vector<std::uint64_t>& out) {
  for (std::size_t i = 0; i < w; ++i) out.push_back(a[i] | b[i]);
  for (std::size_t i = 0; i < w; ++i) out.push_back(a[w + i] & b[w + i]);
}

std::size_t packed_literals(const std::uint64_t* a, std::size_t w, std::size_t variables) {
  std::size_t dc = 0;
  for (std::size_t i = 0; i < w; ++i) dc += static_cast<std::size_t>(std::popcount(a[w + i]));
  return variables - dc;
}

/// Cube::operator<: the first variable where the cubes differ decides, with
/// Zero < One < DC.
bool packed_less(const std::uint64_t* a, const std::uint64_t* b, std::size_t w) {
  for (std::size_t i = 0; i < w; ++i) {
    const std::uint64_t diff = (a[i] ^ b[i]) | (a[w + i] ^ b[w + i]);
    if (diff == 0) continue;
    const std::uint64_t bit = diff & (~diff + 1);
    const auto rank = [&](const std::uint64_t* c) {
      return (c[w + i] & bit) != 0 ? 2 : (c[i] & bit) != 0 ? 1 : 0;
    };
    return rank(a) < rank(b);
  }
  return false;
}

Cube unpack(const std::uint64_t* a, std::size_t w, std::size_t variables) {
  return Cube::from_bits({a, w}, {a + w, w}, variables);
}

/// Pointers to the packed cubes held in `cubes`, in order.
std::vector<const std::uint64_t*> cubes_of(const std::vector<std::uint64_t>& cubes,
                                           std::size_t w) {
  std::vector<const std::uint64_t*> out;
  for (std::size_t at = 0; at < cubes.size(); at += 2 * w) out.push_back(cubes.data() + at);
  return out;
}

/// Single-cube containment as Cover::make_irredundant_scc runs it: the
/// cubes it keeps, in its order.  Each (literal count, position) pair is
/// packed into one integer and sorted with the same std::sort comparator on
/// the count, so the permutation, ties included, is the one it makes.
std::vector<const std::uint64_t*> scc_kept(const std::vector<const std::uint64_t*>& cubes,
                                           std::size_t w, std::size_t variables) {
  std::vector<std::uint64_t> order;
  order.reserve(cubes.size());
  for (std::size_t i = 0; i < cubes.size(); ++i) {
    order.push_back(static_cast<std::uint64_t>(packed_literals(cubes[i], w, variables)) << 32 | i);
  }
  std::sort(order.begin(), order.end(),
            [](std::uint64_t a, std::uint64_t b) { return (a >> 32) < (b >> 32); });
  std::vector<const std::uint64_t*> kept;
  for (const std::uint64_t key : order) {
    const std::uint64_t* c = cubes[key & 0xFFFFFFFFu];
    if (std::none_of(kept.begin(), kept.end(),
                     [&](const std::uint64_t* k) { return packed_contains(k, c, w); })) {
      kept.push_back(c);
    }
  }
  return kept;
}

/// make_irredundant_scc on a packed cube list.
void make_irredundant(std::vector<std::uint64_t>& cubes, std::size_t w, std::size_t variables) {
  std::vector<std::uint64_t> kept;
  for (const std::uint64_t* c : scc_kept(cubes_of(cubes, w), w, variables)) {
    kept.insert(kept.end(), c, c + 2 * w);
  }
  cubes = std::move(kept);
}

/// The signal that the input x of a bound pins in the restricted cover of a
/// condition made by `producer`, or invalid when x's producer is ⊥ or a
/// dummy, or fired before `producer`: its signal then already holds the
/// fired value in the base code, so pinning it cannot exclude the bound's
/// excitation states.
stg::SignalId pinned_signal(const unf::Unfolding& unf, unf::EventId producer,
                            unf::ConditionId x) {
  const unf::EventId trigger = unf.producer(x);
  const stg::SignalId signal = unf.signal_of(trigger);
  if (!signal.valid() || has_event(unf.successors(trigger), producer.index())) return {};
  return signal;
}

/// restricted_next_cover, given the plain MR cube of `c`.
Cover restricted_cover(const unf::Unfolding& unf, unf::ConditionId c, unf::EventId bound,
                       const Cube& plain) {
  const unf::EventId producer = unf.producer(c);
  Cover out(plain.size());
  for (const unf::ConditionId x : unf.preset(bound)) {
    if (x == c) continue;
    const stg::SignalId signal = pinned_signal(unf, producer, x);
    if (!signal.valid()) continue;
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

/// restricted_cover on packed cubes: writes the terms of c's restricted
/// cover for `bound` to `out`, given its plain MR cube.  Pinning a signal
/// clears its DC bit and restores its code bit.
void restricted_terms(const unf::Unfolding& unf, unf::ConditionId c, unf::EventId bound,
                      const std::uint64_t* plain, std::size_t w, std::vector<std::uint64_t>& out) {
  const unf::EventId producer = unf.producer(c);
  const std::span<const std::uint64_t> code = unf.code_bits(producer);
  out.clear();
  for (const unf::ConditionId x : unf.preset(bound)) {
    if (x == c) continue;
    const stg::SignalId signal = pinned_signal(unf, producer, x);
    if (!signal.valid()) continue;
    const std::size_t word = signal.index() / 64;
    const std::uint64_t bit = std::uint64_t{1} << (signal.index() % 64);
    if ((plain[w + word] & bit) == 0) {
      out.assign(plain, plain + 2 * w);
      return;
    }
    const std::size_t at = out.size();
    out.insert(out.end(), plain, plain + 2 * w);
    out[at + word] |= code[word] & bit;
    out[at + w + word] &= ~bit;
  }
  if (out.size() > 2 * w) make_irredundant(out, w, unf.stg().signal_count());
}

/// Cover::intersect on packed cube lists: the products of every cube of `a`
/// with every cube of `b` it meets, a's cubes outer, then containment.
std::vector<std::uint64_t> intersect_terms(const std::vector<std::uint64_t>& a,
                                           const std::vector<std::uint64_t>& b, std::size_t w,
                                           std::size_t variables) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < a.size(); i += 2 * w) {
    for (std::size_t j = 0; j < b.size(); j += 2 * w) {
      if (packed_meets(&a[i], &b[j], w)) append_product(&a[i], &b[j], w, out);
    }
  }
  make_irredundant(out, w, variables);
  return out;
}

/// Writes the DC signals of the excitation cover of `entry` to `dc`: every
/// signal owning an instance concurrent with the entry.  On chain segments
/// the t-instances concurrent with the entry form an interval that starts
/// at the first one outside [entry] (DESIGN.md §5, fact 2), so one bit of
/// the entry's co row per signal decides; otherwise the row is folded into
/// signals.
void excitation_dc(const unf::Unfolding& unf, unf::EventId entry, std::span<std::uint64_t> dc) {
  std::fill(dc.begin(), dc.end(), 0);
  const auto add = [&](stg::SignalId s) {
    dc[s.index() / 64] |= std::uint64_t{1} << (s.index() % 64);
  };
  if (unf.branching_signal().valid()) {
    unf.co_events(entry).for_each([&](std::size_t f) {
      const stg::SignalId s = unf.signal_of(unf::EventId(static_cast<std::uint32_t>(f)));
      if (s.valid()) add(s);
    });
    return;
  }
  // co(entry, f) holds when every input of the entry is concurrent with f.
  const std::vector<unf::ConditionId>& inputs = unf.preset(entry);
  for (std::size_t i = 0; i < unf.stg().signal_count(); ++i) {
    const stg::SignalId t(static_cast<std::uint32_t>(i));
    const std::vector<unf::EventId>& chain = unf.instances_of_signal(t);
    const std::uint32_t rank = unf.config_instances(entry, t);
    if (rank >= chain.size()) continue;
    const std::size_t f = chain[rank].index();
    if (std::all_of(inputs.begin(), inputs.end(),
                    [&](unf::ConditionId x) { return has_event(unf.co_events(x), f); })) {
      add(t);
    }
  }
}

/// Appends the packed excitation cube of a non-⊥ `entry`: the code at its
/// minimal excitation cut, the entry's own edge undone, with its DC signals.
void append_excitation_cube(const unf::Unfolding& unf, unf::EventId entry, std::size_t w,
                            std::vector<std::uint64_t>& out) {
  const std::size_t at = out.size();
  out.resize(at + 2 * w);
  excitation_dc(unf, entry, {out.data() + at + w, w});
  const std::span<const std::uint64_t> code = unf.code_bits(entry);
  std::copy(code.begin(), code.end(), out.begin() + static_cast<std::ptrdiff_t>(at));
  if (const stg::SignalId s = unf.signal_of(entry); s.valid()) {
    out[at + s.index() / 64] ^= std::uint64_t{1} << (s.index() % 64);
  }
  for (std::size_t i = 0; i < w; ++i) out[at + i] &= ~out[at + w + i];
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
      : unf_(unf), words_((unf.stg().signal_count() + 63) / 64), kept_(64 * words_) {
    // A signal's limit is the least rank of a t-instance after a bound g.
    // The t-instances in [g] precede g, so g's first t-successor is g itself
    // or lies past them, after the ones concurrent with g.  A signal with no
    // instance after any bound needs no comparison: a first instance outside
    // a configuration ranks below the chain's length.
    for (std::size_t i = 0; i < unf.stg().signal_count(); ++i) {
      const stg::SignalId t(static_cast<std::uint32_t>(i));
      const std::vector<unf::EventId>& chain = unf.instances_of_signal(t);
      std::size_t limit = chain.size();
      for (const unf::EventId g : slice.bounds) {
        const std::span<const std::uint64_t> after = unf.successors(g);
        std::size_t rank = unf.config_instances(g, t) - (unf.signal_of(g) == t ? 1 : 0);
        while (rank < limit && !has_event(after, chain[rank].index())) ++rank;
        limit = std::min(limit, rank);
      }
      // config_instances(p, t) < limit exactly when p is not a successor of
      // the instance ranked limit - 1; no p passes a limit of 0.
      if (limit < chain.size()) {
        bounded_.emplace_back(i, limit == 0 ? nullptr : unf.successors(chain[limit - 1]).data());
      }
    }
  }

  /// Writes the DC signals of c, a condition sequential to the entry, to
  /// `dc`.  A producer's conditions come in a row and producers ascend, so
  /// the kept signals of a word of 64 producers are transposed once for all
  /// of them.
  void dc_signals(unf::ConditionId c, std::span<std::uint64_t> dc) {
    const std::size_t p = unf_.producer(c).index();
    if (p / 64 != block_) transpose_block(p / 64);
    const std::uint64_t* kept = kept_.data() + (p % 64) * words_;
    const std::span<const std::uint64_t> first_co = unf_.first_outside_co(c);
    for (std::size_t w = 0; w < dc.size(); ++w) dc[w] = first_co[w] & kept[w];
  }

 private:
  /// Fills kept_ for the events of word `block` of an event row.  Word
  /// `block` of each bounded signal's successor row, one row per signal,
  /// forms a 64 × 64 bit matrix per 64 signals; transposed, row b lists the
  /// signals whose limit event b's configuration reaches.
  void transpose_block(std::size_t block) {
    block_ = block;
    std::uint64_t tile[64];
    auto next = bounded_.begin();
    for (std::size_t g = 0; g < words_; ++g) {
      std::fill(tile, tile + 64, 0);
      for (; next != bounded_.end() && next->first / 64 == g; ++next) {
        tile[next->first % 64] = next->second == nullptr ? ~std::uint64_t{0} : next->second[block];
      }
      transpose64(tile);
      for (std::size_t b = 0; b < 64; ++b) kept_[b * words_ + g] = ~tile[b];
    }
  }

  const unf::Unfolding& unf_;
  std::size_t words_;  // per signal set
  /// Each signal with an instance after a bound, ascending, with the
  /// successor row of its instance ranked limit - 1 (null for limit 0).
  std::vector<std::pair<std::size_t, const std::uint64_t*>> bounded_;
  std::size_t block_ = static_cast<std::size_t>(-1);  // whose masks kept_ holds
  /// For each event of block_, words_ words: the signals whose first
  /// instance outside its configuration ranks below their limit.
  std::vector<std::uint64_t> kept_;
};

/// The packed cubes that ApproxCover::combined keeps, in its order.
std::vector<std::uint64_t> union_cubes(const ApproxCover& approx) {
  const std::size_t w = (approx.variables + 63) / 64;
  std::vector<const std::uint64_t*> cubes;
  for (const CoverAtom& atom : approx.atoms) {
    for (std::size_t i = 0; i < atom.count; ++i) {
      cubes.push_back(approx.cubes.data() + (atom.first + i) * 2 * w);
    }
  }
  std::vector<std::uint64_t> out;
  for (const std::uint64_t* c : scc_kept(cubes, w, approx.variables)) {
    out.insert(out.end(), c, c + 2 * w);
  }
  return out;
}

Cover to_cover(const std::vector<std::uint64_t>& cubes, std::size_t variables) {
  const std::size_t w = (variables + 63) / 64;
  Cover out(variables);
  for (const std::uint64_t* c : cubes_of(cubes, w)) out.add(unpack(c, w, variables));
  return out;
}

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

logic::Cover ApproxCover::cover(std::size_t k) const {
  const std::size_t w = (variables + 63) / 64;
  Cover out(variables);
  for (std::size_t i = 0; i < atoms[k].count; ++i) {
    out.add(unpack(cubes.data() + (atoms[k].first + i) * 2 * w, w, variables));
  }
  return out;
}

logic::Cover ApproxCover::combined(std::size_t variable_count) const {
  if (variable_count != variables) {
    throw ValidationError("cube width does not match the cover's variable count");
  }
  return to_cover(union_cubes(*this), variables);
}

Cube excitation_cover(const unf::Unfolding& unf, unf::EventId entry) {
  const std::size_t n = unf.stg().signal_count();
  std::vector<std::uint64_t> cube;
  append_excitation_cube(unf, entry, (n + 63) / 64, cube);
  return unpack(cube.data(), (n + 63) / 64, n);
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

bool refine_atom(const unf::Unfolding& unf, ApproxCover& owner, std::size_t k,
                 stg::SignalId offending) {
  CoverAtom& atom = owner.atoms[k];
  const Slice& slice = owner.slices[atom.slice_index];
  const auto& slice_events = owner.slice_event_sets[atom.slice_index];

  // Only conditions produced by instances of the offending signal (or their
  // surroundings) can sharpen that signal's literal, but the paper's mask is
  // the whole refining set — restricted covers pin every non-successor
  // signal, which includes the offending one whenever possible.
  const std::vector<unf::ConditionId> refining = concurrent_conditions(
      unf, atom.element, slice_conditions(unf, slice, slice_events));
  if (refining.empty()) return false;

  // The mask: one packed refinement MR cube per refining condition.  It
  // needs no containment pass of its own: a mask cube inside another adds
  // only products inside that one's, which the products' containment drops.
  const std::size_t w = (owner.variables + 63) / 64;
  const Bitset candidates = refinement_candidates(unf, atom.element, slice_events);
  const std::vector<Bitset> dc = concurrent_signals(unf, refining, candidates);
  std::vector<std::uint64_t> mask;
  mask.reserve(refining.size() * 2 * w);
  for (std::size_t m = 0; m < refining.size(); ++m) {
    const std::span<const std::uint64_t> code = unf.code_bits(unf.producer(refining[m]));
    const std::vector<std::uint64_t>& d = dc[m].words();
    for (std::size_t i = 0; i < w; ++i) mask.push_back(code[i] & ~d[i]);
    mask.insert(mask.end(), d.begin(), d.end());
  }
  const std::uint64_t* cubes = owner.cubes.data() + atom.first * 2 * w;
  std::vector<std::uint64_t> products;
  for (std::size_t a = 0; a < atom.count; ++a) {
    for (std::size_t m = 0; m < mask.size(); m += 2 * w) {
      const std::uint64_t* cube = cubes + a * 2 * w;
      if (packed_meets(cube, &mask[m], w)) append_product(cube, &mask[m], w, products);
    }
  }

  // Cover::normalize: containment, then Cube's order.
  const auto normalized = [&](std::vector<const std::uint64_t*> list) {
    std::vector<const std::uint64_t*> kept = scc_kept(list, w, owner.variables);
    std::sort(kept.begin(), kept.end(),
              [w](const std::uint64_t* a, const std::uint64_t* b) { return packed_less(a, b, w); });
    return kept;
  };
  const std::vector<const std::uint64_t*> refined = normalized(cubes_of(products, w));
  std::vector<const std::uint64_t*> before(atom.count);
  for (std::size_t a = 0; a < atom.count; ++a) before[a] = cubes + a * 2 * w;
  before = normalized(std::move(before));
  if (std::equal(refined.begin(), refined.end(), before.begin(), before.end(),
                 [w](const std::uint64_t* a, const std::uint64_t* b) {
                   return std::equal(a, a + 2 * w, b);
                 })) {
    return false;
  }

  // The mask may be unable to sharpen the offending signal (no instance of
  // it concurrent with the element); accept any strict shrink — progress is
  // measured by the caller through cover change.
  (void)offending;
  atom.first = owner.cubes.size() / (2 * w);
  atom.count = refined.size();
  for (const std::uint64_t* c : refined) owner.cubes.insert(owner.cubes.end(), c, c + 2 * w);
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
  out.variables = unf.stg().signal_count();
  out.slices = signal_slices(unf, signal, value);

  const std::size_t n = out.variables;
  const std::size_t w = (n + 63) / 64;
  const bool ranked = !unf.branching_signal().valid();
  std::vector<std::uint64_t> plain(2 * w);  // one condition's plain MR cube
  std::vector<std::uint64_t> terms, next;   // its restricted cover
  const auto add_atom = [&](SliceElement element, std::size_t si,
                            const std::vector<std::uint64_t>& cubes) {
    out.atoms.push_back({element, si, out.cubes.size() / (2 * w), cubes.size() / (2 * w)});
    out.cubes.insert(out.cubes.end(), cubes.begin(), cubes.end());
  };
  for (std::size_t si = 0; si < out.slices.size(); ++si) {
    const Slice& slice = out.slices[si];
    out.slice_event_sets.push_back(slice_events(unf, slice));
    const Bitset& events = out.slice_event_sets.back();

    // C*e of the entry (absent for the ⊥ slice, paper §4.2).
    if (!unf.is_initial(slice.entry)) {
      out.atoms.push_back({SliceElement::of(slice.entry), si, out.cubes.size() / (2 * w), 1});
      append_excitation_cube(unf, slice.entry, w, out.cubes);
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
    const std::span<std::uint64_t> dc(plain.data() + w, w);
    for (std::size_t k = 0; k < pa.size(); ++k) {
      const unf::ConditionId c = pa[k];
      if (rule) {
        rule->dc_signals(c, dc);
      } else {
        std::copy(folded[k].words().begin(), folded[k].words().end(), dc.begin());
      }
      const std::span<const std::uint64_t> code = unf.code_bits(unf.producer(c));
      for (std::size_t i = 0; i < w; ++i) plain[i] = code[i] & ~dc[i];
      // A bound that can be enabled while c is marked makes every such
      // marking an opposite-set state; its excitation markings must be
      // excluded from c's MR cover (paper §4.2, generalised: the bound is
      // "compatible" when c feeds it or is concurrent with its whole
      // preset, i.e. with the bound itself).  Several compatible bounds
      // intersect their restricted covers.
      const std::span<const std::uint64_t> co = unf.co_events(c);
      bool restricted = false;
      for (const unf::EventId g : slice.bounds) {
        const auto& pre = unf.preset(g);
        if (!has_event(co, g.index()) && std::find(pre.begin(), pre.end(), c) == pre.end()) {
          continue;
        }
        restricted_terms(unf, c, g, plain.data(), w, restricted ? next : terms);
        if (restricted) terms = intersect_terms(terms, next, w, n);
        restricted = true;
      }
      if (!restricted) {
        add_atom(SliceElement::of(c), si, plain);
      } else if (!terms.empty()) {
        add_atom(SliceElement::of(c), si, terms);
      }  // else every marking of c excites some bound
    }
  }
  return out;
}

RefineStats refine_until_disjoint(const unf::Unfolding& unf, ApproxCover& on,
                                  ApproxCover& off, std::size_t max_iterations) {
  const std::size_t n = unf.stg().signal_count();
  const std::size_t w = (n + 63) / 64;
  RefineStats stats;
  std::set<std::pair<std::size_t, std::size_t>> stuck;
  // Refinement only shrinks atoms and only adds stuck pairs, so the set of
  // offending, refinable pairs only shrinks: the first one's row never
  // moves back, nor its column within that row, and the union of the off
  // atoms as they were at the start still contains the union of the
  // current ones.  A row that misses the old union therefore misses every
  // current off atom.
  std::vector<std::uint64_t> off_union = union_cubes(off);
  bool off_refined = false;  // off_union may then hold more than the atoms
  std::size_t first_row = 0, first_column = 0;
  while (stats.iterations < max_iterations) {
    // The first offending, still refinable pair in row-major order.
    std::size_t oi = 0, oj = 0;
    bool found = false;
    for (std::size_t i = first_row; i < on.atoms.size() && !found; ++i) {
      const std::uint64_t* row = on.cubes.data() + on.atoms[i].first * 2 * w;
      const std::size_t row_count = on.atoms[i].count;
      if (!packed_any_meet(row, row_count, off_union.data(), off_union.size() / (2 * w), w)) {
        continue;
      }
      for (std::size_t j = i == first_row ? first_column : 0; j < off.atoms.size(); ++j) {
        const CoverAtom& column = off.atoms[j];
        if (!packed_any_meet(row, row_count, off.cubes.data() + column.first * 2 * w,
                             column.count, w) ||
            stuck.contains({i, j})) {
          continue;
        }
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
      if (off_refined) off_union = union_cubes(off);
      const std::vector<std::uint64_t> on_union = union_cubes(on);
      stats.disjoint = !packed_any_meet(on_union.data(), on_union.size() / (2 * w),
                                        off_union.data(), off_union.size() / (2 * w), w);
      stats.on_union = to_cover(on_union, n);
      stats.off_union = to_cover(off_union, n);
      return stats;
    }
    first_row = oi;
    first_column = oj;

    ++stats.iterations;
    const bool a = refine_atom(unf, on, oi, off.signal);
    const bool b = refine_atom(unf, off, oj, on.signal);
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
