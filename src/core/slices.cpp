#include "src/core/slices.hpp"

#include <deque>
#include <set>
#include <unordered_map>

#include "src/util/error.hpp"

namespace punt::core {

std::vector<Slice> signal_slices(const unf::Unfolding& unf, stg::SignalId signal,
                                 bool value) {
  std::vector<Slice> out;
  const stg::Polarity entry_polarity = value ? stg::Polarity::Rise : stg::Polarity::Fall;
  for (const unf::EventId e : unf.instances_of_signal(signal)) {
    const stg::Label* label = unf.label(e);
    if (label->polarity != entry_polarity) continue;
    Slice slice;
    slice.entry = e;
    slice.bounds = unf.next_instances(e);
    slice.on_value = value;
    out.push_back(std::move(slice));
  }
  // The ⊥ slice: when the initial value already lies in the requested set,
  // states from the initial cut up to the first opposite instances form a
  // slice entered by the initial transition (paper §4.1).
  if ((unf.stg().initial_value(signal) != 0) == value) {
    Slice slice;
    slice.entry = unf::Unfolding::initial_event();
    slice.bounds = unf.first_instances(signal);
    slice.on_value = value;
    out.push_back(std::move(slice));
  }
  return out;
}

Bitset slice_min_cut(const unf::Unfolding& unf, const Slice& slice) {
  return unf.is_initial(slice.entry) ? unf.min_stable_cut(slice.entry)
                                     : unf.min_excitation_cut(slice.entry);
}

Bitset slice_events(const unf::Unfolding& unf, const Slice& slice) {
  Bitset events = unf.co_events(slice.entry);
  events |= unf.successors(slice.entry);
  for (const unf::EventId g : slice.bounds) events.subtract(unf.successors(g));
  return events;
}

std::vector<unf::ConditionId> slice_conditions(const unf::Unfolding& unf,
                                               const Slice& slice, const Bitset& events) {
  Bitset sequential = events;  // sequential to the entry only
  sequential &= unf.successors(slice.entry);
  std::vector<unf::ConditionId> out;
  sequential.for_each([&](std::size_t f) {
    for (const unf::ConditionId c : unf.postset(unf::EventId(static_cast<std::uint32_t>(f)))) {
      out.push_back(c);
    }
  });
  return out;
}

SliceStates enumerate_slice(const unf::Unfolding& unf, stg::SignalId signal,
                            const Slice& slice, std::size_t cut_budget) {
  const stg::Stg& stg = unf.stg();
  const pn::PetriNet& net = stg.net();

  // Implied value evaluated on the *original* net, so cuts at the truncation
  // frontier (behind cutoffs) are still classified exactly.
  auto implied = [&](const pn::Marking& marking, const stg::Code& code) -> bool {
    const std::uint8_t now = code[signal.index()];
    for (const pn::TransitionId t : net.enabled_transitions(marking)) {
      const stg::Label& l = stg.label(t);
      if (!l.dummy && l.signal == signal) return now == 0;  // excited: flips
    }
    return now != 0;
  };

  SliceStates result;
  std::set<stg::Code> seen_codes;
  std::unordered_map<std::size_t, std::vector<Bitset>> seen_cuts;
  std::deque<std::pair<Bitset, stg::Code>> queue;

  // The code at the min-cut: the entry's excitation code ([entry] without
  // the entry's own edge), or the initial code for the ⊥ slice.
  const stg::Code min_code = unf.is_initial(slice.entry)
                                 ? stg.initial_code()
                                 : unf.excitation_code(slice.entry);

  // Traversal never fires a bounding instance (the slice's frontier); every
  // traversed cut with the target implied value is collected.  The region of
  // member cuts is not convex (e.g. the ⊥ off-slice starts at an excitation
  // cut of the rising edge, which is an on-state), so traversal continues
  // through non-member cuts — only collection is guarded.
  std::vector<std::uint8_t> is_bound(unf.event_count(), 0);
  for (const unf::EventId g : slice.bounds) is_bound[g.index()] = 1;

  auto try_enqueue = [&](const Bitset& cut, const stg::Code& code) {
    auto& bucket = seen_cuts[cut.hash()];
    for (const Bitset& b : bucket) {
      if (b == cut) return;
    }
    bucket.push_back(cut);
    ++result.cut_count;
    if (cut_budget != 0 && result.cut_count > cut_budget) {
      throw CapacityError("slice enumeration for signal '" + stg.signal_name(signal) +
                          "' exceeded the cut budget of " + std::to_string(cut_budget) +
                          "; use the approximate method");
    }
    if (implied(unf.marking_of_cut(cut), code) == slice.on_value &&
        seen_codes.insert(code).second) {
      result.codes.push_back(code);
    }
    queue.emplace_back(cut, code);
  };

  try_enqueue(slice_min_cut(unf, slice), min_code);
  while (!queue.empty()) {
    auto [cut, code] = std::move(queue.front());
    queue.pop_front();
    for (std::size_t i = 1; i < unf.event_count(); ++i) {
      const unf::EventId e(static_cast<std::uint32_t>(i));
      if (is_bound[i]) continue;
      bool enabled = true;
      for (const unf::ConditionId c : unf.preset(e)) {
        if (!cut.test(c.index())) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      Bitset next_cut = cut;
      for (const unf::ConditionId c : unf.preset(e)) next_cut.reset(c.index());
      for (const unf::ConditionId c : unf.postset(e)) next_cut.set(c.index());
      stg::Code next_code = code;
      stg.apply(unf.transition(e), next_code);
      try_enqueue(next_cut, next_code);
    }
  }
  return result;
}

logic::Cover exact_cover(const unf::Unfolding& unf, stg::SignalId signal, bool value,
                         std::size_t cut_budget) {
  logic::Cover cover(unf.stg().signal_count());
  std::set<stg::Code> seen;
  for (const Slice& slice : signal_slices(unf, signal, value)) {
    const SliceStates states = enumerate_slice(unf, signal, slice, cut_budget);
    for (const stg::Code& code : states.codes) {
      if (seen.insert(code).second) cover.add(logic::Cube::from_code(code));
    }
  }
  return cover;
}

logic::Cover exact_er_cover(const unf::Unfolding& unf, stg::SignalId signal,
                            bool rising, std::size_t cut_budget) {
  const stg::Stg& stg = unf.stg();
  const pn::PetriNet& net = stg.net();

  auto edge_enabled = [&](const pn::Marking& marking) {
    for (const pn::TransitionId t : net.enabled_transitions(marking)) {
      const stg::Label& l = stg.label(t);
      if (!l.dummy && l.signal == signal && l.rising() == rising) return true;
    }
    return false;
  };

  logic::Cover cover(stg.signal_count());
  std::set<stg::Code> seen_codes;
  std::unordered_map<std::size_t, std::vector<Bitset>> seen_cuts;
  std::deque<std::pair<Bitset, stg::Code>> queue;
  std::size_t cut_count = 0;

  auto try_enqueue = [&](const Bitset& cut, const stg::Code& code) {
    auto& bucket = seen_cuts[cut.hash()];
    for (const Bitset& b : bucket) {
      if (b == cut) return;
    }
    bucket.push_back(cut);
    if (!edge_enabled(unf.marking_of_cut(cut))) return;  // left the region
    if (cut_budget != 0 && ++cut_count > cut_budget) {
      throw CapacityError("ER enumeration for signal '" + stg.signal_name(signal) +
                          "' exceeded the cut budget");
    }
    if (seen_codes.insert(code).second) cover.add(logic::Cube::from_code(code));
    queue.emplace_back(cut, code);
  };

  for (const unf::EventId e : unf.instances_of_signal(signal)) {
    if (unf.label(e)->rising() != rising) continue;
    try_enqueue(unf.min_excitation_cut(e), unf.excitation_code(e));
  }
  while (!queue.empty()) {
    auto [cut, code] = std::move(queue.front());
    queue.pop_front();
    for (std::size_t i = 1; i < unf.event_count(); ++i) {
      const unf::EventId e(static_cast<std::uint32_t>(i));
      bool enabled = true;
      for (const unf::ConditionId c : unf.preset(e)) {
        if (!cut.test(c.index())) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      Bitset next_cut = cut;
      for (const unf::ConditionId c : unf.preset(e)) next_cut.reset(c.index());
      for (const unf::ConditionId c : unf.postset(e)) next_cut.set(c.index());
      stg::Code next_code = code;
      stg.apply(unf.transition(e), next_code);
      try_enqueue(next_cut, next_code);
    }
  }
  return cover;
}

}  // namespace punt::core
