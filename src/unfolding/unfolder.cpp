// Construction of the STG-unfolding segment (McMillan-style, lifted to
// STGs by cutting off on repeated ⟨final marking, binary code⟩).
#include <algorithm>
#include <map>
#include <memory>
#include <queue>
#include <set>

#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

namespace punt::unf {
namespace {

/// A possible extension: transition instance with a chosen co-set preset.
struct Candidate {
  std::size_t size;                  // |[e]| excluding ⊥
  pn::TransitionId transition;
  std::vector<ConditionId> preset;   // sorted ascending
  Bitset config;                     // [e] \ {e}, bits over event ids

  /// Adequate total order: size first, then a deterministic tiebreak.
  bool operator>(const Candidate& other) const {
    if (size != other.size) return size > other.size;
    if (transition != other.transition) return transition > other.transition;
    return preset > other.preset;
  }
};

}  // namespace

/// Stateful builder; see Unfolding::build for the public entry point.
class Unfolder {
 public:
  Unfolder(const stg::Stg& stg, const UnfoldOptions& options)
      : stg_(stg), options_(options) {
    unf_.stg_ = std::make_shared<const stg::Stg>(stg);
  }

  Unfolding run() {
    stg_.validate();
    if (options_.capacity != 0 &&
        stg_.net().initial_marking().max_tokens() > options_.capacity) {
      throw CapacityError("the initial marking already exceeds the capacity bound of " +
                          std::to_string(options_.capacity));
    }
    create_initial_event();
    while (!queue_.empty()) {
      Candidate cand = queue_.top();
      queue_.pop();
      instantiate(std::move(cand));
    }
    unf_.stats_.events = unf_.event_count() - 1;
    unf_.stats_.conditions = unf_.condition_count();
    return std::move(unf_);
  }

 private:
  using StateKey = std::pair<std::size_t, std::size_t>;  // (marking, code) hashes

  static std::size_t code_hash(const stg::Code& code) {
    std::size_t h = 1469598103934665603ull;
    for (const std::uint8_t v : code) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return h;
  }

  ConditionId add_condition(pn::PlaceId place, EventId producer, const Bitset& co_base,
                            const std::vector<ConditionId>& earlier_siblings) {
    const ConditionId c(static_cast<std::uint32_t>(unf_.condition_count()));
    unf_.places_.push_back(place);
    unf_.producers_.push_back(producer);
    unf_.consumers_.emplace_back();
    Bitset row = co_base;  // conditions concurrent with the producing event
    row.resize(c.index());
    for (const ConditionId s : earlier_siblings) row.set(s.index());
    unf_.co_.push_back(std::move(row));
    return c;
  }

  void create_initial_event() {
    unf_.transitions_.push_back(pn::TransitionId());  // invalid: ⊥
    unf_.e_pre_.emplace_back();
    unf_.e_post_.emplace_back();
    Bitset config(1);
    config.set(0);
    unf_.configs_.push_back(std::move(config));
    unf_.config_sizes_.push_back(0);
    unf_.codes_.push_back(stg_.initial_code());
    unf_.markings_.push_back(stg_.net().initial_marking());
    unf_.cutoff_.push_back(0);
    unf_.cutoff_image_.push_back(EventId());

    const pn::Marking& m0 = stg_.net().initial_marking();
    std::vector<ConditionId> created;
    const Bitset empty_base;  // nothing exists before the initial conditions
    for (std::size_t p = 0; p < stg_.net().place_count(); ++p) {
      const pn::PlaceId place(static_cast<std::uint32_t>(p));
      for (std::uint32_t k = 0; k < m0.tokens(place); ++k) {
        const ConditionId c = add_condition(place, EventId(0), empty_base, created);
        created.push_back(c);
        unf_.e_post_[0].push_back(c);
      }
    }
    seen_states_.emplace(state_key(m0, stg_.initial_code()),
                         std::vector<EventId>{EventId(0)});
    for (const ConditionId c : created) index_and_scan(c);
  }

  StateKey state_key(const pn::Marking& m, const stg::Code& code) const {
    return {m.hash(), code_hash(code)};
  }

  /// Pops one possible extension and adds it to the segment.
  void instantiate(Candidate cand) {
    // Duplicate candidates cannot arise (generation deduplicates), but a
    // candidate may have been registered before one of its input conditions'
    // producers was identified as a cutoff — impossible too, since cutoff
    // postsets are never scanned.  Instantiate unconditionally.
    if (unf_.event_count() > options_.event_budget) {
      throw CapacityError(
          "unfolding exceeded the event budget of " +
          std::to_string(options_.event_budget) +
          " instances; the STG is unbounded or the budget is too small");
    }
    const EventId e(static_cast<std::uint32_t>(unf_.event_count()));
    unf_.transitions_.push_back(cand.transition);
    unf_.e_pre_.push_back(cand.preset);
    unf_.e_post_.emplace_back();
    Bitset config = std::move(cand.config);
    config.resize(e.index() + 1);
    config.set(e.index());
    unf_.configs_.push_back(std::move(config));
    unf_.config_sizes_.push_back(cand.size);
    unf_.cutoff_.push_back(0);
    unf_.cutoff_image_.push_back(EventId());
    for (const ConditionId c : cand.preset) {
      unf_.consumers_[c.index()].push_back(e);
    }

    // Code and final marking of [e]: [e] is the local configuration of the
    // input producer p with the largest one, plus a few more events.  Firing
    // those in ascending id, a topological order (DESIGN.md §5), from p's
    // code and marking gives them, and verifies consistency along this run.
    EventId base = unf_.producer(cand.preset.front());
    for (const ConditionId c : cand.preset) {
      const EventId p = unf_.producer(c);
      if (unf_.config_sizes_[p.index()] > unf_.config_sizes_[base.index()]) base = p;
    }
    stg::Code code = unf_.codes_[base.index()];
    pn::Marking marking = unf_.markings_[base.index()];
    const std::vector<std::uint64_t>& mine = unf_.configs_[e.index()].words();
    const std::vector<std::uint64_t>& theirs = unf_.configs_[base.index()].words();
    for (std::size_t w = 0; w < mine.size(); ++w) {
      std::uint64_t rest = mine[w] & ~(w < theirs.size() ? theirs[w] : 0);
      for (; rest != 0; rest &= rest - 1) {
        const pn::TransitionId t = unf_.transitions_[w * 64 + __builtin_ctzll(rest)];
        stg_.apply(t, code);
        for (const pn::PlaceId p : stg_.net().pre(t)) marking.remove_token(p);
        for (const pn::PlaceId p : stg_.net().post(t)) marking.add_token(p);
      }
    }
    unf_.codes_.push_back(code);

    // Postset conditions (cutoff events keep theirs: their final cuts bound
    // slices, per paper §4.1).
    Bitset co_base = concurrent_with(cand.preset);  // the conditions concurrent with e
    std::vector<ConditionId> created;
    for (const pn::PlaceId p : stg_.net().post(cand.transition)) {
      co_base.resize(unf_.condition_count());
      const ConditionId c = add_condition(p, e, co_base, created);
      created.push_back(c);
      unf_.e_post_[e.index()].push_back(c);
    }

    // Safeness check on the final state of [e].
    if (options_.capacity != 0 && marking.max_tokens() > options_.capacity) {
      throw CapacityError("the cut of instance " + unf_.event_name(e) +
                          " marks a place with more than " +
                          std::to_string(options_.capacity) +
                          " tokens; the STG is not safe");
    }
    unf_.markings_.push_back(std::move(marking));

    // Cutoff determination.
    const StateKey key = state_key(unf_.markings_[e.index()], code);
    auto [it, inserted] = seen_states_.try_emplace(key);
    bool cutoff = false;
    EventId image;
    if (!inserted) {
      // McMillan's rule: the same state, reached by a strictly smaller [f].
      for (const EventId f : it->second) {
        if (unf_.markings_[f.index()] == unf_.markings_[e.index()] &&
            unf_.codes_[f.index()] == code && unf_.config_sizes_[f.index()] < cand.size) {
          cutoff = true;
          image = f;
          break;
        }
      }
    }
    it->second.push_back(e);
    unf_.cutoff_[e.index()] = cutoff ? 1 : 0;
    unf_.cutoff_image_[e.index()] = image;
    if (cutoff) {
      ++unf_.stats_.cutoffs;
      return;  // postset exists but generates no extensions
    }
    for (const ConditionId c : created) index_and_scan(c);
  }

  /// The conditions concurrent with every condition of `preset` (sorted
  /// ascending, non-empty).  Among the conditions older than the oldest
  /// input x, they are the AND of the inputs' triangular rows; the few
  /// created after x are tested one by one.
  Bitset concurrent_with(const std::vector<ConditionId>& preset) const {
    const ConditionId oldest = preset.front();
    std::vector<std::uint64_t> words = unf_.co_[oldest.index()].words();
    for (std::size_t k = 1; k < preset.size(); ++k) {
      const std::vector<std::uint64_t>& row = unf_.co_[preset[k].index()].words();
      for (std::size_t w = 0; w < words.size(); ++w) words[w] &= row[w];
    }
    Bitset out = Bitset::from_words(oldest.index(), std::move(words));
    out.resize(unf_.condition_count());
    for (std::size_t d = oldest.index() + 1; d < unf_.condition_count(); ++d) {
      const ConditionId cd(static_cast<std::uint32_t>(d));
      if (std::all_of(preset.begin(), preset.end(),
                      [&](ConditionId x) { return unf_.co(cd, x); })) {
        out.set(d);
      }
    }
    return out;
  }

  /// Adds `b` to the per-place index and registers every possible extension
  /// whose preset contains `b`.
  void index_and_scan(ConditionId b) {
    by_place_.resize(stg_.net().place_count());
    by_place_[unf_.place(b).index()].push_back(b);
    const pn::PlaceId pb = unf_.place(b);
    for (const pn::TransitionId t : stg_.net().post(pb)) {
      std::vector<ConditionId> chosen;
      assemble(t, stg_.net().pre(t), 0, b, chosen);
    }
  }

  void assemble(pn::TransitionId t, const std::vector<pn::PlaceId>& places,
                std::size_t idx, ConditionId anchor, std::vector<ConditionId>& chosen) {
    if (idx == places.size()) {
      register_candidate(t, chosen);
      return;
    }
    const pn::PlaceId p = places[idx];
    if (p == unf_.place(anchor)) {
      // The anchor fills its own place slot: extensions not involving the
      // anchor were already generated when their newest condition appeared.
      if (coherent(anchor, chosen)) {
        chosen.push_back(anchor);
        assemble(t, places, idx + 1, anchor, chosen);
        chosen.pop_back();
      }
      return;
    }
    for (const ConditionId c : by_place_[p.index()]) {
      if (!unf_.co(c, anchor) || !coherent(c, chosen)) continue;
      chosen.push_back(c);
      assemble(t, places, idx + 1, anchor, chosen);
      chosen.pop_back();
    }
  }

  bool coherent(ConditionId c, const std::vector<ConditionId>& chosen) const {
    for (const ConditionId x : chosen) {
      if (!unf_.co(c, x)) return false;
    }
    return true;
  }

  void register_candidate(pn::TransitionId t, const std::vector<ConditionId>& preset) {
    std::vector<ConditionId> sorted = preset;
    std::sort(sorted.begin(), sorted.end());
    if (!known_presets_.emplace(t, sorted).second) return;

    // [e] \ {e}: the union of the producers' local configurations, each
    // over the events that existed when its producer was added.
    std::vector<std::uint64_t> words((unf_.event_count() + 63) / 64, 0);
    for (const ConditionId c : sorted) {
      const std::vector<std::uint64_t>& pc = unf_.configs_[unf_.producer(c).index()].words();
      for (std::size_t w = 0; w < pc.size(); ++w) words[w] |= pc[w];
    }
    Bitset config = Bitset::from_words(unf_.event_count(), std::move(words));
    const std::size_t size = config.count();  // includes ⊥, excludes e itself
    queue_.push(Candidate{size, t, std::move(sorted), std::move(config)});
  }

  const stg::Stg& stg_;
  UnfoldOptions options_;
  Unfolding unf_;

  std::vector<std::vector<ConditionId>> by_place_;
  std::set<std::pair<pn::TransitionId, std::vector<ConditionId>>> known_presets_;
  std::map<StateKey, std::vector<EventId>> seen_states_;
  std::priority_queue<Candidate, std::vector<Candidate>, std::greater<Candidate>> queue_;
};

Unfolding Unfolding::build(const stg::Stg& stg, const UnfoldOptions& options) {
  Unfolding unf = Unfolder(stg, options).run();
  unf.build_rows();
  return unf;
}

}  // namespace punt::unf
