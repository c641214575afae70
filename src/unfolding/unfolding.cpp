#include "src/unfolding/unfolding.hpp"

#include <algorithm>
#include <deque>
#include <unordered_map>

#include "src/util/error.hpp"

namespace punt::unf {

const stg::Label* Unfolding::label(EventId e) const {
  if (is_initial(e)) return nullptr;
  return &stg_->label(transitions_[e.index()]);
}

stg::Code Unfolding::excitation_code(EventId e) const {
  stg::Code out = codes_[e.index()];
  if (const stg::Label* l = label(e); l != nullptr && !l->dummy) {
    out[l->signal.index()] ^= 1;  // undo e's own edge
  }
  return out;
}

std::string Unfolding::event_name(EventId e) const {
  if (is_initial(e)) return "_|_";
  return stg_->transition_name(transitions_[e.index()]) + "@" + std::to_string(e.value);
}

std::string Unfolding::condition_name(ConditionId c) const {
  return stg_->net().place_name(places_[c.index()]) + "@" + std::to_string(c.value);
}

bool Unfolding::precedes(EventId e, EventId f) const {
  if (e == f) return true;
  const Bitset& config = configs_[f.index()];
  return e.index() < config.size() && config.test(e.index());
}

bool Unfolding::co(ConditionId a, ConditionId b) const {
  if (a == b) return false;
  const ConditionId lo = a < b ? a : b;
  const ConditionId hi = a < b ? b : a;
  return co_[hi.index()].test(lo.index());
}

bool Unfolding::co(ConditionId c, EventId e) const {
  const auto& pre = e_pre_[e.index()];
  if (pre.empty()) return false;  // only ⊥; nothing is concurrent with it
  for (const ConditionId x : pre) {
    if (!co(c, x)) return false;
  }
  return true;
}

bool Unfolding::co(EventId e, EventId f) const {
  if (e == f || precedes(e, f) || precedes(f, e)) return false;
  const auto& pe = e_pre_[e.index()];
  const auto& pf = e_pre_[f.index()];
  if (pe.empty() || pf.empty()) return false;  // ⊥ precedes everything
  for (const ConditionId x : pe) {
    for (const ConditionId y : pf) {
      if (x == y || !co(x, y)) return false;
    }
  }
  return true;
}

Bitset Unfolding::co_events(EventId e) const {
  std::vector<std::uint64_t> words(row_words_, 0);
  const auto& pre = e_pre_[e.index()];
  if (!pre.empty()) {
    const std::span<const std::uint64_t> first = co_events(pre.front());
    words.assign(first.begin(), first.end());
    for (std::size_t k = 1; k < pre.size(); ++k) {
      const std::span<const std::uint64_t> row = co_events(pre[k]);
      for (std::size_t w = 0; w < row_words_; ++w) words[w] &= row[w];
    }
  }
  return Bitset::from_words(event_count(), std::move(words));
}

namespace {

constexpr std::uint64_t kLow32 = 0xffffffffu;

/// Entry-wise max of two words of two 32-bit table entries each.
std::uint64_t max_pair(std::uint64_t a, std::uint64_t b) {
  return std::max(a >> 32, b >> 32) << 32 | std::max(a & kLow32, b & kLow32);
}

}  // namespace

void Unfolding::build_rows() {
  const std::size_t conditions = condition_count();
  const std::size_t events = event_count();
  const std::size_t signals = stg_->signal_count();

  signals_.assign(events, stg::SignalId());
  instances_.assign(signals, {});
  for (std::size_t e = 1; e < events; ++e) {
    const stg::Label& l = stg_->label(transitions_[e]);
    if (l.dummy) continue;
    signals_[e] = l.signal;
    instances_[l.signal.index()].push_back(EventId(static_cast<std::uint32_t>(e)));
  }
  // The rank tables need every signal's instances to form one causal chain.
  // Instances are listed in ascending id, a topological order, so the chain,
  // if there is one, runs in list order.
  branching_signal_ = stg::SignalId();
  for (std::size_t s = 0; s < signals && !branching_signal_.valid(); ++s) {
    const std::vector<EventId>& chain = instances_[s];
    for (std::size_t i = 1; i < chain.size(); ++i) {
      if (!precedes(chain[i - 1], chain[i])) {
        branching_signal_ = stg::SignalId(static_cast<std::uint32_t>(s));
        break;
      }
    }
  }
  const bool ranked = !branching_signal_.valid();

  row_words_ = (events + 63) / 64;
  code_words_ = (signals + 63) / 64;
  count_words_ = (signals + 1) / 2;
  const std::size_t codes_at = (conditions + events) * row_words_;
  counts_at_ = codes_at + events * code_words_;
  first_co_at_ = counts_at_ + events * count_words_;
  rows_.assign(ranked ? first_co_at_ + conditions * code_words_ : counts_at_, 0);

  // co rows, one block of 64 conditions at a time: block[x] holds co(x, c)
  // for the block's conditions c, so the conditions of the block concurrent
  // with an event are the AND of block[x] over its preset, one word per event.
  std::vector<std::uint64_t> block(conditions);
  std::uint64_t tile[64];
  for (std::size_t w = 0; w * 64 < conditions; ++w) {
    const std::size_t lo = w * 64;
    const std::size_t hi = std::min(lo + 64, conditions);
    for (std::size_t x = 0; x < conditions; ++x) {
      // co(x, c) for c < x lives in x's triangular row...
      const std::vector<std::uint64_t>& row = co_[x].words();
      block[x] = w < row.size() ? row[w] : 0;
    }
    // ...and for c > x in c's: transposing the block's rows 64 columns at a
    // time moves bit x of row c to bit c - lo of block[x].
    for (std::size_t u = 0; u <= w; ++u) {
      for (std::size_t c = lo; c < lo + 64; ++c) {
        tile[c - lo] = c < hi && u < co_[c].words().size() ? co_[c].words()[u] : 0;
      }
      transpose64(tile);
      for (std::size_t x = u * 64; x < std::min(u * 64 + 64, conditions); ++x) {
        block[x] |= tile[x - u * 64];
      }
    }
    for (std::size_t e = 1; e < events; ++e) {
      if (e_pre_[e].empty()) continue;
      std::uint64_t concurrent = ~std::uint64_t{0};
      for (const ConditionId x : e_pre_[e]) concurrent &= block[x.index()];
      for (; concurrent != 0; concurrent &= concurrent - 1) {
        const std::size_t c = lo + static_cast<std::size_t>(__builtin_ctzll(concurrent));
        rows_[c * row_words_ + e / 64] |= std::uint64_t{1} << (e & 63);
      }
    }
  }

  // Successor rows, from the last event back: e's successors are e and the
  // successors of every consumer of its postset.  A consumer has a larger id
  // than e (ascending id is a topological order), so its row is complete.
  for (std::size_t e = events; e-- > 0;) {
    std::uint64_t* row = rows_.data() + (conditions + e) * row_words_;
    row[e / 64] |= std::uint64_t{1} << (e & 63);
    for (const ConditionId c : e_post_[e]) {
      for (const EventId g : consumers_[c.index()]) {
        const std::span<const std::uint64_t> after = successors(g);
        for (std::size_t w = 0; w < row_words_; ++w) row[w] |= after[w];
      }
    }
  }

  std::uint64_t* codes = rows_.data() + codes_at;
  for (std::size_t e = 0; e < events; ++e) {
    for (std::size_t s = 0; s < codes_[e].size(); ++s) {
      if (codes_[e][s] != 0) codes[e * code_words_ + s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
  if (!ranked) return;

  // Instance counts, in ascending id from ⊥'s zeros: [e] is e plus the
  // configurations of its inputs' producers, each holding a prefix of every
  // chain, so their union holds the longest of those prefixes.
  for (std::size_t e = 1; e < events; ++e) {
    std::uint64_t* row = rows_.data() + counts_at_ + e * count_words_;
    for (const ConditionId x : e_pre_[e]) {
      const std::uint64_t* from =
          rows_.data() + counts_at_ + producers_[x.index()].index() * count_words_;
      for (std::size_t w = 0; w < count_words_; ++w) row[w] = max_pair(row[w], from[w]);
    }
    if (const stg::SignalId s = signals_[e]; s.valid()) {
      row[s.index() / 2] += std::uint64_t{1} << (32 * (s.index() & 1));
    }
  }

  // The concurrency bits: whether the first instance of each signal outside
  // [producer(c)] can fire while c is marked.
  for (std::size_t c = 0; c < conditions; ++c) {
    const ConditionId cid(static_cast<std::uint32_t>(c));
    const EventId producer = producers_[c];
    const std::span<const std::uint64_t> co = co_events(cid);
    std::uint64_t* bits = rows_.data() + first_co_at_ + c * code_words_;
    for (std::size_t s = 0; s < signals; ++s) {
      const std::uint32_t first =
          config_instances(producer, stg::SignalId(static_cast<std::uint32_t>(s)));
      if (first >= instances_[s].size()) continue;
      const std::size_t f = instances_[s][first].index();
      if (((co[f / 64] >> (f % 64)) & 1u) != 0) bits[s / 64] |= std::uint64_t{1} << (s % 64);
    }
  }
}

bool Unfolding::in_conflict(EventId e, EventId f) const {
  return e != f && !precedes(e, f) && !precedes(f, e) && !co(e, f);
}

std::vector<EventId> Unfolding::next_instances(EventId e) const {
  const stg::Label* mine = label(e);
  std::vector<EventId> candidates;
  if (mine == nullptr) return candidates;  // use first_instances for ⊥
  for (const EventId f : instances_of_signal(mine->signal)) {
    if (f != e && precedes(e, f)) candidates.push_back(f);
  }
  // Keep the causally minimal ones: no other candidate strictly in between.
  std::vector<EventId> out;
  for (const EventId f : candidates) {
    bool minimal = true;
    for (const EventId g : candidates) {
      if (g != f && precedes(g, f)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(f);
  }
  return out;
}

std::vector<EventId> Unfolding::first_instances(stg::SignalId signal) const {
  const std::vector<EventId>& all = instances_of_signal(signal);
  std::vector<EventId> out;
  for (const EventId f : all) {
    bool minimal = true;
    for (const EventId g : all) {
      if (g != f && precedes(g, f)) {
        minimal = false;
        break;
      }
    }
    if (minimal) out.push_back(f);
  }
  return out;
}

Bitset Unfolding::cut_of_config(const Bitset& config_events) const {
  Bitset cut(condition_count());
  config_events.for_each([&](std::size_t ev) {
    for (const ConditionId c : e_post_[ev]) cut.set(c.index());
  });
  config_events.for_each([&](std::size_t ev) {
    for (const ConditionId c : e_pre_[ev]) cut.reset(c.index());
  });
  return cut;
}

pn::Marking Unfolding::marking_of_cut(const Bitset& cut) const {
  pn::Marking m(stg_->net().place_count());
  cut.for_each([&](std::size_t c) { m.add_token(places_[c]); });
  return m;
}

Bitset Unfolding::min_excitation_cut(EventId e) const {
  Bitset config = configs_[e.index()];
  config.reset(e.index());
  return cut_of_config(config);
}

std::string SegmentPersistencyViolation::describe(const Unfolding& unf) const {
  return "output instance " + unf.event_name(victim) +
         " can be disabled by firing " + unf.event_name(disabler);
}

std::vector<SegmentPersistencyViolation> segment_persistency_violations(
    const Unfolding& unf) {
  const stg::Stg& stg = unf.stg();
  std::vector<SegmentPersistencyViolation> out;
  for (std::size_t ci = 0; ci < unf.condition_count(); ++ci) {
    const ConditionId c(static_cast<std::uint32_t>(ci));
    const auto& consumers = unf.consumers(c);
    if (consumers.size() < 2) continue;
    for (const EventId e : consumers) {
      const stg::Label* le = unf.label(e);
      if (le == nullptr || le->dummy) continue;
      const stg::SignalKind kind = stg.signal_kind(le->signal);
      if (kind != stg::SignalKind::Output && kind != stg::SignalKind::Internal) continue;
      for (const EventId f : consumers) {
        if (f == e) continue;
        const stg::Label* lf = unf.label(f);
        if (lf != nullptr && !lf->dummy && lf->signal == le->signal) continue;
        // e and f are in direct conflict over c; a hazard exists iff some
        // reachable cut enables both, i.e. their presets are jointly
        // consistent (pairwise concurrent apart from the shared conditions).
        bool coenabled = true;
        for (const ConditionId x : unf.preset(e)) {
          for (const ConditionId y : unf.preset(f)) {
            if (x != y && !unf.co(x, y)) {
              coenabled = false;
              break;
            }
          }
          if (!coenabled) break;
        }
        if (coenabled) out.push_back(SegmentPersistencyViolation{e, f});
      }
    }
  }
  return out;
}

std::vector<pn::Marking> reachable_cut_markings(const Unfolding& unf, std::size_t budget) {
  // BFS over cuts, firing any event whose preset lies inside the cut.
  std::unordered_map<std::size_t, std::vector<Bitset>> seen_cuts;
  std::unordered_map<std::size_t, std::vector<pn::Marking>> seen_markings;
  std::vector<pn::Marking> out;
  std::deque<Bitset> queue;

  auto push_cut = [&](const Bitset& cut) {
    auto& bucket = seen_cuts[cut.hash()];
    for (const Bitset& b : bucket) {
      if (b == cut) return;
    }
    bucket.push_back(cut);
    queue.push_back(cut);
    pn::Marking m = unf.marking_of_cut(cut);
    auto& mbucket = seen_markings[m.hash()];
    for (const pn::Marking& e : mbucket) {
      if (e == m) return;
    }
    if (budget != 0 && out.size() >= budget) {
      throw CapacityError("cut enumeration exceeded the budget of " +
                          std::to_string(budget) + " distinct markings");
    }
    mbucket.push_back(m);
    out.push_back(std::move(m));
  };

  Bitset initial(unf.condition_count());
  for (const ConditionId c : unf.postset(Unfolding::initial_event())) {
    initial.set(c.index());
  }
  push_cut(initial);
  while (!queue.empty()) {
    const Bitset cut = queue.front();
    queue.pop_front();
    for (std::size_t ei = 1; ei < unf.event_count(); ++ei) {
      const EventId e(static_cast<std::uint32_t>(ei));
      bool enabled = true;
      for (const ConditionId c : unf.preset(e)) {
        if (!cut.test(c.index())) {
          enabled = false;
          break;
        }
      }
      if (!enabled) continue;
      Bitset next = cut;
      for (const ConditionId c : unf.preset(e)) next.reset(c.index());
      for (const ConditionId c : unf.postset(e)) next.set(c.index());
      push_cut(next);
    }
  }
  return out;
}

}  // namespace punt::unf
