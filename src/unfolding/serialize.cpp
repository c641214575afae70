#include "src/unfolding/serialize.hpp"

#include <functional>
#include <utility>

#include "src/util/error.hpp"

namespace punt::unf {
namespace {

/// Plausibility ceiling for any element count in a segment payload: far
/// above the event budgets real runs use, low enough that a corrupt length
/// cannot drive a multi-gigabyte allocation before the checksum/validation
/// catches it.
constexpr std::uint64_t kMaxElements = 1u << 28;

void write_bitset(const Bitset& bits, util::BinaryWriter& out) {
  out.u64(bits.size());
  for (const std::uint64_t word : bits.words()) out.u64(word);
}

Bitset read_bitset(util::BinaryReader& in) {
  const std::size_t size = in.count(kMaxElements, "bitset bits");
  std::vector<std::uint64_t> words((size + 63) / 64);
  for (std::uint64_t& word : words) word = in.u64();
  return Bitset::from_words(size, std::move(words));
}

template <typename IdType>
void write_id_vector(const std::vector<IdType>& ids, util::BinaryWriter& out) {
  out.u64(ids.size());
  for (const IdType id : ids) out.u32(id.value);
}

/// Reads a dense id vector, requiring every *valid* id below `universe`.
/// Invalid (default-constructed) ids round-trip as the max sentinel — the
/// segment uses them for ⊥'s transition and non-cutoff images.
template <typename IdType>
std::vector<IdType> read_id_vector(util::BinaryReader& in, std::size_t universe,
                                   const char* what) {
  const std::size_t n = in.count(kMaxElements, what);
  std::vector<IdType> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const IdType id(in.u32());
    if (id.valid() && id.index() >= universe) {
      throw ValidationError("unfolding payload corrupt: " + std::string(what) + " id " +
                            std::to_string(id.value) + " is outside the universe of " +
                            std::to_string(universe));
    }
    ids.push_back(id);
  }
  return ids;
}

void write_marking(const pn::Marking& marking, util::BinaryWriter& out) {
  out.u64(marking.place_count());
  for (std::size_t p = 0; p < marking.place_count(); ++p) {
    out.u32(marking.tokens(pn::PlaceId(static_cast<std::uint32_t>(p))));
  }
}

pn::Marking read_marking(util::BinaryReader& in, std::size_t place_count) {
  const std::size_t n = in.count(kMaxElements, "marking places");
  if (n != place_count) {
    throw ValidationError("unfolding payload corrupt: a marking covers " +
                          std::to_string(n) + " place(s) but the STG has " +
                          std::to_string(place_count));
  }
  pn::Marking marking(n);
  for (std::size_t p = 0; p < n; ++p) {
    marking.set_tokens(pn::PlaceId(static_cast<std::uint32_t>(p)), in.u32());
  }
  return marking;
}

}  // namespace

void write_unfolding(const Unfolding& unf, util::BinaryWriter& out) {
  const std::size_t events = unf.transitions_.size();
  const std::size_t conditions = unf.places_.size();

  out.u64(unf.stats_.events);
  out.u64(unf.stats_.conditions);
  out.u64(unf.stats_.cutoffs);

  // Events (index 0 = ⊥).
  write_id_vector(unf.transitions_, out);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) write_id_vector(unf.e_pre_[e], out);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) write_id_vector(unf.e_post_[e], out);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) write_bitset(unf.configs_[e], out);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u64(unf.config_sizes_[e]);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) {
    out.u64(unf.codes_[e].size());
    for (const std::uint8_t bit : unf.codes_[e]) out.u8(bit);
  }
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) write_marking(unf.markings_[e], out);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u8(unf.cutoff_[e]);
  write_id_vector(unf.cutoff_image_, out);

  // Conditions.
  write_id_vector(unf.places_, out);
  write_id_vector(unf.producers_, out);
  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) write_id_vector(unf.consumers_[c], out);
  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) write_bitset(unf.co_[c], out);
}

Unfolding read_unfolding(util::BinaryReader& in, std::shared_ptr<const stg::Stg> stg) {
  if (!stg) {
    throw ValidationError("read_unfolding requires the STG the segment was built from");
  }
  const std::size_t net_transitions = stg->net().transition_count();
  const std::size_t net_places = stg->net().place_count();
  const std::size_t signals = stg->signal_count();

  Unfolding unf;
  unf.stg_ = std::move(stg);
  unf.stats_.events = in.count(kMaxElements, "stat events");
  unf.stats_.conditions = in.count(kMaxElements, "stat conditions");
  unf.stats_.cutoffs = in.count(kMaxElements, "stat cutoffs");

  unf.transitions_ =
      read_id_vector<pn::TransitionId>(in, net_transitions, "event transition");
  const std::size_t events = unf.transitions_.size();
  const auto expect_events = [&](const char* what) {
    const std::size_t n = in.count(kMaxElements, what);
    if (n != events) {
      throw ValidationError("unfolding payload corrupt: " + std::string(what) +
                            " covers " + std::to_string(n) + " event(s), expected " +
                            std::to_string(events));
    }
  };

  // Condition ids forward-reference the condition tables, so bound them by
  // the payload's own declared universe once it is known; until then accept
  // any id and validate after the condition tables are read.
  expect_events("event presets");
  unf.e_pre_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    unf.e_pre_.push_back(
        read_id_vector<ConditionId>(in, kMaxElements, "event preset"));
  }
  expect_events("event postsets");
  unf.e_post_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    unf.e_post_.push_back(
        read_id_vector<ConditionId>(in, kMaxElements, "event postset"));
  }
  expect_events("event configs");
  unf.configs_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    unf.configs_.push_back(read_bitset(in));
    // The unfolder sizes [e] over the events that existed when e was added
    // (bits 0..e), not over the final universe.
    if (unf.configs_.back().size() != e + 1) {
      throw ValidationError("unfolding payload corrupt: local configuration " +
                            std::to_string(e) + " spans " +
                            std::to_string(unf.configs_.back().size()) +
                            " event(s), expected " + std::to_string(e + 1));
    }
  }
  expect_events("event config sizes");
  unf.config_sizes_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    unf.config_sizes_.push_back(in.count(kMaxElements, "config size"));
  }
  expect_events("event codes");
  unf.codes_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    const std::size_t bits = in.count(kMaxElements, "code bits");
    if (bits != signals) {
      throw ValidationError("unfolding payload corrupt: an event code carries " +
                            std::to_string(bits) + " bit(s) but the STG has " +
                            std::to_string(signals) + " signal(s)");
    }
    stg::Code code(bits);
    for (std::size_t b = 0; b < bits; ++b) code[b] = in.u8();
    unf.codes_.push_back(std::move(code));
  }
  expect_events("event markings");
  unf.markings_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) {
    unf.markings_.push_back(read_marking(in, net_places));
  }
  expect_events("event cutoff flags");
  unf.cutoff_.reserve(events);
  for (std::size_t e = 0; e < events; ++e) unf.cutoff_.push_back(in.u8());
  unf.cutoff_image_ = read_id_vector<EventId>(in, events, "cutoff image");

  unf.places_ = read_id_vector<pn::PlaceId>(in, net_places, "condition place");
  const std::size_t conditions = unf.places_.size();
  unf.producers_ = read_id_vector<EventId>(in, events, "condition producer");
  const std::size_t consumer_rows = in.count(kMaxElements, "condition consumers");
  if (consumer_rows != conditions) {
    throw ValidationError("unfolding payload corrupt: consumer lists cover " +
                          std::to_string(consumer_rows) + " condition(s), expected " +
                          std::to_string(conditions));
  }
  unf.consumers_.reserve(conditions);
  for (std::size_t c = 0; c < conditions; ++c) {
    unf.consumers_.push_back(
        read_id_vector<EventId>(in, events, "condition consumer"));
  }
  const std::size_t co_rows = in.count(kMaxElements, "co rows");
  if (co_rows != conditions) {
    throw ValidationError("unfolding payload corrupt: the co matrix covers " +
                          std::to_string(co_rows) + " condition(s), expected " +
                          std::to_string(conditions));
  }
  unf.co_.reserve(conditions);
  for (std::size_t c = 0; c < conditions; ++c) {
    unf.co_.push_back(read_bitset(in));
    if (unf.co_.back().size() != c) {
      throw ValidationError("unfolding payload corrupt: triangular co row " +
                            std::to_string(c) + " spans " +
                            std::to_string(unf.co_.back().size()) + " condition(s)");
    }
  }

  // Deferred validation of the pre/postset condition ids, and the size
  // cross-checks a truncation would otherwise leave silently inconsistent.
  for (const auto& sets : {std::cref(unf.e_pre_), std::cref(unf.e_post_)}) {
    for (const auto& set : sets.get()) {
      for (const ConditionId c : set) {
        if (!c.valid() || c.index() >= conditions) {
          throw ValidationError("unfolding payload corrupt: an event pre/postset "
                                "references condition " + std::to_string(c.value) +
                                " of " + std::to_string(conditions));
        }
      }
    }
  }
  if (unf.cutoff_image_.size() != events || unf.producers_.size() != conditions) {
    throw ValidationError("unfolding payload corrupt: table sizes disagree");
  }
  if (events == 0 || unf.transitions_[0].valid()) {
    throw ValidationError("unfolding payload corrupt: event 0 must be the virtual "
                          "initial transition");
  }
  // The invalid-id sentinel is only legitimate where the semantics allow it
  // (⊥'s transition, a non-cutoff's image); everywhere else downstream code
  // indexes without checking, so reject sentinels the range checks above
  // let through.
  for (std::size_t e = 1; e < events; ++e) {
    if (!unf.transitions_[e].valid()) {
      throw ValidationError("unfolding payload corrupt: event " + std::to_string(e) +
                            " carries no transition");
    }
    if (unf.cutoff_[e] != 0 && !unf.cutoff_image_[e].valid()) {
      throw ValidationError("unfolding payload corrupt: cutoff event " +
                            std::to_string(e) + " has no image");
    }
  }
  for (std::size_t c = 0; c < conditions; ++c) {
    if (!unf.producers_[c].valid()) {
      throw ValidationError("unfolding payload corrupt: condition " +
                            std::to_string(c) + " has no producer");
    }
    for (const EventId consumer : unf.consumers_[c]) {
      if (!consumer.valid()) {
        throw ValidationError("unfolding payload corrupt: condition " +
                              std::to_string(c) + " lists an invalid consumer");
      }
    }
  }
  unf.build_rows();  // derived data, so not part of the payload
  return unf;
}

}  // namespace punt::unf
