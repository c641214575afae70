// Tests for the STG-unfolding segment: construction, cutoffs, relations,
// codes, completeness.  The Fig. 1 / Fig. 2 example of the paper pins the
// exact segment shape: 8 instances, 2 cutoffs (-a' and -b'), 12 conditions.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"
#include "src/util/strings.hpp"

namespace punt::unf {
namespace {

using stg::SignalId;
using stg::Stg;

/// Finds the unique non-cutoff event instantiating `name`, or any event if
/// `allow_cutoff`.
EventId event_by_name(const Unfolding& unf, const std::string& name,
                      bool allow_cutoff = true) {
  for (std::size_t i = 1; i < unf.event_count(); ++i) {
    const EventId e(static_cast<std::uint32_t>(i));
    if (unf.stg().transition_name(unf.transition(e)) == name &&
        (allow_cutoff || !unf.is_cutoff(e))) {
      return e;
    }
  }
  ADD_FAILURE() << "no instance of " << name;
  return EventId();
}

std::set<std::string> marking_strings(const stg::Stg& stg,
                                      const std::vector<pn::Marking>& markings) {
  std::set<std::string> out;
  for (const auto& m : markings) out.insert(m.to_string(stg.net().place_names()));
  return out;
}

TEST(Unfolding, PaperFig2SegmentShape) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  EXPECT_EQ(unf.stats().events, 8u);      // Fig. 2: 8 instances
  EXPECT_EQ(unf.stats().conditions, 12u); // p'1..p'9, p''7, p''8, p''1
  EXPECT_EQ(unf.stats().cutoffs, 2u);     // -a' and -b'
}

TEST(Unfolding, PaperFig2CutoffsAreMinusAAndMinusB) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  std::set<std::string> cutoff_names;
  for (std::size_t i = 1; i < unf.event_count(); ++i) {
    const EventId e(static_cast<std::uint32_t>(i));
    if (unf.is_cutoff(e)) {
      cutoff_names.insert(stg.transition_name(unf.transition(e)));
    }
  }
  EXPECT_EQ(cutoff_names, (std::set<std::string>{"a-", "b-"}));
  // -a' is cut off against +b/2 (same final state (p7,p8)/011), and -b'
  // against the initial transition.
  const EventId a_dn = event_by_name(unf, "a-");
  ASSERT_TRUE(unf.is_cutoff(a_dn));
  const EventId image = unf.cutoff_image(a_dn);
  EXPECT_EQ(stg.transition_name(unf.transition(image)), "b+/2");
  const EventId b_dn = event_by_name(unf, "b-");
  ASSERT_TRUE(unf.is_cutoff(b_dn));
  EXPECT_TRUE(unf.is_initial(unf.cutoff_image(b_dn)));
}

TEST(Unfolding, EventCodesMatchPaperFig2) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  auto code_of = [&](const std::string& name) {
    return stg::code_to_string(unf.code(event_by_name(unf, name)));
  };
  EXPECT_EQ(code_of("a+"), "100");
  EXPECT_EQ(code_of("b+"), "110");   // +b'' in the paper's priming
  EXPECT_EQ(code_of("c+"), "101");
  EXPECT_EQ(code_of("c+/2"), "001");
  EXPECT_EQ(code_of("b+/2"), "011");
  EXPECT_EQ(code_of("c-"), "010");
  EXPECT_EQ(code_of("a-"), "011");
  EXPECT_EQ(code_of("b-"), "000");
}

TEST(Unfolding, ExcitationCodeUndoesOwnEdge) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const EventId a_up = event_by_name(unf, "a+");
  EXPECT_EQ(stg::code_to_string(unf.excitation_code(a_up)), "000");
  const EventId c_dn = event_by_name(unf, "c-");
  EXPECT_EQ(stg::code_to_string(unf.excitation_code(c_dn)), "011");
}

TEST(Unfolding, InitialEventPostsetIsInitialMarking) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const auto& post = unf.postset(Unfolding::initial_event());
  ASSERT_EQ(post.size(), 1u);
  EXPECT_EQ(stg.net().place_name(unf.place(post.front())), "p1");
  EXPECT_EQ(unf.config_size(Unfolding::initial_event()), 0u);
}

TEST(Unfolding, CausalityAndConflictRelations) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const EventId a_up = event_by_name(unf, "a+");
  const EventId b_up_A = event_by_name(unf, "b+");
  const EventId c_up_A = event_by_name(unf, "c+");
  const EventId c_up_B = event_by_name(unf, "c+/2");
  const EventId b_up_B = event_by_name(unf, "b+/2");
  const EventId a_dn = event_by_name(unf, "a-");

  EXPECT_TRUE(unf.precedes(a_up, b_up_A));
  EXPECT_TRUE(unf.precedes(a_up, a_dn));
  EXPECT_FALSE(unf.precedes(b_up_A, a_up));
  EXPECT_TRUE(unf.precedes(a_up, a_up));  // reflexive

  // The two post-+a branches are concurrent.
  EXPECT_TRUE(unf.co(b_up_A, c_up_A));
  EXPECT_FALSE(unf.in_conflict(b_up_A, c_up_A));

  // The choice at p1 puts the two branches in conflict.
  EXPECT_TRUE(unf.in_conflict(a_up, c_up_B));
  EXPECT_TRUE(unf.in_conflict(b_up_A, b_up_B));
  EXPECT_FALSE(unf.co(a_up, c_up_B));

  // ⊥ precedes everything and is concurrent with nothing.
  EXPECT_TRUE(unf.precedes(Unfolding::initial_event(), a_dn));
  EXPECT_FALSE(unf.co(Unfolding::initial_event(), a_up));
}

TEST(Unfolding, ConditionEventConcurrency) {
  const Stg stg = stg::make_paper_fig4ab();
  const Unfolding unf = Unfolding::build(stg);
  const EventId d_up = event_by_name(unf, "d+");
  const EventId b_up = event_by_name(unf, "b+");
  // p2 (input of b+) is concurrent with d+ (parallel branches after a+).
  const ConditionId p2 = unf.preset(b_up).front();
  EXPECT_TRUE(unf.co(p2, d_up));
  // p4 (input of d+) is not concurrent with d+ (it is consumed by it).
  const ConditionId p4 = unf.preset(d_up).front();
  EXPECT_FALSE(unf.co(p4, d_up));
}

TEST(Unfolding, NextAndFirstInstances) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const SignalId b = *stg.find_signal("b");
  const EventId a_up = event_by_name(unf, "a+");
  const EventId a_dn = event_by_name(unf, "a-");

  const auto next_a = unf.next_instances(a_up);
  ASSERT_EQ(next_a.size(), 1u);
  EXPECT_EQ(next_a.front(), a_dn);

  const auto first_b = unf.first_instances(b);
  std::set<std::string> names;
  for (const EventId e : first_b) names.insert(stg.transition_name(unf.transition(e)));
  EXPECT_EQ(names, (std::set<std::string>{"b+", "b+/2"}));

  const EventId b_up_B = event_by_name(unf, "b+/2");
  const auto next_b = unf.next_instances(b_up_B);
  ASSERT_EQ(next_b.size(), 1u);
  EXPECT_EQ(stg.transition_name(unf.transition(next_b.front())), "b-");
}

TEST(Unfolding, MinCutsOfFig2) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  const EventId c_dn = event_by_name(unf, "c-");
  // c- becomes enabled at (p7, p8) — its minimal excitation cut.
  const Bitset exc = unf.min_excitation_cut(c_dn);
  std::multiset<std::string> places;
  exc.for_each([&](std::size_t c) {
    places.insert(stg.net().place_name(unf.place(ConditionId(static_cast<std::uint32_t>(c)))));
  });
  EXPECT_EQ(places, (std::multiset<std::string>{"p7", "p8"}));
  // Its minimal stable cut is (p9).
  const Bitset stable = unf.min_stable_cut(c_dn);
  EXPECT_EQ(stable.count(), 1u);
  EXPECT_EQ(stg.net().place_name(unf.place(ConditionId(
                static_cast<std::uint32_t>(stable.find_first())))),
            "p9");
}

TEST(Unfolding, FinalMarkingsMatchCutMarkings) {
  const Stg stg = stg::make_paper_fig1();
  const Unfolding unf = Unfolding::build(stg);
  for (std::size_t i = 0; i < unf.event_count(); ++i) {
    const EventId e(static_cast<std::uint32_t>(i));
    EXPECT_EQ(unf.final_marking(e),
              unf.marking_of_cut(unf.min_stable_cut(e)));
  }
}

/// Completeness (McMillan's theorem, lifted to STGs): every SG marking is
/// the marking of some cut of the segment — and no more.
class Completeness : public ::testing::TestWithParam<int> {};

TEST_P(Completeness, SegmentRepresentsExactlyTheReachableMarkings) {
  Stg stg;
  switch (GetParam()) {
    case 0: stg = stg::make_paper_fig1(); break;
    case 1: stg = stg::make_paper_fig4ab(); break;
    case 2: stg = stg::make_paper_fig4c(); break;
    case 3: stg = stg::make_muller_pipeline(3); break;
    case 4: stg = stg::make_muller_pipeline(5); break;
    case 5: stg = stg::make_vme_bus(); break;
  }
  const Unfolding unf = Unfolding::build(stg);
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  std::set<std::string> sg_markings;
  for (std::size_t s = 0; s < sgraph.state_count(); ++s) {
    sg_markings.insert(sgraph.marking(s).to_string(stg.net().place_names()));
  }
  EXPECT_EQ(marking_strings(stg, reachable_cut_markings(unf)), sg_markings);
}

INSTANTIATE_TEST_SUITE_P(Examples, Completeness, ::testing::Range(0, 6));

TEST(Unfolding, MullerSegmentGrowsAtMostQuadratically) {
  const Unfolding u4 = Unfolding::build(stg::make_muller_pipeline(4));
  const Unfolding u8 = Unfolding::build(stg::make_muller_pipeline(8));
  const Unfolding u16 = Unfolding::build(stg::make_muller_pipeline(16));
  // The segment grows as about stages²/2 events (16, 46 and 154 here), plus
  // a linear term: doubling the stages multiplies events by less than 4.
  EXPECT_LT(u8.stats().events, 4 * u4.stats().events);
  EXPECT_LT(u16.stats().events, 4 * u8.stats().events);
  // ... while the SG grows exponentially (see sg_test); the segment for 16
  // stages stays small.
  EXPECT_LT(u16.stats().events, 500u);
}

TEST(Unfolding, EventBudgetEnforced) {
  UnfoldOptions options;
  options.event_budget = 3;
  EXPECT_THROW(Unfolding::build(stg::make_muller_pipeline(6), options), CapacityError);
}

TEST(Unfolding, UnsafeStgDetected) {
  // Unsafe net whose fork/join feeds a shared place twice.  Note this net is
  // *also* inconsistent (a- can fire after just b+), and the unfolder may
  // legitimately report either defect — both are rejections.
  Stg stg;
  const SignalId a = stg.add_signal("a", stg::SignalKind::Output);
  const SignalId b = stg.add_signal("b", stg::SignalKind::Output);
  const auto a_up = stg.add_transition(a, stg::Polarity::Rise);
  const auto b_up = stg.add_transition(b, stg::Polarity::Rise);
  const auto a_dn = stg.add_transition(a, stg::Polarity::Fall);
  const auto b_dn = stg.add_transition(b, stg::Polarity::Fall);
  auto& net = stg.net();
  const auto p0 = net.add_place("p0");
  const auto p1 = net.add_place("p1");
  const auto shared = net.add_place("shared");
  const auto sink = net.add_place("sink");
  const auto sink2 = net.add_place("sink2");
  net.add_arc(p0, a_up);
  net.add_arc(p1, b_up);
  net.add_arc(a_up, shared);
  net.add_arc(b_up, shared);
  net.add_arc(shared, a_dn);
  net.add_arc(a_dn, sink);
  net.add_arc(shared, b_dn);
  net.add_arc(b_dn, sink2);
  net.set_initial_tokens(p0, 1);
  net.set_initial_tokens(p1, 1);
  EXPECT_THROW(Unfolding::build(stg), Error);
}

TEST(Unfolding, UnsafeInitialMarkingDetected) {
  Stg stg;
  const SignalId a = stg.add_signal("a", stg::SignalKind::Output);
  const auto a_up = stg.add_transition(a, stg::Polarity::Rise);
  auto& net = stg.net();
  const auto p = net.add_place("p");
  const auto q = net.add_place("q");
  net.add_arc(p, a_up);
  net.add_arc(a_up, q);
  net.set_initial_tokens(p, 2);
  EXPECT_THROW(Unfolding::build(stg), CapacityError);
}

TEST(Unfolding, InconsistentStgDetected) {
  Stg stg;
  const SignalId a = stg.add_signal("a", stg::SignalKind::Output);
  const auto up1 = stg.add_transition(a, stg::Polarity::Rise);
  const auto up2 = stg.add_transition(a, stg::Polarity::Rise);
  auto& net = stg.net();
  const auto p = net.add_place("p");
  const auto q = net.add_place("q");
  const auto r = net.add_place("r");
  net.add_arc(p, up1);
  net.add_arc(up1, q);
  net.add_arc(q, up2);
  net.add_arc(up2, r);
  net.set_initial_tokens(p, 1);
  EXPECT_THROW(Unfolding::build(stg), ImplementabilityError);
}

TEST(Unfolding, SegmentPersistencyCleanOnFig1) {
  const Unfolding unf = Unfolding::build(stg::make_paper_fig1());
  EXPECT_TRUE(segment_persistency_violations(unf).empty());
}

TEST(Unfolding, SegmentPersistencyDetectsOutputChoice) {
  Stg stg;
  const SignalId a = stg.add_signal("a", stg::SignalKind::Output);
  const SignalId b = stg.add_signal("b", stg::SignalKind::Output);
  const auto a_up = stg.add_transition(a, stg::Polarity::Rise);
  const auto b_up = stg.add_transition(b, stg::Polarity::Rise);
  const auto a_dn = stg.add_transition(a, stg::Polarity::Fall);
  const auto b_dn = stg.add_transition(b, stg::Polarity::Fall);
  auto& net = stg.net();
  const auto choice = net.add_place("choice");
  const auto pa = net.add_place("pa");
  const auto pb = net.add_place("pb");
  net.add_arc(choice, a_up);
  net.add_arc(choice, b_up);
  net.add_arc(a_up, pa);
  net.add_arc(pa, a_dn);
  net.add_arc(b_up, pb);
  net.add_arc(pb, b_dn);
  net.add_arc(a_dn, choice);
  net.add_arc(b_dn, choice);
  net.set_initial_tokens(choice, 1);
  const Unfolding unf = Unfolding::build(stg);
  const auto violations = segment_persistency_violations(unf);
  ASSERT_FALSE(violations.empty());
  EXPECT_FALSE(violations.front().describe(unf).empty());
}

TEST(Unfolding, EventNamesReadable) {
  const Unfolding unf = Unfolding::build(stg::make_paper_fig1());
  EXPECT_EQ(unf.event_name(Unfolding::initial_event()), "_|_");
  const EventId a_up = event_by_name(unf, "a+");
  EXPECT_NE(unf.event_name(a_up).find("a+@"), std::string::npos);
  const ConditionId c0(0);
  EXPECT_NE(unf.condition_name(c0).find("@0"), std::string::npos);
}

/// Fixed-width little-endian fields; lists carry a u64 length prefix.
struct ByteStream {
  std::string bytes;

  void u8(std::uint8_t v) { bytes.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int shift = 0; shift < 32; shift += 8) u8(static_cast<std::uint8_t>(v >> shift));
  }
  void u64(std::uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) u8(static_cast<std::uint8_t>(v >> shift));
  }
  template <typename Ids>
  void ids(const Ids& list) {
    u64(list.size());
    for (const auto id : list) u32(id.value);
  }
  void bits(const Bitset& set) {
    u64(set.size());
    for (const std::uint64_t word : set.words()) u64(word);
  }
};

/// FNV-1a 64 of the segment as a byte stream read through the public
/// accessors: every event's transition, pre/postset, local configuration,
/// configuration size, code, final marking, cutoff flag and image, every
/// condition's place, producer and consumers, and the triangular condition
/// co matrix (row c holds co(c, b) for b < c).  Equal hashes mean the
/// unfolder built the same segment.
std::uint64_t segment_hash(const Unfolding& unf) {
  const std::size_t events = unf.event_count();
  const std::size_t conditions = unf.condition_count();
  const auto event = [](std::size_t e) { return EventId(static_cast<std::uint32_t>(e)); };
  const auto condition = [](std::size_t c) {
    return ConditionId(static_cast<std::uint32_t>(c));
  };
  ByteStream out;
  out.u64(unf.stats().events);
  out.u64(unf.stats().conditions);
  out.u64(unf.stats().cutoffs);

  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u32(unf.transition(event(e)).value);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.ids(unf.preset(event(e)));
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.ids(unf.postset(event(e)));
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.bits(unf.local_config(event(e)));
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u64(unf.config_size(event(e)));
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) {
    const stg::Code& code = unf.code(event(e));
    out.u64(code.size());
    for (const std::uint8_t bit : code) out.u8(bit);
  }
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) {
    const pn::Marking& marking = unf.final_marking(event(e));
    out.u64(marking.place_count());
    for (std::size_t p = 0; p < marking.place_count(); ++p) {
      out.u32(marking.tokens(pn::PlaceId(static_cast<std::uint32_t>(p))));
    }
  }
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u8(unf.is_cutoff(event(e)) ? 1 : 0);
  out.u64(events);
  for (std::size_t e = 0; e < events; ++e) out.u32(unf.cutoff_image(event(e)).value);

  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) out.u32(unf.place(condition(c)).value);
  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) out.u32(unf.producer(condition(c)).value);
  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) out.ids(unf.consumers(condition(c)));
  out.u64(conditions);
  for (std::size_t c = 0; c < conditions; ++c) {
    Bitset row(c);
    for (std::size_t b = 0; b < c; ++b) {
      if (unf.co(condition(c), condition(b))) row.set(b);
    }
    out.bits(row);
  }
  return fnv1a64(out.bytes);
}

TEST(Unfolding, SegmentBytesArePinned) {
  std::vector<std::pair<std::string, Stg>> specs;
  for (const benchmarks::Benchmark& bench : benchmarks::table1()) {
    specs.emplace_back(bench.name, bench.make());
  }
  specs.emplace_back("muller29", stg::make_muller_pipeline(29));
  specs.emplace_back("muller44", stg::make_muller_pipeline(44));
  specs.emplace_back("muller59", stg::make_muller_pipeline(59));
  specs.emplace_back("cfpp34", stg::make_counterflow_pipeline(16));
  const std::map<std::string, std::uint64_t> pinned = {
      {"imec-master-read.csc", 0xf13e730fc539ae92u},
      {"nowick.asn", 0xef813f8bd6f110d2u},
      {"nowick", 0x1c94a63b4e52ff93u},
      {"par_4.csc", 0x19a9955481d93109u},
      {"sis-master-read.csc", 0x3ba3d1a73736ab45u},
      {"tsbmSIBRK", 0xf1788788e1a7e286u},
      {"pn_stg_example", 0x02dc9ece30c26f2bu},
      {"forever_ordered", 0xa35894e94564706eu},
      {"alloc-outbound", 0x8ace1788b5769065u},
      {"mp-forward-pkt", 0x2507369e05523c1au},
      {"nak-pa", 0x8826bdeb2c526204u},
      {"pe-send-ifc", 0x8548f75cf86cce7bu},
      {"ram-read-sbuf", 0xae8223a848294185u},
      {"rcv-setup", 0xc6fba2995b10781bu},
      {"sbuf-ram-write", 0xfe200221cfb514ccu},
      {"sbuf-read-ctl.old", 0x4d92020d05080e05u},
      {"sbuf-read-ctl", 0x2398e9bcd72fdbe1u},
      {"sbuf-send-ctl", 0x6cd50c8b11bfe9e4u},
      {"sbuf-send-pkt2", 0x99f626cb13776608u},
      {"sbuf-send-pkt2.yun", 0x6f5ca261886fcb65u},
      {"sendr-done", 0xeef36c793737c3b9u},
      {"muller29", 0x2e4d7132ce317db3u},
      {"muller44", 0x5d0a07dc2e03c232u},
      {"muller59", 0xdb845ef7807bff73u},
      {"cfpp34", 0x72f40f87fe372bdcu},
  };
  ASSERT_EQ(pinned.size(), specs.size());
  for (const auto& [name, stg] : specs) {
    const std::uint64_t hash = segment_hash(Unfolding::build(stg));
    EXPECT_EQ(hash, pinned.at(name)) << name << " now hashes to 0x" << std::hex << hash;
  }
}

}  // namespace
}  // namespace punt::unf
