// Registry integration sweep: every Table-1 row must load, satisfy the
// general correctness criteria, synthesise under the unfolding flow, and
// (when its SG is tractable) produce a conforming circuit; the registry as a
// whole must reproduce Table 1's literal claims.
#include <gtest/gtest.h>

#include <array>
#include <set>
#include <span>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/benchmarks/templates.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sg/analysis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/g_format.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

namespace punt::benchmarks {
namespace {

TEST(Templates, HandshakeChainShape) {
  const stg::Stg stg = handshake_chain("ring", 5);
  EXPECT_EQ(stg.signal_count(), 5u);
  EXPECT_TRUE(stg.net().is_marked_graph());
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  EXPECT_EQ(sgraph.state_count(), 10u);  // Johnson counter: 2k states
  EXPECT_TRUE(sg::has_unique_state_coding(sgraph));
}

TEST(Templates, ForkJoinShape) {
  const stg::Stg stg = fork_join("fj", {2, 3});
  EXPECT_EQ(stg.signal_count(), 6u);  // a + 5 chain signals
  EXPECT_TRUE(stg.net().is_marked_graph());
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  // Up phase: product of chain positions; plus the down phase.
  EXPECT_GT(sgraph.state_count(), 12u);
  EXPECT_TRUE(sg::csc_violations(stg, sgraph).empty());
}

TEST(Templates, ChoiceControllerShape) {
  const stg::Stg stg = choice_controller("cc", {2, 3});
  EXPECT_EQ(stg.signal_count(), 7u);  // 2 requests + 5 outputs
  EXPECT_FALSE(stg.net().is_marked_graph());
  EXPECT_TRUE(stg.net().is_free_choice());
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  EXPECT_TRUE(sg::persistency_violations(stg, sgraph).empty());
  EXPECT_TRUE(sg::csc_violations(stg, sgraph).empty());
}

TEST(Registry, HasAll21Table1Rows) {
  EXPECT_EQ(table1().size(), 21u);
  std::size_t total_signals = 0, paper_literals = 0, paper_other_literals = 0;
  for (const Benchmark& b : table1()) {
    total_signals += b.signals;
    paper_literals += b.paper_literals;
    paper_other_literals += b.paper_other_literals;
  }
  EXPECT_EQ(total_signals, 228u);  // the paper's "Total 228" row
  // The paper's parity pair: its unfolding flow against the state-graph tools.
  EXPECT_EQ(paper_literals, 592u);
  EXPECT_EQ(paper_other_literals, 580u);
}

TEST(Registry, FindByName) {
  EXPECT_EQ(find("sendr-done").signals, 4u);
  EXPECT_THROW(find("nope"), Error);
}

TEST(Registry, SignalCountsMatchPaperColumn) {
  for (const Benchmark& b : table1()) {
    const stg::Stg stg = b.make();
    EXPECT_EQ(stg.signal_count(), b.signals) << b.name;
  }
}

TEST(Registry, EveryRowRoundTripsThroughGFormat) {
  for (const Benchmark& b : table1()) {
    const stg::Stg original = b.make();
    const stg::Stg reparsed = stg::parse_g(stg::write_g(original));
    EXPECT_EQ(reparsed.signal_count(), original.signal_count()) << b.name;
    EXPECT_EQ(reparsed.net().transition_count(), original.net().transition_count())
        << b.name;
  }
}

/// Each row: general correctness criteria hold on the segment.
class RegistryRow : public ::testing::TestWithParam<int> {};

TEST_P(RegistryRow, SatisfiesGeneralCorrectnessCriteria) {
  const Benchmark& b = table1()[static_cast<std::size_t>(GetParam())];
  const stg::Stg stg = b.make();
  const unf::Unfolding unfolding = unf::Unfolding::build(stg);  // consistent + safe
  EXPECT_TRUE(segment_persistency_violations(unfolding).empty()) << b.name;
}

TEST_P(RegistryRow, SynthesisesUnderTheUnfoldingFlow) {
  const Benchmark& b = table1()[static_cast<std::size_t>(GetParam())];
  const stg::Stg stg = b.make();
  core::SynthesisOptions options;
  options.method = core::Method::UnfoldingApprox;
  const core::SynthesisResult result = core::synthesize(stg, options);
  EXPECT_EQ(result.signals.size(), stg.non_input_signals().size()) << b.name;
  EXPECT_GT(result.literal_count(), 0u) << b.name;
  for (const auto& impl : result.signals) {
    EXPECT_FALSE(impl.csc_conflict) << b.name;
  }
}

TEST_P(RegistryRow, CircuitConformsToTheStateGraph) {
  const Benchmark& b = table1()[static_cast<std::size_t>(GetParam())];
  const stg::Stg stg = b.make();
  core::SynthesisOptions options;
  options.method = core::Method::UnfoldingApprox;
  const core::SynthesisResult result = core::synthesize(stg, options);
  const net::Netlist netlist = net::Netlist::from_synthesis(stg, result);
  const sg::StateGraph sgraph = sg::StateGraph::build(stg);
  const auto violations = net::verify_conformance(sgraph, netlist);
  EXPECT_TRUE(violations.empty())
      << b.name << ": " << (violations.empty() ? "" : violations.front().detail);
}

INSTANTIATE_TEST_SUITE_P(AllRows, RegistryRow, ::testing::Range(0, 21));

// Table 1's literal claims, on the registry's in-memory STGs (bench.make(),
// the inputs of perfbench and `punt bench run`).  A `.g` round trip is a
// different input: after write_g -> parse_g the exact and state-graph flows
// total 323 literals against approx's 309, as tests/data/equations.golden
// pins.  One batch through one ModelCache runs six sweeps of the 21 rows.
TEST(Table1, LiteralClaimsHoldInOneCachedBatch) {
  using core::Architecture;
  using core::Method;
  struct Sweep {
    Method method;
    Architecture architecture;
    bool minimize;
  };
  constexpr std::array<Sweep, 6> kSweeps{{
      {Method::UnfoldingApprox, Architecture::ComplexGate, true},
      {Method::UnfoldingApprox, Architecture::StandardC, true},
      {Method::UnfoldingApprox, Architecture::RsLatch, true},
      {Method::UnfoldingExact, Architecture::ComplexGate, true},
      {Method::StateGraph, Architecture::ComplexGate, true},
      {Method::UnfoldingApprox, Architecture::ComplexGate, false},
  }};
  enum : std::size_t { kApprox, kStandardC, kRsLatch, kExact, kStateGraph, kUnminimized };

  const auto& registry = table1();
  std::vector<stg::Stg> stgs;
  stgs.reserve(registry.size());
  for (const Benchmark& b : registry) stgs.push_back(b.make());
  std::vector<core::BatchRequest> requests;
  requests.reserve(kSweeps.size() * stgs.size());
  for (const Sweep& sweep : kSweeps) {
    for (const stg::Stg& stg : stgs) {
      core::BatchRequest& request = requests.emplace_back();
      request.stg = &stg;
      request.synthesis.method = sweep.method;
      request.synthesis.architecture = sweep.architecture;
      request.synthesis.minimize = sweep.minimize;
    }
  }
  core::ModelCache cache;
  core::BatchOptions options;
  options.cache = &cache;
  const core::BatchResult batch =
      core::synthesize_batch(std::span<const core::BatchRequest>(requests), options);
  ASSERT_EQ(batch.failures, 0u);

  std::array<std::size_t, kSweeps.size()> totals{};
  for (std::size_t row = 0; row < registry.size(); ++row) {
    std::array<std::size_t, kSweeps.size()> literals{};
    for (std::size_t s = 0; s < kSweeps.size(); ++s) {
      literals[s] = batch.entries[s * registry.size() + row].result.literal_count();
      totals[s] += literals[s];
    }
    const std::string& name = registry[row].name;
    // Approximation and exact slices (§4) and the state graph give one count.
    EXPECT_EQ(literals[kExact], literals[kApprox]) << name;
    EXPECT_EQ(literals[kStateGraph], literals[kApprox]) << name;
    // Espresso never adds literals to the derived covers.
    EXPECT_LE(literals[kApprox], literals[kUnminimized]) << name;
  }
  EXPECT_EQ(totals[kApprox], 309u);
  EXPECT_EQ(totals[kStandardC], 386u);
  EXPECT_EQ(totals[kRsLatch], 386u);

  // The cache key holds only the model-affecting options, so each spec
  // builds one unfolding segment, shared by five sweeps, and one state graph.
  const core::ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2 * registry.size());
  EXPECT_EQ(stats.hits, 4 * registry.size());
  EXPECT_EQ(stats.builds, 2 * registry.size());
}

}  // namespace
}  // namespace punt::benchmarks
