// Tests for the task-graph synthesis pipeline: determinism across job
// counts (results AND failure diagnostics), the batch front end on mixed
// success/failure workloads, per-entry cancellation after a CSC failure,
// distinct-key-first model scheduling, the signal index, the set/reset
// MinimizeStats aggregation, and state-graph batches at several job counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"
#include "src/util/task_graph.hpp"

namespace punt::core {
namespace {

using stg::Stg;

/// Everything except the timing fields must match bit-for-bit.
void expect_identical(const SynthesisResult& a, const SynthesisResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.signals.size(), b.signals.size()) << label;
  EXPECT_EQ(a.literal_count(), b.literal_count()) << label;
  EXPECT_EQ(a.refinement_iterations, b.refinement_iterations) << label;
  EXPECT_EQ(a.exact_fallbacks, b.exact_fallbacks) << label;
  for (std::size_t i = 0; i < a.signals.size(); ++i) {
    const SignalImplementation& sa = a.signals[i];
    const SignalImplementation& sb = b.signals[i];
    EXPECT_EQ(sa.signal, sb.signal) << label << " slot " << i;
    EXPECT_EQ(sa.name, sb.name) << label << " slot " << i;
    EXPECT_TRUE(sa.on_cover == sb.on_cover) << label << " on_cover of " << sa.name;
    EXPECT_TRUE(sa.off_cover == sb.off_cover) << label << " off_cover of " << sa.name;
    EXPECT_TRUE(sa.gate == sb.gate) << label << " gate of " << sa.name;
    EXPECT_EQ(sa.gate_covers_on, sb.gate_covers_on) << label << " " << sa.name;
    EXPECT_TRUE(sa.set_function == sb.set_function) << label << " set of " << sa.name;
    EXPECT_TRUE(sa.reset_function == sb.reset_function)
        << label << " reset of " << sa.name;
    EXPECT_EQ(sa.used_exact_fallback, sb.used_exact_fallback) << label << " " << sa.name;
    EXPECT_EQ(sa.csc_conflict, sb.csc_conflict) << label << " " << sa.name;
    EXPECT_EQ(sa.min_stats.final_literals, sb.min_stats.final_literals)
        << label << " " << sa.name;
    EXPECT_EQ(sa.min_stats.final_cubes, sb.min_stats.final_cubes)
        << label << " " << sa.name;
    // The aggregate predicate the benches use must agree with the
    // field-by-field checks above.
    EXPECT_TRUE(sa.same_logic(sb)) << label << " same_logic of " << sa.name;
  }
}

TEST(Pipeline, EveryRegistryEntryIsDeterministicAcrossJobCounts) {
  for (const auto& bench : benchmarks::table1()) {
    const Stg stg = bench.make();
    SynthesisOptions serial;
    serial.jobs = 1;
    const SynthesisResult reference = synthesize(stg, serial);
    for (const std::size_t jobs : {2u, 8u}) {
      SynthesisOptions parallel;
      parallel.jobs = jobs;
      const SynthesisResult result = synthesize(stg, parallel);
      expect_identical(reference, result,
                       bench.name + " (jobs=" + std::to_string(jobs) + ")");
    }
  }
}

TEST(Pipeline, BatchMatchesPerStgSynthesisAtEveryJobCount) {
  const auto& registry = benchmarks::table1();
  std::vector<Stg> stgs;
  for (const auto& bench : registry) stgs.push_back(bench.make());

  BatchOptions serial;
  serial.jobs = 1;
  BatchOptions parallel;
  parallel.jobs = 8;
  const BatchResult batch1 = synthesize_batch(stgs, serial);
  const BatchResult batch8 = synthesize_batch(stgs, parallel);
  ASSERT_EQ(batch1.entries.size(), registry.size());
  ASSERT_EQ(batch8.entries.size(), registry.size());
  EXPECT_EQ(batch1.failures, 0u);
  EXPECT_EQ(batch8.failures, 0u);
  EXPECT_EQ(batch8.jobs, 8u);

  for (std::size_t i = 0; i < registry.size(); ++i) {
    ASSERT_TRUE(batch1.entries[i].ok) << batch1.entries[i].error;
    ASSERT_TRUE(batch8.entries[i].ok) << batch8.entries[i].error;
    expect_identical(batch1.entries[i].result, batch8.entries[i].result,
                     registry[i].name + " (batch1 vs batch8)");
    const SynthesisResult direct = synthesize(stgs[i]);
    expect_identical(direct, batch8.entries[i].result,
                     registry[i].name + " (direct vs batch)");
  }
}

TEST(Pipeline, MixedBatchKeepsResultsAndErrorTextIdenticalAcrossJobCounts) {
  // The full registry plus failing entries interleaved — a CSC conflict
  // (throw_on_csc) mid-batch and a duplicate of it at the end.  Results AND
  // per-entry error text must be byte-identical at jobs ∈ {1, 2, 8}: the
  // failure diagnostic is the lowest-index failing signal's, whatever
  // worker count ran the graph.
  const auto& registry = benchmarks::table1();
  std::vector<Stg> stgs;
  stgs.push_back(stg::make_vme_bus());  // known CSC conflict
  for (const auto& bench : registry) stgs.push_back(bench.make());
  stgs.push_back(stg::make_vme_bus());

  BatchOptions options;
  options.synthesis.throw_on_csc = true;
  options.jobs = 1;
  const BatchResult reference = synthesize_batch(stgs, options);
  ASSERT_EQ(reference.entries.size(), registry.size() + 2);
  EXPECT_EQ(reference.failures, 2u);
  EXPECT_FALSE(reference.entries.front().ok);
  EXPECT_NE(reference.entries.front().error.find("Complete State Coding"),
            std::string::npos);
  EXPECT_FALSE(reference.entries.back().ok);
  EXPECT_EQ(reference.entries.front().error, reference.entries.back().error);

  for (const std::size_t jobs : {2u, 8u}) {
    BatchOptions parallel = options;
    parallel.jobs = jobs;
    const BatchResult batch = synthesize_batch(stgs, parallel);
    ASSERT_EQ(batch.entries.size(), reference.entries.size());
    EXPECT_EQ(batch.failures, reference.failures);
    for (std::size_t i = 0; i < reference.entries.size(); ++i) {
      const std::string label =
          "entry " + std::to_string(i) + " jobs=" + std::to_string(jobs);
      ASSERT_EQ(batch.entries[i].ok, reference.entries[i].ok) << label;
      if (reference.entries[i].ok) {
        expect_identical(reference.entries[i].result, batch.entries[i].result, label);
      } else {
        EXPECT_EQ(batch.entries[i].error, reference.entries[i].error) << label;
      }
    }
  }
}

TEST(Pipeline, ParallelCscFailureMatchesSequentialDiagnostic) {
  const Stg stg = stg::make_vme_bus();  // known CSC conflict
  std::string sequential_message;
  try {
    SynthesisOptions serial;
    serial.jobs = 1;
    synthesize(stg, serial);
    FAIL() << "expected CscError";
  } catch (const CscError& e) {
    sequential_message = e.what();
  }
  try {
    SynthesisOptions parallel;
    parallel.jobs = 8;
    synthesize(stg, parallel);
    FAIL() << "expected CscError";
  } catch (const CscError& e) {
    // The lowest-index failure is the one that surfaces, so the parallel
    // run reports the same signal as the sequential left-to-right loop.
    EXPECT_EQ(sequential_message, std::string(e.what()));
  }
}

TEST(Pipeline, CscFailureCancelsTheSignalsDownstreamNodes) {
  // After a derive node fails with CscError, that signal's minimize node
  // and the entry's assembly node must be Cancelled — not run — while the
  // sibling signals' nodes still execute.  Observable in the trace.
  const Stg stg = stg::make_vme_bus();
  SynthesisOptions options;
  options.jobs = 2;
  util::TaskTrace trace;
  try {
    synthesize(stg, options, nullptr, &trace);
    FAIL() << "expected CscError";
  } catch (const CscError&) {
  }
  ASSERT_FALSE(trace.nodes.empty());

  std::size_t failed_derives = 0, cancelled_minimizes = 0, done_nodes = 0;
  bool assembly_cancelled = false;
  for (const util::TraceNode& node : trace.nodes) {
    if (node.status == util::TaskStatus::Done) ++done_nodes;
    if (node.kind == "derive" && node.status == util::TaskStatus::Failed) {
      ++failed_derives;
      // The failed signal's minimize node depends on it and must be
      // cancelled, never run.
      for (const util::TraceNode& dependent : trace.nodes) {
        if (dependent.kind == "minimize" &&
            std::find(dependent.deps.begin(), dependent.deps.end(), node.id) !=
                dependent.deps.end()) {
          ++cancelled_minimizes;
          EXPECT_EQ(dependent.status, util::TaskStatus::Cancelled)
              << "minimize of failed signal " << node.label << " ran";
          EXPECT_EQ(dependent.worker, -1);
        }
      }
    }
    if (node.kind == "assembly") {
      assembly_cancelled = node.status == util::TaskStatus::Cancelled;
    }
  }
  EXPECT_GE(failed_derives, 1u);
  EXPECT_EQ(cancelled_minimizes, failed_derives);
  EXPECT_TRUE(assembly_cancelled) << "assembly of a failed entry must not run";
  EXPECT_GT(done_nodes, 0u) << "sibling signals' nodes still execute";
}

TEST(Pipeline, RepeatedKeyEntriesScheduleBehindOneModelBuild) {
  // A batch repeating one STG through a cache must build the model once;
  // every duplicate resolves as a *completed* hit (credited to
  // saved_seconds — an in-flight join is not), and the trace shows each
  // repeat's model node starting after the primary build ended.
  constexpr std::size_t kRepeats = 6;
  std::vector<Stg> stgs(kRepeats, stg::make_paper_fig1());
  ModelCache cache;
  util::TaskTrace trace;
  BatchOptions options;
  options.jobs = 4;
  options.cache = &cache;
  options.trace = &trace;
  const BatchResult batch = synthesize_batch(stgs, options);
  ASSERT_EQ(batch.failures, 0u);
  for (std::size_t i = 1; i < kRepeats; ++i) {
    expect_identical(batch.entries[0].result, batch.entries[i].result,
                     "repeat " + std::to_string(i));
  }

  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, kRepeats - 1);
  EXPECT_GT(stats.saved_seconds, 0.0) << "duplicates joined an in-flight build "
                                         "instead of scheduling behind it";

  std::vector<const util::TraceNode*> model_nodes;
  for (const util::TraceNode& node : trace.nodes) {
    if (node.kind == "model") model_nodes.push_back(&node);
  }
  ASSERT_EQ(model_nodes.size(), kRepeats);
  // Exactly one primary (no deps, dispatch priority 0); every repeat
  // depends on it and starts after it ended.
  const util::TraceNode* primary = model_nodes.front();
  EXPECT_TRUE(primary->deps.empty());
  for (std::size_t i = 1; i < model_nodes.size(); ++i) {
    const util::TraceNode* repeat = model_nodes[i];
    ASSERT_EQ(repeat->deps.size(), 1u);
    EXPECT_EQ(repeat->deps.front(), primary->id);
    EXPECT_GT(repeat->priority, primary->priority);
    EXPECT_GE(repeat->wall_start, primary->wall_end);
  }
}

TEST(Pipeline, BatchWithoutCacheBuildsEachModelIndependently) {
  // No cache → no cross-entry coupling: every model node is a root.
  std::vector<Stg> stgs(3, stg::make_paper_fig1());
  util::TaskTrace trace;
  BatchOptions options;
  options.jobs = 2;
  options.trace = &trace;
  const BatchResult batch = synthesize_batch(stgs, options);
  EXPECT_EQ(batch.failures, 0u);
  std::size_t root_models = 0;
  for (const util::TraceNode& node : trace.nodes) {
    if (node.kind == "model") {
      EXPECT_TRUE(node.deps.empty());
      ++root_models;
    }
  }
  EXPECT_EQ(root_models, 3u);
}

TEST(Pipeline, BatchReportsCriticalPath) {
  std::vector<Stg> stgs;
  stgs.push_back(stg::make_paper_fig1());
  stgs.push_back(stg::make_muller_pipeline(3));
  BatchOptions options;
  options.jobs = 2;
  const BatchResult batch = synthesize_batch(stgs, options);
  EXPECT_EQ(batch.failures, 0u);
  EXPECT_GT(batch.critical_path_seconds, 0.0);
  EXPECT_LE(batch.critical_path_seconds, batch.wall_seconds + 1e-6);
}

TEST(Pipeline, ImplementationLookupIsIndexedAndDiagnosesMisses) {
  const Stg stg = stg::make_paper_fig1();
  const SynthesisResult result = synthesize(stg);
  for (const SignalImplementation& impl : result.signals) {
    EXPECT_EQ(&result.implementation(impl.signal), &impl);
    EXPECT_EQ(impl.name, stg.signal_name(impl.signal));
  }
  // An input signal has no implementation; the error must name the known
  // signals so the caller can see what *is* available.
  const std::vector<stg::SignalId> targets = stg.non_input_signals();
  for (std::size_t v = 0; v < stg.signal_count(); ++v) {
    const stg::SignalId id{static_cast<std::uint32_t>(v)};
    if (std::find(targets.begin(), targets.end(), id) != targets.end()) continue;
    try {
      result.implementation(id);
      FAIL() << "expected ValidationError for input signal " << v;
    } catch (const ValidationError& e) {
      const std::string message = e.what();
      for (const SignalImplementation& impl : result.signals) {
        EXPECT_NE(message.find(impl.name), std::string::npos)
            << "miss diagnostic should list known signal " << impl.name;
      }
    }
  }
}

TEST(Pipeline, LatchMinStatsAggregateSetAndReset) {
  // On a latch architecture the reported stats must cover both espresso
  // runs: final cubes/literals equal the set+reset function sizes.
  const Stg stg = stg::make_muller_pipeline(3);
  SynthesisOptions options;
  options.architecture = Architecture::StandardC;
  const SynthesisResult result = synthesize(stg, options);
  ASSERT_FALSE(result.signals.empty());
  for (const SignalImplementation& impl : result.signals) {
    EXPECT_EQ(impl.min_stats.final_cubes,
              impl.set_function.cube_count() + impl.reset_function.cube_count())
        << impl.name;
    EXPECT_EQ(impl.min_stats.final_literals,
              impl.set_function.literal_count() + impl.reset_function.literal_count())
        << impl.name;
    EXPECT_GT(impl.min_stats.initial_cubes, 0u) << impl.name;
  }
}

TEST(Pipeline, MixedOptionsBatchMatchesIndividualSynthesis) {
  // The per-entry-options overload: entries differing in method and
  // architecture share one union graph yet come out identical to running
  // each alone with its own options.
  const Stg fig1 = stg::make_paper_fig1();
  const Stg muller = stg::make_muller_pipeline(3);
  std::vector<BatchRequest> requests(4);
  requests[0].stg = &fig1;
  requests[0].synthesis.method = Method::UnfoldingApprox;
  requests[1].stg = &fig1;
  requests[1].synthesis.method = Method::StateGraph;
  requests[2].stg = &muller;
  requests[2].synthesis.architecture = Architecture::StandardC;
  requests[3].stg = &muller;
  requests[3].synthesis.architecture = Architecture::RsLatch;

  BatchOptions options;
  options.jobs = 4;
  const BatchResult batch =
      synthesize_batch(std::span<const BatchRequest>(requests), options);
  ASSERT_EQ(batch.entries.size(), requests.size());
  ASSERT_EQ(batch.failures, 0u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const SynthesisResult direct =
        synthesize(*requests[i].stg, requests[i].synthesis);
    expect_identical(direct, batch.entries[i].result,
                     "mixed-options entry " + std::to_string(i));
  }
}

TEST(Pipeline, DifferingArchitectureEntriesShareOneModelBuild) {
  // The cache key covers only model-affecting options, so entries that
  // diverge downstream (architecture) still dedup to one phase-1 build.
  const Stg stg = stg::make_paper_fig1();
  std::vector<BatchRequest> requests(3);
  requests[0].stg = &stg;
  requests[0].synthesis.architecture = Architecture::ComplexGate;
  requests[1].stg = &stg;
  requests[1].synthesis.architecture = Architecture::StandardC;
  requests[2].stg = &stg;
  requests[2].synthesis.architecture = Architecture::RsLatch;

  ModelCache cache;
  BatchOptions options;
  options.jobs = 2;
  options.cache = &cache;
  const BatchResult batch =
      synthesize_batch(std::span<const BatchRequest>(requests), options);
  ASSERT_EQ(batch.failures, 0u);
  const ModelCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u) << "one model build serves all architectures";
  EXPECT_EQ(stats.hits, 2u);
  // And the model *kind* DOES affect the key: a state-graph entry must not
  // reuse the unfolding segment.  (Exact and approx unfolding deliberately
  // share one — they consume the same segment.)
  std::vector<BatchRequest> sg(1);
  sg[0].stg = &stg;
  sg[0].synthesis.method = Method::StateGraph;
  const BatchResult second =
      synthesize_batch(std::span<const BatchRequest>(sg), options);
  ASSERT_EQ(second.failures, 0u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(Pipeline, BatchCapturesPerEntryFailures) {
  std::vector<Stg> stgs;
  stgs.push_back(stg::make_paper_fig1());
  stgs.push_back(stg::make_vme_bus());  // CSC conflict → entry-level failure
  stgs.push_back(stg::make_muller_pipeline(2));

  BatchOptions options;
  options.jobs = 4;
  const BatchResult batch = synthesize_batch(stgs, options);
  ASSERT_EQ(batch.entries.size(), 3u);
  EXPECT_TRUE(batch.entries[0].ok);
  EXPECT_FALSE(batch.entries[1].ok);
  EXPECT_NE(batch.entries[1].error.find("Complete State Coding"), std::string::npos);
  EXPECT_TRUE(batch.entries[2].ok);
  EXPECT_EQ(batch.failures, 1u);
  EXPECT_EQ(batch.literal_count(), batch.entries[0].result.literal_count() +
                                       batch.entries[2].result.literal_count());
  // The typed exception rides along for single-entry callers.
  ASSERT_NE(batch.entries[1].exception, nullptr);
  EXPECT_THROW(std::rethrow_exception(batch.entries[1].exception), CscError);
}

// --- State-graph batches ---------------------------------------------------------

/// The registry plus Muller pipelines of 4, 9 and 11 stages.
std::vector<std::pair<std::string, Stg>> state_graph_specs() {
  std::vector<std::pair<std::string, Stg>> specs;
  for (const auto& bench : benchmarks::table1()) specs.emplace_back(bench.name, bench.make());
  for (const std::size_t stages : {4u, 9u, 11u}) {
    specs.emplace_back("muller" + std::to_string(stages), stg::make_muller_pipeline(stages));
  }
  return specs;
}

TEST(Pipeline, StateGraphBatchAtFourJobsMatchesOneJob) {
  // Every entry twice through one cache: the repeat reuses the cached
  // model, and at four jobs the signals of one model run concurrently.
  std::vector<Stg> stgs;
  for (int copy = 0; copy < 2; ++copy) {
    for (auto& [name, stg] : state_graph_specs()) stgs.push_back(std::move(stg));
  }
  BatchOptions serial;
  serial.synthesis.method = Method::StateGraph;
  serial.synthesis.throw_on_csc = false;
  ModelCache serial_cache;
  serial.cache = &serial_cache;
  BatchOptions parallel = serial;
  ModelCache parallel_cache;
  parallel.cache = &parallel_cache;
  parallel.jobs = 4;
  const BatchResult a = synthesize_batch(stgs, serial);
  const BatchResult b = synthesize_batch(stgs, parallel);
  ASSERT_EQ(a.entries.size(), b.entries.size());
  EXPECT_EQ(a.failures, 0u);
  EXPECT_EQ(b.failures, 0u);
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    ASSERT_TRUE(a.entries[i].ok && b.entries[i].ok) << stgs[i].name();
    expect_identical(a.entries[i].result, b.entries[i].result, stgs[i].name() + " (jobs=4)");
  }
  EXPECT_EQ(a.literal_count(), b.literal_count());
}

}  // namespace
}  // namespace punt::core
