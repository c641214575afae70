// The staged synthesis pipeline, as a dependency-aware task graph.
//
// The monolithic synthesize() of the seed is decomposed into explicit
// stages (DESIGN.md §7), and the stages are emitted as *graph nodes*
// (util::TaskGraph) instead of a flat index loop:
//
//   1. SemanticModel::build — the shared semantic model: STG validation,
//      unfolding segment or state graph, general implementability checks.
//      One model node per distinct (STG, model options) pair; entries that
//      repeat an in-batch key depend on the first builder's node, so a
//      parameter sweep never parks workers behind one in-flight build.
//   2. DeriveTask::run — phase 2 for one signal: cover derivation (per
//      method), refinement, exact fallback and the CSC check.
//   3. MinimizeTask::run — phase 3 for one signal: espresso and the
//      architecture assembly.  Separately schedulable from phase 2, so an
//      expensive signal's espresso no longer blocks its siblings' covers.
//   4. Assembly — a per-entry node that collects the slots *in
//      target-signal order* and sums the per-task timings, so output and
//      reported work are bit-identical whatever the worker count.
//
// synthesize() (synthesis.hpp) is a one-entry batch; synthesize_batch()
// builds the union graph of every entry over ONE Executor, letting signals
// of different STGs interleave freely — on registries where a few signals
// dominate, that shortens the critical path that the per-entry loop could
// not.  Failure stays per entry: a failed node cancels its *downstream*
// nodes only, and the diagnostic that surfaces is the one of the
// lowest-index failing signal, exactly what a sequential left-to-right loop
// would have reported.
#pragma once

#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "src/core/synthesis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/stopwatch.hpp"
#include "src/util/task_graph.hpp"
#include "src/util/thread_pool.hpp"

namespace punt::core {

class ModelCache;  // model_cache.hpp; forward-declared to avoid a cycle

/// The *model-affecting* subset of SynthesisOptions: exactly the fields that
/// change what SemanticModel::build() produces.  Everything else in
/// SynthesisOptions (architecture, approximation policy, minimisation,
/// cut budget, CSC handling, jobs) only steers the per-signal derivation, so
/// A1/A4 architecture variants — and the exact and approximate unfolding
/// methods, which consume the same segment — of one STG share one model.
struct ModelOptions {
  /// Which semantic object phase 1 constructs.  Method::UnfoldingApprox and
  /// Method::UnfoldingExact build the *same* unfolding segment, so they map
  /// to one kind (and one cache entry).
  enum class Kind : std::uint8_t { Unfolding, StateGraph };

  Kind kind = Kind::Unfolding;
  bool check_persistency = true;
  std::size_t state_budget = 0;  // StateGraph only
  std::size_t event_budget = 0;  // Unfolding only

  /// Projects the model-affecting fields out of the full option set.
  static ModelOptions from(const SynthesisOptions& options);

  /// Canonical text of the options that shape the model of this kind (the
  /// irrelevant budget is omitted, so e.g. two StateGraph runs that differ
  /// only in event_budget share a cache entry).  Part of the ModelCache key.
  std::string fingerprint() const;
};

/// Stage 1 output: the immutable semantic model shared (read-only) by every
/// derive/minimize node — of one synthesis run, or of *many* runs when the
/// model is handed out by a ModelCache.  It owns a copy of the source STG so
/// a cached model never dangles when the caller's STG dies.
struct SemanticModel {
  stg::Stg stg;  // owned copy; signal/transition ids match the source STG
  ModelOptions options;
  std::vector<stg::SignalId> targets;  // outputs + internals, ascending

  // Exactly one of the two is set, per options.kind.
  std::unique_ptr<const unf::Unfolding> unfolding;
  std::unique_ptr<const sg::StateGraph> sgraph;

  double build_seconds = 0;        // wall-clock model-construction time
  unf::UnfoldStats unfold_stats;   // segment size (unfolding kind)
  std::size_t sg_states = 0;       // SG size (StateGraph kind)

  /// Builds the model and runs the general checks (validation, dummy
  /// rejection, persistency).  Throws like the seed's synthesize() phase 1.
  static std::shared_ptr<const SemanticModel> build(const stg::Stg& stg,
                                                    const SynthesisOptions& options);
};

/// One synthesis run's view: the shared model plus the derivation-only
/// options and this run's clock.
struct PipelineContext {
  std::shared_ptr<const SemanticModel> model;
  SynthesisOptions options;
  /// Wall-clock this run spent *resolving* its model: the full build on a
  /// cache miss (or without a cache), near zero on a cache hit.  The run's
  /// share of TotTim — NOT the model's build_seconds, which a hit reuses.
  double model_seconds = 0;

  /// Resolves the model — through `cache` when given (lookup-or-build),
  /// otherwise by building it fresh — and stamps the derivation options.
  /// `key`, when given with a cache, is the precomputed ModelCache::key_of
  /// text: the batch front end already serialises every entry's STG for
  /// in-batch dedup, and passing the key down avoids a second write_g per
  /// lookup (the dominant cost of an all-hit run).
  static PipelineContext build(const stg::Stg& stg, const SynthesisOptions& options,
                               ModelCache* cache = nullptr,
                               const std::string* key = nullptr);
};

/// Phase 2 for one signal: cover derivation, refinement, exact fallback and
/// the CSC check.  The task reads the shared context and writes only its own
/// slot, making derive nodes trivially safe to run concurrently; the
/// excitation-region covers it leaves behind are the inputs MinimizeTask
/// consumes for the latch architectures.
struct DeriveTask {
  stg::SignalId signal;  // input; everything below is output of run()

  SignalImplementation impl;  // covers + flags; gate functions added by phase 3
  logic::Cover er_on;         // excitation-region covers (latch archs only)
  logic::Cover er_off;
  std::size_t refinement_iterations = 0;
  std::size_t exact_fallbacks = 0;
  double derive_seconds = 0;  // this task's share of SynTim

  /// Throws CscError (when options.throw_on_csc) or ValidationError exactly
  /// as the seed's sequential loop did for this signal.
  void run(const PipelineContext& context);
};

/// Phase 3 for one signal: espresso and architecture assembly, completing
/// the SignalImplementation that `derive` started.  Scheduled as its own
/// graph node, dependent on that signal's derive node only — so one
/// expensive minimisation cannot serialise behind an unrelated derivation.
struct MinimizeTask {
  double minimize_seconds = 0;  // this task's share of EspTim

  /// No-op when the derive phase recorded a CSC conflict (no correct gate
  /// exists; the covers stay reported).
  void run(const PipelineContext& context, DeriveTask& derive);
};

/// Worker-count policy plus the (lazily created) pool that task graphs run
/// on.  Replaces the flat index Scheduler: instead of `run(count, fn)` over
/// independent indices, callers emit a TaskGraph and hand it here.
///
/// An Executor may be shared: run() is thread-safe (any number of graphs
/// can execute over the one pool concurrently — the TaskGraph contract),
/// which is what lets the serve daemon keep a single warm pool resident and
/// dispatch every client request through it.  Note that with jobs() == 1
/// graphs run inline on each *calling* thread, so sharing a 1-job executor
/// across threads serialises nothing.
class Executor {
 public:
  /// `jobs`: 1 = inline on the calling thread (no pool); 0 = one worker per
  /// hardware thread; otherwise that many workers.
  explicit Executor(std::size_t jobs = 1);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  std::size_t jobs() const { return jobs_; }

  /// Executes `graph` to completion: inline in deterministic (priority, id)
  /// order when jobs() == 1, otherwise across the shared worker pool.
  /// Node failures are captured in the graph, never thrown from here.
  /// Safe to call from several threads at once (each with its own graph).
  void run(util::TaskGraph& graph);

 private:
  std::size_t jobs_ = 1;
  std::once_flag pool_once_;                // guards racing first parallel runs
  std::unique_ptr<util::ThreadPool> pool_;  // created on first parallel run
};

// --- Batch front end ---------------------------------------------------------

struct BatchOptions {
  /// Per-entry synthesis configuration.  Its `jobs` field is ignored — the
  /// batch graph schedules model/derive/minimize nodes of *all* entries
  /// over the one executor below, so intra-entry parallelism comes free.
  SynthesisOptions synthesis;
  /// Worker threads across the union graph; 1 = inline, 0 = hardware default.
  std::size_t jobs = 1;
  /// Optional shared model cache.  Entries of one batch — and successive
  /// batches over the same STGs (the A4 architecture sweep) — then share
  /// one SemanticModel per distinct (STG, model options) pair.  Within a
  /// batch, repeats of one key *depend on* the first builder's node instead
  /// of racing it: distinct keys get built first and duplicate entries
  /// resolve as completed-entry cache hits, never as in-flight joins that
  /// park a worker.  Not owned.
  ModelCache* cache = nullptr;
  /// When set, receives the executed schedule (node timings, workers,
  /// critical path) — what `--trace-schedule` serialises.  Not owned.
  util::TaskTrace* trace = nullptr;
  /// Optional resident executor.  When set, the batch runs over *its* pool
  /// (the `jobs` field above is ignored) instead of a per-call one — the
  /// serve daemon passes the executor it keeps warm across requests, so
  /// concurrent client batches interleave on one pool with no per-request
  /// thread spin-up.  Not owned; must outlive the call.
  Executor* executor = nullptr;
};

/// One input STG's outcome.  Failures (CSC conflicts, capacity blowups, …)
/// are captured per entry so one bad benchmark cannot sink a whole workload.
struct BatchEntry {
  bool ok = false;
  SynthesisResult result;  // meaningful only when ok
  std::string error;       // exception text when !ok
  /// The exception behind `error` — of the entry's lowest-index failing
  /// node, so the diagnostic is identical at every worker count.  Lets
  /// single-entry callers (synthesize()) rethrow the original type.
  std::exception_ptr exception;
};

struct BatchResult {
  std::vector<BatchEntry> entries;  // same order as the input span
  std::size_t jobs = 1;             // resolved worker count actually used
  double wall_seconds = 0;          // whole-batch wall-clock time
  double critical_path_seconds = 0; // longest dependency chain of the run
  std::size_t failures = 0;

  /// Sum of literal counts over the successful entries.
  std::size_t literal_count() const;
};

/// Synthesises every STG of `stgs` through one union task graph on one
/// Executor.  Results are bit-identical at any job count.
BatchResult synthesize_batch(std::span<const stg::Stg> stgs,
                             const BatchOptions& options = {});

/// One entry of a mixed-options batch: an STG plus its own full option set.
/// Its callers are the serve daemon's `server::run_synth`, which runs each
/// request as a one-entry batch with that request's options, and perfbench.
/// Entries may differ in method/arch/minimise yet share one union graph
/// (and, because the ModelCache key covers only the model-affecting
/// options, one model node whenever those agree).
struct BatchRequest {
  const stg::Stg* stg = nullptr;  // not owned; must outlive the call
  SynthesisOptions synthesis;
};

/// The mixed-options batch front end.  Identical scheduling and failure
/// semantics to the uniform overload (which delegates here);
/// `options.synthesis` is ignored — each entry carries its own.
BatchResult synthesize_batch(std::span<const BatchRequest> requests,
                             const BatchOptions& options = {});

}  // namespace punt::core
