#include "src/core/pipeline.hpp"

#include <algorithm>
#include <exception>
#include <unordered_map>
#include <utility>

#include "src/core/approx.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/slices.hpp"
#include "src/sg/analysis.hpp"
#include "src/util/error.hpp"

namespace punt::core {
namespace {

using logic::Cover;

/// Raw (unminimised) single-cube-containment cleanup used when the caller
/// disables espresso.
Cover tidy(Cover cover) {
  cover.make_irredundant_scc();
  return cover;
}

/// Dispatch priorities: among simultaneously-ready nodes, models go first
/// (distinct keys ahead of in-batch repeats), then derive ahead of minimize
/// so the graph widens before it deepens; assembly last.
constexpr int kPriorityModel = 0;
constexpr int kPriorityModelRepeat = 1;
constexpr int kPriorityDerive = 2;
constexpr int kPriorityMinimize = 3;
constexpr int kPriorityAssembly = 4;

}  // namespace

// --- Stage 1: shared semantic model ------------------------------------------

ModelOptions ModelOptions::from(const SynthesisOptions& options) {
  ModelOptions model;
  model.kind = options.method == Method::StateGraph ? Kind::StateGraph : Kind::Unfolding;
  model.check_persistency = options.check_persistency;
  model.state_budget = options.state_budget;
  model.event_budget = options.event_budget;
  return model;
}

std::string ModelOptions::fingerprint() const {
  // Only the fields that shape a model of this kind participate, so e.g.
  // two unfolding runs that differ in the (StateGraph-only) state_budget
  // still share one cache entry.
  std::string text = kind == Kind::StateGraph ? "sg" : "unf";
  text += check_persistency ? ";persist=1" : ";persist=0";
  if (kind == Kind::StateGraph) {
    text += ";states=" + std::to_string(state_budget);
  } else {
    text += ";events=" + std::to_string(event_budget);
  }
  return text;
}

std::shared_ptr<const SemanticModel> SemanticModel::build(
    const stg::Stg& stg, const SynthesisOptions& options) {
  Stopwatch phase;
  auto model = std::make_shared<SemanticModel>();
  model->stg = stg;  // owned copy: ids are preserved, lifetime is not shared
  model->options = ModelOptions::from(options);

  const stg::Stg& own = model->stg;
  own.validate();
  if (own.has_dummies()) {
    throw ImplementabilityError(
        "the STG contains dummy transitions; the synthesis method of the "
        "paper requires every transition to carry a signal edge");
  }
  model->targets = own.non_input_signals();

  if (model->options.kind == ModelOptions::Kind::StateGraph) {
    sg::BuildOptions build;
    build.state_budget = options.state_budget;
    model->sgraph = std::make_unique<const sg::StateGraph>(sg::StateGraph::build(own, build));
    model->sg_states = model->sgraph->state_count();
    if (options.check_persistency) {
      const auto violations = sg::persistency_violations(own, *model->sgraph);
      if (!violations.empty()) {
        throw ImplementabilityError("the STG is not semi-modular: " +
                                    violations.front().describe(own));
      }
    }
  } else {
    unf::UnfoldOptions build;
    build.event_budget = options.event_budget;
    model->unfolding =
        std::make_unique<const unf::Unfolding>(unf::Unfolding::build(own, build));
    model->unfold_stats = model->unfolding->stats();
    if (options.check_persistency) {
      const auto violations = segment_persistency_violations(*model->unfolding);
      if (!violations.empty()) {
        throw ImplementabilityError("the STG is not semi-modular: " +
                                    violations.front().describe(*model->unfolding));
      }
    }
  }
  model->build_seconds = phase.seconds();
  return model;
}

PipelineContext PipelineContext::build(const stg::Stg& stg,
                                       const SynthesisOptions& options,
                                       ModelCache* cache, const std::string* key) {
  Stopwatch resolve;
  PipelineContext context;
  context.options = options;
  if (cache != nullptr) {
    context.model = key != nullptr
                        ? cache->lookup_or_build_keyed(
                              *key, [&] { return SemanticModel::build(stg, options); })
                        : cache->lookup_or_build(stg, options);
  } else {
    context.model = SemanticModel::build(stg, options);
  }
  context.model_seconds = resolve.seconds();
  return context;
}

// --- Phase 2: one signal's covers (DeriveTask) --------------------------------

void DeriveTask::run(const PipelineContext& context) {
  if (!context.model) {
    throw ValidationError(
        "DeriveTask::run called on a PipelineContext without a model");
  }
  const SemanticModel& model = *context.model;
  const stg::Stg& stg = model.stg;
  const SynthesisOptions& options = context.options;
  const std::size_t n = stg.signal_count();
  const bool need_er = options.architecture != Architecture::ComplexGate;
  const stg::SignalId s = signal;

  impl.signal = s;
  impl.name = stg.signal_name(s);

  // Derive correct on/off covers (this signal's share of SynTim).
  // CPU time, not wall time: summed task times must measure work even when
  // the executor oversubscribes the machine.
  ThreadCpuStopwatch phase;
  switch (options.method) {
    case Method::StateGraph: {
      impl.on_cover = sg::on_cover(*model.sgraph, s);
      impl.off_cover = sg::off_cover(*model.sgraph, s);
      if (need_er) {
        er_on = sg::er_cover(stg, *model.sgraph, s, true);
        er_off = sg::er_cover(stg, *model.sgraph, s, false);
      }
      break;
    }
    case Method::UnfoldingExact: {
      const unf::Unfolding& unf = *model.unfolding;
      impl.on_cover = exact_cover(unf, s, true, options.cut_budget);
      impl.off_cover = exact_cover(unf, s, false, options.cut_budget);
      if (need_er) {
        er_on = exact_er_cover(unf, s, true, options.cut_budget);
        er_off = exact_er_cover(unf, s, false, options.cut_budget);
      }
      break;
    }
    case Method::UnfoldingApprox: {
      const unf::Unfolding& unf = *model.unfolding;
      ApproxCover on = approximate_cover(unf, s, true, options.approx_policy);
      ApproxCover off = approximate_cover(unf, s, false, options.approx_policy);
      RefineStats stats = refine_until_disjoint(unf, on, off);
      refinement_iterations += stats.iterations;
      if (stats.disjoint) {
        impl.on_cover = std::move(stats.on_union);
        impl.off_cover = std::move(stats.off_union);
        if (need_er) {
          // The refined excitation atoms are the approximated ER covers.
          const auto excitation_atoms = [n](const ApproxCover& approx) {
            Cover out(n);
            for (std::size_t k = 0; k < approx.atoms.size(); ++k) {
              if (approx.atoms[k].element.is_event) out.add_all(approx.cover(k));
            }
            out.make_irredundant_scc();
            return out;
          };
          er_on = excitation_atoms(on);
          er_off = excitation_atoms(off);
        }
      } else {
        // Refinement stalled: restore exactness per slice (DESIGN.md §5).
        ++exact_fallbacks;
        impl.used_exact_fallback = true;
        impl.on_cover = exact_cover(unf, s, true, options.cut_budget);
        impl.off_cover = exact_cover(unf, s, false, options.cut_budget);
        if (need_er) {
          er_on = exact_er_cover(unf, s, true, options.cut_budget);
          er_off = exact_er_cover(unf, s, false, options.cut_budget);
        }
      }
      break;
    }
  }
  if (impl.on_cover.intersects(impl.off_cover)) {
    // With exact covers a residual intersection is a genuine CSC conflict.
    const bool covers_exact =
        options.method != Method::UnfoldingApprox || impl.used_exact_fallback;
    if (!covers_exact) {
      // Defensive: approximate covers reported disjoint cannot intersect;
      // reaching this line is a bug, not a property of the STG.
      throw ValidationError("internal error: refined covers intersect");
    }
    impl.csc_conflict = true;
    if (options.throw_on_csc) {
      const Cover overlap = impl.on_cover.intersect(impl.off_cover);
      throw CscError("signal '" + impl.name +
                     "' has a Complete State Coding conflict: on- and "
                     "off-set share code(s) such as " +
                     (overlap.empty() ? "?" : overlap.cube(0).to_string()) +
                     "; insert a state signal and re-synthesise");
    }
  }
  derive_seconds = phase.seconds();
}

// --- Phase 3: one signal's minimisation (MinimizeTask) ------------------------

void MinimizeTask::run(const PipelineContext& context, DeriveTask& derive) {
  SignalImplementation& impl = derive.impl;
  if (impl.csc_conflict) return;  // no correct gate exists; covers reported
  const SynthesisOptions& options = context.options;

  ThreadCpuStopwatch phase;
  if (options.architecture == Architecture::ComplexGate) {
    if (options.minimize) {
      logic::MinimizeStats stats_on;
      const Cover gate_on = logic::espresso(impl.on_cover, impl.off_cover, &stats_on);
      logic::MinimizeStats stats_off;
      const Cover gate_off = logic::espresso(impl.off_cover, impl.on_cover, &stats_off);
      // The paper implements whichever phase yields the simpler gate.
      if (gate_off.literal_count() < gate_on.literal_count()) {
        impl.gate = gate_off;
        impl.gate_covers_on = false;
        impl.min_stats = stats_off;
      } else {
        impl.gate = gate_on;
        impl.gate_covers_on = true;
        impl.min_stats = stats_on;
      }
    } else {
      impl.gate = tidy(impl.on_cover);
      impl.gate_covers_on = true;
    }
  } else {
    if (options.minimize) {
      logic::MinimizeStats stats_set;
      impl.set_function = logic::espresso(derive.er_on, impl.off_cover, &stats_set);
      logic::MinimizeStats stats_reset;
      impl.reset_function = logic::espresso(derive.er_off, impl.on_cover, &stats_reset);
      // Aggregate *every* field across the set and reset runs; the seed
      // summed only the literal counts and silently kept set-phase values
      // for the rest.
      impl.min_stats = stats_set;
      impl.min_stats.initial_cubes += stats_reset.initial_cubes;
      impl.min_stats.initial_literals += stats_reset.initial_literals;
      impl.min_stats.final_cubes += stats_reset.final_cubes;
      impl.min_stats.final_literals += stats_reset.final_literals;
      impl.min_stats.iterations += stats_reset.iterations;
    } else {
      impl.set_function = tidy(derive.er_on);
      impl.reset_function = tidy(derive.er_off);
    }
  }
  minimize_seconds = phase.seconds();
}

// --- Executor -----------------------------------------------------------------

Executor::Executor(std::size_t jobs)
    : jobs_(jobs == 0 ? util::ThreadPool::hardware_default() : jobs) {}

Executor::~Executor() = default;

void Executor::run(util::TaskGraph& graph) {
  if (jobs_ <= 1) {
    graph.execute_inline();
    return;
  }
  // call_once so concurrent first runs (daemon requests arriving together on
  // a freshly started server) race to create exactly one pool; after that,
  // any number of graphs execute over it concurrently (TaskGraph contract).
  std::call_once(pool_once_, [this] { pool_ = std::make_unique<util::ThreadPool>(jobs_); });
  graph.execute(*pool_);
}

// --- Graph emission + batch front end -----------------------------------------

std::size_t BatchResult::literal_count() const {
  std::size_t n = 0;
  for (const BatchEntry& entry : entries) {
    if (entry.ok) n += entry.result.literal_count();
  }
  return n;
}

namespace {

/// The per-entry state the graph nodes write into.  Slots are preallocated
/// before execution (one derive/minimize pair per target signal — targets
/// are a property of the STG alone, so they are known before the model is
/// built) and must not move while the graph runs.
struct EntryPlan {
  const stg::Stg* stg = nullptr;
  std::string cache_key;               // ModelCache::key_of ("" without a cache)
  PipelineContext context;             // filled by the model node
  std::vector<DeriveTask> derive;      // one slot per target signal
  std::vector<MinimizeTask> minimize;  // parallel to `derive`
  SynthesisResult result;              // filled by the assembly node

  util::TaskGraph::NodeId model_node = 0;
  std::vector<util::TaskGraph::NodeId> derive_nodes;
  std::vector<util::TaskGraph::NodeId> minimize_nodes;
  util::TaskGraph::NodeId assembly_node = 0;
  /// For an in-batch key repeat: the first builder's model node.  When that
  /// build fails, this entry's whole cone is cancelled and the primary's
  /// exception is the diagnostic (identical text — the build is
  /// deterministic — so repeats report what their own build would have).
  bool has_primary = false;
  util::TaskGraph::NodeId primary_model_node = 0;
};

/// Emits one entry's nodes: model → per-signal derive → per-signal minimize
/// → assembly.  `model_deps` chains an in-batch key repeat behind the first
/// builder's model node (distinct-key-first scheduling).
void emit_entry(util::TaskGraph& graph, EntryPlan& plan,
                const SynthesisOptions& options, ModelCache* cache, bool repeat_key,
                std::vector<util::TaskGraph::NodeId> model_deps) {
  const stg::Stg& stg = *plan.stg;
  const std::string name = stg.name();
  const std::vector<stg::SignalId> targets = stg.non_input_signals();

  plan.derive.resize(targets.size());
  plan.minimize.resize(targets.size());
  plan.derive_nodes.reserve(targets.size());
  plan.minimize_nodes.reserve(targets.size());
  for (std::size_t k = 0; k < targets.size(); ++k) plan.derive[k].signal = targets[k];

  plan.model_node = graph.add(
      "model", name, repeat_key ? kPriorityModelRepeat : kPriorityModel,
      std::move(model_deps), [&plan, &stg, options, cache] {
        plan.context = PipelineContext::build(
            stg, options, cache, plan.cache_key.empty() ? nullptr : &plan.cache_key);
      });

  std::vector<util::TaskGraph::NodeId> assembly_deps;
  assembly_deps.reserve(targets.size() + 1);
  assembly_deps.push_back(plan.model_node);
  for (std::size_t k = 0; k < targets.size(); ++k) {
    const std::string signal_label = name + "/" + stg.signal_name(targets[k]);
    DeriveTask& derive = plan.derive[k];
    MinimizeTask& minimize = plan.minimize[k];
    const auto derive_node =
        graph.add("derive", signal_label, kPriorityDerive, {plan.model_node},
                  [&plan, &derive] { derive.run(plan.context); });
    const auto minimize_node =
        graph.add("minimize", signal_label, kPriorityMinimize, {derive_node},
                  [&plan, &derive, &minimize] { minimize.run(plan.context, derive); });
    plan.derive_nodes.push_back(derive_node);
    plan.minimize_nodes.push_back(minimize_node);
    assembly_deps.push_back(minimize_node);
  }

  plan.assembly_node =
      graph.add("assembly", name, kPriorityAssembly, std::move(assembly_deps), [&plan] {
        const SemanticModel& model = *plan.context.model;
        SynthesisResult& result = plan.result;
        result.method = plan.context.options.method;
        result.architecture = plan.context.options.architecture;
        // UnfTim always reports the model's (one-time) construction cost,
        // even when this entry got the model from a cache.
        result.unfold_seconds = model.build_seconds;
        result.unfold_stats = model.unfold_stats;
        result.sg_states = model.sg_states;
        result.signals.reserve(plan.derive.size());
        for (std::size_t k = 0; k < plan.derive.size(); ++k) {
          DeriveTask& derive = plan.derive[k];
          result.refinement_iterations += derive.refinement_iterations;
          result.exact_fallbacks += derive.exact_fallbacks;
          result.derive_seconds += derive.derive_seconds;
          result.minimize_seconds += plan.minimize[k].minimize_seconds;
          result.signals.push_back(std::move(derive.impl));
        }
        result.rebuild_signal_index();
        // TotTim is the entry's OWN work, not its span in the shared
        // schedule: in a union graph other entries' nodes interleave with
        // this one's, so a start-to-assembly wall clock would charge the
        // entry for the whole batch.  Model resolution (the full build on
        // a miss or without a cache, ~0 on a cache hit — the saving the
        // cache exists to deliver) plus the summed per-signal task times;
        // at jobs = 1 this is the sequential wall clock of the old loop.
        result.total_seconds =
            plan.context.model_seconds + result.derive_seconds + result.minimize_seconds;
      });
}

/// The entry's verdict after the run: the exception of the lowest-index
/// failing node (model first, then per-signal derive/minimize in ascending
/// target order) — the same diagnostic a sequential left-to-right loop
/// reports — or null when the entry assembled cleanly.
std::exception_ptr entry_failure(const util::TaskGraph& graph, const EntryPlan& plan) {
  if (plan.has_primary &&
      graph.status(plan.model_node) == util::TaskStatus::Cancelled) {
    return graph.error(plan.primary_model_node);
  }
  if (auto error = graph.error(plan.model_node)) return error;
  for (std::size_t k = 0; k < plan.derive_nodes.size(); ++k) {
    if (auto error = graph.error(plan.derive_nodes[k])) return error;
    if (auto error = graph.error(plan.minimize_nodes[k])) return error;
  }
  return graph.error(plan.assembly_node);
}

}  // namespace

BatchResult synthesize_batch(std::span<const BatchRequest> requests,
                             const BatchOptions& options) {
  Stopwatch wall;
  // A resident executor (the daemon's) wins over the per-call jobs policy:
  // its pool is already warm, and its width is the server's to decide.
  Executor local(options.executor != nullptr ? 1 : options.jobs);
  Executor& executor = options.executor != nullptr ? *options.executor : local;
  BatchResult batch;
  batch.jobs = executor.jobs();
  batch.entries.resize(requests.size());

  // The union graph: every entry's nodes over one executor, so signals of
  // different STGs interleave freely.
  util::TaskGraph graph;
  std::vector<EntryPlan> plans(requests.size());

  // With a cache, the first entry of each (STG, model options) key builds
  // the model and in-batch repeats depend on that build: duplicate entries
  // resolve as completed-entry hits instead of parking a worker on an
  // in-flight future, and distinct keys reach the workers first.  The key
  // covers only the model-affecting options, so two entries that differ in
  // e.g. architecture still share one model node.
  std::unordered_map<std::string, util::TaskGraph::NodeId> first_by_key;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    plans[i].stg = requests[i].stg;
    bool repeat_key = false;
    std::vector<util::TaskGraph::NodeId> model_deps;
    if (options.cache != nullptr) {
      // Computed once per entry: the same text keys the in-batch dedup here
      // and the model node's cache lookup (via EntryPlan).
      plans[i].cache_key = ModelCache::key_of(*requests[i].stg, requests[i].synthesis);
      const std::string& key = plans[i].cache_key;
      const auto [it, inserted] = first_by_key.try_emplace(key, 0);
      if (!inserted) {
        repeat_key = true;
        model_deps.push_back(it->second);
        plans[i].has_primary = true;
        plans[i].primary_model_node = it->second;
      }
      emit_entry(graph, plans[i], requests[i].synthesis, options.cache, repeat_key,
                 std::move(model_deps));
      if (inserted) it->second = plans[i].model_node;
    } else {
      emit_entry(graph, plans[i], requests[i].synthesis, nullptr, false, {});
    }
  }

  executor.run(graph);

  for (std::size_t i = 0; i < requests.size(); ++i) {
    BatchEntry& entry = batch.entries[i];
    if (auto failure = entry_failure(graph, plans[i])) {
      entry.exception = failure;
      try {
        std::rethrow_exception(failure);
      } catch (const std::exception& e) {
        entry.error = e.what();
      } catch (...) {
        entry.error = "unknown exception";
      }
      ++batch.failures;
    } else if (graph.status(plans[i].assembly_node) == util::TaskStatus::Done) {
      entry.result = std::move(plans[i].result);
      entry.ok = true;
    } else {
      // Defensive: an unassembled entry without a recorded failure would be
      // an executor bug; report it rather than hand back an empty result.
      entry.error = "internal error: entry '" + requests[i].stg->name() +
                    "' was cancelled without a recorded failure";
      ++batch.failures;
    }
  }
  batch.critical_path_seconds = graph.trace().critical_path_seconds();
  if (options.trace != nullptr) *options.trace = graph.trace();
  batch.wall_seconds = wall.seconds();
  return batch;
}

BatchResult synthesize_batch(std::span<const stg::Stg> stgs,
                             const BatchOptions& options) {
  std::vector<BatchRequest> requests(stgs.size());
  for (std::size_t i = 0; i < stgs.size(); ++i) {
    requests[i].stg = &stgs[i];
    requests[i].synthesis = options.synthesis;
  }
  return synthesize_batch(std::span<const BatchRequest>(requests), options);
}

}  // namespace punt::core
