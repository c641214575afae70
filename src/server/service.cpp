#include "src/server/service.hpp"

#include <exception>
#include <span>
#include <utility>
#include <vector>

#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/lint/lint.hpp"
#include "src/util/diagnostics.hpp"
#include "src/netlist/netlist.hpp"
#include "src/stg/dot.hpp"
#include "src/stg/g_format.hpp"
#include "src/unfolding/dot.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace punt::server {
namespace {

// Non-truncating (util/strings.hpp): an STG name or diagnostic longer than
// any stack buffer must still render in full.
using punt::printf_string;

/// Runs one STG as a one-entry batch on `executor` (inline when null).
core::BatchEntry run_one(const stg::Stg& stg, const core::SynthesisOptions& options,
                         core::ModelCache* cache, core::Executor* executor,
                         util::TaskTrace* trace = nullptr) {
  core::BatchOptions batch_options;
  batch_options.cache = cache;
  batch_options.executor = executor;
  batch_options.trace = trace;
  const core::BatchRequest one{&stg, options};
  core::BatchResult batch =
      core::synthesize_batch(std::span<const core::BatchRequest>(&one, 1), batch_options);
  return std::move(batch.entries.front());
}

/// The entry's result; a failed entry rethrows its own typed exception, so
/// the callers' catch blocks render what an inline run would have thrown.
const core::SynthesisResult& result_of(const core::BatchEntry& entry) {
  if (!entry.ok) {
    if (entry.exception) std::rethrow_exception(entry.exception);
    throw Error(entry.error);
  }
  return entry.result;
}

}  // namespace

core::SynthesisOptions options_of(const Request& request) {
  core::SynthesisOptions options;
  if (request.method == "exact") {
    options.method = core::Method::UnfoldingExact;
  } else if (request.method == "sg") {
    options.method = core::Method::StateGraph;
  } else {
    options.method = core::Method::UnfoldingApprox;
  }
  if (request.arch == "c") {
    options.architecture = core::Architecture::StandardC;
  } else if (request.arch == "rs") {
    options.architecture = core::Architecture::RsLatch;
  } else {
    options.architecture = core::Architecture::ComplexGate;
  }
  options.minimize = request.minimize;
  return options;
}

SynthJob prepare_synth(Request request) {
  SynthJob job;
  job.request = std::move(request);
  // Admission control: the error-severity lint rules run before any parse
  // throw or model construction, so a structurally broken spec is refused
  // with every defect rendered (rule ids, line:column spans, hints) and
  // never takes an admission slot or reaches the ModelCache or the executor.
  // Lint errors are a strict subset of what parse_g/validate reject, so this
  // gate refuses no spec that parse_g accepts.  One collecting parse serves
  // both: lint reads it, then finish_parse turns it into the job's Stg
  // exactly as parse_g would.
  util::DiagnosticSink sink;
  stg::ParsedG parsed = stg::parse_g_collect(job.request.g_text, sink);
  const std::vector<util::Diagnostic> defects = lint::lint_errors(parsed, sink);
  if (!defects.empty()) {
    job.failure.ok = true;
    job.failure.log = util::render_diagnostics(defects, job.request.g_text, job.request.name) +
                      printf_string("error: specification refused by lint: %zu defect(s)\n",
                                    defects.size());
    job.failure.exit_code = 2;
    return job;
  }
  try {
    job.stg = stg::finish_parse(std::move(parsed), sink);
    job.options = options_of(job.request);
    job.ok = true;
  } catch (const Error& e) {
    // Dynamic rejections lint cannot see statically (initial-code inference
    // inconsistencies, capacity limits): parse_g's message, exit code 2;
    // render_synth is never reached for this job.
    job.failure.ok = true;
    job.failure.log = printf_string("error: %s\n", e.what());
    job.failure.exit_code = 2;
  }
  return job;
}

Response render_synth(const SynthJob& job, const core::BatchEntry& entry) {
  if (!job.ok) return job.failure;
  Response response;
  response.ok = true;
  try {
    const core::SynthesisResult& result = result_of(entry);
    const stg::Stg& stg = job.stg;
    const Request& request = job.request;
    const net::Netlist netlist = net::Netlist::from_synthesis(stg, result);
    response.output += printf_string("# %s: %zu signals, %zu literals\n",
                                     stg.name().c_str(), stg.signal_count(),
                                     netlist.literal_count());
    response.output += printf_string(
        "# unfold %.4fs derive %.4fs minimise %.4fs total %.4fs\n",
        result.unfold_seconds, result.derive_seconds, result.minimize_seconds,
        result.total_seconds);
    const bool any_writer =
        request.eqn || request.verilog || request.dot || request.unfolding_dot;
    if (request.eqn || !any_writer) response.output += netlist.to_eqn();
    if (request.verilog) response.output += netlist.to_verilog(stg.name());
    if (request.dot) response.output += stg::to_dot(stg);
    if (request.unfolding_dot) response.output += unf::to_dot(unf::Unfolding::build(stg));
    response.exit_code = 0;
  } catch (const CscError& e) {
    response.log += printf_string("CSC conflict: %s\n(try `punt resolve`)\n", e.what());
    response.exit_code = 2;
  } catch (const Error& e) {
    response.log += printf_string("error: %s\n", e.what());
    response.exit_code = 2;
  }
  return response;
}

Response run_synth(const SynthJob& job, core::ModelCache* cache,
                   core::Executor* executor, util::TaskTrace* trace) {
  if (!job.ok) return job.failure;
  return render_synth(job, run_one(job.stg, job.options, cache, executor, trace));
}

Response run_synth(const Request& request, core::ModelCache* cache,
                   core::Executor* executor) {
  return run_synth(prepare_synth(request), cache, executor);
}

Response run_check(const Request& request, core::ModelCache& cache,
                   core::Executor* executor) {
  Response response;
  response.ok = true;
  const core::ModelCacheStats before = cache.stats();
  try {
    const stg::Stg stg = stg::parse_g(request.g_text);
    core::SynthesisOptions options;
    options.throw_on_csc = false;
    // Persistency is reported below, not thrown, so the check prints a full
    // verdict for non-semi-modular STGs too.
    options.check_persistency = false;
    const auto model = cache.lookup_or_build(stg, options);
    const unf::Unfolding& unfolding = *model->unfolding;
    response.output += "consistent state assignment : yes (segment built)\n";
    response.output += printf_string(
        "bounded / safe              : yes (%zu events, %zu conditions)\n",
        unfolding.stats().events, unfolding.stats().conditions);
    // Which derive path the segment takes (DESIGN.md §5).
    const stg::SignalId branching = unfolding.branching_signal();
    response.output +=
        branching.valid()
            ? printf_string("signal instances            : '%s' branches under choice, so "
                            "approximation folds co rows\n",
                            stg.signal_name(branching).c_str())
            : "signal instances            : one causal chain per signal, so approximation "
              "reads instance ranks\n";
    const auto persistency = unf::segment_persistency_violations(unfolding);
    response.output += printf_string(
        "output persistency          : %s\n",
        persistency.empty() ? "yes" : persistency.front().describe(unfolding).c_str());
    const core::BatchEntry entry = run_one(stg, options, &cache, executor);
    const core::SynthesisResult& result = result_of(entry);
    bool csc_ok = true;
    for (const auto& impl : result.signals) {
      if (impl.csc_conflict) {
        csc_ok = false;
        response.output += printf_string("complete state coding       : conflict on '%s'\n",
                                       stg.signal_name(impl.signal).c_str());
      }
    }
    if (csc_ok) response.output += "complete state coding       : yes\n";
    // This *request's* share of the cache: on a fresh cache (a direct run,
    // a cold daemon) one build; on a warm daemon it truthfully reads "built
    // 0 time(s)" — the saving the daemon exists to deliver.
    const core::ModelCacheStats stats = core::delta_stats(before, cache.stats());
    response.output += printf_string(
        "semantic model              : built %zu time(s), reused %zu time(s) "
        "(%.0f%% cache hit rate)\n",
        stats.builds, stats.hits, stats.hit_rate() * 100.0);
    response.exit_code = csc_ok && persistency.empty() ? 0 : 2;
  } catch (const Error& e) {
    response.log += printf_string("error: %s\n", e.what());
    response.exit_code = 2;
  }
  return response;
}

Response run_lint(const Request& request, core::ModelCache& cache,
                  core::Executor* executor) {
  Response response;
  response.ok = true;
  lint::LintOptions options;
  options.promote_all_warnings = request.lint_werror;
  options.promote_rules = request.lint_werror_rules;
  options.deep = request.lint_deep;
  options.cache = &cache;
  options.executor = executor;
  std::vector<lint::FileInput> inputs;
  inputs.reserve(request.lint_files.size());
  for (const Request::LintFile& file : request.lint_files) {
    inputs.push_back({file.name, file.text});
  }
  try {
    const std::vector<lint::FileLint> lints = lint::lint_files(inputs, options);
    bool any_errors = false;
    for (std::size_t i = 0; i < lints.size(); ++i) {
      any_errors = any_errors || !lints[i].ok();
      // Render against the request's own text, which carries the excerpts
      // and caret lines.
      if (!request.lint_json) {
        response.output += lint::render_human(lints[i], inputs[i].text);
      }
    }
    if (request.lint_json) response.output += lint::render_json(lints);
    response.exit_code = any_errors ? 1 : 0;
  } catch (const Error& e) {
    // lint never throws on spec content; this is a real defect (resource
    // exhaustion, logic error) surfacing with the CLI's error shape.
    response.log += printf_string("error: %s\n", e.what());
    response.exit_code = 2;
  }
  return response;
}

std::string cache_stats_json(const core::ModelCacheStats& stats,
                             const ServeInfo& info, const BatcherStats& admission) {
  std::string out = "{\n";
  out += "  \"schema\": \"punt-serve-stats\",\n";
  out += "  \"version\": 7,\n";
  out += printf_string("  \"requests\": %zu,\n", info.requests_served);
  out += printf_string("  \"jobs\": %zu,\n", info.jobs);
  out += "  \"listen\": \"" + util::json_escape(info.listen) + "\",\n";
  out += printf_string("  \"connections\": %zu,\n", info.connections);
  out += printf_string("  \"hits\": %zu,\n", stats.hits);
  out += printf_string("  \"misses\": %zu,\n", stats.misses);
  out += printf_string("  \"builds\": %zu,\n", stats.builds);
  out += printf_string("  \"evictions\": %zu,\n", stats.evictions);
  out += printf_string("  \"failed_builds\": %zu,\n", stats.failed_builds);
  out += printf_string("  \"in_flight\": %zu,\n", stats.in_flight);
  out += printf_string("  \"resident\": %zu,\n", stats.resident);
  out += printf_string("  \"saved_seconds\": %.17g,\n", stats.saved_seconds);
  out += printf_string("  \"admitted\": %zu,\n", admission.admitted);
  out += printf_string("  \"fanned_out\": %zu,\n", admission.fanned_out);
  out += printf_string("  \"queue_high_water\": %zu,\n", admission.queue_high_water);
  out += printf_string("  \"shed_queue_full\": %zu\n", admission.shed_queue_full);
  out += "}\n";
  return out;
}

}  // namespace punt::server
