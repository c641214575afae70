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
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace punt::server {
namespace {

// Non-truncating (util/strings.hpp): an STG name or diagnostic longer than
// any stack buffer must still match the direct CLI's printf byte for byte.
using punt::printf_string;

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

/// Runs one STG through the pipeline on the (possibly resident) executor
/// and rethrows the entry's own typed exception on failure — the shape the
/// CLI-identical catch blocks below expect.
core::SynthesisResult synthesize_on(const stg::Stg& stg,
                                    const core::SynthesisOptions& options,
                                    core::ModelCache* cache,
                                    core::Executor* executor) {
  core::BatchOptions batch_options;
  batch_options.synthesis = options;
  batch_options.jobs = 1;  // executor (when given) supersedes this
  batch_options.cache = cache;
  batch_options.executor = executor;
  const std::span<const stg::Stg> one(&stg, 1);
  core::BatchResult batch = core::synthesize_batch(one, batch_options);
  core::BatchEntry& entry = batch.entries.front();
  if (!entry.ok) {
    if (entry.exception) std::rethrow_exception(entry.exception);
    throw Error(entry.error);
  }
  return std::move(entry.result);
}

/// The snapshot the per-request delta is computed against; zeros without a
/// cache (no summary line is emitted then).
core::ModelCacheStats snapshot(const core::ModelCache* cache) {
  return cache != nullptr ? cache->stats() : core::ModelCacheStats{};
}

void append_cache_summary(Response& response, const core::ModelCache* cache,
                          const core::ModelCacheStats& before) {
  if (cache == nullptr) return;
  response.log += core::summarize(core::delta_stats(before, cache->stats()));
}

}  // namespace

SynthJob prepare_synth(Request request) {
  SynthJob job;
  job.request = std::move(request);
  // Admission control: the error-severity lint rules run before any parse
  // throw or model construction, so a structurally broken spec is refused
  // with every defect rendered (rule ids, line:column spans, hints) and
  // never takes an admission slot or reaches the ModelCache or the executor.
  // Lint errors are a strict subset of what parse_g/validate reject, so this
  // gate never refuses a spec direct `punt synth` would accept.  One
  // collecting parse serves both: lint reads it, then finish_parse turns it
  // into the job's Stg exactly as parse_g would.
  util::DiagnosticSink sink;
  stg::ParsedG parsed = stg::parse_g_collect(job.request.g_text, sink);
  const std::vector<util::Diagnostic> defects = lint::lint_errors(parsed, sink);
  if (!defects.empty()) {
    job.failure.ok = true;
    job.failure.log = util::render_diagnostics(defects, job.request.g_text, "request.g") +
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
    // inconsistencies, capacity limits): same diagnostic (and exit code) a
    // direct `punt synth` prints; render_synth is never reached for this job.
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
    if (!entry.ok) {
      // Rethrow the entry's own typed exception so the catch blocks below
      // render exactly what an inline run would have.
      if (entry.exception) std::rethrow_exception(entry.exception);
      throw Error(entry.error);
    }
    const core::SynthesisResult& result = entry.result;
    const stg::Stg& stg = job.stg;
    const net::Netlist netlist = net::Netlist::from_synthesis(stg, result);

    // Byte-for-byte the stdout of a direct `punt synth` (tools/punt_cli.cpp
    // cmd_synth); the server_test and the CI smoke job compare the two.
    response.output += printf_string("# %s: %zu signals, %zu literals\n",
                                   stg.name().c_str(), stg.signal_count(),
                                   netlist.literal_count());
    response.output += printf_string(
        "# unfold %.4fs derive %.4fs minimise %.4fs total %.4fs\n",
        result.unfold_seconds, result.derive_seconds, result.minimize_seconds,
        result.total_seconds);
    const bool any_writer = job.request.eqn || job.request.verilog;
    if (job.request.eqn || !any_writer) response.output += netlist.to_eqn();
    if (job.request.verilog) response.output += netlist.to_verilog(stg.name());
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
                   core::Executor* executor) {
  const core::ModelCacheStats before = snapshot(cache);
  Response response;
  if (!job.ok) {
    response = job.failure;
  } else {
    core::BatchOptions batch_options;
    batch_options.jobs = 1;  // executor (when given) supersedes this
    batch_options.cache = cache;
    batch_options.executor = executor;
    const core::BatchRequest one{&job.stg, job.options};
    const core::BatchResult batch = core::synthesize_batch(
        std::span<const core::BatchRequest>(&one, 1), batch_options);
    response = render_synth(job, batch.entries.front());
  }
  append_cache_summary(response, cache, before);
  return response;
}

Response run_synth(const Request& request, core::ModelCache* cache,
                   core::Executor* executor) {
  return run_synth(prepare_synth(request), cache, executor);
}

Response run_check(const Request& request, core::ModelCache& cache,
                   core::Executor* executor, bool summarize_cache) {
  Response response;
  response.ok = true;
  const core::ModelCacheStats before = cache.stats();
  try {
    const stg::Stg stg = stg::parse_g(request.g_text);
    core::SynthesisOptions options;
    options.throw_on_csc = false;
    // Persistency is reported below, not thrown, so the check prints a full
    // verdict for non-semi-modular STGs too (mirrors cmd_check).
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
    const core::SynthesisResult result = synthesize_on(stg, options, &cache, executor);
    bool csc_ok = true;
    for (const auto& impl : result.signals) {
      if (impl.csc_conflict) {
        csc_ok = false;
        response.output += printf_string("complete state coding       : conflict on '%s'\n",
                                       stg.signal_name(impl.signal).c_str());
      }
    }
    if (csc_ok) response.output += "complete state coding       : yes\n";
    // This *request's* share of the resident cache: on a cold daemon the
    // delta equals what a direct `punt check` reports; on a warm one it
    // truthfully reads "built 0 time(s)" — the saving the daemon exists to
    // deliver.
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
  if (summarize_cache) append_cache_summary(response, &cache, before);
  return response;
}

Response run_lint(const Request& request, core::ModelCache& cache,
                  core::Executor* executor) {
  Response response;
  response.ok = true;
  const core::ModelCacheStats before = cache.stats();
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
      // Render against the request's own text so excerpts and caret lines
      // match a direct invocation over the same file byte for byte.
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
  append_cache_summary(response, &cache, before);
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
