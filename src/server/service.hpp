// The handlers behind `punt synth`, `punt check` and `punt lint`: one
// function per traffic-bearing op, mapping a protocol::Request onto the
// synthesis pipeline and rendering the exact stdout/stderr text and exit
// code of the command.  The CLI calls them in-process and `punt serve`
// dispatches to them, so direct and served runs print the same bytes by
// construction; the daemon appends only its per-request cache summary line.
//
// Handlers never throw on request content: every failure (unparseable .g
// text, CSC conflict, capacity blowup) becomes a Response with ok=true, a
// nonzero exit code and the diagnostic in its log.  Protocol-level
// failures are the caller's (the connection loop's) concern.
//
// A synth request is split in two so the daemon can admit it in between:
// prepare_synth parses the text once — lint's error rules and the job's Stg
// read the same collecting parse — and run_synth executes the prepared job
// on whichever executor the caller picks (the daemon's pool for a lone
// request, none for one that runs inline, the `--jobs` pool for the CLI).
#pragma once

#include <cstddef>
#include <string>

#include "src/core/synthesis.hpp"
#include "src/server/protocol.hpp"
#include "src/stg/stg.hpp"

namespace punt::core {
class Executor;
class ModelCache;
struct ModelCacheStats;
struct BatchEntry;
}  // namespace punt::core

namespace punt::util {
struct TaskTrace;
}  // namespace punt::util

namespace punt::server {

/// The one mapping from a request's synthesis flags (method, arch,
/// minimize) to SynthesisOptions; `punt bench run` reads its flags through
/// it too.
core::SynthesisOptions options_of(const Request& request);

/// Handles {"op":"synth"}: prepare_synth, then run_synth of the job.
/// `cache` (nullable) resolves phase 1; `executor` (nullable) runs the
/// graph, inline on the calling thread when null.  The output does not
/// depend on either.
Response run_synth(const Request& request, core::ModelCache* cache,
                   core::Executor* executor);

/// One synth request decoded as far as it can be *before* execution: the
/// parsed STG and its SynthesisOptions — the core::BatchRequest shape of a
/// one-entry batch — or, when lint or the parser refused it, the fully
/// rendered failure response.  The daemon prepares first and admits only
/// jobs that parsed, so a refused spec never takes an admission slot.
struct SynthJob {
  Request request;
  stg::Stg stg;                    // meaningful only when ok
  core::SynthesisOptions options;  // meaningful only when ok
  bool ok = false;
  Response failure;  // rendered (exit 2, CLI diagnostic) when !ok
};

/// Parses the request's .g text once — lint's error rules read the parse,
/// then stg::finish_parse builds the Stg from it, as stg::parse_g would —
/// and maps its method/arch flags; never throws — an unparseable request
/// comes back with ok=false and `failure` carrying exactly the Response
/// run_synth would have produced.  A lint refusal labels its findings with
/// the request's `name`.
SynthJob prepare_synth(Request request);

/// Runs a prepared job as a one-entry batch and renders it; a job that
/// failed to prepare answers its `failure`.  `trace` (nullable) receives
/// the executed schedule (`punt synth --trace-schedule`), failed runs
/// included.  run_synth is prepare_synth followed by this.
Response run_synth(const SynthJob& job, core::ModelCache* cache,
                   core::Executor* executor, util::TaskTrace* trace = nullptr);

/// Renders the response for a prepared job from its executed batch entry:
/// the header and timing lines, then the writers the request asks for —
/// the equations (also when it asks for none), Verilog, the STG's DOT and
/// the unfolding's DOT, in that order.  Never throws on a failed entry:
/// it re-surfaces as the CLI's stderr diagnostic with exit code 2.
Response render_synth(const SynthJob& job, const core::BatchEntry& entry);

/// Handles {"op":"check"}.  The cache is required: the checks and the
/// embedded synthesis run share one semantic model through it, so the
/// segment is built once.  The "semantic model" verdict line reports this
/// *request's* cache delta, so a warm daemon truthfully prints "built 0
/// time(s)".
Response run_check(const Request& request, core::ModelCache& cache,
                   core::Executor* executor);

/// Handles {"op":"lint"}: the whole batch in one request, linted as one
/// TaskGraph on `executor`, so multi-file deep lints parallelise under
/// `--jobs` in-process or on the daemon.  The output is the per-file human
/// renderings in request order, or one punt-lint-report v2 document, and
/// the exit code is 1 when any file has an error-severity finding.  The
/// cache is required: deep lint resolves its exact state-graph models
/// through it, so a warm daemon deep-lints a known spec with zero rebuilds.
Response run_lint(const Request& request, core::ModelCache& cache,
                  core::Executor* executor);

/// The daemon-identity slice of the {"op":"cache-stats"} payload: who is
/// serving and how many connections it accepted.
struct ServeInfo {
  std::size_t requests_served = 0;
  std::size_t jobs = 0;
  std::string listen;           // the socket path
  std::size_t connections = 0;  // accepted since start()
};

/// The daemon's admission counters for synth requests, one self-consistent
/// snapshot.  Each admitted request runs on its connection thread as a
/// one-entry batch: over the resident executor when it was admitted alone
/// (`fanned_out`), inline otherwise.  `batches` and `fused_requests` both
/// equal `admitted`; they remain for callers that still read them.
struct BatcherStats {
  std::size_t admitted = 0;          // synth requests that took a slot
  std::size_t fanned_out = 0;        // admitted alone: ran on the resident pool
  std::size_t shed_queue_full = 0;   // refused: --max-queue already running
  std::size_t batches = 0;           // == admitted
  std::size_t fused_requests = 0;    // == admitted
  std::size_t queue_high_water = 0;  // most synth requests running at once

  std::size_t shed() const { return shed_queue_full; }
};

/// The {"op":"cache-stats"} payload ("punt-serve-stats" schema, version 7):
/// the ServeInfo fields, the resident cache counters and the admission
/// counters.
std::string cache_stats_json(const core::ModelCacheStats& stats,
                             const ServeInfo& info, const BatcherStats& admission);

}  // namespace punt::server
