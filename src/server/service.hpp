// Request handlers behind `punt serve`: one function per traffic-bearing op,
// mapping a decoded protocol::Request onto the synthesis pipeline and
// rendering the exact stdout/stderr text (and exit code) the equivalent
// direct `punt` invocation produces.  Keeping the rendering here — not in
// the connection loop — is what makes the daemon's responses byte-comparable
// to the CLI and lets tests drive the handlers without a socket.
//
// Handlers never throw: every failure (unparseable .g text, CSC conflict,
// capacity blowup) becomes a Response with ok=true, a nonzero exit code and
// the same diagnostic a direct invocation prints to stderr.  Protocol-level
// failures are the caller's (the connection loop's) concern.
//
// A synth request is split in two so the daemon can admit it in between:
// prepare_synth parses the text once — lint's error rules and the job's Stg
// read the same collecting parse — and run_synth executes the prepared job
// on whichever executor the caller picks (the daemon's pool for a lone
// request, none for one that runs inline).
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

namespace punt::server {

/// Handles {"op":"synth"}.  `cache` (nullable) resolves phase 1; when given,
/// the per-request cache delta summary is appended to the response log —
/// the line a `--connect` client streams to its stderr.  `executor`
/// (nullable) runs the graph; a null runs it inline on the calling thread.
/// The output does not depend on the executor.
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
/// run_synth would have produced (minus the cache summary line, which the
/// caller appends).
SynthJob prepare_synth(Request request);

/// Runs a prepared job as a one-entry batch and renders it, appending the
/// cache summary line when `cache` is given; a job that failed to prepare
/// answers its `failure` (plus the summary).  run_synth is prepare_synth
/// followed by this.
Response run_synth(const SynthJob& job, core::ModelCache* cache,
                   core::Executor* executor);

/// Renders the response for a prepared job from its executed batch entry:
/// the same bytes a direct `punt synth` prints for the same request.
/// Never throws; entry failures re-surface as the CLI's stderr diagnostics
/// with exit code 2.  The caller appends the cache summary line.
Response render_synth(const SynthJob& job, const core::BatchEntry& entry);

/// Handles {"op":"check"} — and IS the direct `punt check` implementation
/// (tools/punt_cli.cpp prints the returned output/log verbatim), so the
/// daemon's byte-parity with the CLI holds by construction rather than by
/// hand-maintained duplication.  The cache is required (the checks and the
/// embedded synthesis run share one semantic model through it — the same
/// single-build guarantee `punt check` has); the "semantic model" verdict
/// line reports this *request's* cache delta, so a warm daemon truthfully
/// prints "built 0 time(s)".  `summarize_cache` controls the trailing
/// per-request summary line in the log: the daemon wants it, the direct CLI
/// does not.
Response run_check(const Request& request, core::ModelCache& cache,
                   core::Executor* executor, bool summarize_cache = true);

/// Handles {"op":"lint"} — the whole client batch in one request, linted
/// as one TaskGraph on the daemon's resident executor so multi-file deep
/// lints parallelise under the daemon's --jobs exactly like a direct
/// `punt lint --deep --jobs=N`.  The response output is byte-identical to
/// the direct CLI's stdout for the same files (per-file human renderings in
/// request order, or one punt-lint-report v2 document), and the exit code
/// follows the same rule (1 when any file has an error-severity finding).
/// The cache is required: deep lint resolves its exact state-graph models
/// through it, so a warm daemon deep-lints a known spec with zero rebuilds —
/// the per-request delta summary appended to the log is the proof.  The
/// structural tier never touches the cache, so structural-only lints report
/// an all-zero delta.
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
