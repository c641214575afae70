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

struct BatcherStats;  // batcher.hpp; forward-declared to avoid a cycle

/// Handles {"op":"synth"}.  `cache` (nullable) resolves phase 1; when given,
/// the per-request cache delta summary is appended to the response log —
/// the line a `--connect` client streams to its stderr.  `executor`
/// (nullable) runs the graph; the daemon passes its resident one, a null
/// falls back to an inline single-job run.
Response run_synth(const Request& request, core::ModelCache* cache,
                   core::Executor* executor);

/// One synth request decoded as far as it can be *before* batch execution:
/// the parsed STG and its per-entry SynthesisOptions — the
/// core::BatchRequest shape the daemon's request fusion feeds into one
/// union graph — or, when parsing failed, the fully rendered failure
/// response.  Splitting run_synth into prepare (here) + render (below)
/// around the batch boundary is what lets N fused requests share one
/// synthesize_batch call and still answer byte-identically to N direct CLI
/// invocations.
struct SynthJob {
  Request request;
  stg::Stg stg;                    // meaningful only when ok
  core::SynthesisOptions options;  // meaningful only when ok
  bool ok = false;
  Response failure;  // rendered (exit 2, CLI diagnostic) when !ok
};

/// Parses the request's .g text and maps its method/arch flags; never
/// throws — an unparseable request comes back with ok=false and `failure`
/// carrying exactly the Response run_synth would have produced (minus the
/// cache summary line, which the caller appends).
SynthJob prepare_synth(Request request);

/// Renders the response for a prepared job from its executed batch entry:
/// the same bytes run_synth produces for the same request, so fused and
/// inline execution are indistinguishable to clients.  Never throws; entry
/// failures re-surface as the CLI's stderr diagnostics with exit code 2.
/// The caller appends the cache summary line (per request when inline, per
/// fused batch in the dispatcher).
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
/// serving (transport, listen address, worker count) and the connection
/// ledger (accepted / refused-at-handshake / idle-timed-out) the TCP
/// transport introduced in v3.
struct ServeInfo {
  std::size_t requests_served = 0;
  std::size_t jobs = 0;
  std::string transport = "unix";  // "unix" | "tcp"
  std::string listen;              // Endpoint::describe() of the listener
  std::size_t connections = 0;     // accepted since start()
  std::size_t auth_failures = 0;   // TCP handshakes refused
  std::size_t idle_timeouts = 0;   // connections closed by the idle deadline
  double batch_window_ms = 0;
};

/// The {"op":"cache-stats"} payload: resident cache counters plus the
/// server identity/connection fields and the request-fusion counters
/// ("punt-serve-stats" schema, version 4 — v4 dropped the disk-tier
/// directory and counters; v3 added transport, listen, connections,
/// auth_failures and idle_timeouts).
/// `batcher` is null when the daemon runs with `--batch-window=0` (no
/// fusion); the fusion fields are then emitted as zeros so the schema is
/// stable for consumers like `punt bench serve`.
std::string cache_stats_json(const core::ModelCacheStats& stats,
                             const ServeInfo& info, const BatcherStats* batcher);

}  // namespace punt::server
