// The `punt bench serve` load generator: K closed-loop client threads
// driving a serve daemon with registry synthesis requests for a fixed
// duration, measuring what the Table-1 harness cannot — serving latency
// under concurrency, and how much load the daemon's admission sheds.
//
// Closed-loop: each client thread holds one persistent connection and keeps
// exactly one request in flight (send, block, record, repeat), so offered
// load scales with the client count and a slow daemon is never buried under
// an open-loop backlog it cannot drain.  Requests walk the Table-1 registry
// round-robin, each thread starting at a different offset so concurrent
// clients mix distinct STGs.
//
// The daemon's side of the story (its own shed count and the most synth
// requests it ran at once) is read through {"op":"cache-stats"} snapshots
// taken before and after the measurement window.
#pragma once

#include <cstddef>
#include <string>

#include "src/benchmarks/report.hpp"
#include "src/server/endpoint.hpp"

namespace punt::benchmarks {

struct LoadgenOptions {
  /// The daemon to drive — a Unix socket path or tcp://host:port; required.
  server::Endpoint endpoint;
  /// Auth token for TCP endpoints (each client thread handshakes on
  /// connect); ignored for Unix.
  std::string token;
  std::size_t clients = 8;      // closed-loop client threads
  double duration_seconds = 5;  // measurement window
  /// One sequential pass over the registry before timing starts, so the
  /// measured window runs against a warm model cache (the daemon's steady
  /// state).  The pass is excluded from every reported number.
  bool warmup = true;
};

/// Runs the load generator against a listening daemon.  Throws Error when
/// the daemon is unreachable or the warm-up pass cannot complete; transport
/// faults *during* the measured window are counted, not thrown (a daemon
/// shedding load mid-run is a result, not a harness failure).
ServeBenchReport run_loadgen(const LoadgenOptions& options);

}  // namespace punt::benchmarks
