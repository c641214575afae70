#include "src/benchmarks/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/server/client.hpp"
#include "src/server/protocol.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/stopwatch.hpp"

namespace punt::benchmarks {
namespace {

using server::Client;
using server::Op;
using server::Request;
using server::Response;
using util::JsonValue;

/// A client that cannot complete this many attempts in a row (daemon gone,
/// connect refused in a loop) gives up instead of spinning for the whole
/// window; its failures are already counted.
constexpr std::size_t kMaxConsecutiveFailures = 100;

/// One thread's share of the run; merged after the joins.
struct ClientTally {
  std::vector<double> latencies_ms;
  std::size_t completed = 0;
  std::size_t failed = 0;
  std::size_t shed = 0;
  std::size_t transport_errors = 0;
};

/// The daemon-side admission counters parsed out of one {"op":"cache-stats"}
/// response.  Fields are probed, not required: against an unexpected daemon
/// the bench should still report its client-side numbers.
struct AdmissionSnapshot {
  std::size_t queue_high_water = 0;
  std::size_t shed = 0;
};

std::size_t probe_count(const JsonValue& root, const char* key) {
  const JsonValue* value = root.find(key);
  if (value == nullptr || value->type != JsonValue::Type::Number ||
      value->number < 0) {
    return 0;
  }
  return static_cast<std::size_t>(value->number);
}

AdmissionSnapshot admission_snapshot(Client& client) {
  Request request;
  request.op = Op::CacheStats;
  const Response response = client.request(request);
  const JsonValue root = util::parse_json(response.output);
  AdmissionSnapshot snapshot;
  if (root.type != JsonValue::Type::Object) return snapshot;
  snapshot.queue_high_water = probe_count(root, "queue_high_water");
  snapshot.shed = probe_count(root, "shed_queue_full");
  return snapshot;
}

std::size_t counter_delta(std::size_t before, std::size_t after) {
  return after >= before ? after - before : 0;
}

/// Nearest-rank percentile over an ascending sample (q in (0, 100]).
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1 ? 0 : std::min(sorted.size() - 1, static_cast<std::size_t>(rank) - 1);
  return sorted[index];
}

void client_loop(const LoadgenOptions& options, const std::vector<Request>& specs,
                 std::size_t thread_index, ClientTally& tally) {
  std::unique_ptr<Client> client;
  // Offset each thread's walk so concurrent clients mix distinct STGs.
  std::size_t next = thread_index % specs.size();
  std::size_t consecutive_failures = 0;
  Stopwatch window;
  while (window.seconds() < options.duration_seconds) {
    if (client == nullptr) {
      try {
        client = std::make_unique<Client>(options.endpoint, options.token);
        consecutive_failures = 0;
      } catch (const Error&) {
        ++tally.transport_errors;
        if (++consecutive_failures >= kMaxConsecutiveFailures) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        continue;
      }
    }
    const Request& request = specs[next];
    next = (next + 1) % specs.size();
    Stopwatch round_trip;
    try {
      const Response response = client->request(request);
      tally.latencies_ms.push_back(round_trip.millis());
      ++tally.completed;
      if (response.exit_code != 0) ++tally.failed;
      consecutive_failures = 0;
    } catch (const Error& e) {
      // A shed request surfaces as the client-side refusal throw; the
      // daemon closes the connection after any refusal, so reconnect either
      // way.
      if (std::string_view(e.what()).find("overloaded") != std::string_view::npos) {
        ++tally.shed;
      } else {
        ++tally.transport_errors;
      }
      client.reset();
      if (++consecutive_failures >= kMaxConsecutiveFailures) return;
    }
  }
}

}  // namespace

ServeBenchReport run_loadgen(const LoadgenOptions& options) {
  if (options.endpoint.transport == server::Transport::Unix &&
      options.endpoint.path.empty()) {
    throw Error("bench serve: a daemon endpoint is required");
  }
  if (options.clients == 0) {
    throw Error("bench serve: at least one client thread is required");
  }

  // Pre-serialise the whole registry once; the threads then only copy
  // ready-made Request objects.
  std::vector<Request> specs;
  specs.reserve(table1().size());
  for (const Benchmark& benchmark : table1()) {
    Request request;
    request.op = Op::Synth;
    request.g_text = stg::write_g(benchmark.make());
    specs.push_back(std::move(request));
  }

  // Warm-up (and reachability check): one sequential pass, excluded from
  // every number, so the measured window sees the daemon's steady state.
  // The same connection then brackets the window with stats snapshots.
  Client control(options.endpoint, options.token);
  if (options.warmup) {
    for (const Request& request : specs) (void)control.request(request);
  }
  const AdmissionSnapshot before = admission_snapshot(control);

  std::vector<ClientTally> tallies(options.clients);
  std::vector<std::thread> threads;
  threads.reserve(options.clients);
  Stopwatch wall;
  for (std::size_t k = 0; k < options.clients; ++k) {
    threads.emplace_back(client_loop, std::cref(options), std::cref(specs), k,
                         std::ref(tallies[k]));
  }
  for (std::thread& thread : threads) thread.join();
  const double wall_seconds = wall.seconds();
  const AdmissionSnapshot after = admission_snapshot(control);

  ServeBenchReport report;
  report.transport =
      options.endpoint.transport == server::Transport::Tcp ? "tcp" : "unix";
  report.clients = options.clients;
  report.duration_seconds = options.duration_seconds;
  report.wall_seconds = wall_seconds;
  std::vector<double> latencies;
  for (const ClientTally& tally : tallies) {
    report.completed += tally.completed;
    report.failed += tally.failed;
    report.shed += tally.shed;
    report.transport_errors += tally.transport_errors;
    latencies.insert(latencies.end(), tally.latencies_ms.begin(),
                     tally.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  report.throughput_rps =
      wall_seconds > 0 ? static_cast<double>(report.completed) / wall_seconds : 0;
  if (!latencies.empty()) {
    double sum = 0;
    for (const double ms : latencies) sum += ms;
    report.mean_ms = sum / static_cast<double>(latencies.size());
    report.p50_ms = percentile(latencies, 50);
    report.p95_ms = percentile(latencies, 95);
    report.p99_ms = percentile(latencies, 99);
    report.max_ms = latencies.back();
  }

  report.daemon_shed = counter_delta(before.shed, after.shed);
  // The high-water mark is a daemon-lifetime value; a delta would be
  // meaningless, so report the post-run value.
  report.queue_high_water = after.queue_high_water;
  return report;
}

}  // namespace punt::benchmarks
