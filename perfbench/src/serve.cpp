// The serve workload: an in-process server::Server on a Unix socket with
// jobs = nproc and the default fusion window, driven closed loop by kClients
// server::Client threads with one connection each — stand-ins for
// `punt synth --connect` callers, which each block on their reply.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <memory>
#include <span>
#include <string_view>
#include <thread>
#include <utility>

#include "common.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/lint.hpp"
#include "src/server/client.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using punt::server::BatcherStats;
using punt::server::Client;
using punt::server::Request;
using punt::server::Response;
using punt::server::Server;

constexpr std::size_t kClients = 4;
constexpr std::size_t kDecomposeRounds = 3;  // in-process samples per request kind
/// A client that fails this many requests in a row stops early; its
/// failures are already counted.
constexpr std::size_t kMaxConsecutiveFailures = 100;

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// `text` without its `# unfold ...` timing line, the one part of a synth
/// response that legitimately differs between runs.
std::string without_timing_line(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find('\n', begin);
    end = end == std::string::npos ? text.size() : end + 1;
    const std::string_view line(text.data() + begin, end - begin);
    if (!line.starts_with("# unfold ")) out.append(line);
    begin = end;
  }
  return out;
}

/// The request kinds: every spec once per architecture, the architecture
/// cycling acg/c/rs along the seeded spec order.
struct Mix {
  std::vector<std::string> labels;
  std::vector<Request> requests;
};

Mix mix_of(const std::vector<Spec>& specs) {
  static const char* const kArchitectures[] = {"acg", "c", "rs"};
  Mix mix;
  for (std::size_t round = 0; round < 3; ++round) {
    for (std::size_t j = 0; j < specs.size(); ++j) {
      Request request;
      request.op = punt::server::Op::Synth;
      request.g_text = specs[j].g_text;
      request.arch = kArchitectures[(j + round) % 3];
      mix.labels.push_back(specs[j].name + "/" + request.arch);
      mix.requests.push_back(std::move(request));
    }
  }
  return mix;
}

/// A daemon serving on its own thread; stops, drains and joins on
/// destruction.
class Daemon {
 public:
  explicit Daemon(const std::string& socket_path) : path_(socket_path) {
    punt::server::ServerOptions options;
    options.endpoint = punt::server::unix_endpoint(socket_path);
    options.jobs = nproc();
    server_ = std::make_unique<Server>(std::move(options));
    server_->start();
    thread_ = std::thread([this] {
      try {
        server_->serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: daemon stopped: %s\n", e.what());
      }
    });
  }
  ~Daemon() {
    server_->request_stop();
    thread_.join();
    server_.reset();
    std::remove((path_ + ".lock").c_str());  // the listener leaves its lock file
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  Server& server() { return *server_; }

 private:
  std::string path_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

struct Setup {
  std::vector<Spec> specs;
  Mix mix;
  std::unique_ptr<Daemon> daemon;
  double seconds = 0;
};

std::unique_ptr<Setup> set_up(const Args& args, const std::string& socket,
                              Clock::time_point start) {
  auto setup = std::make_unique<Setup>();
  setup->specs = specs_of(args.workload, args.seed);
  setup->mix = mix_of(setup->specs);
  setup->daemon = std::make_unique<Daemon>(socket);
  // Warm-up: one pass over the mix fills the model cache and starts the pool.
  Client control(socket);
  for (const Request& request : setup->mix.requests) (void)control.request(request);
  setup->seconds = since(start);
  return setup;
}

/// One client thread's share of the window.
struct Tally {
  std::vector<double> latencies_ms;
  std::vector<std::pair<std::size_t, std::uint64_t>> outputs;  // (kind, digest), exit 0 only
  std::size_t nonzero_exit = 0;
  std::size_t refused = 0;  // shed or transport failures
  std::string first_error;
};

struct Window {
  std::vector<Tally> tallies;
  double wall = 0;
  BatcherStats before, after;
  std::size_t model_builds = 0;

  std::vector<double> latencies() const {
    std::vector<double> all;
    for (const Tally& tally : tallies) {
      all.insert(all.end(), tally.latencies_ms.begin(), tally.latencies_ms.end());
    }
    return all;
  }
  std::size_t ok() const {
    std::size_t n = 0;
    for (const Tally& tally : tallies) n += tally.outputs.size();
    return n;
  }
};

void client_loop(const Mix& mix, const std::string& socket, std::size_t index,
                 Clock::time_point begin, double seconds, Tally& tally) {
  std::unique_ptr<Client> client;
  // Offset each client's walk so concurrent clients mix distinct specs.
  std::size_t next = index * mix.requests.size() / kClients;
  std::size_t consecutive_failures = 0;
  while (since(begin) < seconds) {
    try {
      if (client == nullptr) client = std::make_unique<Client>(socket);
      const auto start = Clock::now();
      const Response response = client->request(mix.requests[next]);
      tally.latencies_ms.push_back(since(start) * 1e3);
      if (response.exit_code == 0) {
        tally.outputs.emplace_back(next, fnv1a(without_timing_line(response.output)));
      } else {
        ++tally.nonzero_exit;
      }
      consecutive_failures = 0;
    } catch (const std::exception& e) {
      // A refusal closes the connection, so reconnect either way.
      ++tally.refused;
      if (tally.first_error.empty()) tally.first_error = e.what();
      client.reset();
      if (++consecutive_failures >= kMaxConsecutiveFailures) return;
    }
    next = (next + 1) % mix.requests.size();
  }
}

Window measure(Setup& setup, const std::string& socket, double seconds) {
  Server& server = setup.daemon->server();
  Window window;
  window.tallies.resize(kClients);
  window.before = server.batcher_stats();
  const std::size_t builds = server.cache().stats().builds;
  const auto begin = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (std::size_t k = 0; k < kClients; ++k) {
    threads.emplace_back(client_loop, std::cref(setup.mix), std::cref(socket), k, begin, seconds,
                         std::ref(window.tallies[k]));
  }
  for (std::thread& thread : threads) thread.join();
  window.wall = since(begin);
  window.after = server.batcher_stats();
  window.model_builds = server.cache().stats().builds - builds;
  return window;
}

/// The literal count from a synth response's header line
/// "# <name>: <n> signals, <m> literals".
std::size_t header_literals(const std::string& output) {
  const std::string line = output.substr(0, output.find('\n'));
  const std::size_t comma = line.rfind(", ");
  return comma == std::string::npos ? 0 : std::stoul(line.substr(comma + 2));
}

struct Expected {
  std::vector<std::uint64_t> digests;  // per request kind
  std::size_t literals = 0;            // over one pass of the mix
};

/// Every response must exit 0 and match, byte for byte apart from the
/// timing line, an in-process server::run_synth of the same request; the
/// warm cache must not rebuild a model inside the window.
Expected check_window(const Setup& setup, const Window& window, Report& report) {
  Expected expected;
  const Mix& mix = setup.mix;
  for (std::size_t kind = 0; kind < mix.requests.size(); ++kind) {
    const Response reference = punt::server::run_synth(mix.requests[kind], nullptr, nullptr);
    if (reference.exit_code != 0) {
      report.fail(mix.labels[kind] + ": in-process run_synth exits " +
                  std::to_string(reference.exit_code));
    }
    expected.digests.push_back(fnv1a(without_timing_line(reference.output)));
    expected.literals += header_literals(reference.output);
  }
  for (const Tally& tally : window.tallies) {
    report.attempted += tally.outputs.size() + tally.nonzero_exit + tally.refused;
    if (tally.nonzero_exit > 0) report.fail("responses exited nonzero", tally.nonzero_exit);
    if (tally.refused > 0) report.fail("requests refused: " + tally.first_error, tally.refused);
    for (const auto& [kind, digest] : tally.outputs) {
      if (digest != expected.digests[kind]) {
        report.fail(mix.labels[kind] + ": response differs from in-process run_synth");
      }
    }
  }
  if (window.model_builds != 0) {
    report.fail(std::to_string(window.model_builds) + " model(s) rebuilt on a warm cache");
  }
  return expected;
}

std::string socket_path(const Args& args) {
  return args.work_dir + "/serve-" + std::to_string(::getpid()) + ".sock";
}

void report_untraced(const Args& args, Report& report) {
  const std::string socket = socket_path(args);
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();  // the previous daemon drains outside the timing
    setup = set_up(args, socket, k == 0 ? process_start() : Clock::now());
    setup_seconds.push_back(setup->seconds);
  }
  const Window window = measure(*setup, socket, args.seconds);
  setup->daemon.reset();
  const Expected expected = check_window(*setup, window, report);

  const std::vector<double> latencies = window.latencies();
  const double requests_per_s = static_cast<double>(window.ok()) / window.wall;
  report.metric("setup_s", median(setup_seconds));
  report.metric("latency_ms_p50", median(latencies));
  report.metric("specs_per_s", requests_per_s);
  report.metric("literals", static_cast<double>(expected.literals));
  report.metric("peak_rss_mb", peak_rss_mb());

  report.note("requests_per_s", requests_per_s, "1/s");
  report.note("latency_ms_p99", tail_percentile(latencies, 99), "ms");
  report.note("requests", static_cast<double>(latencies.size()), "count");
  const std::size_t batches = window.after.batches - window.before.batches;
  report.note("server.batches", static_cast<double>(batches), "count");
}

void report_traced(const Args& args, Report& report) {
  const std::string socket = socket_path(args);
  auto setup = set_up(args, socket, process_start());
  const Window window = measure(*setup, socket, args.seconds);
  setup->daemon.reset();
  const Expected expected = check_window(*setup, window, report);
  const Mix& mix = setup->mix;

  // Each request's server-side path in process, layer by layer, on a warm
  // cache: lint admission, parse, a one-entry batch, rendering.
  std::vector<punt::server::SynthJob> jobs;
  for (const Request& request : mix.requests) jobs.push_back(punt::server::prepare_synth(request));
  punt::core::ModelCache cache;
  punt::core::Executor serial(1);
  const auto synth_one = [&](const punt::server::SynthJob& job) {
    punt::core::BatchOptions options;
    options.cache = &cache;
    options.executor = &serial;
    const punt::core::BatchRequest one{&job.stg, job.options};
    return punt::core::synthesize_batch(std::span<const punt::core::BatchRequest>(&one, 1),
                                        options);
  };
  for (const auto& job : jobs) (void)synth_one(job);  // warms the cache

  SpanRecorder spans;
  std::vector<double> lint_ms, parse_ms, synth_ms, render_ms;
  const auto timed = [&](const char* layer, const std::string& detail,
                         std::vector<double>& samples, const auto& work) {
    const ScopedSpan span(spans, layer, detail);
    const auto start = Clock::now();
    work();
    samples.push_back(since(start) * 1e3);
  };
  for (std::size_t round = 0; round < kDecomposeRounds; ++round) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const std::string& text = mix.requests[i].g_text;
      ++report.attempted;
      timed("lint.admission", mix.labels[i], lint_ms, [&] {
        if (!punt::lint::lint_errors(text).empty()) report.fail(mix.labels[i] + ": lint refused");
      });
      timed("stg.parse", mix.labels[i], parse_ms, [&] { (void)punt::stg::parse_g(text); });
      punt::core::BatchResult batch;
      timed("server.synth", mix.labels[i], synth_ms, [&] { batch = synth_one(jobs[i]); });
      Response response;
      timed("server.render", mix.labels[i], render_ms,
            [&] { response = punt::server::render_synth(jobs[i], batch.entries.front()); });
      if (response.exit_code != 0 ||
          fnv1a(without_timing_line(response.output)) != expected.digests[i]) {
        report.fail(mix.labels[i] + ": in-process rendering differs from run_synth");
      }
    }
  }

  // The traced decomposition of one pass over the mix, against the same
  // pass untraced at jobs = 1.
  std::vector<TracedItem> items;
  std::vector<punt::core::BatchRequest> requests;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& job = jobs[i];
    items.push_back({&job.stg, mix.labels[i], job.options});
    requests.push_back({&job.stg, job.options});
  }
  punt::core::BatchOptions untraced_options;
  untraced_options.executor = &serial;
  const auto untraced_start = Clock::now();
  const punt::core::BatchResult untraced = punt::core::synthesize_batch(
      std::span<const punt::core::BatchRequest>(requests), untraced_options);
  const double untraced_wall = since(untraced_start);
  std::vector<const punt::core::SynthesisResult*> reference;
  for (const auto& entry : untraced.entries) reference.push_back(&entry.result);
  traced_run(items, reference, untraced_wall, spans, report);

  const double rtt = median(window.latencies());
  const double in_process = median(lint_ms) + median(parse_ms) + median(synth_ms) + median(render_ms);
  const std::size_t batches = window.after.batches - window.before.batches;
  const std::size_t fused = window.after.fused_requests - window.before.fused_requests;
  report.metric("core.model_builds", static_cast<double>(window.model_builds));
  // No batch passes here: scaling is the batch workloads' to measure.
  report.metric("util.scaling", 0);
  report.metric("util.cpu_inflation", 0);
  report.metric("util.wall_over_critical", 0);
  report.metric("stg.parse_ms_p50", median(parse_ms));
  report.metric("lint.admission_ms_p50", median(lint_ms));
  report.metric("server.synth_ms_p50", median(synth_ms));
  report.metric("server.render_ms_p50", median(render_ms));
  report.metric("server.overhead_ms_p50", rtt - in_process);
  report.metric("server.mean_batch",
                batches == 0 ? 0.0 : static_cast<double>(fused) / static_cast<double>(batches));
  report.metric("server.batches", static_cast<double>(batches));
  report.metric("server.shed", static_cast<double>(window.after.shed() - window.before.shed()));
  report.note("latency_ms_p50", rtt, "ms");

  const std::string path = args.work_dir + "/trace-serve-seed" + std::to_string(args.seed) + ".json";
  report.remarks.push_back(spans.write(path) ? "spans written to " + path
                                             : "could not write " + path);
}

}  // namespace

Report run_serve(const Args& args) {
  Report report;
  if (args.trace) {
    report_traced(args, report);
  } else {
    report_untraced(args, report);
  }
  return report;
}

}  // namespace perfbench
