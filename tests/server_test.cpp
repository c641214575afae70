// Tests for the `punt serve` daemon: protocol framing and JSON round-trips,
// byte-identity of daemon responses with direct invocation (N concurrent
// clients included), the warm-cache property a resident daemon exists for
// (second request = pure memory hit, zero rebuilds), synth admission
// (shedding past --max-queue, slots given back, refused specs answered
// without a slot, a request admitted while another runs executing inline),
// parse parity of prepare_synth with parse_g, resilience to
// malformed/oversized frames, graceful shutdown draining in-flight work, and
// socket-path ownership.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/lint/lint.hpp"
#include "src/netlist/netlist.hpp"
#include "src/server/client.hpp"
#include "src/server/endpoint.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/diagnostics.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace punt::server {
namespace {

namespace fs = std::filesystem;
using stg::Stg;

/// A fresh, unique temp directory per test (removed on destruction).
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("punt-server-test-" + tag + "-" +
             std::to_string(static_cast<unsigned long>(::getpid())));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  const fs::path& path() const { return path_; }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// start()s the server and runs serve() on a background thread; the
/// destructor stops and joins, so a failing test never hangs the suite.
struct RunningServer {
  explicit RunningServer(ServerOptions options) : server(std::move(options)) {
    server.start();
    thread = std::thread([this] { server.serve(); });
  }
  ~RunningServer() {
    server.request_stop();
    if (thread.joinable()) thread.join();
  }
  Server server;
  std::thread thread;
};

/// A raw connected socket, for driving the protocol below the Client layer
/// (split send/receive, deliberately broken frames).
int connect_raw(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  EXPECT_GE(fd, 0);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address), sizeof address), 0)
      << "cannot connect to " << path;
  return fd;
}

Request synth_request(const Stg& stg) {
  Request request;
  request.op = Op::Synth;
  request.g_text = stg::write_g(stg);
  return request;
}

/// Holds the model build of a synth request for `stg` (default options) in
/// flight in `cache` until release(): a served request for the same STG
/// joins the pinned build and waits there while holding its admission slot,
/// which lets a test fill the daemon's slots deterministically.
class PinnedBuild {
 public:
  PinnedBuild(core::ModelCache& cache, const Stg& stg)
      : thread_([this, &cache, parsed = stg::parse_g(stg::write_g(stg))] {
          const core::SynthesisOptions options;
          (void)cache.lookup_or_build_keyed(core::ModelCache::key_of(parsed, options), [&] {
            building_.count_down();
            release_.wait();
            return core::SemanticModel::build(parsed, options);
          });
        }) {
    building_.wait();
  }
  ~PinnedBuild() {
    release();
    thread_.join();
  }
  PinnedBuild(const PinnedBuild&) = delete;
  PinnedBuild& operator=(const PinnedBuild&) = delete;

  void release() {
    if (!released_) {
      released_ = true;
      release_.count_down();
    }
  }

 private:
  std::latch building_{1};
  std::latch release_{1};
  bool released_ = false;
  std::thread thread_;  // last: the latches exist before it starts
};

/// The deterministic part of a synth response: everything but the
/// "# unfold ..." timing line (wall-clock numbers differ run to run).
std::string strip_timing(const std::string& text) {
  std::string out;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size() - 1;
    const std::string_view line(text.data() + start, end - start + 1);
    if (line.rfind("# unfold ", 0) != 0) out.append(line);
    start = end + 1;
  }
  return out;
}

/// What a direct `punt synth <file.g>` prints to stdout, minus the timing
/// line — built from the same primitives the CLI uses, independently of the
/// server/service code under test.
std::string direct_synth_output(const Stg& stg) {
  const core::SynthesisResult result = core::synthesize(stg);
  const net::Netlist netlist = net::Netlist::from_synthesis(stg, result);
  char head[128];
  std::snprintf(head, sizeof head, "# %s: %zu signals, %zu literals\n",
                stg.name().c_str(), stg.signal_count(), netlist.literal_count());
  return std::string(head) + netlist.to_eqn();
}

// --- Protocol unit tests ------------------------------------------------------

TEST(ServerProtocol, RequestJsonRoundTrips) {
  Request request;
  request.op = Op::Synth;
  request.g_text = ".model x\n.inputs a\n";
  request.method = "exact";
  request.arch = "rs";
  request.minimize = false;
  request.eqn = true;
  request.verilog = true;
  request.dot = true;
  request.unfolding_dot = true;
  request.name = "specs/x.g";
  const Request parsed = request_from_json(to_json(request));
  EXPECT_EQ(parsed.op, Op::Synth);
  EXPECT_EQ(parsed.g_text, request.g_text);
  EXPECT_EQ(parsed.method, "exact");
  EXPECT_EQ(parsed.arch, "rs");
  EXPECT_FALSE(parsed.minimize);
  EXPECT_TRUE(parsed.eqn);
  EXPECT_TRUE(parsed.verilog);
  EXPECT_TRUE(parsed.dot);
  EXPECT_TRUE(parsed.unfolding_dot);
  EXPECT_EQ(parsed.name, "specs/x.g");

  // The DOT writers and the label stay off the wire at their defaults, so
  // a plain synth request keeps the bytes it had before they existed.
  Request plain;
  plain.op = Op::Synth;
  plain.g_text = "x";
  EXPECT_EQ(to_json(plain),
            R"({"op": "synth", "g": "x", "method": "approx", "arch": "acg", )"
            R"("minimize": true, "eqn": false, "verilog": false})");
  const Request parsed_plain = request_from_json(to_json(plain));
  EXPECT_FALSE(parsed_plain.dot);
  EXPECT_FALSE(parsed_plain.unfolding_dot);
  EXPECT_EQ(parsed_plain.name, "request.g");

  for (const Op op : {Op::Check, Op::CacheStats, Op::Ping, Op::Shutdown}) {
    Request probe;
    probe.op = op;
    probe.g_text = op == Op::Check ? "text" : "";
    EXPECT_EQ(request_from_json(to_json(probe)).op, op);
  }
}

TEST(ServerProtocol, ResponseJsonRoundTrips) {
  Response response;
  response.ok = true;
  response.exit_code = 2;
  response.output = "line \"quoted\"\n";
  response.log = "summary\n";
  const Response parsed = response_from_json(to_json(response));
  EXPECT_TRUE(parsed.ok);
  EXPECT_EQ(parsed.exit_code, 2);
  EXPECT_EQ(parsed.output, response.output);
  EXPECT_EQ(parsed.log, response.log);

  Response refusal;
  refusal.error = "bad frame";
  const Response parsed_refusal = response_from_json(to_json(refusal));
  EXPECT_FALSE(parsed_refusal.ok);
  EXPECT_EQ(parsed_refusal.error, "bad frame");
}

TEST(ServerProtocol, MalformedRequestsAreRejected) {
  EXPECT_THROW((void)request_from_json("not json"), ParseError);
  EXPECT_THROW((void)request_from_json("[1,2]"), ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "fry"})"), ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "synth"})"), ParseError);  // no g
  EXPECT_THROW((void)request_from_json(R"({"op": "synth", "g": "x", "method": "vhdl"})"),
               ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "synth", "g": "x", "arch": "fpga"})"),
               ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "synth", "g": "x", "eqn": 1})"),
               ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "synth", "g": "x", "dot": 1})"),
               ParseError);
  EXPECT_THROW((void)request_from_json(R"({"op": "synth", "g": "x", "name": 3})"),
               ParseError);
}

TEST(ServerProtocol, FramesRoundTripOverAPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string body = R"({"op": "ping"})";
  write_frame(fds[1], body);
  std::string payload;
  EXPECT_EQ(read_frame(fds[0], payload), FrameStatus::Ok);
  EXPECT_EQ(payload, body);
  ::close(fds[1]);
  EXPECT_EQ(read_frame(fds[0], payload), FrameStatus::Eof);  // clean close
  ::close(fds[0]);
}

TEST(ServerProtocol, TruncatedAndOversizedFramesThrow) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  // Length prefix promising 100 bytes, then EOF after 3: mid-frame close.
  const unsigned char prefix[4] = {100, 0, 0, 0};
  ASSERT_EQ(::write(fds[1], prefix, 4), 4);
  ASSERT_EQ(::write(fds[1], "abc", 3), 3);
  ::close(fds[1]);
  std::string payload;
  EXPECT_THROW((void)read_frame(fds[0], payload), Error);
  ::close(fds[0]);

  // A length above the limit is refused before any body is buffered.
  ASSERT_EQ(::pipe(fds), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  unsigned char huge_prefix[4] = {
      static_cast<unsigned char>(huge & 0xFF),
      static_cast<unsigned char>((huge >> 8) & 0xFF),
      static_cast<unsigned char>((huge >> 16) & 0xFF),
      static_cast<unsigned char>((huge >> 24) & 0xFF),
  };
  ASSERT_EQ(::write(fds[1], huge_prefix, 4), 4);
  try {
    (void)read_frame(fds[0], payload);
    FAIL() << "an oversized frame must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos) << e.what();
  }
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- Server end-to-end --------------------------------------------------------

TEST(Server, PingPongAndCacheStats) {
  TempDir dir("ping");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  const Response pong = request_once(socket, Request{});
  EXPECT_EQ(pong.exit_code, 0);
  EXPECT_EQ(pong.output, "pong\n");

  Request stats_request;
  stats_request.op = Op::CacheStats;
  const Response stats = request_once(socket, stats_request);
  const util::JsonValue root = util::parse_json(stats.output);
  EXPECT_EQ(util::json_string(root, "schema", "stats"), "punt-serve-stats");
  // The ping (the served-count bumps just after its response is written, so
  // an immediately following request may still read 0 — don't pin it).
  EXPECT_LE(util::json_count(root, "requests", "stats"), 1u);
  EXPECT_EQ(util::json_count(root, "builds", "stats"), 0u);
  EXPECT_EQ(util::json_string(root, "listen", "stats"), socket);
  EXPECT_GE(util::json_count(root, "connections", "stats"), 1u);
}

TEST(Server, ConcurrentClientsMatchDirectInvocationByteForByte) {
  TempDir dir("concurrent");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.jobs = 2;
  RunningServer running(options);

  // Four distinct STGs, each requested by two clients at once: eight
  // concurrent connections funnel through the one resident cache and pool.
  const std::vector<Stg> stgs = {stg::make_paper_fig1(), stg::make_muller_pipeline(3),
                                 stg::make_paper_fig4ab(),
                                 stg::make_counterflow_pipeline(2)};
  std::vector<std::string> expected;
  for (const Stg& stg : stgs) expected.push_back(direct_synth_output(stg));

  constexpr int kClientsPerStg = 2;
  std::vector<std::thread> clients;
  std::vector<std::string> got(stgs.size() * kClientsPerStg);
  std::atomic<int> failures{0};
  for (std::size_t i = 0; i < got.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        const Response response =
            request_once(socket, synth_request(stgs[i % stgs.size()]));
        if (response.exit_code != 0) failures.fetch_add(1);
        got[i] = response.output;
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  ASSERT_EQ(failures.load(), 0);
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(strip_timing(got[i]), expected[i % stgs.size()])
        << "client " << i << " diverged from the direct invocation";
  }
  // One phase-1 build per distinct STG, not per request: the second client
  // of each pair joins the first one's in-flight build or hits its result.
  EXPECT_EQ(running.server.cache().stats().builds, stgs.size());
}

TEST(Server, SecondRequestOnAWarmDaemonIsAPureMemoryHit) {
  TempDir dir("warm");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  const Stg stg = stg::make_paper_fig1();
  const Response first = request_once(socket, synth_request(stg));
  EXPECT_EQ(first.exit_code, 0);
  const core::ModelCacheStats after_first = running.server.cache().stats();
  EXPECT_EQ(after_first.builds, 1u);

  const Response second = request_once(socket, synth_request(stg));
  EXPECT_EQ(second.exit_code, 0);
  EXPECT_EQ(strip_timing(second.output), strip_timing(first.output));

  // The acceptance criterion: zero phase-1 rebuilds — the resident cache
  // answered.
  const core::ModelCacheStats delta =
      core::delta_stats(after_first, running.server.cache().stats());
  EXPECT_EQ(delta.hits, 1u);
  EXPECT_EQ(delta.builds, 0u) << "a warm daemon must not rebuild phase 1";
  EXPECT_EQ(delta.misses, 0u);
  // The per-request summary the client streams to stderr says the same.
  EXPECT_NE(second.log.find("1 memory hit(s)"), std::string::npos) << second.log;
  EXPECT_NE(second.log.find("0 rebuild(s)"), std::string::npos) << second.log;
}

TEST(Server, CheckReportsItsOwnRequestsCacheDelta) {
  TempDir dir("check");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  Request request;
  request.op = Op::Check;
  request.g_text = stg::write_g(stg::make_paper_fig1());

  // Cold daemon: the verdict matches a direct `punt check` (fresh cache):
  // one build, one reuse from the embedded synthesis run.
  const Response cold = request_once(socket, request);
  EXPECT_EQ(cold.exit_code, 0);
  EXPECT_NE(cold.output.find("complete state coding       : yes"), std::string::npos)
      << cold.output;
  EXPECT_NE(cold.output.find("built 1 time(s), reused 1 time(s)"), std::string::npos)
      << cold.output;

  // Warm daemon: the same request truthfully reports zero builds — the
  // line is this request's delta, not the daemon's lifetime counters.
  const Response warm = request_once(socket, request);
  EXPECT_EQ(warm.exit_code, 0);
  EXPECT_NE(warm.output.find("built 0 time(s), reused 2 time(s)"), std::string::npos)
      << warm.output;
}

TEST(Server, CheckReportsWhetherSignalInstancesFormChains) {
  // The check names the derive path: a registry spec keeps each signal's
  // instances on one causal chain, while Fig. 1's free choice gives c two
  // unordered instances.  Served output equals the direct path's.
  TempDir dir("chains");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  const std::pair<Stg, std::string> cases[] = {
      {benchmarks::table1().front().make(),
       "signal instances            : one causal chain per signal, so approximation reads "
       "instance ranks\n"},
      {stg::make_paper_fig1(),
       "signal instances            : 'c' branches under choice, so approximation folds co "
       "rows\n"},
  };
  for (const auto& [spec, line] : cases) {
    Request request;
    request.op = Op::Check;
    request.g_text = stg::write_g(spec);
    core::ModelCache cache;
    const Response direct = run_check(request, cache, nullptr);
    const Response served = request_once(socket, request);
    EXPECT_NE(direct.output.find(line), std::string::npos) << direct.output;
    EXPECT_EQ(served.output, direct.output);
    EXPECT_EQ(served.exit_code, direct.exit_code);
  }
}

TEST(Server, ServedLintIsTheHandlersResponsePlusItsCacheDelta) {
  TempDir dir("lint-served");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  Request request;
  request.op = Op::Lint;
  request.lint_files.push_back({"fig1.g", stg::write_g(stg::make_paper_fig1())});
  request.lint_deep = true;
  request.lint_json = true;
  core::ModelCache cache;
  const Response direct = run_lint(request, cache, nullptr);

  // The connection loop appends one line to the handler's log: the
  // request's cache delta, which the warm pass reads as zero rebuilds.
  const Response cold = request_once(socket, request);
  const Response warm = request_once(socket, request);
  for (const Response* served : {&cold, &warm}) {
    EXPECT_EQ(served->output, direct.output);
    EXPECT_EQ(served->exit_code, direct.exit_code);
    ASSERT_TRUE(served->log.starts_with(direct.log + "model cache: ")) << served->log;
    EXPECT_EQ(std::count(served->log.begin(), served->log.end(), '\n'),
              std::count(direct.log.begin(), direct.log.end(), '\n') + 1)
        << served->log;
  }
  EXPECT_NE(cold.log.find(" 1 rebuild(s)"), std::string::npos) << cold.log;
  EXPECT_NE(warm.log.find(" 0 rebuild(s)"), std::string::npos) << warm.log;
}

TEST(Server, SynthesisFailuresAnswerLikeTheCliAndKeepServing) {
  TempDir dir("csc");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  // vme has a genuine CSC conflict: the daemon answers exit 2 with the
  // CLI's diagnostic — and must survive to serve the next request.
  const Response conflicted = request_once(socket, synth_request(stg::make_vme_bus()));
  EXPECT_EQ(conflicted.exit_code, 2);
  EXPECT_NE(conflicted.log.find("CSC conflict"), std::string::npos) << conflicted.log;

  Request broken;
  broken.op = Op::Synth;
  broken.g_text = "this is not a .g file";
  const Response unparseable = request_once(socket, broken);
  EXPECT_EQ(unparseable.exit_code, 2);
  EXPECT_NE(unparseable.log.find("error: "), std::string::npos) << unparseable.log;

  const Response pong = request_once(socket, Request{});
  EXPECT_EQ(pong.output, "pong\n");
}

TEST(Server, LintRefusesBrokenSpecsBeforeAdmission) {
  TempDir dir("lint");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  // A structurally broken spec (duplicate declaration = error-severity lint
  // finding) is refused by the admission gate with the full lint rendering —
  // rule id, line:column, caret — and never takes an admission slot, while a
  // concurrent valid request is served normally.
  Request broken;
  broken.op = Op::Synth;
  broken.g_text =
      ".model x\n.inputs a a\n.graph\na+ p\np a-\na- q\nq a+\n"
      ".marking { p }\n.init_values a=0\n.end\n";
  Response valid;
  std::thread concurrent(
      [&] { valid = request_once(socket, synth_request(stg::make_paper_fig1())); });
  const Response refused = request_once(socket, broken);
  concurrent.join();

  EXPECT_TRUE(refused.ok);  // protocol-level refusal, not a transport error
  EXPECT_EQ(refused.exit_code, 2);
  EXPECT_NE(refused.log.find("[STG001]"), std::string::npos) << refused.log;
  EXPECT_NE(refused.log.find(":2:11"), std::string::npos) << refused.log;
  EXPECT_NE(refused.log.find("refused by lint"), std::string::npos) << refused.log;
  EXPECT_NE(refused.log.find("error: "), std::string::npos) << refused.log;

  EXPECT_EQ(valid.exit_code, 0);
  EXPECT_NE(valid.output.find("literals"), std::string::npos);
  // Only the valid request took an admission slot; the refused one was
  // answered pre-admission.
  EXPECT_EQ(running.server.batcher_stats().admitted, 1u);
}

TEST(Server, MalformedAndOversizedFramesDoNotKillTheServer) {
  TempDir dir("frames");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  {
    // Valid frame, invalid JSON: a protocol refusal, connection closed.
    const int fd = connect_raw(socket);
    write_frame(fd, "this is not JSON");
    std::string payload;
    ASSERT_EQ(read_frame(fd, payload), FrameStatus::Ok);
    const Response refusal = response_from_json(payload);
    EXPECT_FALSE(refusal.ok);
    EXPECT_FALSE(refusal.error.empty());
    ::close(fd);
  }
  {
    // Oversized length prefix: refused without buffering the body.
    const int fd = connect_raw(socket);
    const std::uint32_t huge = kMaxFrameBytes + 7;
    const unsigned char prefix[4] = {
        static_cast<unsigned char>(huge & 0xFF),
        static_cast<unsigned char>((huge >> 8) & 0xFF),
        static_cast<unsigned char>((huge >> 16) & 0xFF),
        static_cast<unsigned char>((huge >> 24) & 0xFF),
    };
    ASSERT_EQ(::write(fd, prefix, 4), 4);
    std::string payload;
    ASSERT_EQ(read_frame(fd, payload), FrameStatus::Ok);
    const Response refusal = response_from_json(payload);
    EXPECT_FALSE(refusal.ok);
    EXPECT_NE(refusal.error.find("exceeds"), std::string::npos) << refusal.error;
    ::close(fd);
  }
  {
    // A peer that connects and vanishes costs the server nothing.
    const int fd = connect_raw(socket);
    ::close(fd);
  }
  // After all three abuses, an honest client still gets served.
  const Response pong = request_once(socket, Request{});
  EXPECT_EQ(pong.output, "pong\n");
}

TEST(Server, OverloadedSynthRequestsAreShedAtTheSocket) {
  TempDir dir("shed");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.max_queue = 1;
  RunningServer running(options);

  // Client A takes the one slot and waits inside its model build.  (The
  // pin is declared after A's thread, so a failing check releases the build
  // before the thread is joined.)
  const Stg stg = stg::make_paper_fig1();
  Response a;
  std::jthread client_a;
  PinnedBuild pinned(running.server.cache(), stg);
  client_a = std::jthread([&] { a = request_once(socket, synth_request(stg)); });
  while (running.server.batcher_stats().admitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Client B is refused with the protocol-level "overloaded" error — which
  // the Client surfaces as a throw, exactly like any other refusal.
  try {
    (void)request_once(socket, synth_request(stg::make_muller_pipeline(3)));
    ADD_FAILURE() << "the second synth request must be shed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("overloaded"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("--max-queue"), std::string::npos) << e.what();
  }
  EXPECT_EQ(running.server.batcher_stats().shed_queue_full, 1u);

  // A non-synth request still gets through: shedding is admission control
  // on synthesis work, not a dead daemon.
  EXPECT_EQ(request_once(socket, Request{}).output, "pong\n");

  // Once its build is released, A completes exactly as a direct run would.
  pinned.release();
  client_a.join();
  EXPECT_EQ(a.exit_code, 0) << a.log;
  EXPECT_EQ(strip_timing(a.output), direct_synth_output(stg));
  const BatcherStats stats = running.server.batcher_stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed(), 1u);
  EXPECT_EQ(stats.queue_high_water, 1u);
  // Each admitted request runs as one one-entry batch.
  EXPECT_EQ(stats.batches, stats.admitted);
  EXPECT_EQ(stats.fused_requests, stats.admitted);
}

TEST(Server, FailingSynthesisGivesItsAdmissionSlotBack) {
  TempDir dir("slot");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.max_queue = 1;
  RunningServer running(options);

  // vme's CSC conflict fails its synthesis inside the slot...
  const Response conflicted = request_once(socket, synth_request(stg::make_vme_bus()));
  EXPECT_EQ(conflicted.exit_code, 2);
  EXPECT_NE(conflicted.log.find("CSC conflict"), std::string::npos) << conflicted.log;

  // ...and gives the slot back, so the next request on max_queue = 1 runs.
  const Response next = request_once(socket, synth_request(stg::make_paper_fig1()));
  EXPECT_EQ(next.exit_code, 0) << next.log;
  const BatcherStats stats = running.server.batcher_stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.shed(), 0u);
}

TEST(Server, ParseRefusedSpecIsAnsweredWithoutAdmission) {
  TempDir dir("parse");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.max_queue = 1;
  RunningServer running(options);

  // b's cycle is never marked, so the parser cannot infer its initial value:
  // a dynamic rejection that the lint admission gate lets through.
  Request unparseable;
  unparseable.op = Op::Synth;
  unparseable.g_text =
      ".model t\n.inputs a b\n.graph\na+ p\np a-\na- q\nq a+\n"
      "b+ r\nr b-\nb- s\ns b+\n.marking { p }\n.end\n";
  ASSERT_TRUE(lint::lint_errors(unparseable.g_text).empty());
  ASSERT_THROW((void)stg::parse_g(unparseable.g_text), Error);

  // With the one slot taken, the refused spec still gets its diagnostic —
  // not an "overloaded" refusal — because it never asks for a slot.
  const Stg stg = stg::make_paper_fig1();
  Response held;
  std::jthread client;
  PinnedBuild pinned(running.server.cache(), stg);
  client = std::jthread([&] { held = request_once(socket, synth_request(stg)); });
  while (running.server.batcher_stats().admitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Response refused = request_once(socket, unparseable);
  EXPECT_TRUE(refused.ok);
  EXPECT_EQ(refused.exit_code, 2);
  EXPECT_NE(refused.log.find("error: could not infer initial values"), std::string::npos)
      << refused.log;
  pinned.release();
  client.join();
  EXPECT_EQ(held.exit_code, 0) << held.log;

  const BatcherStats stats = running.server.batcher_stats();
  EXPECT_EQ(stats.admitted, 1u);
  EXPECT_EQ(stats.shed(), 0u);
}

TEST(Server, RequestAdmittedWhileAnotherRunsExecutesInline) {
  TempDir dir("inline");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.jobs = 2;  // a real pool for the lone request to fan out over
  RunningServer running(options);

  // A is admitted alone, so it fans out over the pool, where its graph
  // waits in the pinned model build while holding its slot.
  const Stg a_stg = stg::make_paper_fig1();
  const Stg b_stg = stg::make_muller_pipeline(3);
  Response a;
  std::jthread client_a;
  PinnedBuild pinned(running.server.cache(), a_stg);
  client_a = std::jthread([&] { a = request_once(socket, synth_request(a_stg)); });
  while (running.server.batcher_stats().admitted == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // B is admitted while A runs, so it executes inline on its connection
  // thread and is answered while A still holds its slot.
  const Response b = request_once(socket, synth_request(b_stg));
  const BatcherStats during = running.server.batcher_stats();
  EXPECT_EQ(during.admitted, 2u);
  EXPECT_EQ(during.fanned_out, 1u) << "only the lone request runs on the pool";
  EXPECT_EQ(during.queue_high_water, 2u);

  pinned.release();
  client_a.join();
  EXPECT_EQ(running.server.batcher_stats().fanned_out, 1u);

  // Neither path changes a byte: both match an in-process run_synth.
  const Response a_reference = run_synth(synth_request(a_stg), nullptr, nullptr);
  const Response b_reference = run_synth(synth_request(b_stg), nullptr, nullptr);
  EXPECT_EQ(a.exit_code, 0) << a.log;
  EXPECT_EQ(b.exit_code, 0) << b.log;
  EXPECT_EQ(strip_timing(a.output), strip_timing(a_reference.output));
  EXPECT_EQ(strip_timing(b.output), strip_timing(b_reference.output));
  EXPECT_EQ(strip_timing(b.output), direct_synth_output(b_stg));
}

/// `text` without its `.init_values` line, so parsing it infers the
/// initial code.
std::string without_init_values(const std::string& text) {
  const std::size_t begin = text.find("\n.init_values");
  if (begin == std::string::npos) return text;
  return text.substr(0, begin) + text.substr(text.find('\n', begin + 1));
}

TEST(Server, PreparedJobParsesExactlyLikeParseG) {
  // prepare_synth lints and finishes one collecting parse; the Stg it
  // builds (or the refusal it renders) must be parse_g's, byte for byte.
  std::vector<std::pair<std::string, std::string>> specs;  // label, .g text
  // Each spec also goes in without .init_values, which makes the finish
  // step infer the initial code; inference explores states, so the large
  // pipelines go in with their values only.
  const auto add = [&specs](const std::string& label, const Stg& stg, bool infer_too) {
    specs.emplace_back(label, stg::write_g(stg));
    if (infer_too) specs.emplace_back(label + " inferred", without_init_values(specs.back().second));
  };
  for (const benchmarks::Benchmark& bench : benchmarks::table1()) add(bench.name, bench.make(), true);
  for (const std::size_t n : {1, 4, 9, 29, 59}) {
    add("muller" + std::to_string(n), stg::make_muller_pipeline(n), n < 10);
  }
  for (const std::size_t n : {1, 3, 16}) {
    add("counterflow" + std::to_string(n), stg::make_counterflow_pipeline(n), n < 10);
  }
  for (const auto& [label, text] : specs) {
    Request request;
    request.op = Op::Synth;
    request.g_text = text;
    const SynthJob job = prepare_synth(request);
    try {
      const Stg expected = stg::parse_g(text);
      ASSERT_TRUE(job.ok) << label << ": " << job.failure.log;
      EXPECT_EQ(stg::write_g(job.stg), stg::write_g(expected)) << label;
    } catch (const Error& e) {
      EXPECT_FALSE(job.ok) << label;
      EXPECT_EQ(job.failure.log, std::string("error: ") + e.what() + "\n") << label;
    }
  }

  // Refusals: lint's report from the shared parse equals lint_errors' own
  // parse of the text, and a dynamic rejection carries parse_g's message.
  const std::vector<std::string> broken = {
      ".model x\n.inputs a a\n.graph\na+ p\np a-\na- q\nq a+\n"
      ".marking { p }\n.init_values a=0\n.end\n",
      ".model t\n.bogus\n.graph\na b\n.end\n",
      ".model t\n.inputs a\n.graph\na+ p\np a-\na- q\nq a+\n.marking { zz }\n.end\n",
      ".model t\n.inputs a b\n.graph\na+ p\np a-\na- q\nq a+\n"
      "b+ r\nr b-\nb- s\ns b+\n.marking { p }\n.end\n",
  };
  for (const std::string& text : broken) {
    Request request;
    request.op = Op::Synth;
    request.g_text = text;
    const SynthJob job = prepare_synth(request);
    ASSERT_FALSE(job.ok) << text;
    EXPECT_EQ(job.failure.exit_code, 2);
    const std::vector<util::Diagnostic> defects = lint::lint_errors(text);
    if (!defects.empty()) {
      EXPECT_EQ(job.failure.log,
                util::render_diagnostics(defects, text, "request.g") +
                    "error: specification refused by lint: " +
                    std::to_string(defects.size()) + " defect(s)\n");
    } else {
      try {
        (void)stg::parse_g(text);
        ADD_FAILURE() << "parse_g accepted: " << text;
      } catch (const Error& e) {
        EXPECT_EQ(job.failure.log, std::string("error: ") + e.what() + "\n");
      }
    }
  }
}

TEST(Server, CacheStatsReportsTheV7AdmissionSchema) {
  TempDir dir("stats");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  RunningServer running(options);

  const Stg stg = stg::make_paper_fig1();
  (void)request_once(socket, synth_request(stg));
  (void)request_once(socket, synth_request(stg));

  Request stats_request;
  stats_request.op = Op::CacheStats;
  const Response stats = request_once(socket, stats_request);
  const util::JsonValue root = util::parse_json(stats.output);
  EXPECT_EQ(util::json_string(root, "schema", "stats"), "punt-serve-stats");
  EXPECT_EQ(util::json_count(root, "version", "stats"), 7u);
  EXPECT_EQ(util::json_count(root, "admitted", "stats"), 2u);
  // One client at a time: each request ran alone, so each fanned out.
  EXPECT_EQ(util::json_count(root, "fanned_out", "stats"), 2u);
  EXPECT_EQ(util::json_count(root, "queue_high_water", "stats"), 1u);
  EXPECT_EQ(util::json_count(root, "shed_queue_full", "stats"), 0u);
  // v7 carries exactly these fields.
  std::vector<std::string> keys;
  keys.reserve(root.object.size());
  for (const auto& field : root.object) keys.push_back(field.first);
  const std::vector<std::string> expected = {
      "schema", "version", "requests", "jobs", "listen", "connections", "hits",
      "misses", "builds", "evictions", "failed_builds", "in_flight", "resident",
      "saved_seconds", "admitted", "fanned_out", "queue_high_water",
      "shed_queue_full"};
  EXPECT_EQ(keys, expected);
}

TEST(Server, GracefulShutdownDrainsInFlightWork) {
  TempDir dir("drain");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);
  options.jobs = 2;
  Server server(options);
  server.start();
  std::thread serving([&server] { server.serve(); });

  // Client A: send a synthesis request but do not read the response yet.
  const int fd = connect_raw(socket);
  write_frame(fd, to_json(synth_request(stg::make_muller_pipeline(4))));
  // Deterministically order the shutdown *behind* A being in flight.
  while (server.active_connections() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // Client B: shutdown.  The ack arrives before the drain completes.
  Request shutdown;
  shutdown.op = Op::Shutdown;
  const Response ack = request_once(socket, shutdown);
  EXPECT_EQ(ack.exit_code, 0);

  // A's response must still arrive complete: the drain waits for it.
  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameStatus::Ok);
  const Response result = response_from_json(payload);
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.exit_code, 0);
  EXPECT_FALSE(result.output.empty());
  ::close(fd);

  serving.join();  // serve() returned: drained and unlinked
  EXPECT_FALSE(fs::exists(socket));
  EXPECT_THROW(Client probe(socket), Error);
}

TEST(Server, StaleSocketFileIsReclaimedAndLiveOneIsRefused) {
  TempDir dir("stale");
  const std::string socket = dir.str() + "/punt.sock";
  ServerOptions options;
  options.endpoint = unix_endpoint(socket);

  {
    // A dead file at the path (a crashed server's leftover): reclaimed.
    std::ofstream(socket) << "";
    ASSERT_TRUE(fs::exists(socket));
    RunningServer running(options);
    const Response pong = request_once(socket, Request{});
    EXPECT_EQ(pong.output, "pong\n");

    // A *live* server on the path: a second one must refuse to start.
    Server rival(options);
    EXPECT_THROW(rival.start(), Error);
  }
}

}  // namespace
}  // namespace punt::server
