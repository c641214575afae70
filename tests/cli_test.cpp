// Tests of the `punt` binary itself: the checks of CI's lint gate, the
// exit-code policy, flag tables that refuse an unknown or invalid flag
// wherever it stands, and parity between a direct run and the same run
// sent with --connect to an in-process server::Server.  CMake passes the
// binary's path as PUNT_CLI_PATH.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/server/endpoint.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/stg/dot.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"

extern char** environ;

namespace punt {
namespace {

namespace fs = std::filesystem;

struct Output {
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `text` without its `# unfold ...` timing line, and with `drop` lines
/// (those starting with it) removed too when given.
std::string without_lines(const std::string& text, const std::string& drop = "# unfold ") {
  std::string kept;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (!line.starts_with(drop)) kept += line + '\n';
  }
  return kept;
}

/// A temp directory holding the specs the tests feed the binary: smoke.g,
/// a clean registry spec, and bad.g, the same spec with its first input
/// declared twice, as CI's lint gate builds them.
class Cli : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("punt-cli-test-" + std::to_string(::getpid()) + "-" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    smoke_text_ = stg::write_g(benchmarks::find("tsbmSIBRK").make());
    std::istringstream lines(smoke_text_);
    bool doubled = false;
    for (std::string line; std::getline(lines, line);) {
      if (!doubled && line.starts_with(".inputs ")) {
        line += " " + line.substr(8, line.find(' ', 8) - 8);
        doubled = true;
      }
      bad_text_ += line + '\n';
    }
    smoke_ = write("smoke.g", smoke_text_);
    bad_ = write("bad.g", bad_text_);
  }
  void TearDown() override {
    std::error_code ignored;
    fs::remove_all(dir_, ignored);
  }

  std::string write(const std::string& name, const std::string& text) {
    std::ofstream(dir_ / name) << text;
    return (dir_ / name).string();
  }

  /// Runs the binary with `args`, its stdout and stderr captured in files.
  Output punt(const std::vector<std::string>& args) {
    const std::string out = (dir_ / "stdout").string();
    const std::string err = (dir_ / "stderr").string();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, out.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    posix_spawn_file_actions_addopen(&actions, 2, err.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                                     0644);
    std::vector<std::string> strings = {PUNT_CLI_PATH};
    strings.insert(strings.end(), args.begin(), args.end());
    std::vector<char*> argv;
    argv.reserve(strings.size() + 1);
    for (std::string& arg : strings) argv.push_back(arg.data());
    argv.push_back(nullptr);
    pid_t pid = 0;
    const int spawned = posix_spawn(&pid, PUNT_CLI_PATH, &actions, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    Output run;
    if (spawned != 0) {
      ADD_FAILURE() << "cannot start " << PUNT_CLI_PATH << ": " << std::strerror(spawned);
      return run;
    }
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    run.out = read_text(out);
    run.err = read_text(err);
    return run;
  }

  fs::path dir_;
  std::string smoke_text_;
  std::string bad_text_;
  std::string smoke_;
  std::string bad_;
};

TEST_F(Cli, LintGateChecksHold) {
  const Output dump = punt({"bench", "dump", "tsbmSIBRK"});
  EXPECT_EQ(dump.exit_code, 0);
  EXPECT_EQ(dump.out, smoke_text_);
  EXPECT_EQ(punt({"lint", smoke_}).exit_code, 0);

  const Output bad = punt({"lint", bad_});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.out.find("[STG001]"), std::string::npos) << bad.out;
  EXPECT_TRUE(std::regex_search(bad.out, std::regex(":[0-9]+:[0-9]+: error:"))) << bad.out;
  EXPECT_NE(punt({"lint", "--json", bad_}).out.find("\"rule\": \"STG001\""), std::string::npos);

  const std::string socket = "--socket=" + (dir_ / "x").string();
  const std::pair<std::vector<std::string>, std::string> refused[] = {
      {{"synth", smoke_, "--model-cache-dir=x"}, "unknown punt synth flag '--model-cache-dir=x'"},
      {{"serve", socket, "--batch-window=2"}, "unknown punt serve flag"},
      {{"serve", socket, "--listen=tcp://127.0.0.1:1"}, "unknown punt serve flag"},
      {{"serve", socket, "--idle-timeout=1"}, "unknown punt serve flag"},
      {{"synth", smoke_, "--token-file=t"}, "unknown punt synth flag"},
      {{"ping", "--connect=/tmp/none.sock", "--token-file=t"}, "unknown punt ping flag"},
      {{"resolve", smoke_, "--bogus"}, "unknown punt resolve flag '--bogus'"},
      {{"synth", "."}, "cannot read '.': it is a directory"},
  };
  for (const auto& [args, message] : refused) {
    const Output run = punt(args);
    EXPECT_NE(run.exit_code, 0) << args.front() << " " << args.back();
    EXPECT_NE(run.err.find(message), std::string::npos) << run.err;
  }
  EXPECT_NE(punt({"bench", "serve"}).exit_code, 0);
  EXPECT_FALSE(fs::exists(dir_ / "x")) << "a refused punt serve must not bind its socket";
}

TEST_F(Cli, UsageErrorsExitOneAndOtherErrorsExitTwo) {
  const std::vector<std::vector<std::string>> usage_errors = {
      {}, {"frobnicate"}, {"synth"}, {"check"}, {"lint"}, {"bench"}, {"bench", "serve"},
      {"bench", "dump"}, {"cache"}, {"cache", "flush"}, {"resolve"}, {"trace"}};
  for (const std::vector<std::string>& args : usage_errors) {
    const Output run = punt(args);
    EXPECT_EQ(run.exit_code, 1) << (args.empty() ? "(no command)" : args.front());
    EXPECT_NE(run.err.find("usage:"), std::string::npos) << run.err;
  }
  const std::string vme = write("vme.g", stg::write_g(stg::make_vme_bus()));
  const std::vector<std::vector<std::string>> errors = {
      {"synth", smoke_, "--bogus"},
      {"synth", (dir_ / "missing.g").string()},
      {"synth", smoke_, "--jobs=abc"},
      {"synth", smoke_, "--jobs=999"},
      {"synth", smoke_, "--connect="},
      {"synth", smoke_, "--trace-schedule="},
      {"synth", smoke_, "--jobs=2", "--connect=/tmp/none.sock"},
      {"synth", vme},
      {"synth", bad_},
      {"check", (dir_ / "missing.g").string()},
      {"lint", "--json"},
      {"lint", smoke_, "--Werror="},
      {"bench", "run", "--report=xml"},
      {"bench", "lint", "--json="},
      {"serve"},
      {"serve", "--socket=x", "--max-queue=0"},
      {"ping"},
      {"cache", "stats"},
      {"shutdown", "--connect=" + (dir_ / "none.sock").string()},
  };
  for (const std::vector<std::string>& args : errors) {
    const Output run = punt(args);
    EXPECT_EQ(run.exit_code, 2) << args.front() << " " << args.back() << ": " << run.err;
    EXPECT_FALSE(run.err.empty()) << args.front() << " " << args.back();
  }
  EXPECT_NE(punt({"synth", smoke_, "--jobs=2", "--connect=/tmp/none.sock"})
                .err.find("--jobs and --trace-schedule are direct-only flags"),
            std::string::npos);
}

TEST_F(Cli, DotAloneWritesNoEquations) {
  const Output run = punt({"synth", smoke_, "--dot"});
  ASSERT_EQ(run.exit_code, 0) << run.err;
  const std::string out = without_lines(run.out);
  EXPECT_EQ(out.substr(out.find('\n') + 1), stg::to_dot(stg::parse_g(smoke_text_)));
  const std::string eqn = without_lines(punt({"synth", smoke_}).out);
  EXPECT_EQ(without_lines(punt({"synth", smoke_, "--dot", "--eqn"}).out),
            eqn + stg::to_dot(stg::parse_g(smoke_text_)));
}

TEST_F(Cli, RefusedSpecPrintsTheHandlersRefusal) {
  // Every error finding labelled with the path, then the refusal line —
  // what a daemon answers for the same file.
  server::Request request;
  request.op = server::Op::Synth;
  request.g_text = bad_text_;
  request.name = bad_;
  const server::Response expected = server::run_synth(request, nullptr, nullptr);
  const Output run = punt({"synth", bad_});
  EXPECT_EQ(run.exit_code, 2);
  EXPECT_EQ(run.out, "");
  EXPECT_EQ(run.err, expected.log);
  EXPECT_NE(run.err.find(bad_ + ":"), std::string::npos) << run.err;
  EXPECT_NE(run.err.find("specification refused by lint"), std::string::npos) << run.err;
}

TEST_F(Cli, FlagsAreCheckedWhereverTheyStand) {
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"lint", "--rules", "--bogus"}, "unknown punt lint flag '--bogus'"},
      {{"lint", "--bogus", "--rules"}, "unknown punt lint flag '--bogus'"},
      {{"lint", smoke_, "--rules", "--jobs=abc"}, "invalid --jobs value 'abc'"},
      {{"synth", smoke_, "--jobs=abc", "--eqn"}, "invalid --jobs value 'abc'"},
  };
  for (const auto& [args, message] : cases) {
    const Output run = punt(args);
    EXPECT_EQ(run.exit_code, 2) << args[1] << " " << args[2];
    EXPECT_EQ(run.out, "") << "a refused run must not act on its other flags";
    EXPECT_NE(run.err.find(message), std::string::npos) << run.err;
  }
  const Output rules = punt({"lint", "--rules"});
  EXPECT_EQ(rules.exit_code, 0);
  EXPECT_NE(rules.out.find("semantic rules (--deep):"), std::string::npos);
}

TEST_F(Cli, ConnectedRunsPrintWhatDirectRunsPrint) {
  const std::string socket = (dir_ / "punt.sock").string();
  server::ServerOptions options;
  options.endpoint = server::unix_endpoint(socket);
  server::Server server(std::move(options));
  server.start();
  std::thread serving([&server] { server.serve(); });
  struct Stop {
    server::Server& server;
    std::thread& thread;
    ~Stop() {
      server.request_stop();
      thread.join();
    }
  } stop{server, serving};

  // The served log ends with the request's cache summary line; the rest of
  // every stream is the direct run's, the `# unfold` timing line aside.
  const std::vector<std::vector<std::string>> runs = {
      {"synth", smoke_, "--dot"},
      {"synth", smoke_, "--unfolding-dot", "--method=exact", "--arch=rs"},
      {"synth", bad_},
      {"lint", smoke_, "--deep", "--json"},
      {"lint", bad_},
      {"check", smoke_},
  };
  for (std::vector<std::string> args : runs) {
    const Output direct = punt(args);
    args.push_back("--connect=" + socket);
    const Output served = punt(args);
    const std::string where = args[0] + " " + args[2];
    EXPECT_EQ(served.exit_code, direct.exit_code) << where;
    EXPECT_EQ(without_lines(served.out), without_lines(direct.out)) << where;
    EXPECT_EQ(without_lines(served.err, "model cache: "), direct.err) << where;
    EXPECT_NE(served.err.find("model cache: "), std::string::npos) << where;
  }
}

}  // namespace
}  // namespace punt
