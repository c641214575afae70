// punt — command-line synthesis of speed-independent circuits from STGs.
//
//   punt synth <file.g> [--method=approx|exact|sg] [--arch=acg|c|rs]
//              [--eqn] [--verilog] [--dot] [--unfolding-dot] [--no-minimize]
//              [--jobs=N] [--trace-schedule=<file>]
//   punt check <file.g>            verify the general correctness criteria
//   punt lint <file.g ...> [--json] [--Werror[=STG006,...]] [--deep] [--jobs=N]
//             [--connect=<socket>] [--rules]
//                                  static analysis: every finding carries a
//                                  stable rule id, severity, line:column span
//                                  and fix hint; all findings of a file in
//                                  one pass (no first-error bail).  --json
//                                  emits punt-lint-report v2; --Werror
//                                  promotes warnings to errors.  --deep adds
//                                  the semantic tier (STG1xx): exact CSC,
//                                  persistency, 1-safety, consistency and
//                                  liveness verdicts over the reachable state
//                                  space, each carrying a witness firing
//                                  sequence mapped to source spans; exact
//                                  verdicts retract the structural
//                                  pre-screens they decide.  Files lint as
//                                  task-graph nodes (--jobs parallelises the
//                                  batch); deep models resolve through the
//                                  ModelCache (--connect reuses a daemon's
//                                  warm ones).  Exit 0 when no error-severity
//                                  finding, else 1
//   punt resolve <file.g>          repair CSC conflicts by signal insertion
//   punt bench list                list the Table-1 registry
//   punt bench dump <name>         print a registry entry as .g text
//   punt bench run [--jobs=N] [--method=...] [--arch=...] [--report=json]
//                  [--trace-schedule=<file>]
//                                  synthesise the registry through the
//                                  task-graph executor; Table-1 table with
//                                  paper columns, or JSON.  --trace-schedule
//                                  dumps the executed graph (nodes, workers,
//                                  timings) as JSON and prints the
//                                  critical-path summary
//   punt bench lint [--deep] [--json=<file>]
//                                  lint throughput over the registry (the
//                                  serve-admission budget check); asserts the
//                                  error-only admission fast path beats the
//                                  full pass.  --deep measures the semantic
//                                  tier over a warm shared ModelCache
//   punt trace <trace.json>        analyse a --trace-schedule dump offline:
//                                  per-worker occupancy, an ASCII Gantt lane
//                                  per worker, queue-wait statistics and the
//                                  critical path
//   punt cache stats --connect=<socket>
//                                  a running daemon's resident cache counters
//   punt serve --socket=<path> [--jobs=N] [--max-queue=N] [--send-timeout=S]
//                                  run the warm-model daemon on a Unix
//                                  socket: one resident ModelCache + thread
//                                  pool across requests; each synth request
//                                  is parsed once and runs on its connection
//                                  thread — over the pool when it runs alone,
//                                  inline while others run — and one beyond
//                                  --max-queue running at once is shed with
//                                  an "overloaded" refusal.  --jobs sizes the
//                                  pool a lone synth request, check and deep
//                                  lint use.  SIGTERM (or a client `punt
//                                  shutdown`) drains admitted work and exits
//                                  cleanly.  Remote clients forward the
//                                  socket over SSH
//   punt synth <file.g> --connect=<socket> [synth flags]
//   punt check <file.g> --connect=<socket>
//   punt lint <file.g ...> --connect=<socket> [lint flags]
//                                  delegate to the daemon; the result (and
//                                  the per-request hit/rebuild summary, on
//                                  stderr) comes back over the socket
//   punt ping --connect=<socket>   daemon liveness probe
//   punt shutdown --connect=<socket>
//                                  ask the daemon to drain and exit
//
// Each command builds the phase-1 semantic models (unfolding segment or
// state graph) it needs in memory and keeps nothing between runs.  `punt
// serve` keeps them warm across client invocations, so a repeated
// `--connect` synth costs no rebuild; the client prints the daemon's
// hit/rebuild summary to stderr.  Every command refuses an unknown flag or
// a stray operand with `unknown punt <command> flag`.
//
// Exit status: 0 on success.  1 on a usage error (no command, an unknown
// command or subcommand, a missing operand), when `punt lint` reports an
// error-severity finding, and when a `punt bench lint` check fails.  2 on
// every other error, with a diagnostic on stderr: an unknown flag, an
// unreadable file, a bad --jobs value, a specification that is not
// implementable, failed `punt bench run` rows.  A --connect client exits
// with the daemon's status for its request.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include <csignal>

#include "src/benchmarks/registry.hpp"
#include "src/benchmarks/report.hpp"
#include "src/benchmarks/trace_view.hpp"
#include "src/core/csc_resolve.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/rules.hpp"
#include "src/lint/semantic_rules.hpp"
#include "src/server/client.hpp"
#include "src/server/endpoint.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/netlist/netlist.hpp"
#include "src/sg/analysis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/dot.hpp"
#include "src/stg/g_format.hpp"
#include "src/unfolding/dot.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"
#include "src/util/task_graph.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  punt synth <file.g> [--method=approx|exact|sg] [--arch=acg|c|rs]\n"
               "             [--eqn] [--verilog] [--dot] [--unfolding-dot]\n"
               "             [--no-minimize] [--jobs=N] [--trace-schedule=<file>]\n"
               "  punt check <file.g>\n"
               "  punt lint <file.g ...> [--json] [--Werror[=STG006,...]] [--deep]\n"
               "            [--jobs=N] [--connect=<socket>] [--rules]\n"
               "  punt resolve <file.g>\n"
               "  punt bench list | punt bench dump <name>\n"
               "  punt bench lint [--deep] [--json=<file>]\n"
               "  punt bench run [--jobs=N] [--method=...] [--arch=...]\n"
               "                 [--report=json] [--trace-schedule=<file>]\n"
               "  punt trace <trace.json>\n"
               "  punt cache stats --connect=<socket>\n"
               "  punt serve --socket=<path> [--jobs=N] [--max-queue=N] [--send-timeout=S]\n"
               "  punt ping --connect=<socket>\n"
               "  punt shutdown --connect=<socket>\n"
               "(--jobs: worker threads; 0 = one per hardware thread.  For punt serve\n"
               " it sizes the pool used by a lone synth request, check and deep lint;\n"
               " a synth request that arrives while others run executes inline)\n"
               "(--max-queue: how many synth requests the daemon runs at once; one\n"
               " more is refused with an 'overloaded' error)\n"
               "(--trace-schedule: write the executed task graph as JSON and\n"
               " print its critical-path summary to stderr; `punt trace` renders\n"
               " the dump as per-worker occupancy lanes)\n"
               "(--connect: delegate synth/check/lint to a running `punt serve`\n"
               " daemon through its Unix socket; its models stay warm in memory\n"
               " across requests.  Reach a remote daemon by forwarding its socket:\n"
               " ssh -L /tmp/punt-local.sock:/tmp/punt.sock host)\n");
  return 1;
}

std::string read_file(const std::string& path) {
  // A directory opens as a stream but reads as empty, which the parser
  // would report as a missing .end directive.
  std::error_code error;
  if (std::filesystem::is_directory(path, error)) {
    throw punt::Error("cannot read '" + path + "': it is a directory");
  }
  std::ifstream in(path);
  if (!in) throw punt::Error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::size_t parse_jobs(const std::string& value) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    throw punt::Error("invalid --jobs value '" + value +
                      "'; expected a non-negative integer (0 = one worker per "
                      "hardware thread)");
  }
  const unsigned long jobs = std::strtoul(value.c_str(), nullptr, 10);
  constexpr unsigned long kMaxJobs = 256;
  if (jobs > kMaxJobs) {
    throw punt::Error("--jobs=" + value + " exceeds the maximum of " +
                      std::to_string(kMaxJobs));
  }
  return static_cast<std::size_t>(jobs);
}

/// Positive integer counts with a named bound (--max-queue, --send-timeout).
std::size_t parse_positive_count(const std::string& value, const char* flag,
                                 std::size_t max) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    throw punt::Error(std::string("invalid ") + flag + " value '" + value +
                      "'; expected a positive integer");
  }
  const unsigned long count = std::strtoul(value.c_str(), nullptr, 10);
  if (count == 0 || count > max) {
    throw punt::Error(std::string(flag) + "=" + value + " must be in 1.." +
                      std::to_string(max));
  }
  return static_cast<std::size_t>(count);
}

punt::core::SynthesisOptions parse_options(const std::vector<std::string>& args) {
  punt::core::SynthesisOptions options;
  for (const std::string& arg : args) {
    if (arg == "--method=approx") {
      options.method = punt::core::Method::UnfoldingApprox;
    } else if (arg == "--method=exact") {
      options.method = punt::core::Method::UnfoldingExact;
    } else if (arg == "--method=sg") {
      options.method = punt::core::Method::StateGraph;
    } else if (arg == "--arch=acg") {
      options.architecture = punt::core::Architecture::ComplexGate;
    } else if (arg == "--arch=c") {
      options.architecture = punt::core::Architecture::StandardC;
    } else if (arg == "--arch=rs") {
      options.architecture = punt::core::Architecture::RsLatch;
    } else if (arg == "--no-minimize") {
      options.minimize = false;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = parse_jobs(arg.substr(7));
    }
  }
  return options;
}

bool has_flag(const std::vector<std::string>& args, const char* flag) {
  for (const std::string& arg : args) {
    if (arg == flag) return true;
  }
  return false;
}

/// The flags parse_options reads; `punt synth` and `punt bench run` take
/// them.  A flag ending in '=' takes a value.
constexpr std::array<std::string_view, 8> kSynthesisFlags = {
    "--method=approx", "--method=exact", "--method=sg", "--arch=acg",
    "--arch=c",        "--arch=rs",      "--no-minimize", "--jobs="};

/// Refuses the first argument that is neither one of `flags` nor, with
/// `synthesis`, one of kSynthesisFlags — the error `punt lint` and `punt
/// serve` give, so a typo'd or retired flag, or a stray operand, fails
/// instead of running a different configuration.
void reject_unknown_flags(const std::vector<std::string>& args, const std::string& command,
                          bool synthesis, std::initializer_list<std::string_view> flags) {
  for (const std::string& arg : args) {
    const auto known = [&](std::string_view flag) {
      return flag.back() == '=' ? arg.rfind(flag, 0) == 0 : arg == flag;
    };
    if (std::any_of(flags.begin(), flags.end(), known) ||
        (synthesis && std::any_of(kSynthesisFlags.begin(), kSynthesisFlags.end(), known))) {
      continue;
    }
    throw punt::Error("unknown punt " + command + " flag '" + arg + "'");
  }
}

/// The payload of `--trace-schedule=<file>`, or empty when absent.
std::string trace_schedule_path(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--trace-schedule=", 0) == 0) {
      const std::string path = arg.substr(17);
      if (path.empty()) {
        throw punt::Error("--trace-schedule needs a file path "
                          "(e.g. --trace-schedule=schedule.json)");
      }
      return path;
    }
  }
  return std::string();
}

/// The payload of `--connect=<socket>`, or empty when absent.
std::string connect_target(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg.rfind("--connect=", 0) == 0) {
      const std::string socket = arg.substr(10);
      if (socket.empty()) {
        throw punt::Error("--connect needs the daemon's socket path "
                          "(e.g. --connect=/tmp/punt.sock)");
      }
      return socket;
    }
  }
  return std::string();
}

/// Writes the executed schedule as JSON and prints the critical-path summary
/// to stderr (stderr so `--report=json` output stays parseable).
void dump_trace(const punt::util::TaskTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw punt::Error("cannot write schedule trace to '" + path + "'");
  out << trace.to_json();
  if (!out) throw punt::Error("failed while writing schedule trace to '" + path + "'");
  std::fprintf(stderr, "%s", trace.summary().c_str());
  std::fprintf(stderr, "schedule trace written to %s\n", path.c_str());
}

// --- Serve-mode client side ---------------------------------------------------

/// Round-trips `request` and replays the daemon's answer as if the work had
/// run here: response.output to stdout, response.log (the diagnostic and
/// the per-request hit/rebuild summary) to stderr, exit code passed through.
int run_client(const std::string& socket, const punt::server::Request& request) {
  const punt::server::Response response = punt::server::request_once(socket, request);
  std::fputs(response.output.c_str(), stdout);
  std::fputs(response.log.c_str(), stderr);
  return response.exit_code;
}

/// Flags that make no sense against a daemon (it owns its jobs policy and
/// model cache; the dot writers and schedule trace are direct-mode only).
/// Runs before dialling, so the conflict is reported without a daemon.
void reject_direct_only_flags(const std::vector<std::string>& args) {
  for (const std::string& arg : args) {
    if (arg == "--dot" || arg == "--unfolding-dot" ||
        arg.rfind("--trace-schedule=", 0) == 0 || arg.rfind("--jobs=", 0) == 0) {
      throw punt::Error("'" + arg.substr(0, arg.find('=')) +
                        "' is a direct-only flag and cannot be combined with "
                        "--connect: the daemon owns its worker pool and model "
                        "cache, and writers beyond --eqn/--verilog run only in "
                        "direct mode");
    }
  }
}

int delegate_synth(const std::string& socket, const std::string& path,
                   const std::vector<std::string>& args) {
  punt::server::Request request;
  request.op = punt::server::Op::Synth;
  request.g_text = read_file(path);
  for (const std::string& arg : args) {
    if (arg == "--method=approx") request.method = "approx";
    else if (arg == "--method=exact") request.method = "exact";
    else if (arg == "--method=sg") request.method = "sg";
    else if (arg == "--arch=acg") request.arch = "acg";
    else if (arg == "--arch=c") request.arch = "c";
    else if (arg == "--arch=rs") request.arch = "rs";
    else if (arg == "--no-minimize") request.minimize = false;
  }
  request.eqn = has_flag(args, "--eqn");
  request.verilog = has_flag(args, "--verilog");
  return run_client(socket, request);
}

int delegate_check(const std::string& socket, const std::string& path,
                   const std::vector<std::string>& /*args*/) {
  punt::server::Request request;
  request.op = punt::server::Op::Check;
  request.g_text = read_file(path);
  return run_client(socket, request);
}

int cmd_synth(const std::string& path, const std::vector<std::string>& args) {
  reject_unknown_flags(args, "synth", /*synthesis=*/true,
                       {"--eqn", "--verilog", "--dot", "--unfolding-dot",
                        "--trace-schedule=", "--connect="});
  const std::string socket = connect_target(args);
  if (!socket.empty()) {
    reject_direct_only_flags(args);
    return delegate_synth(socket, path, args);
  }
  const punt::stg::Stg stg = punt::stg::parse_g(read_file(path));
  const punt::core::SynthesisOptions options = parse_options(args);
  const std::string trace_path = trace_schedule_path(args);
  punt::util::TaskTrace trace;
  const punt::core::SynthesisResult result = punt::core::synthesize(
      stg, options, nullptr, trace_path.empty() ? nullptr : &trace);
  if (!trace_path.empty()) dump_trace(trace, trace_path);
  const punt::net::Netlist netlist = punt::net::Netlist::from_synthesis(stg, result);

  std::printf("# %s: %zu signals, %zu literals\n", stg.name().c_str(),
              stg.signal_count(), netlist.literal_count());
  std::printf("# unfold %.4fs derive %.4fs minimise %.4fs total %.4fs\n",
              result.unfold_seconds, result.derive_seconds, result.minimize_seconds,
              result.total_seconds);
  const bool any_writer = has_flag(args, "--eqn") || has_flag(args, "--verilog") ||
                          has_flag(args, "--dot") || has_flag(args, "--unfolding-dot");
  if (has_flag(args, "--eqn") || !any_writer) std::printf("%s", netlist.to_eqn().c_str());
  if (has_flag(args, "--verilog")) {
    std::printf("%s", netlist.to_verilog(stg.name()).c_str());
  }
  if (has_flag(args, "--dot")) std::printf("%s", punt::stg::to_dot(stg).c_str());
  if (has_flag(args, "--unfolding-dot")) {
    std::printf("%s", punt::unf::to_dot(punt::unf::Unfolding::build(stg)).c_str());
  }
  return 0;
}

int cmd_check(const std::string& path, const std::vector<std::string>& args) {
  reject_unknown_flags(args, "check", /*synthesis=*/false, {"--connect="});
  const std::string socket = connect_target(args);
  if (!socket.empty()) {
    reject_direct_only_flags(args);
    return delegate_check(socket, path, args);
  }
  // The direct path runs the same server::run_check the daemon dispatches
  // to, so `--connect` byte-parity holds by construction: one ModelCache
  // shared between the criteria checks and the embedded CSC synthesis run
  // (the unfolding segment is built exactly once), verdict lines and the
  // delta-based "semantic model" summary rendered in exactly one place.
  punt::core::ModelCache cache;
  punt::server::Request request;
  request.op = punt::server::Op::Check;
  request.g_text = read_file(path);
  const punt::server::Response response =
      punt::server::run_check(request, cache, nullptr, /*summarize_cache=*/false);
  std::fputs(response.output.c_str(), stdout);
  std::fputs(response.log.c_str(), stderr);
  return response.exit_code;
}

// --- punt lint ----------------------------------------------------------------

/// The rule catalog as `punt lint --help` prints it: both tiers, so a user
/// deciding whether --deep is worth a state-space build sees what it buys.
void print_lint_rules() {
  std::printf("punt lint <file.g ...> [--json] [--Werror[=STG006,...]] [--deep]\n"
              "          [--jobs=N] [--connect=<socket>] [--rules]\n"
              "  static analysis of STG specs: every finding carries a rule id,\n"
              "  a severity, a line:column source span and a fix hint.  Exit 0\n"
              "  when no file has error-severity findings, 1 otherwise.\n"
              "  --json     machine output (punt-lint-report v2)\n"
              "  --Werror   promote all warnings to errors (notes stay notes);\n"
              "             --Werror=STG006,STG008 promotes only those rules\n"
              "  --deep     add the semantic tier: exact CSC, persistency,\n"
              "             1-safety, consistency, liveness verdicts over the\n"
              "             reachable state space, each with a witness firing\n"
              "             sequence; an exact verdict retracts the structural\n"
              "             pre-screens it decides (STG004/007/008/010)\n"
              "  --jobs=N   lint files concurrently (0 = hardware threads)\n"
              "  --connect  lint on a running daemon (its models stay warm)\n"
              "  --rules    print this rule catalog\n\nstructural rules:\n");
  for (const auto& rule : punt::lint::rule_catalog()) {
    std::printf("  %s  %-7s  %s\n", rule.id, punt::util::severity_name(rule.severity),
                rule.summary);
  }
  std::printf("\nsemantic rules (--deep):\n");
  for (const auto& rule : punt::lint::semantic_rule_catalog()) {
    std::printf("  %s  %-7s  %s\n", rule.id, punt::util::severity_name(rule.severity),
                rule.summary);
  }
}

int delegate_lint(const std::string& socket, const std::vector<std::string>& files,
                  bool deep, bool json, const punt::lint::LintOptions& options) {
  punt::server::Request request;
  request.op = punt::server::Op::Lint;
  request.lint_deep = deep;
  request.lint_json = json;
  request.lint_werror = options.promote_all_warnings;
  request.lint_werror_rules = options.promote_rules;
  request.lint_files.reserve(files.size());
  for (const std::string& path : files) {
    // Files are read *here*: the daemon sees only text and display labels,
    // never client paths to open.
    request.lint_files.push_back({path, read_file(path)});
  }
  return run_client(socket, request);
}

int cmd_lint(const std::vector<std::string>& args) {
  std::vector<std::string> files;
  punt::lint::LintOptions options;
  bool json = false;
  std::size_t jobs = 1;
  for (const std::string& arg : args) {
    if (arg == "--json") {
      json = true;
    } else if (arg == "--Werror") {
      options.promote_all_warnings = true;
    } else if (arg.rfind("--Werror=", 0) == 0) {
      for (const std::string& id : punt::split(arg.substr(9), ",")) {
        options.promote_rules.push_back(id);
      }
      if (options.promote_rules.empty()) {
        throw punt::Error("--Werror= needs rule ids (e.g. --Werror=STG006,STG008)");
      }
    } else if (arg == "--deep") {
      options.deep = true;
    } else if (arg.rfind("--jobs=", 0) == 0) {
      jobs = parse_jobs(arg.substr(7));
    } else if (arg.rfind("--connect=", 0) == 0) {
      // Parsed and validated by connect_target below.
    } else if (arg == "--rules" || arg == "--help") {
      print_lint_rules();
      return 0;
    } else if (arg.rfind("--", 0) == 0) {
      throw punt::Error("unknown punt lint flag '" + arg + "'");
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    throw punt::Error("punt lint needs at least one <file.g> "
                      "(--rules prints the rule catalog)");
  }
  const std::string socket = connect_target(args);
  if (!socket.empty()) {
    reject_direct_only_flags(args);
    return delegate_lint(socket, files, options.deep, json, options);
  }
  // Direct mode.  The deep tier resolves its exact state-graph models
  // through a ModelCache, so a batch repeating one spec under different
  // names still builds it once.
  punt::core::ModelCache cache;
  if (options.deep) options.cache = &cache;
  std::unique_ptr<punt::core::Executor> executor;
  if (jobs != 1) {
    executor = std::make_unique<punt::core::Executor>(jobs);
    options.executor = executor.get();
  }
  std::vector<punt::lint::FileInput> inputs;
  inputs.reserve(files.size());
  for (const std::string& path : files) {
    inputs.push_back({path, read_file(path)});
  }
  const std::vector<punt::lint::FileLint> lints = punt::lint::lint_files(inputs, options);
  bool any_errors = false;
  for (std::size_t i = 0; i < lints.size(); ++i) {
    any_errors = any_errors || !lints[i].ok();
    if (!json) {
      std::printf("%s", punt::lint::render_human(lints[i], inputs[i].text).c_str());
    }
  }
  if (json) std::printf("%s", punt::lint::render_json(lints).c_str());
  return any_errors ? 1 : 0;
}

/// A deliberately concurrency-heavy spec for the admission fast-path
/// speedup assert: a `branches`-wide fork/join ring (its co-marked place
/// set is O(branches^2)) plus an input choice merging through duplicate
/// instances of one signal — the two triggers that make the warning tier
/// compute its place-concurrency fixed points.  Registry specs are too
/// small for those fixed points to dominate (parsing does), so a fast-path
/// regression could hide there; it cannot hide here.  The spec lints clean,
/// so the comparison times rules, not diagnostic construction.
std::string lint_stress_spec(std::size_t branches) {
  std::string g = ".model lintstress\n.inputs i1 i2 x\n.outputs a c";
  for (std::size_t i = 0; i < branches; ++i) g += " b" + std::to_string(i);
  g += "\n.graph\na+";
  for (std::size_t i = 0; i < branches; ++i) g += " b" + std::to_string(i) + "+";
  g += " s\n";
  for (std::size_t i = 0; i < branches; ++i) {
    g += "b" + std::to_string(i) + "+ c+\n";
  }
  g += "c+ a- r\na-";
  for (std::size_t i = 0; i < branches; ++i) g += " b" + std::to_string(i) + "-";
  g += "\n";
  for (std::size_t i = 0; i < branches; ++i) {
    g += "b" + std::to_string(i) + "- c-\n";
  }
  g += "c- a+\n";
  // The gadget: choice p0 resolved by inputs, duplicate x+ instances with
  // distinct presets (so STG010 stays silent) merging into m, and second
  // pre-places s/r so no edge reads as self-triggering.
  g += "p0 i1+ i2+\ns i1+ i2+\ni1+ x+\ni2+ x+/2\nx+ m\nx+/2 m\nm x-\nr x-\n"
       "x- q\nq i1- i2-\ni1- p0\ni2- p0\n";
  g += ".marking { <c-,a+> p0 }\n.end\n";
  return g;
}

/// `punt bench lint [--deep] [--json=<file>]`: lint throughput over the
/// Table-1 registry.  The default mode is the admission-control budget check
/// (specs/sec must stay far above any realistic request rate) and now also
/// *asserts* that the error-only admission fast path beats the full pass —
/// the fast path exists to skip the fixed-point warning rules, and this is
/// where a regression that re-grows it would surface.  --deep measures the
/// semantic tier over a warm shared ModelCache: the steady-state cost of
/// deep-linting a spec whose model is resident.
int cmd_bench_lint(const std::vector<std::string>& args) {
  std::string json_path;
  bool deep = false;
  for (const std::string& arg : args) {
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      if (json_path.empty()) {
        throw punt::Error("--json needs a file path (e.g. --json=BENCH_lint.json)");
      }
    } else if (arg == "--deep") {
      deep = true;
    } else {
      throw punt::Error("unknown punt bench lint flag '" + arg + "'");
    }
  }
  std::vector<std::string> texts;
  for (const auto& bench : punt::benchmarks::table1()) {
    texts.push_back(punt::stg::write_g(bench.make()));
  }
  // Timed passes accumulate ~200ms per measurement so the rates are stable
  // on a loaded CI runner; each measurement gets a warm-up pass first.
  const auto measure = [](const auto& pass_fn, std::size_t per_pass,
                          std::size_t& specs, std::size_t& passes) {
    pass_fn();  // warm-up
    specs = 0;
    passes = 0;
    const auto start = std::chrono::steady_clock::now();
    double wall = 0;
    while (wall < 0.2) {
      pass_fn();
      specs += per_pass;
      ++passes;
      wall = std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
                 .count();
    }
    return wall;
  };

  if (deep) {
    // One shared memory cache across passes: the first (warm-up) pass builds
    // every model, the timed passes measure the resident steady state — the
    // number a warm daemon's per-request deep lint tracks.
    punt::core::ModelCache cache;
    punt::lint::LintOptions options;
    options.deep = true;
    options.cache = &cache;
    std::size_t findings = 0;
    const auto pass = [&] {
      for (const std::string& text : texts) {
        findings += punt::lint::lint_text(text, "bench", options).diagnostics.size();
      }
    };
    std::size_t specs = 0;
    std::size_t passes = 0;
    const double wall = measure(pass, texts.size(), specs, passes);
    const double rate = specs / wall;
    const punt::core::ModelCacheStats stats = cache.stats();
    std::printf("# deep lint micro-bench: %zu registry specs x %zu passes (warm cache)\n",
                texts.size(), passes);
    std::printf("wall %.3fs, %.0f specs/sec, %.1f us/spec, %zu findings, "
                "%zu build(s), %zu hit(s)\n",
                wall, rate, 1e6 * wall / specs, findings, stats.builds, stats.hits);
    if (stats.builds > texts.size()) {
      std::fprintf(stderr,
                   "error: warm deep-lint passes rebuilt models (%zu builds for "
                   "%zu specs); the ModelCache should absorb every repeat\n",
                   stats.builds, texts.size());
      return 1;
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!out) throw punt::Error("cannot write '" + json_path + "'");
      out << punt::printf_string(
          "{\"schema\": \"punt-bench-lint-deep\", \"version\": 1, \"specs\": %zu, "
          "\"passes\": %zu, \"wall_seconds\": %.6f, \"specs_per_second\": %.1f, "
          "\"us_per_spec\": %.3f, \"findings\": %zu, \"builds\": %zu, "
          "\"hits\": %zu}\n",
          texts.size(), passes, wall, rate, 1e6 * wall / specs, findings,
          stats.builds, stats.hits);
      if (!out.flush()) throw punt::Error("short write to '" + json_path + "'");
      std::fprintf(stderr, "wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  std::size_t findings = 0;
  const auto full_pass = [&] {
    for (const std::string& text : texts) {
      findings += punt::lint::lint_text(text, "bench").diagnostics.size();
    }
  };
  std::size_t specs = 0;
  std::size_t passes = 0;
  const double wall = measure(full_pass, texts.size(), specs, passes);
  const double rate = specs / wall;
  std::printf("# lint micro-bench: %zu registry specs x %zu passes\n", texts.size(),
              passes);
  std::printf("wall %.3fs, %.0f specs/sec, %.1f us/spec, %zu findings\n", wall, rate,
              1e6 * wall / specs, findings);

  const std::string stress = lint_stress_spec(128);
  std::size_t defects = 0;
  std::size_t stress_findings = 0;
  std::size_t full_specs = 0;
  std::size_t full_passes = 0;
  const double stress_full_wall = measure(
      [&] { stress_findings += punt::lint::lint_text(stress, "stress").diagnostics.size(); },
      1, full_specs, full_passes);
  std::size_t fast_specs = 0;
  std::size_t fast_passes = 0;
  const double stress_fast_wall = measure(
      [&] { defects += punt::lint::lint_errors(stress).size(); }, 1, fast_specs,
      fast_passes);
  const double full_us = 1e6 * stress_full_wall / full_specs;
  const double fast_us = 1e6 * stress_fast_wall / fast_specs;
  const double speedup = full_us / fast_us;
  std::printf("# admission fast path, concurrency-stress spec: full %.0f us, "
              "fast %.0f us, %.2fx (%zu findings, %zu defects)\n",
              full_us, fast_us, speedup, stress_findings, defects);
  // The real ratio is order-of-magnitude (the fast path skips both fixed
  // points; this spec makes them the dominant cost); 2x keeps the assert
  // far from scheduler noise while still catching "the fast path quietly
  // runs the fixed points again".
  if (speedup < 2.0) {
    std::fprintf(stderr,
                 "error: the admission fast path is only %.2fx a full lint on "
                 "the concurrency-stress spec; it must skip the fixed-point "
                 "warning rules\n",
                 speedup);
    return 1;
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) throw punt::Error("cannot write '" + json_path + "'");
    out << punt::printf_string(
        "{\"schema\": \"punt-bench-lint\", \"version\": 2, \"specs\": %zu, "
        "\"passes\": %zu, \"wall_seconds\": %.6f, \"specs_per_second\": %.1f, "
        "\"us_per_spec\": %.3f, \"findings\": %zu, "
        "\"stress_full_us\": %.3f, \"stress_fast_us\": %.3f, "
        "\"fast_speedup\": %.3f}\n",
        texts.size(), passes, wall, rate, 1e6 * wall / specs, findings, full_us,
        fast_us, speedup);
    if (!out.flush()) throw punt::Error("short write to '" + json_path + "'");
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  }
  return 0;
}

int cmd_resolve(const std::string& path) {
  const punt::stg::Stg stg = punt::stg::parse_g(read_file(path));
  const auto resolution = punt::core::resolve_csc(stg);
  if (!resolution) {
    std::fprintf(stderr, "no single-signal insertion repairs this STG\n");
    return 2;
  }
  if (resolution->signals_added == 0) {
    std::fprintf(stderr, "# specification already satisfies CSC; unchanged\n");
  } else {
    std::fprintf(stderr, "# inserted state signal: rise after %s, fall after %s\n",
                 resolution->rise_after.c_str(), resolution->fall_after.c_str());
  }
  std::printf("%s", punt::stg::write_g(resolution->stg).c_str());
  return 0;
}

int cmd_bench_run(const std::vector<std::string>& args) {
  reject_unknown_flags(args, "bench run", /*synthesis=*/true,
                       {"--report=", "--trace-schedule="});
  punt::core::BatchOptions batch_options;
  batch_options.synthesis = parse_options(args);
  batch_options.jobs = batch_options.synthesis.jobs;
  // Benchmarks with genuine CSC conflicts should report, not abort the run.
  batch_options.synthesis.throw_on_csc = false;

  bool json = false;
  for (const std::string& arg : args) {
    if (arg == "--report=json") {
      json = true;
    } else if (arg.rfind("--report=", 0) == 0) {
      throw punt::Error("invalid --report value '" + arg.substr(9) +
                        "'; the only supported report format is 'json'");
    }
  }
  const std::string trace_path = trace_schedule_path(args);
  punt::util::TaskTrace trace;
  if (!trace_path.empty()) batch_options.trace = &trace;

  std::vector<punt::stg::Stg> stgs;
  for (const auto& bench : punt::benchmarks::table1()) stgs.push_back(bench.make());
  const punt::core::BatchResult batch = punt::core::synthesize_batch(stgs, batch_options);
  const punt::benchmarks::Table1Report report = punt::benchmarks::make_report(batch);
  if (!trace_path.empty()) dump_trace(trace, trace_path);

  if (json) {
    std::printf("%s", punt::benchmarks::to_json(report).c_str());
    return report.failures() == 0 ? 0 : 2;
  }
  std::printf("# Table-1 registry through the task-graph executor, %zu job(s)\n\n",
              batch.jobs);
  std::printf("%s", punt::benchmarks::format_table1(report).c_str());
  std::printf("(paperTot/papLit: the 1997 paper's TotTim and literal count)\n");
  std::printf("wall %.3fs (critical path %.3fs) across %zu entr%s\n", batch.wall_seconds,
              batch.critical_path_seconds, report.rows.size(),
              report.rows.size() == 1 ? "y" : "ies");
  return report.failures() == 0 ? 0 : 2;
}

int cmd_trace(const std::string& path) {
  punt::util::TaskTrace trace;
  try {
    trace = punt::benchmarks::trace_from_json(read_file(path));
  } catch (const punt::ParseError& e) {
    throw punt::Error("cannot read schedule trace '" + path + "': " + e.what());
  }
  std::printf("%s", punt::benchmarks::format_trace(trace).c_str());
  return 0;
}

// --- Serve mode ---------------------------------------------------------------

/// The running server, for the signal handlers; handlers only call
/// request_stop(), which merely stores an atomic flag the accept loop polls.
punt::server::Server* g_server = nullptr;

extern "C" void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(const std::vector<std::string>& args) {
  punt::server::ServerOptions options;
  std::string socket_path;
  for (const std::string& arg : args) {
    if (arg.rfind("--socket=", 0) == 0) {
      socket_path = arg.substr(9);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      options.jobs = parse_jobs(arg.substr(7));
    } else if (arg.rfind("--max-queue=", 0) == 0) {
      options.max_queue = parse_positive_count(arg.substr(12), "--max-queue", 65536);
    } else if (arg.rfind("--send-timeout=", 0) == 0) {
      options.send_timeout_seconds = static_cast<long>(
          parse_positive_count(arg.substr(15), "--send-timeout", 3600));
    } else {
      // Strict, unlike the synthesis commands: a daemon started with a
      // typo'd flag would silently serve with the wrong configuration until
      // someone noticed.
      throw punt::Error("unknown punt serve flag '" + arg + "'");
    }
  }
  if (socket_path.empty()) {
    throw punt::Error("punt serve needs --socket=<path> naming its Unix socket");
  }
  options.endpoint = punt::server::unix_endpoint(socket_path);
  punt::server::Server server(std::move(options));
  server.start();
  // RAII so an error path (serve() throwing) also detaches the handlers
  // before `server` is destroyed — a SIGTERM arriving while the stack
  // unwinds must not reach request_stop() on a dead object.
  struct SignalGuard {
    explicit SignalGuard(punt::server::Server* server) {
      g_server = server;
      std::signal(SIGTERM, handle_stop_signal);
      std::signal(SIGINT, handle_stop_signal);
    }
    ~SignalGuard() {
      std::signal(SIGTERM, SIG_DFL);
      std::signal(SIGINT, SIG_DFL);
      g_server = nullptr;
    }
  } signal_guard(&server);
  std::fprintf(stderr, "punt serve: listening on %s, %zu job(s)\n", socket_path.c_str(),
               server.jobs());
  server.serve();
  std::fprintf(stderr, "punt serve: drained; served %zu request(s)\n",
               server.requests_served());
  std::fprintf(stderr, "%s", punt::core::summarize(server.cache().stats()).c_str());
  return 0;
}

int cmd_ping(const std::vector<std::string>& args) {
  reject_unknown_flags(args, "ping", /*synthesis=*/false, {"--connect="});
  const std::string socket = connect_target(args);
  if (socket.empty()) {
    throw punt::Error("punt ping needs --connect=<socket> naming the daemon");
  }
  punt::server::Request request;
  request.op = punt::server::Op::Ping;
  return run_client(socket, request);
}

int cmd_shutdown(const std::vector<std::string>& args) {
  reject_unknown_flags(args, "shutdown", /*synthesis=*/false, {"--connect="});
  const std::string socket = connect_target(args);
  if (socket.empty()) {
    throw punt::Error("punt shutdown needs --connect=<socket> naming the daemon");
  }
  punt::server::Request request;
  request.op = punt::server::Op::Shutdown;
  const int exit_code = run_client(socket, request);
  std::fprintf(stderr, "server at %s acknowledged shutdown; it drains in-flight "
               "requests and exits\n", socket.c_str());
  return exit_code;
}

int cmd_cache(const std::vector<std::string>& args) {
  if (args.empty() || args[0] != "stats") return usage();
  const std::vector<std::string> rest{args.begin() + 1, args.end()};
  reject_unknown_flags(rest, "cache stats", /*synthesis=*/false, {"--connect="});
  const std::string socket = connect_target(rest);
  if (socket.empty()) {
    throw punt::Error("punt cache stats needs --connect=<socket> naming the daemon");
  }
  punt::server::Request request;
  request.op = punt::server::Op::CacheStats;
  return run_client(socket, request);
}

int cmd_bench(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "run") {
    return cmd_bench_run({args.begin() + 1, args.end()});
  }
  if (!args.empty() && args[0] == "lint") {
    return cmd_bench_lint({args.begin() + 1, args.end()});
  }
  if (!args.empty() && args[0] == "list") {
    reject_unknown_flags({args.begin() + 1, args.end()}, "bench list", /*synthesis=*/false, {});
    for (const auto& bench : punt::benchmarks::table1()) {
      std::printf("%-24s %3zu signals  # %s\n", bench.name.c_str(), bench.signals,
                  bench.note.c_str());
    }
    return 0;
  }
  if (args.size() >= 2 && args[0] == "dump") {
    reject_unknown_flags({args.begin() + 2, args.end()}, "bench dump", /*synthesis=*/false, {});
    std::printf("%s", punt::stg::write_g(punt::benchmarks::find(args[1]).make()).c_str());
    return 0;
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    const std::string& command = args[0];
    if (command == "synth" && args.size() >= 2) {
      return cmd_synth(args[1], {args.begin() + 2, args.end()});
    }
    if (command == "check" && args.size() >= 2) {
      return cmd_check(args[1], {args.begin() + 2, args.end()});
    }
    if (command == "lint" && args.size() >= 2) {
      return cmd_lint({args.begin() + 1, args.end()});
    }
    if ((command == "resolve" || command == "trace") && args.size() >= 2) {
      reject_unknown_flags({args.begin() + 2, args.end()}, command, /*synthesis=*/false, {});
      return command == "resolve" ? cmd_resolve(args[1]) : cmd_trace(args[1]);
    }
    if (command == "bench") return cmd_bench({args.begin() + 1, args.end()});
    if (command == "cache") return cmd_cache({args.begin() + 1, args.end()});
    if (command == "serve") return cmd_serve({args.begin() + 1, args.end()});
    if (command == "ping") return cmd_ping({args.begin() + 1, args.end()});
    if (command == "shutdown") return cmd_shutdown({args.begin() + 1, args.end()});
    return usage();
  } catch (const punt::CscError& e) {
    std::fprintf(stderr, "CSC conflict: %s\n(try `punt resolve`)\n", e.what());
    return 2;
  } catch (const punt::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
