// punt — command-line synthesis of speed-independent circuits from STGs.
// `punt` with no arguments lists the commands and their flags.
//
// Exit status: 0 on success.  1 on a usage error (no command, an unknown
// command or subcommand, a missing operand), when `punt lint` reports an
// error-severity finding, and when a `punt bench lint` check fails.  2 on
// every other error, with a diagnostic on stderr: an unknown flag, an
// unreadable file, a bad --jobs value, a specification that is not
// implementable, failed `punt bench run` rows.  A --connect client exits
// with the daemon's status for its request.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>
#include <vector>

#include <csignal>

#include "src/benchmarks/registry.hpp"
#include "src/benchmarks/report.hpp"
#include "src/benchmarks/trace_view.hpp"
#include "src/core/csc_resolve.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/rules.hpp"
#include "src/lint/semantic_rules.hpp"
#include "src/server/client.hpp"
#include "src/server/endpoint.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
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

/// One flag of a command's table.  A name ending in '=' takes a value: it
/// matches every argument it prefixes, and `apply` gets the rest.
struct Flag {
  std::string_view name;
  std::function<void(const std::string&)> apply;
};

/// An `apply` that sets `field` to `value`.
template <typename Field, typename Value>
std::function<void(const std::string&)> set(Field& field, Value value) {
  return [&field, value](const std::string&) { field = value; };
}

/// Applies `args` to `table` in order and returns the operands: the
/// arguments that do not start with "--", which only a command that
/// `takes_operands` accepts.  Every argument is matched before any is
/// applied, so an unknown flag or a stray operand is refused wherever it
/// stands, and every value is checked before the command acts.
std::vector<std::string> parse_flags(const std::vector<std::string>& args,
                                     const std::string& command,
                                     const std::vector<Flag>& table,
                                     bool takes_operands = false) {
  std::vector<std::pair<const Flag*, std::string>> matched;
  std::vector<std::string> operands;
  for (const std::string& arg : args) {
    const auto flag = std::find_if(table.begin(), table.end(), [&arg](const Flag& f) {
      return f.name.back() == '=' ? arg.starts_with(f.name) : arg == f.name;
    });
    if (flag != table.end()) {
      matched.emplace_back(&*flag, arg.substr(flag->name.size()));
    } else if (takes_operands && !arg.starts_with("--")) {
      operands.push_back(arg);
    } else {
      throw punt::Error("unknown punt " + command + " flag '" + arg + "'");
    }
  }
  for (const auto& [flag, value] : matched) flag->apply(value);
  return operands;
}

Flag connect_flag(std::string& socket) {
  return {"--connect=", [&socket](const std::string& value) {
            if (value.empty()) {
              throw punt::Error("--connect needs the daemon's socket path "
                                "(e.g. --connect=/tmp/punt.sock)");
            }
            socket = value;
          }};
}

/// The flags that choose a synthesis configuration, read into a request
/// that server::options_of maps; `punt synth` and `punt bench run` take them.
std::vector<Flag> synthesis_flags(punt::server::Request& request) {
  return {{"--method=approx", set(request.method, "approx")},
          {"--method=exact", set(request.method, "exact")},
          {"--method=sg", set(request.method, "sg")},
          {"--arch=acg", set(request.arch, "acg")},
          {"--arch=c", set(request.arch, "c")},
          {"--arch=rs", set(request.arch, "rs")},
          {"--no-minimize", set(request.minimize, false)}};
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

/// Prints a handler's or a daemon's response as this process's own output
/// and returns its exit code.
int print(const punt::server::Response& response) {
  std::fputs(response.output.c_str(), stdout);
  std::fputs(response.log.c_str(), stderr);
  return response.exit_code;
}

/// A `punt synth`, `punt check` or `punt lint` run — and the synthesis
/// settings of `punt bench run` — as read from the command's flags.
struct Invocation {
  punt::server::Request request;
  std::vector<std::string> paths;  // the spec files, read only when it runs
  std::string socket;              // --connect
  std::size_t jobs = 1;            // --jobs
  std::string trace_path;          // --trace-schedule
  bool direct_only = false;        // --jobs or --trace-schedule was given

  explicit Invocation(punt::server::Op op) { request.op = op; }
  Invocation(const Invocation&) = delete;  // its flags hold `this`
  Invocation& operator=(const Invocation&) = delete;

  // --jobs and --trace-schedule configure this process, so a run sent to
  // a daemon refuses them.
  Flag jobs_flag() {
    return {"--jobs=", [this](const std::string& value) {
              jobs = parse_jobs(value);
              direct_only = true;
            }};
  }
  Flag trace_flag() {
    return {"--trace-schedule=", [this](const std::string& value) {
              if (value.empty()) {
                throw punt::Error("--trace-schedule needs a file path "
                                  "(e.g. --trace-schedule=schedule.json)");
              }
              trace_path = value;
              direct_only = true;
            }};
  }
};

/// Runs a synth, check or lint request through the handler `punt serve`
/// dispatches to, in-process, or sends it to the daemon named by
/// --connect; either way the response prints the same bytes.
int run(Invocation& invocation) {
  if (!invocation.socket.empty() && invocation.direct_only) {
    // Before dialling, so the conflict is reported without a daemon.
    throw punt::Error("--jobs and --trace-schedule are direct-only flags and cannot be "
                      "combined with --connect: they configure this process, and the "
                      "daemon runs on its own worker pool");
  }
  punt::server::Request& request = invocation.request;
  for (const std::string& path : invocation.paths) {
    // Files are read *here*: a daemon sees only text and display labels,
    // never client paths to open.
    if (request.op == punt::server::Op::Lint) {
      request.lint_files.push_back({path, read_file(path)});
    } else {
      request.g_text = read_file(path);
      request.name = path;
    }
  }
  if (!invocation.socket.empty()) {
    return print(punt::server::request_once(invocation.socket, request));
  }
  punt::core::ModelCache cache;
  punt::core::Executor executor(invocation.jobs);
  if (request.op == punt::server::Op::Check) {
    return print(punt::server::run_check(request, cache, &executor));
  }
  if (request.op == punt::server::Op::Lint) {
    return print(punt::server::run_lint(request, cache, &executor));
  }
  const punt::server::SynthJob job = punt::server::prepare_synth(std::move(request));
  punt::util::TaskTrace trace;
  const bool traced = !invocation.trace_path.empty();
  const punt::server::Response response =
      punt::server::run_synth(job, &cache, &executor, traced ? &trace : nullptr);
  if (traced && job.ok) dump_trace(trace, invocation.trace_path);
  return print(response);
}

int cmd_synth(const std::string& path, const std::vector<std::string>& args) {
  Invocation synth(punt::server::Op::Synth);
  synth.paths = {path};
  punt::server::Request& request = synth.request;
  std::vector<Flag> flags = synthesis_flags(request);
  flags.insert(flags.end(), {{"--eqn", set(request.eqn, true)},
                             {"--verilog", set(request.verilog, true)},
                             {"--dot", set(request.dot, true)},
                             {"--unfolding-dot", set(request.unfolding_dot, true)},
                             synth.jobs_flag(),
                             synth.trace_flag(),
                             connect_flag(synth.socket)});
  parse_flags(args, "synth", flags);
  return run(synth);
}

int cmd_check(const std::string& path, const std::vector<std::string>& args) {
  Invocation check(punt::server::Op::Check);
  check.paths = {path};
  parse_flags(args, "check", {connect_flag(check.socket)});
  return run(check);
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

int cmd_lint(const std::vector<std::string>& args) {
  Invocation lint(punt::server::Op::Lint);
  punt::server::Request& request = lint.request;
  bool rules = false;
  const auto werror_rules = [&request](const std::string& ids) {
    const std::vector<std::string> split = punt::split(ids, ",");
    if (split.empty()) {
      throw punt::Error("--Werror= needs rule ids (e.g. --Werror=STG006,STG008)");
    }
    request.lint_werror_rules.insert(request.lint_werror_rules.end(), split.begin(),
                                     split.end());
  };
  lint.paths = parse_flags(args, "lint",
                           {{"--json", set(request.lint_json, true)},
                            {"--Werror", set(request.lint_werror, true)},
                            {"--Werror=", werror_rules},
                            {"--deep", set(request.lint_deep, true)},
                            lint.jobs_flag(),
                            connect_flag(lint.socket),
                            {"--rules", set(rules, true)},
                            {"--help", set(rules, true)}},
                           /*takes_operands=*/true);
  if (rules) {
    print_lint_rules();
    return 0;
  }
  if (lint.paths.empty()) {
    throw punt::Error("punt lint needs at least one <file.g> "
                      "(--rules prints the rule catalog)");
  }
  return run(lint);
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
  parse_flags(args, "bench lint",
              {{"--json=",
                [&json_path](const std::string& path) {
                  if (path.empty()) {
                    throw punt::Error("--json needs a file path (e.g. --json=BENCH_lint.json)");
                  }
                  json_path = path;
                }},
               {"--deep", set(deep, true)}});
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
  Invocation invocation(punt::server::Op::Synth);
  bool json = false;
  std::vector<Flag> flags = synthesis_flags(invocation.request);
  flags.insert(flags.end(), {invocation.jobs_flag(),
                             invocation.trace_flag(),
                             {"--report=", [&json](const std::string& format) {
                                if (format != "json") {
                                  throw punt::Error("invalid --report value '" + format +
                                                    "'; the only supported report format "
                                                    "is 'json'");
                                }
                                json = true;
                              }}});
  parse_flags(args, "bench run", flags);
  punt::core::BatchOptions batch_options;
  batch_options.synthesis = punt::server::options_of(invocation.request);
  batch_options.jobs = invocation.jobs;
  // Benchmarks with genuine CSC conflicts should report, not abort the run.
  batch_options.synthesis.throw_on_csc = false;
  const std::string& trace_path = invocation.trace_path;
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
  parse_flags(args, "serve",
              {{"--socket=", [&socket_path](const std::string& path) { socket_path = path; }},
               {"--jobs=",
                [&options](const std::string& value) { options.jobs = parse_jobs(value); }},
               {"--max-queue=",
                [&options](const std::string& value) {
                  options.max_queue = parse_positive_count(value, "--max-queue", 65536);
                }},
               {"--send-timeout=", [&options](const std::string& value) {
                  options.send_timeout_seconds =
                      static_cast<long>(parse_positive_count(value, "--send-timeout", 3600));
                }}});
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

/// The --connect=<socket> of a command that only talks to a daemon.
std::string daemon_socket(const std::vector<std::string>& args, const std::string& command) {
  std::string socket;
  parse_flags(args, command, {connect_flag(socket)});
  if (socket.empty()) {
    throw punt::Error("punt " + command + " needs --connect=<socket> naming the daemon");
  }
  return socket;
}

int send_op(punt::server::Op op, const std::string& socket) {
  punt::server::Request request;
  request.op = op;
  return print(punt::server::request_once(socket, request));
}

int cmd_shutdown(const std::vector<std::string>& args) {
  const std::string socket = daemon_socket(args, "shutdown");
  const int exit_code = send_op(punt::server::Op::Shutdown, socket);
  std::fprintf(stderr, "server at %s acknowledged shutdown; it drains in-flight "
               "requests and exits\n", socket.c_str());
  return exit_code;
}

int cmd_bench(const std::vector<std::string>& args) {
  if (!args.empty() && args[0] == "run") {
    return cmd_bench_run({args.begin() + 1, args.end()});
  }
  if (!args.empty() && args[0] == "lint") {
    return cmd_bench_lint({args.begin() + 1, args.end()});
  }
  if (!args.empty() && args[0] == "list") {
    parse_flags({args.begin() + 1, args.end()}, "bench list", {});
    for (const auto& bench : punt::benchmarks::table1()) {
      std::printf("%-24s %3zu signals  # %s\n", bench.name.c_str(), bench.signals,
                  bench.note.c_str());
    }
    return 0;
  }
  if (args.size() >= 2 && args[0] == "dump") {
    parse_flags({args.begin() + 2, args.end()}, "bench dump", {});
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
      parse_flags({args.begin() + 2, args.end()}, command, {});
      return command == "resolve" ? cmd_resolve(args[1]) : cmd_trace(args[1]);
    }
    if (command == "bench") return cmd_bench({args.begin() + 1, args.end()});
    if (command == "cache" && args.size() >= 2 && args[1] == "stats") {
      return send_op(punt::server::Op::CacheStats,
                     daemon_socket({args.begin() + 2, args.end()}, "cache stats"));
    }
    if (command == "serve") return cmd_serve({args.begin() + 1, args.end()});
    if (command == "ping") {
      return send_op(punt::server::Op::Ping, daemon_socket({args.begin() + 1, args.end()}, "ping"));
    }
    if (command == "shutdown") return cmd_shutdown({args.begin() + 1, args.end()});
    return usage();
  } catch (const punt::Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
