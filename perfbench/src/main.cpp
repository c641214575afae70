// perfbench — punt's benchmark program.
//
//   perfbench --workload <table1|fig6-unf|sg-baseline|serve> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --selftest
//
// Prints one line per metric for the reader, then, as its last line, one
// JSON object {"correct", "attempted", "failed", "metrics"} whose metrics
// are exactly BENCHMARK.json's end_to_end set (--trace 0) or per_layer set
// (--trace 1).  Exits 1 when any output was wrong, 2 on a usage or run
// error (no result line then).
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::MetricSpec;
using perfbench::Report;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <table1|fig6-unf|sg-baseline|serve> --seed <n>\n"
               "                 --seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --selftest\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_unsigned(std::string_view text, const char* flag) {
  std::uint64_t value = 0;
  const auto [end, error] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size()) {
    usage(std::string(flag) + " wants a whole number, got '" + std::string(text) + "'");
  }
  return value;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i < argc; i += 2) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + std::string(flag));
    const std::string_view value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_unsigned(value, "--seed");
      seen_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_unsigned(value, "--seconds"));
      seen_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      args.trace = value == "1";
      seen_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      usage("unknown flag " + std::string(flag));
    }
  }
  if (args.workload.empty() || !seen_seed || !seen_seconds || !seen_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  if (args.seconds < 1) usage("--seconds must be at least 1");
  return args;
}

/// Shortest text that reads back as the same double: every digit measured.
std::string number(double value) {
  if (!std::isfinite(value)) throw punt::Error("a metric is not a finite number");
  char buffer[64];
  const auto [end, error] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, end);
}

/// The run's metrics must be exactly the declared set, in declared order.
void check_declared(const Report& report, const std::vector<MetricSpec>& declared) {
  bool same = report.metrics.size() == declared.size();
  for (std::size_t i = 0; same && i < declared.size(); ++i) {
    same = report.metrics[i].name == declared[i].name;
  }
  if (!same) throw punt::Error("the run did not report exactly the declared metrics");
}

void print(const Args& args, Report report) {
  const auto& declared = args.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  // Put the metrics in BENCHMARK.json's order.
  std::vector<Metric> ordered;
  for (const MetricSpec& spec : declared) {
    for (const Metric& metric : report.metrics) {
      if (metric.name == spec.name) ordered.push_back(metric);
    }
  }
  report.metrics = ordered;
  check_declared(report, declared);
  if (report.attempted == 0) throw punt::Error("the run attempted nothing");

  std::printf("# perfbench %s, seed %llu, %s, jobs %zu\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced",
              perfbench::nproc());
  for (const Metric& metric : report.metrics) {
    std::printf("%-28s %18s %s\n", metric.name.c_str(), number(metric.value).c_str(),
                metric.unit.c_str());
  }
  for (const Metric& note : report.notes) {
    std::printf("  %-26s %18s %s\n", note.name.c_str(), number(note.value).c_str(),
                note.unit.c_str());
  }
  const double failed_frac =
      static_cast<double>(report.failed) / static_cast<double>(report.attempted);
  std::printf("  %-26s %18s frac (%zu of %zu)\n", "failed_frac", number(failed_frac).c_str(),
              report.failed, report.attempted);
  for (const std::string& remark : report.remarks) std::printf("# %s\n", remark.c_str());
  for (const std::string& problem : report.problems) {
    std::printf("WRONG: %s\n", problem.c_str());
  }

  const bool correct = report.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& metric = report.metrics[i];
    json += (i == 0 ? "\"" : ", \"") + punt::util::json_escape(metric.name) +
            "\": {\"value\": " + number(metric.value) + ", \"unit\": \"" +
            punt::util::json_escape(metric.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc == 2 && std::string_view(argv[1]) == "--selftest") return perfbench::run_selftest();
    const Args args = parse_args(argc, argv);
    Report report;
    if (perfbench::is_batch_workload(args.workload)) {
      report = perfbench::run_batch(args);
    } else if (args.workload == "serve") {
      report = perfbench::run_serve(args);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    const bool correct = report.failed == 0;
    print(args, std::move(report));
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
