// The three batch workloads: table1, fig6-unf and sg-baseline.  Each timed
// operation is one core::synthesize_batch pass over the workload's specs on
// a resident executor, as `punt bench run` performs it.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <optional>
#include <span>

#include "checks.hpp"
#include "common.hpp"
#include "src/core/pipeline.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/error.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using punt::core::BatchOptions;
using punt::core::BatchRequest;
using punt::core::BatchResult;
using punt::core::Executor;
using punt::core::Method;
using punt::core::SynthesisOptions;

constexpr std::size_t kMinPasses = 3;    // per job count, untraced
constexpr std::size_t kParseRounds = 5;  // stg.parse samples per spec
constexpr std::size_t kTable1Literals = 309;

SynthesisOptions options_of(const std::string& workload) {
  SynthesisOptions options;
  if (workload == "sg-baseline") options.method = Method::StateGraph;
  return options;
}

/// Everything one set-up makes: inputs, resident executors and the warm-up
/// pass, whose results every later pass is compared with.
struct Setup {
  std::vector<Spec> specs;
  std::vector<punt::stg::Stg> stgs;
  std::unique_ptr<Executor> parallel;  // jobs = nproc
  std::unique_ptr<Executor> serial;    // jobs = 1, inline
  BatchResult reference;
  double seconds = 0;
};

std::vector<BatchRequest> requests_of(const std::vector<punt::stg::Stg>& stgs,
                                      const SynthesisOptions& options,
                                      const std::vector<std::size_t>& order) {
  std::vector<BatchRequest> requests;
  requests.reserve(order.size());
  for (const std::size_t i : order) requests.push_back({&stgs[i], options});
  return requests;
}

std::vector<std::size_t> identity(std::size_t count) {
  std::vector<std::size_t> order(count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  return order;
}

/// The spec order of a run's `pass`-th timed pass, drawn from its seed.
/// Order decides which expensive nodes the executor starts first, so every
/// pass draws a fresh one: a run's median then covers many orders instead
/// of carrying one order's luck.
std::vector<std::size_t> pass_order(std::size_t count, std::uint64_t seed, std::size_t pass) {
  std::vector<std::size_t> order = identity(count);
  seeded_shuffle(order, seed ^ (0x632BE59BD9B4E019ULL * (pass + 1)));
  return order;
}

BatchResult run_pass(std::span<const BatchRequest> requests, Executor& executor) {
  BatchOptions batch;
  batch.executor = &executor;
  return punt::core::synthesize_batch(requests, batch);
}

BatchResult run_pass(const std::vector<punt::stg::Stg>& stgs, Executor& executor,
                     const SynthesisOptions& options) {
  return run_pass(requests_of(stgs, options, identity(stgs.size())), executor);
}

std::unique_ptr<Setup> set_up(const Args& args, const SynthesisOptions& options,
                              Clock::time_point start) {
  auto setup = std::make_unique<Setup>();
  setup->specs = specs_of(args.workload, args.seed);
  for (const Spec& spec : setup->specs) setup->stgs.push_back(spec.stg);
  setup->parallel = std::make_unique<Executor>(nproc());
  setup->serial = std::make_unique<Executor>(1);
  setup->reference = run_pass(setup->stgs, *setup->parallel, options);  // starts the pool
  setup->seconds = since(start);
  return setup;
}

struct PassSample {
  double wall = 0;
  double cpu = 0;  // process CPU seconds
  double critical = 0;
};

struct Window {
  std::vector<PassSample> parallel;
  std::vector<PassSample> serial;
};

std::vector<double> walls(const std::vector<PassSample>& samples) {
  std::vector<double> out;
  for (const PassSample& s : samples) out.push_back(s.wall);
  return out;
}

/// Every entry of a pass (entry k synthesised spec order[k]) must succeed
/// with the reference pass's logic.
void compare_with_reference(const BatchResult& batch, const std::vector<std::size_t>& order,
                            const Setup& setup, Report& report) {
  for (std::size_t k = 0; k < batch.entries.size(); ++k) {
    ++report.attempted;
    const std::size_t i = order[k];
    const auto& entry = batch.entries[k];
    const auto& reference = setup.reference.entries[i];
    if (!entry.ok) {
      report.fail(setup.specs[i].name + ": " + entry.error);
    } else if (!reference.ok || !same_logic(entry.result, reference.result)) {
      report.fail(setup.specs[i].name + ": differs from the warm-up pass");
    }
  }
}

/// Timed passes until `seconds` have passed and each job count in use has
/// `min_passes` samples; with `alternate`, passes alternate between
/// jobs = nproc and jobs = 1.
Window measure(const Setup& setup, const SynthesisOptions& options, std::uint64_t seed,
               double seconds, bool alternate, std::size_t min_passes, Report& report) {
  Window window;
  const auto begin = Clock::now();
  bool serial_turn = false;
  for (;;) {
    const bool enough = window.parallel.size() >= min_passes &&
                        (!alternate || window.serial.size() >= min_passes);
    if (enough && since(begin) >= seconds) break;
    Executor& executor = serial_turn ? *setup.serial : *setup.parallel;
    const std::vector<std::size_t> order =
        pass_order(setup.stgs.size(), seed, window.parallel.size() + window.serial.size());
    const std::vector<BatchRequest> requests = requests_of(setup.stgs, options, order);
    const double cpu = process_cpu_seconds();
    const auto start = Clock::now();
    const BatchResult batch = run_pass(requests, executor);
    const PassSample sample{since(start), process_cpu_seconds() - cpu,
                            batch.critical_path_seconds};
    (serial_turn ? window.serial : window.parallel).push_back(sample);
    compare_with_reference(batch, order, setup, report);
    if (alternate) serial_turn = !serial_turn;
  }
  return window;
}

/// Checks the reference pass against the independent references.  Returns
/// one line per wrong spec.
std::vector<std::string> check_reference(const std::string& workload, const Setup& setup) {
  std::vector<std::string> problems;
  std::vector<punt::stg::Stg> registry;  // sg-baseline's non-pipeline specs
  std::size_t registry_literals = 0;
  for (std::size_t i = 0; i < setup.stgs.size(); ++i) {
    const punt::stg::Stg& stg = setup.stgs[i];
    const auto& entry = setup.reference.entries[i];
    if (!entry.ok) {
      problems.push_back(setup.specs[i].name + ": " + entry.error);
      continue;
    }
    const std::string& name = setup.specs[i].name;
    std::optional<std::string> problem;
    if (is_pipeline(stg)) {
      problem = check_pipeline(stg, entry.result);
      if (!problem && entry.result.literal_count() != pipeline_literals(stg)) {
        problem = std::to_string(entry.result.literal_count()) +
                  " literals, the closed form has " + std::to_string(pipeline_literals(stg));
      }
    }
    if (!problem && workload == "table1") problem = check_conformance(stg, entry.result);
    if (problem) problems.push_back(name + ": " + *problem);
    if (workload == "sg-baseline" && setup.specs[i].registry) {
      registry.push_back(stg);
      registry_literals += entry.result.literal_count();
    }
  }
  if (workload == "table1" && setup.reference.literal_count() != kTable1Literals) {
    problems.push_back("registry literal total " +
                       std::to_string(setup.reference.literal_count()) + ", want " +
                       std::to_string(kTable1Literals));
  }
  if (workload == "sg-baseline") {
    // The paper's parity claim: the SG flow's literals equal the unfolding flow's.
    const BatchResult unfolding = run_pass(registry, *setup.parallel, SynthesisOptions{});
    if (unfolding.failures != 0 || unfolding.literal_count() != registry_literals) {
      problems.push_back("registry literal total " + std::to_string(registry_literals) +
                         " differs from the unfolding flow's " +
                         std::to_string(unfolding.literal_count()));
    }
  }
  return problems;
}

void report_untraced(const Args& args, Report& report) {
  const SynthesisOptions options = options_of(args.workload);
  const bool table1 = args.workload == "table1";
  std::vector<double> setup_seconds;
  std::unique_ptr<Setup> setup;
  for (int k = 0; k < kSetups; ++k) {
    setup.reset();  // the previous set-up's pool joins outside the timing
    setup = set_up(args, options, k == 0 ? process_start() : Clock::now());
    setup_seconds.push_back(setup->seconds);
  }
  const Window window =
      measure(*setup, options, args.seed, args.seconds, table1, kMinPasses, report);
  const std::size_t passes = window.parallel.size() + window.serial.size();
  for (std::string& problem : check_reference(args.workload, *setup)) {
    report.fail(std::move(problem), passes);  // the spec was wrong in every pass
  }

  const std::vector<double> parallel = walls(window.parallel);
  const double pass_s = median(parallel);
  const double specs = static_cast<double>(setup->stgs.size());
  report.metric("setup_s", median(setup_seconds));
  report.metric("latency_ms_p50", pass_s * 1e3);
  report.metric("specs_per_s", specs * static_cast<double>(parallel.size()) /
                                   std::accumulate(parallel.begin(), parallel.end(), 0.0));
  report.metric("literals", static_cast<double>(setup->reference.literal_count()));
  report.metric("peak_rss_mb", peak_rss_mb());

  report.note("pass_s_p50", pass_s, "s");
  report.note("passes", static_cast<double>(parallel.size()), "count");
  if (table1) {
    report.note("serial_pass_s_p50", median(walls(window.serial)), "s");
    report.note("serial_passes", static_cast<double>(window.serial.size()), "count");
  }
}

void report_traced(const Args& args, Report& report) {
  const SynthesisOptions options = options_of(args.workload);
  const auto setup = set_up(args, options, process_start());
  // Untraced passes at both job counts, read from outside for util.*; the
  // jobs = 1 ones are the baseline of trace.overhead_frac.
  const Window window = measure(*setup, options, args.seed, args.seconds, true, 1, report);
  const std::size_t passes = window.parallel.size() + window.serial.size();
  for (std::string& problem : check_reference(args.workload, *setup)) {
    report.fail(std::move(problem), passes);
  }

  SpanRecorder spans;
  std::vector<TracedItem> items;
  std::vector<const punt::core::SynthesisResult*> reference;
  for (std::size_t i = 0; i < setup->stgs.size(); ++i) {
    items.push_back({&setup->stgs[i], setup->specs[i].name, options});
    reference.push_back(&setup->reference.entries[i].result);
  }
  const double serial_wall = median(walls(window.serial));
  traced_run(items, reference, serial_wall, spans, report);

  std::vector<double> parse_ms;
  for (std::size_t round = 0; round < kParseRounds; ++round) {
    for (const Spec& spec : setup->specs) {
      const ScopedSpan span(spans, "stg.parse", spec.name);
      const auto start = Clock::now();
      (void)punt::stg::parse_g(spec.g_text);
      parse_ms.push_back(since(start) * 1e3);
    }
  }

  std::vector<double> cpu_parallel, cpu_serial, over_critical;
  for (const PassSample& s : window.parallel) {
    cpu_parallel.push_back(s.cpu);
    over_critical.push_back(s.wall / s.critical);
  }
  for (const PassSample& s : window.serial) cpu_serial.push_back(s.cpu);
  report.metric("core.model_builds", static_cast<double>(items.size()));
  report.metric("util.scaling", serial_wall / median(walls(window.parallel)));
  report.metric("util.cpu_inflation", median(cpu_parallel) / median(cpu_serial));
  report.metric("util.wall_over_critical", median(over_critical));
  report.metric("stg.parse_ms_p50", median(parse_ms));
  // The batch workloads never reach lint admission or the daemon.
  for (const char* name : {"lint.admission_ms_p50", "server.synth_ms_p50", "server.render_ms_p50",
                           "server.overhead_ms_p50", "server.mean_batch", "server.batches",
                           "server.shed"}) {
    report.metric(name, 0);
  }
  report.note("serial_pass_s_p50", serial_wall, "s");
  report.note("pass_s_p50", median(walls(window.parallel)), "s");
  const std::string path = args.work_dir + "/trace-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  report.remarks.push_back(spans.write(path) ? "spans written to " + path
                                             : "could not write " + path);
}

}  // namespace

int run_selftest() {
  bool repeats = true;
  for (const char* workload : {"table1", "fig6-unf", "sg-baseline"}) {
    const SynthesisOptions options = options_of(workload);
    const auto total = [&](const std::vector<punt::stg::Stg>& stgs, const auto& results) {
      ExactCounts counts;
      for (std::size_t i = 0; i < stgs.size(); ++i) counts += counts_of(results(i), options.minimize);
      return counts;
    };
    const auto stgs_of = [&](std::uint64_t seed) {
      std::vector<punt::stg::Stg> stgs;
      for (const Spec& spec : specs_of(workload, seed)) stgs.push_back(spec.stg);
      return stgs;
    };
    const auto batch_counts = [&](std::uint64_t seed, std::size_t jobs) {
      const std::vector<punt::stg::Stg> stgs = stgs_of(seed);
      Executor executor(jobs);
      const BatchResult batch = run_pass(stgs, executor, options);
      if (batch.failures != 0) throw punt::Error(std::string(workload) + ": a spec failed");
      return total(stgs, [&](std::size_t i) -> const auto& { return batch.entries[i].result; });
    };
    const auto traced_counts = [&](std::uint64_t seed) {
      const std::vector<punt::stg::Stg> stgs = stgs_of(seed);
      std::vector<TracedItem> items;
      for (const punt::stg::Stg& stg : stgs) items.push_back({&stg, stg.name(), options});
      SpanRecorder spans;
      const TracedPass pass = traced_pass(items, spans);
      return total(stgs, [&](std::size_t i) -> const auto& { return pass.results[i]; });
    };

    const ExactCounts base = batch_counts(1, 1);
    std::printf("%-12s seed 1, jobs 1: %s\n", workload, base.describe().c_str());
    const std::size_t jobs = nproc();
    const std::pair<std::string, ExactCounts> cases[] = {
        {"seed 1, jobs " + std::to_string(jobs), batch_counts(1, jobs)},
        {"seed 1, jobs " + std::to_string(jobs) + " again", batch_counts(1, jobs)},
        {"seed 2, jobs " + std::to_string(jobs), batch_counts(2, jobs)},
        {"seed 2, traced", traced_counts(2)},
    };
    for (const auto& [what, counts] : cases) {
      const bool same = counts == base;
      repeats = repeats && same;
      std::printf("%-12s %s: %s\n", workload, what.c_str(),
                  same ? "same" : ("DIFFERS: " + counts.describe()).c_str());
    }
  }
  std::printf("%s\n", repeats ? "exact counts repeat" : "exact counts DIFFER");
  return repeats ? 0 : 1;
}

Report run_batch(const Args& args) {
  Report report;
  if (args.trace) {
    report_traced(args, report);
  } else {
    report_untraced(args, report);
  }
  return report;
}

}  // namespace perfbench
