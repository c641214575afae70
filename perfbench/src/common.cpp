#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <thread>
#include <utility>

#include "src/benchmarks/registry.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"

namespace perfbench {
namespace {

const Clock::time_point kProcessStart = Clock::now();

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

void Report::fail(std::string what, std::size_t count) {
  failed += count;
  // Keep the first few descriptions; a systematic error would repeat itself.
  if (problems.size() < 20) problems.push_back(std::move(what));
}

const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"latency_ms_p50", "ms"},
    {"specs_per_s", "1/s"},
    {"literals", "count"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    {"logic.minimize_s", "s"},
    {"logic.minimize_s_max", "s"},
    {"logic.espresso_calls", "count"},
    {"logic.cubes_in", "count"},
    {"logic.cubes_out", "count"},
    {"logic.espresso_iterations", "count"},
    {"core.derive_s", "s"},
    {"core.derive_s_max", "s"},
    {"core.approx_s", "s"},
    {"core.refine_s", "s"},
    {"core.refine_iterations", "count"},
    {"core.exact_fallbacks", "count"},
    {"core.model_builds", "count"},
    {"unfolding.build_s", "s"},
    {"unfolding.events", "count"},
    {"sg.build_s", "s"},
    {"sg.states", "count"},
    {"netlist.assembly_s", "s"},
    {"util.scaling", "ratio"},
    {"util.cpu_inflation", "ratio"},
    {"util.wall_over_critical", "ratio"},
    {"stg.parse_ms_p50", "ms"},
    {"lint.admission_ms_p50", "ms"},
    {"server.synth_ms_p50", "ms"},
    {"server.render_ms_p50", "ms"},
    {"server.overhead_ms_p50", "ms"},
    {"server.mean_batch", "requests"},
    {"server.batches", "count"},
    {"server.shed", "count"},
    {"trace.unaccounted_frac", "frac"},
    {"trace.overhead_frac", "frac"},
};

void Report::metric(const std::string& name, double value) {
  for (const auto* table : {&kEndToEnd, &kPerLayer}) {
    for (const MetricSpec& spec : *table) {
      if (name == spec.name) {
        metrics.push_back({name, value, spec.unit});
        return;
      }
    }
  }
  throw punt::Error("undeclared metric '" + name + "'");
}

void Report::note(std::string name, double value, std::string unit) {
  notes.push_back({std::move(name), value, std::move(unit)});
}

double median(std::vector<double> samples) {
  if (samples.empty()) throw punt::Error("median of an empty sample");
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

double tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(n)));
  if (n == 0 || rank < 1 || n - rank < 10) {
    throw punt::Error("p" + std::to_string(static_cast<int>(q)) + " needs at least 10 of " +
                      std::to_string(n) + " samples beyond it");
  }
  std::sort(samples.begin(), samples.end());
  return samples[rank - 1];
}

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<Spec> specs_of(const std::string& workload, std::uint64_t seed) {
  std::vector<Spec> specs;
  const auto add = [&](std::string name, punt::stg::Stg stg, bool registry) {
    std::string text = punt::stg::write_g(stg);
    specs.push_back({std::move(name), std::move(stg), std::move(text), registry});
  };
  const auto add_registry = [&](const char* skip) {
    for (const auto& row : punt::benchmarks::table1()) {
      if (skip == nullptr || row.name != skip) add(row.name, row.make(), true);
    }
  };
  const auto add_muller = [&](std::size_t stages) {
    add("muller" + std::to_string(stages), punt::stg::make_muller_pipeline(stages), false);
  };
  if (workload == "table1") {
    add_registry(nullptr);
  } else if (workload == "fig6-unf") {
    for (const std::size_t stages : {29, 44, 59}) add_muller(stages);
    add("cfpp34", punt::stg::make_counterflow_pipeline(16), false);  // 34 signals
  } else if (workload == "sg-baseline") {
    add_registry(nullptr);
    add_muller(11);
    add_muller(12);
  } else if (workload == "serve") {
    // The 0.7 s spec would set every fused batch's latency; table1 has it.
    add_registry("mp-forward-pkt");
  } else {
    throw punt::Error("unknown workload '" + workload + "'");
  }
  seeded_shuffle(specs, seed);
  return specs;
}

bool is_batch_workload(const std::string& workload) {
  return workload == "table1" || workload == "fig6-unf" || workload == "sg-baseline";
}

}  // namespace perfbench
