// Shared pieces of the perfbench program: arguments, the report a workload
// run produces, sample statistics with the sample-count guard, process
// probes and the seeded workload inputs.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/stg/stg.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds since `start` on the monotonic clock.
inline double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// When the process started running main-line code (static initialisation).
Clock::time_point process_start();

/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  /// Scratch directory for the serve socket and the traced run's spans.
  std::string work_dir = ".";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// The metrics BENCHMARK.json declares, in its order: every untraced run
/// reports exactly kEndToEnd, every traced run exactly kPerLayer.
struct MetricSpec {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricSpec> kEndToEnd;
extern const std::vector<MetricSpec> kPerLayer;

/// What one workload run produced.  `metrics` is exactly the BENCHMARK.json
/// set of the run's mode (end_to_end untraced, per_layer traced); `notes` are
/// extra human-readable lines, such as pass_s_p50 and latency_ms_p99.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;  // one line per wrong or failed output
  std::vector<Metric> metrics;
  std::vector<Metric> notes;
  std::vector<std::string> remarks;  // free-text lines for the reader

  /// Records a wrong output: counts one failure and keeps the description.
  void fail(std::string what, std::size_t count = 1);
  /// A declared metric; its unit comes from kEndToEnd / kPerLayer.
  void metric(const std::string& name, double value);
  void note(std::string name, double value, std::string unit);
};

/// Median of a non-empty sample; throws Error when it is empty.
double median(std::vector<double> samples);

/// Nearest-rank percentile (q in (50, 100)).  Throws Error unless at least
/// ten samples lie beyond it: a tail percentile is reported only when the
/// sample can resolve it.
double tail_percentile(std::vector<double> samples, double q);

/// CPUs this process may run on (sched_getaffinity, like `nproc`).
std::size_t nproc();
double peak_rss_mb();
double process_cpu_seconds();

/// Deterministic Fisher–Yates driven by splitmix64 of `seed`, so the same
/// seed orders the same inputs identically on every platform.
template <class T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed);

/// One input specification: the STG a generator built (what `punt bench
/// run` synthesises) and its `.g` text (what a served request carries).
/// The two are not interchangeable: parsing the written text renumbers the
/// net, and mp-forward-pkt then minimises to 26 literals instead of 20.
struct Spec {
  std::string name;  // the Table 1 row name for registry specs
  punt::stg::Stg stg;
  std::string g_text;
  bool registry = false;  // one of the 21 Table 1 rows
};

/// The workload's specs in seed order.  Throws Error on an unknown workload.
std::vector<Spec> specs_of(const std::string& workload, std::uint64_t seed);

// --- Workloads (batch.cpp, serve.cpp) and the determinism self-test ----------

bool is_batch_workload(const std::string& workload);
Report run_batch(const Args& args);
Report run_serve(const Args& args);
/// Returns the process exit code: 0 when every exact count repeats.
int run_selftest();

// --- template definitions ----------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& state);

template <class T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed) {
  std::uint64_t state = seed;
  for (std::size_t i = items.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(items[i - 1], items[j]);
  }
}

}  // namespace perfbench
