// Experiment F6 — reproduces Figure 6 of the paper.
//
// Scalability on the Muller pipeline: synthesis time versus signal count
// for the unfolding-based flow ("PUNT") and the explicit state-graph flow
// (the SIS/Petrify stand-in).  The state graph of an n-stage pipeline has
// about 2^n states, so the SG flow runs only where a probe finds at most
// 5000 states; the points it skips are labelled as such.  Each flow's
// growth is summarised by the least-squares slope of log(time) against
// log(signals) over the points it ran.
//
// The circled dot of Fig. 6 — the 34-signal counterflow pipeline — is
// reproduced as the final rows.  Set PUNT_BENCH_FULL=1 for larger sweeps.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "src/core/synthesis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"
#include "src/util/stopwatch.hpp"

namespace {

using punt::core::Method;
using punt::core::SynthesisOptions;

/// The SG flow runs only on specs whose state graph has at most this many
/// states.
constexpr std::size_t kSgStateThreshold = 5000;

double punt_time(const punt::stg::Stg& stg) {
  punt::Stopwatch sw;
  SynthesisOptions options;
  options.method = Method::UnfoldingApprox;
  (void)punt::core::synthesize(stg, options);
  return sw.seconds();
}

/// Returns negative when the probe found more than kSgStateThreshold states
/// and the SG flow was skipped.
double sg_time(const punt::stg::Stg& stg, std::size_t* states) {
  punt::Stopwatch sw;
  punt::sg::BuildOptions probe;
  probe.state_budget = kSgStateThreshold + 1;  // only "fits or not" matters
  try {
    const auto sgraph = punt::sg::StateGraph::build(stg, probe);
    *states = sgraph.state_count();
  } catch (const punt::CapacityError&) {
    *states = probe.state_budget;
    return -1;
  }
  if (*states > kSgStateThreshold) return -1;
  SynthesisOptions options;
  options.method = Method::StateGraph;
  (void)punt::core::synthesize(stg, options);
  return sw.seconds();
}

/// Least-squares slope of log(seconds) against log(signals), or NaN with
/// fewer than two points.
double log_log_exponent(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) return std::nan("");
  double mean_x = 0, mean_y = 0;
  for (const auto& [signals, seconds] : points) {
    mean_x += std::log(signals);
    mean_y += std::log(seconds);
  }
  mean_x /= static_cast<double>(points.size());
  mean_y /= static_cast<double>(points.size());
  double sxy = 0, sxx = 0;
  for (const auto& [signals, seconds] : points) {
    const double dx = std::log(signals) - mean_x;
    sxy += dx * (std::log(seconds) - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

void print_exponent(const char* flow, const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) {
    std::printf("%s: %zu point(s) ran, too few to fit\n", flow, points.size());
    return;
  }
  std::printf("%s: time ~ signals^%.2f (least squares over %zu points, %.0f-%.0f signals)\n",
              flow, log_log_exponent(points), points.size(), points.front().first,
              points.back().first);
}

}  // namespace

int main() {
  const bool full = std::getenv("PUNT_BENCH_FULL") != nullptr;
  std::printf("Figure 6 — Muller pipeline scalability (time in seconds)\n\n");
  std::printf("%8s %8s | %10s | %22s %10s\n", "stages", "signals", "PUNT", "SG-flow",
              "SG-states");
  std::printf("--------------------------------------------------------------------\n");

  std::vector<std::size_t> stage_counts{4, 9, 14, 19, 24, 29};
  if (full) stage_counts.insert(stage_counts.end(), {39, 49});
  std::vector<std::pair<double, double>> punt_points;
  std::vector<std::pair<double, double>> sg_points;
  for (const std::size_t n : stage_counts) {
    const punt::stg::Stg stg = punt::stg::make_muller_pipeline(n);
    const double signals = static_cast<double>(stg.signal_count());
    const double punt_seconds = punt_time(stg);
    punt_points.emplace_back(signals, punt_seconds);
    std::size_t states = 0;
    const double sg_seconds = sg_time(stg, &states);
    if (sg_seconds >= 0) {
      sg_points.emplace_back(signals, sg_seconds);
      std::printf("%8zu %8zu | %10.3f | %22.3f %10zu\n", n, stg.signal_count(), punt_seconds,
                  sg_seconds, states);
    } else {
      std::printf("%8zu %8zu | %10.3f | %22s %10s\n", n, stg.signal_count(), punt_seconds,
                  "skipped (>5000 states)", "");
    }
  }
  std::printf("\n");
  print_exponent("PUNT", punt_points);
  print_exponent("SG-flow", sg_points);

  std::printf("\nCounterflow pipeline (the paper's circled dot: 34 signals;\n"
              "Petrify needed >24h, PUNT <2h — an order of magnitude):\n\n");
  const punt::stg::Stg cf = punt::stg::make_counterflow_pipeline(16);
  const double cf_punt = punt_time(cf);
  std::size_t cf_states = 0;
  const double cf_sg = sg_time(cf, &cf_states);
  if (cf_sg >= 0) {
    std::printf("%8s %8zu | %10.3f | %22.3f %10zu\n", "cfpp", cf.signal_count(), cf_punt, cf_sg,
                cf_states);
  } else {
    std::printf("%8s %8zu | %10.3f | %22s %10s\n", "cfpp", cf.signal_count(), cf_punt,
                "skipped (>5000 states)", "");
  }
  return 0;
}
