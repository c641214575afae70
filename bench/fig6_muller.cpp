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
// PUNT runs past the paper's 60 signals, up to 120, and the sweep stops
// after the first point whose PUNT time exceeds a fixed budget.  Each point
// prints the segment's events, the unfold and derive times and the
// refinement iterations summed over its signals, and the sweep ends with
// the slope of log(derive) against log(events) from 29 stages up; the
// smaller points take milliseconds, too little to fit.
//
// The circled dot of Fig. 6 — the 34-signal counterflow pipeline — is
// reproduced as the final rows.
#include <cmath>
#include <cstdio>
#include <string>
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

/// The sweep stops after the first point whose PUNT time exceeds this.
constexpr double kPuntBudgetSeconds = 5.0;

/// The derive exponent is fitted over the points with at least this many
/// stages.
constexpr std::size_t kFitFromStages = 29;

struct PuntPoint {
  std::size_t events = 0;
  double unfold_seconds = 0;
  double derive_seconds = 0;
  std::size_t refinement_iterations = 0;
  double total_seconds = 0;
};

PuntPoint punt_run(const punt::stg::Stg& stg) {
  punt::Stopwatch sw;
  SynthesisOptions options;
  options.method = Method::UnfoldingApprox;
  const punt::core::SynthesisResult result = punt::core::synthesize(stg, options);
  return {result.unfold_stats.events, result.unfold_seconds, result.derive_seconds,
          result.refinement_iterations, sw.seconds()};
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

/// Least-squares slope of log(y) against log(x), or NaN with fewer than
/// two points.
double log_log_exponent(const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) return std::nan("");
  double mean_x = 0, mean_y = 0;
  for (const auto& [x, y] : points) {
    mean_x += std::log(x);
    mean_y += std::log(y);
  }
  mean_x /= static_cast<double>(points.size());
  mean_y /= static_cast<double>(points.size());
  double sxy = 0, sxx = 0;
  for (const auto& [x, y] : points) {
    const double dx = std::log(x) - mean_x;
    sxy += dx * (std::log(y) - mean_y);
    sxx += dx * dx;
  }
  return sxy / sxx;
}

void print_exponent(const char* what, const char* against,
                    const std::vector<std::pair<double, double>>& points) {
  if (points.size() < 2) {
    std::printf("%s: %zu point(s) ran, too few to fit\n", what, points.size());
    return;
  }
  std::printf("%s ~ %s^%.2f (least squares over %zu points, %.0f-%.0f %s)\n", what, against,
              log_log_exponent(points), points.size(), points.front().first,
              points.back().first, against);
}

void print_row(const char* label, std::size_t signals, const PuntPoint& punt, double sg_seconds,
               std::size_t sg_states) {
  std::printf("%8s %8zu %8zu | %8.3f %8.3f %8zu %8.3f | ", label, signals, punt.events,
              punt.unfold_seconds, punt.derive_seconds, punt.refinement_iterations,
              punt.total_seconds);
  if (sg_seconds >= 0) {
    std::printf("%22.3f %10zu\n", sg_seconds, sg_states);
  } else {
    std::printf("%22s %10s\n", "skipped (>5000 states)", "");
  }
}

}  // namespace

int main() {
  std::printf("Figure 6 — Muller pipeline scalability (time in seconds)\n\n");
  std::printf("%8s %8s %8s | %8s %8s %8s %8s | %22s %10s\n", "stages", "signals", "events",
              "unfold", "derive", "refine", "PUNT", "SG-flow", "SG-states");
  std::printf("---------------------------------------------------------------------------"
              "------------------------\n");

  std::vector<std::pair<double, double>> punt_points;
  std::vector<std::pair<double, double>> sg_points;
  std::vector<std::pair<double, double>> derive_points;  // (events, derive seconds)
  const std::vector<std::size_t> stage_counts{4, 9, 14, 19, 24, 29, 44, 59, 89, 119};
  for (const std::size_t n : stage_counts) {
    const punt::stg::Stg stg = punt::stg::make_muller_pipeline(n);
    const double signals = static_cast<double>(stg.signal_count());
    const PuntPoint punt = punt_run(stg);
    punt_points.emplace_back(signals, punt.total_seconds);
    if (n >= kFitFromStages) {
      derive_points.emplace_back(static_cast<double>(punt.events), punt.derive_seconds);
    }
    std::size_t states = 0;
    const double sg_seconds = sg_time(stg, &states);
    if (sg_seconds >= 0) sg_points.emplace_back(signals, sg_seconds);
    print_row(std::to_string(n).c_str(), stg.signal_count(), punt, sg_seconds, states);
    if (punt.total_seconds > kPuntBudgetSeconds && n != stage_counts.back()) {
      std::printf("(stopped: this point took more than %.0f s)\n", kPuntBudgetSeconds);
      break;
    }
  }
  std::printf("\n");
  print_exponent("PUNT time", "signals", punt_points);
  print_exponent("SG-flow time", "signals", sg_points);
  print_exponent("PUNT derive", "events", derive_points);

  std::printf("\nCounterflow pipeline (the paper's circled dot: 34 signals;\n"
              "Petrify needed >24h, PUNT <2h — an order of magnitude):\n\n");
  const punt::stg::Stg cf = punt::stg::make_counterflow_pipeline(16);
  std::size_t cf_states = 0;
  const PuntPoint cf_punt = punt_run(cf);
  const double cf_sg = sg_time(cf, &cf_states);
  print_row("cfpp", cf.signal_count(), cf_punt, cf_sg, cf_states);
  return 0;
}
