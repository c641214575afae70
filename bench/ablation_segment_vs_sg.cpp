// Experiment A2 — size of the STG-unfolding segment versus the State Graph
// across the suite: the premise (from [11] / §3.1) that makes the whole
// method worthwhile.  Events+conditions against SG states+arcs.
#include <cstdio>

#include "src/benchmarks/registry.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"
#include "src/util/error.hpp"

int main() {
  std::printf("Ablation A2 — segment size vs state-graph size\n\n");
  std::printf("%-24s %6s | %8s %10s %8s | %9s %9s | %8s\n", "benchmark", "sigs",
              "events", "conditions", "cutoffs", "SG-states", "SG-arcs", "ratio");
  std::printf("-------------------------------------------------------------------"
              "---------------------------\n");
  auto report = [](const char* name, const punt::stg::Stg& stg) {
    const auto unf = punt::unf::Unfolding::build(stg);
    std::size_t states = 0, arcs = 0;
    bool sg_ok = true;
    try {
      punt::sg::BuildOptions options;
      options.state_budget = 200000;
      const auto sgraph = punt::sg::StateGraph::build(stg, options);
      states = sgraph.state_count();
      arcs = sgraph.arc_count();
    } catch (const punt::CapacityError&) {
      sg_ok = false;
    }
    if (sg_ok) {
      std::printf("%-24s %6zu | %8zu %10zu %8zu | %9zu %9zu | %8.2f\n", name,
                  stg.signal_count(), unf.stats().events, unf.stats().conditions,
                  unf.stats().cutoffs, states, arcs,
                  double(states) / double(unf.stats().events + 1));
    } else {
      std::printf("%-24s %6zu | %8zu %10zu %8zu | %9s %9s | %8s\n", name,
                  stg.signal_count(), unf.stats().events, unf.stats().conditions,
                  unf.stats().cutoffs, ">200000", "-", "huge");
    }
  };
  for (const auto& bench : punt::benchmarks::table1()) {
    report(bench.name.c_str(), bench.make());
  }
  report("muller(24)", punt::stg::make_muller_pipeline(24));
  report("counterflow(16)", punt::stg::make_counterflow_pipeline(16));
  std::printf("\nShape check: the segment grows polynomially in the spec size (a\n"
              "Muller pipeline's as about stages^2/2 events) while the SG grows\n"
              "exponentially with concurrency.\n");
  return 0;
}
