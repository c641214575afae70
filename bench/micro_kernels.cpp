// Micro-benchmarks (google-benchmark) of the four kernels the paper's time
// columns decompose into: segment construction (UnfTim), state-graph
// construction (the baselines' dominant cost), cover derivation from slices
// (SynTim) and two-level minimisation (EspTim).
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/approx.hpp"
#include "src/core/synthesis.hpp"
#include "src/logic/espresso.hpp"
#include "src/sg/analysis.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/generators.hpp"
#include "src/unfolding/unfolding.hpp"

namespace {

void BM_UnfoldMuller(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::unf::Unfolding::build(stg));
  }
  state.SetLabel(std::to_string(stg.signal_count()) + " signals");
}
BENCHMARK(BM_UnfoldMuller)->Arg(4)->Arg(9)->Arg(14)->Arg(19);

void BM_StateGraphMuller(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::sg::StateGraph::build(stg));
  }
}
BENCHMARK(BM_StateGraphMuller)->Arg(4)->Arg(9)->Arg(14);

void BM_ApproximateCover(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto unf = punt::unf::Unfolding::build(stg);
  const auto signal = stg.non_input_signals().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::core::approximate_cover(unf, signal, true));
  }
}
BENCHMARK(BM_ApproximateCover)->Arg(9)->Arg(19)->Arg(59);

// The Fig. 5 refinement loop over every non-input signal of the pipeline,
// from fresh approximations each iteration (copied outside the timing).
void BM_RefineUntilDisjoint(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto unf = punt::unf::Unfolding::build(stg);
  std::vector<std::pair<punt::core::ApproxCover, punt::core::ApproxCover>> approximations;
  for (const auto signal : stg.non_input_signals()) {
    approximations.emplace_back(punt::core::approximate_cover(unf, signal, true),
                                punt::core::approximate_cover(unf, signal, false));
  }
  std::size_t iterations = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto covers = approximations;
    state.ResumeTiming();
    iterations = 0;
    for (auto& [on, off] : covers) {
      iterations += punt::core::refine_until_disjoint(unf, on, off).iterations;
    }
  }
  state.SetLabel(std::to_string(iterations) + " refinement iterations");
}
BENCHMARK(BM_RefineUntilDisjoint)->Arg(19)->Arg(29)->Unit(benchmark::kMillisecond);

void BM_ExactSliceEnumeration(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto unf = punt::unf::Unfolding::build(stg);
  const auto signal = stg.non_input_signals().front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::core::exact_cover(unf, signal, true));
  }
}
BENCHMARK(BM_ExactSliceEnumeration)->Arg(6)->Arg(10);

void BM_EspressoOnSgCovers(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto sgraph = punt::sg::StateGraph::build(stg);
  const auto signal = stg.non_input_signals().front();
  const auto on = punt::sg::on_cover(sgraph, signal);
  const auto off = punt::sg::off_cover(sgraph, signal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::logic::espresso(on, off));
  }
}
BENCHMARK(BM_EspressoOnSgCovers)->Arg(6)->Arg(9)->Arg(12);

// The on/off disjointness test DeriveTask's CSC check and espresso's
// contradiction check run on one signal's minterm covers (Cover::intersects
// splits both lists rather than comparing all pairs).
void BM_CoverIntersectsSgCovers(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto sgraph = punt::sg::StateGraph::build(stg);
  const auto signal = stg.non_input_signals().front();
  const auto on = punt::sg::on_cover(sgraph, signal);
  const auto off = punt::sg::off_cover(sgraph, signal);
  for (auto _ : state) {
    benchmark::DoNotOptimize(on.intersects(off));
  }
  state.SetLabel(std::to_string(on.cube_count()) + " x " + std::to_string(off.cube_count()) +
                 " minterms");
}
BENCHMARK(BM_CoverIntersectsSgCovers)->Arg(9)->Arg(12);

void BM_CoverComplement(benchmark::State& state) {
  const punt::stg::Stg stg =
      punt::stg::make_muller_pipeline(static_cast<std::size_t>(state.range(0)));
  const auto sgraph = punt::sg::StateGraph::build(stg);
  const auto on = punt::sg::on_cover(sgraph, stg.non_input_signals().front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(on.complement());
  }
}
BENCHMARK(BM_CoverComplement)->Arg(6)->Arg(9);

// espresso on whole care sets: mp-forward-pkt's `a` (its don't-care
// complement overflowed the old 200,000-cube cap), its `u3_3` (a 1030-cube
// don't-care set before), and muller12's first state-graph signal.
std::pair<punt::logic::Cover, punt::logic::Cover> on_off(std::int64_t which,
                                                         std::string* label) {
  if (which == 2) {
    const punt::stg::Stg stg = punt::stg::make_muller_pipeline(12);
    const auto sgraph = punt::sg::StateGraph::build(stg);
    const auto signal = stg.non_input_signals().front();
    *label = "muller12/" + stg.signal_name(signal);
    return {punt::sg::on_cover(sgraph, signal), punt::sg::off_cover(sgraph, signal)};
  }
  const char* signal = which == 0 ? "a" : "u3_3";
  *label = std::string("mp-forward-pkt/") + signal;
  punt::core::SynthesisOptions options;
  options.minimize = false;
  const auto result =
      punt::core::synthesize(punt::benchmarks::find("mp-forward-pkt").make(), options);
  for (const auto& impl : result.signals) {
    if (impl.name == signal) return {impl.on_cover, impl.off_cover};
  }
  return {};
}

void BM_EspressoCareSet(benchmark::State& state) {
  std::string label;
  const auto [on, off] = on_off(state.range(0), &label);
  std::size_t cubes = 0;
  for (auto _ : state) {
    cubes = punt::logic::espresso(on, off).cube_count();
    benchmark::DoNotOptimize(cubes);
  }
  state.SetLabel(label + ": " + std::to_string(on.cube_count()) + " on / " +
                 std::to_string(off.cube_count()) + " off cubes -> " + std::to_string(cubes));
}
BENCHMARK(BM_EspressoCareSet)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMicrosecond);

void BM_SynthesizeRegistryRow(benchmark::State& state) {
  const auto& bench =
      punt::benchmarks::table1()[static_cast<std::size_t>(state.range(0))];
  const punt::stg::Stg stg = bench.make();
  punt::core::SynthesisOptions options;
  for (auto _ : state) {
    benchmark::DoNotOptimize(punt::core::synthesize(stg, options));
  }
  state.SetLabel(bench.name);
}
BENCHMARK(BM_SynthesizeRegistryRow)->Arg(0)->Arg(5)->Arg(9)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
