// Byte identity of the synthesized equations against a committed golden file.
//
// Each line of tests/data/equations.golden pins one (spec, method, arch) run
// of `punt synth`, rendered in-process by server::run_synth, the handler
// that `punt synth` runs, so the file pins the CLI's bytes by construction:
// the exit status, the literal count and the FNV-1a 64 hash of stdout
// without the `# unfold` timing line.  The specs are the Table 1 registry, small Muller and
// counterflow pipelines under every method and architecture, and the Fig. 6
// pipelines (muller29/44/59/89, cfpp34) under the default flow.
//
// A change that alters equations on purpose regenerates the file: on any
// mismatch the test writes the complete fresh set to
// `equations.golden.actual` in its working directory.
//
// A second test feeds every espresso input of the same runs to espresso and
// to the DC-based reference in tests/dc_espresso_reference.hpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/logic/espresso.hpp"
#include "src/server/protocol.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/strings.hpp"
#include "tests/dc_espresso_reference.hpp"

namespace punt {
namespace {

struct Flags {
  std::string method;
  std::string arch;
};

struct Spec {
  std::string name;
  std::string g_text;  // what `punt bench dump` prints
  std::vector<Flags> runs;
};

std::vector<Flags> all_runs() {
  std::vector<Flags> runs;
  for (const char* method : {"approx", "exact", "sg"}) {
    for (const char* arch : {"acg", "c", "rs"}) runs.push_back({method, arch});
  }
  return runs;
}

std::vector<Spec> golden_specs() {
  std::vector<Spec> specs;
  for (const benchmarks::Benchmark& bench : benchmarks::table1()) {
    specs.push_back({bench.name, stg::write_g(bench.make()), all_runs()});
  }
  specs.push_back({"muller4", stg::write_g(stg::make_muller_pipeline(4)), all_runs()});
  specs.push_back({"muller9", stg::write_g(stg::make_muller_pipeline(9)), all_runs()});
  specs.push_back(
      {"counterflow3", stg::write_g(stg::make_counterflow_pipeline(3)), all_runs()});
  specs.push_back(
      {"muller29", stg::write_g(stg::make_muller_pipeline(29)), {{"approx", "acg"}}});
  specs.push_back(
      {"muller44", stg::write_g(stg::make_muller_pipeline(44)), {{"approx", "acg"}}});
  specs.push_back(
      {"muller59", stg::write_g(stg::make_muller_pipeline(59)), {{"approx", "acg"}}});
  specs.push_back(
      {"muller89", stg::write_g(stg::make_muller_pipeline(89)), {{"approx", "acg"}}});
  specs.push_back(
      {"cfpp34", stg::write_g(stg::make_counterflow_pipeline(16)), {{"approx", "acg"}}});
  return specs;
}

/// Stdout without the `# unfold ...` line, whose timings vary run to run.
std::string without_timings(const std::string& output) {
  std::string kept;
  std::istringstream lines(output);
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("# unfold ")) continue;
    kept += line;
    kept += '\n';
  }
  return kept;
}

/// The literal count from the `# <name>: <n> signals, <l> literals` header,
/// or 0 when the run printed none (a refused or failed spec).
std::size_t header_literals(std::string_view output) {
  const std::size_t end = output.find(" literals\n");
  if (end == std::string_view::npos) return 0;
  const std::size_t begin = output.rfind(' ', end - 1) + 1;
  return std::stoul(std::string(output.substr(begin, end - begin)));
}

struct Rendered {
  std::string line;    // the golden line
  std::string output;  // stdout without the timing line
};

/// The request `punt synth --method=<method> --arch=<arch>` builds.
server::Request request_of(const Flags& run) {
  server::Request request;
  request.op = server::Op::Synth;
  request.method = run.method;
  request.arch = run.arch;
  return request;
}

Rendered render(const Spec& spec, const Flags& run, core::ModelCache& cache,
                core::Executor& executor) {
  server::Request request = request_of(run);
  request.g_text = spec.g_text;
  const server::Response response = server::run_synth(request, &cache, &executor);
  Rendered rendered;
  rendered.output = without_timings(response.output);
  char fields[96];
  std::snprintf(fields, sizeof(fields), " exit=%d literals=%zu fnv=%016" PRIx64,
                response.exit_code, header_literals(rendered.output),
                fnv1a64(rendered.output));
  rendered.line = spec.name + " " + run.method + " " + run.arch + fields;
  return rendered;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  for (std::string line; std::getline(in, line);) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

TEST(GoldenEquations, EverySpecMatchesTheGoldenFile) {
  const std::vector<std::string> golden =
      read_lines(std::string(PUNT_TEST_DATA_DIR) + "/equations.golden");
  core::ModelCache cache;  // approx and exact share an unfolding; archs share a model
  core::Executor executor(0);

  std::vector<std::string> fresh;
  std::size_t mismatches = 0;
  for (const Spec& spec : golden_specs()) {
    for (const Flags& run : spec.runs) {
      const Rendered rendered = render(spec, run, cache, executor);
      const std::size_t k = fresh.size();
      fresh.push_back(rendered.line);
      if (k < golden.size() && golden[k] == rendered.line) continue;
      ++mismatches;
      ADD_FAILURE() << "golden: " << (k < golden.size() ? golden[k] : "(missing)")
                    << "\nfresh:  " << rendered.line << "\nspec " << spec.name
                    << " --method=" << run.method << " --arch=" << run.arch
                    << " now prints:\n"
                    << rendered.output;
    }
  }
  EXPECT_EQ(fresh.size(), golden.size()) << "the golden file lists a different run set";
  if (mismatches > 0 || fresh.size() != golden.size()) {
    std::ofstream out("equations.golden.actual");
    for (const std::string& line : fresh) out << line << '\n';
    ADD_FAILURE() << "wrote the fresh set to equations.golden.actual in the working "
                     "directory; copy it over tests/data/equations.golden when the "
                     "change is intended";
  }
}

TEST(GoldenEquations, CareSetEspressoMatchesTheDcReference) {
  // Every espresso input of the golden runs: a complex gate minimises on
  // against off and off against on, C and RS minimise er_on against off and
  // er_off against on.  Espresso must return the DC-based reference's cube
  // list wherever the reference's DC fits under its cap.  The DC depends only
  // on the care set's cube multiset, so on + off and off + on, and C and RS,
  // share one.
  core::ModelCache cache;
  std::map<std::vector<logic::Cube>, std::optional<logic::Cover>> dc_of_care;
  std::vector<std::string> capped;
  for (const Spec& spec : golden_specs()) {
    const stg::Stg stg = stg::parse_g(spec.g_text);
    for (const Flags& run : spec.runs) {
      const core::PipelineContext context =
          core::PipelineContext::build(stg, server::options_of(request_of(run)), &cache);
      const bool gate = context.options.architecture == core::Architecture::ComplexGate;
      for (const stg::SignalId signal : context.model->targets) {
        core::DeriveTask derive;
        derive.signal = signal;
        derive.run(context);
        const logic::Cover& on = derive.impl.on_cover;
        const logic::Cover& off = derive.impl.off_cover;
        const std::string label = spec.name + " " + run.method + " " + run.arch + " " +
                                  derive.impl.name;
        for (const auto& [phase, input, blocking] :
             {std::tuple{"on", gate ? &on : &derive.er_on, &off},
              std::tuple{"off", gate ? &off : &derive.er_off, &on}}) {
          std::vector<logic::Cube> care = input->cubes();
          care.insert(care.end(), blocking->cubes().begin(), blocking->cubes().end());
          std::sort(care.begin(), care.end());
          auto [dc, fresh] = dc_of_care.try_emplace(std::move(care));
          if (fresh) dc->second = logic::reference::dont_care(*input, *blocking);
          if (!dc->second) {
            capped.push_back(label + " " + phase);
            continue;
          }
          EXPECT_EQ(logic::espresso(*input, *blocking).cubes(),
                    logic::reference::espresso(*input, *blocking, *dc->second).cubes())
              << label << " " << phase;
        }
      }
    }
  }
  for (const std::string& line : capped) std::printf("DC capped at the parent: %s\n", line.c_str());
  // mp-forward-pkt's `a` is the one signal whose care sets overflowed the
  // cap, so its minimisation ran with an empty DC before.
  EXPECT_EQ(capped, (std::vector<std::string>{
                        "mp-forward-pkt approx acg a on", "mp-forward-pkt approx acg a off",
                        "mp-forward-pkt approx c a on", "mp-forward-pkt approx c a off",
                        "mp-forward-pkt approx rs a on", "mp-forward-pkt approx rs a off"}));
}

}  // namespace
}  // namespace punt
