// Byte identity of the synthesized equations against a committed golden file.
//
// Each line of tests/data/equations.golden pins one (spec, method, arch) run
// of `punt synth`, rendered in-process by the daemon's handler
// (server::run_synth, byte-identical to the CLI): the exit status, the
// literal count and the FNV-1a 64 hash of stdout without the `# unfold`
// timing line.  The specs are the Table 1 registry, small Muller and
// counterflow pipelines under every method and architecture, and the two
// largest Fig. 6 pipelines under the default flow.
//
// A change that alters equations on purpose regenerates the file: on any
// mismatch the test writes the complete fresh set to
// `equations.golden.actual` in its working directory.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/server/protocol.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/binio.hpp"

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

Rendered render(const Spec& spec, const Flags& run, core::ModelCache& cache,
                core::Executor& executor) {
  server::Request request;
  request.op = server::Op::Synth;
  request.g_text = spec.g_text;
  request.method = run.method;
  request.arch = run.arch;
  const server::Response response = server::run_synth(request, &cache, &executor);
  Rendered rendered;
  rendered.output = without_timings(response.output);
  char fields[96];
  std::snprintf(fields, sizeof(fields), " exit=%d literals=%zu fnv=%016" PRIx64,
                response.exit_code, header_literals(rendered.output),
                util::fnv1a64(rendered.output));
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

}  // namespace
}  // namespace punt
