// Tests for `punt trace` (src/benchmarks/trace_view): parsing a
// --trace-schedule JSON dump back into a util::TaskTrace — including the
// additive v1 fields and the reject table for damaged documents — and the
// rendered occupancy/Gantt/queue-wait report.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <string_view>

#include "src/benchmarks/trace_view.hpp"
#include "src/util/error.hpp"
#include "src/util/task_graph.hpp"
#include "src/util/thread_pool.hpp"

namespace punt::benchmarks {
namespace {

using util::TaskGraph;
using util::TaskStatus;
using util::TaskTrace;
using util::TraceNode;

/// A small mixed-kind graph: model → {derive x, derive y} → minimize y.
/// Executed for real so the dump carries genuine wall/cpu/ready times.
TaskTrace executed_trace(std::size_t workers) {
  TaskGraph graph;
  const auto spin = [] {
    volatile double sink = 0;
    for (int i = 0; i < 20000; ++i) sink = sink + static_cast<double>(i);
  };
  const auto model = graph.add("model", "m", 0, {}, spin);
  graph.add("derive", "t/x", 2, {model}, spin);
  const auto dy = graph.add("derive", "t/y", 2, {model}, spin);
  graph.add("minimize", "t/y", 3, {dy}, spin);
  if (workers <= 1) {
    graph.execute_inline();
  } else {
    util::ThreadPool pool(workers);
    graph.execute(pool);
  }
  return graph.trace();
}

std::string replace_once(std::string text, std::string_view from, std::string_view to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "fixture lost marker '" << from << "'";
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(TraceView, RoundTripsAnExecutedGraphThroughJson) {
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}}) {
    const TaskTrace original = executed_trace(workers);
    const TaskTrace parsed = trace_from_json(original.to_json());
    EXPECT_EQ(parsed.workers, original.workers);
    EXPECT_NEAR(parsed.wall_seconds, original.wall_seconds, 1e-6);
    ASSERT_EQ(parsed.nodes.size(), original.nodes.size());
    for (std::size_t i = 0; i < parsed.nodes.size(); ++i) {
      const TraceNode& got = parsed.nodes[i];
      const TraceNode& want = original.nodes[i];
      EXPECT_EQ(got.id, want.id);
      EXPECT_EQ(got.kind, want.kind);
      EXPECT_EQ(got.label, want.label);
      EXPECT_EQ(got.deps, want.deps);
      EXPECT_EQ(got.priority, want.priority);
      EXPECT_EQ(got.status, want.status);
      EXPECT_EQ(got.worker, want.worker);
      EXPECT_NEAR(got.wall_ready, want.wall_ready, 1e-6);
      EXPECT_NEAR(got.wall_start, want.wall_start, 1e-6);
      EXPECT_NEAR(got.wall_end, want.wall_end, 1e-6);
      EXPECT_NEAR(got.queue_wait(), want.queue_wait(), 1e-6);
    }
    // The derived quantities survive the trip too.
    EXPECT_NEAR(parsed.critical_path_seconds(), original.critical_path_seconds(), 1e-6);
    EXPECT_EQ(parsed.critical_path(), original.critical_path());
  }
}

TEST(TraceView, ReadsPreCostDumpsWithoutTheAdditiveFields) {
  // A dump written before wall_ready/queue_wait existed: strip them.
  std::string json = executed_trace(1).to_json();
  for (const char* field : {"wall_ready", "queue_wait"}) {
    std::size_t at;
    while ((at = json.find(std::string("\"") + field + "\":")) != std::string::npos) {
      const std::size_t comma = json.find(',', at);
      ASSERT_NE(comma, std::string::npos);
      json.erase(at, comma - at + 1);
    }
  }
  const TaskTrace trace = trace_from_json(json);
  ASSERT_FALSE(trace.nodes.empty());
  for (const TraceNode& node : trace.nodes) EXPECT_EQ(node.wall_ready, 0.0);
  EXPECT_NE(format_trace(trace).find("worker occupancy:"), std::string::npos);

  // Per-node fields this build does not read (older dumps carried a cost
  // estimate) are ignored.
  const std::string with_extra = replace_once(
      executed_trace(1).to_json(), "\"priority\": 0,", "\"priority\": 0, \"extra\": 0.5,");
  EXPECT_EQ(trace_from_json(with_extra).nodes.size(), trace.nodes.size());
}

TEST(TraceView, RejectsDamagedDocuments) {
  const std::string good = executed_trace(1).to_json();
  ASSERT_NO_THROW(trace_from_json(good));
  const struct {
    const char* name;
    std::string doc;
  } rejects[] = {
      {"malformed JSON", good.substr(0, good.size() / 2)},
      {"not an object", "[1, 2, 3]"},
      {"wrong schema",
       replace_once(good, "\"punt-schedule-trace\"", "\"punt-table1-report\"")},
      {"unsupported version", replace_once(good, "\"version\": 1", "\"version\": 2")},
      {"non-dense ids", replace_once(good, "\"id\": 1", "\"id\": 7")},
      {"forward dep", replace_once(good, "\"deps\": [0]", "\"deps\": [9]")},
      {"non-integer dep", replace_once(good, "\"deps\": [0]", "\"deps\": [0.5]")},
      {"unknown status", replace_once(good, "\"done\"", "\"finished\"")},
      {"nodes not an array", replace_once(good, "\"nodes\": [", "\"nodes\": 3, \"x\": [")},
  };
  for (const auto& reject : rejects) {
    EXPECT_THROW(trace_from_json(reject.doc), ParseError) << reject.name;
  }
}

TEST(TraceView, FormatsOccupancyLegendAndQueueWaits) {
  const std::string out = format_trace(trace_from_json(executed_trace(2).to_json()));
  EXPECT_NE(out.find("worker occupancy:"), std::string::npos);
  EXPECT_NE(out.find("legend:"), std::string::npos);
  // Distinct letters even for kinds sharing an initial (model vs minimize).
  EXPECT_NE(out.find("M=model"), std::string::npos);
  EXPECT_NE(out.find("I=minimize"), std::string::npos);
  EXPECT_NE(out.find("queue wait:"), std::string::npos);
}

}  // namespace
}  // namespace punt::benchmarks
