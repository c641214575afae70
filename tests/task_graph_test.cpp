// Tests for the dependency-aware task-graph executor: topological execution,
// deterministic inline ordering, failure containment (transitive-dependent
// cancellation), the schedule trace / critical path, and — under TSan — the
// no-deadlock property of many graphs churning through one pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/util/task_graph.hpp"
#include "src/util/thread_pool.hpp"

namespace punt::util {
namespace {

TEST(TaskGraph, InlineRunsInPriorityThenIdOrder) {
  TaskGraph graph;
  std::vector<std::string> order;
  const auto record = [&order](std::string name) {
    return [&order, name = std::move(name)] { order.push_back(name); };
  };
  // Three roots with priorities 2, 0, 1 plus one dependent each: the roots
  // must run in priority order, each unlocking its child, and children
  // (priority 5) run after every root.
  const auto a = graph.add("root", "a", 2, {}, record("a"));
  const auto b = graph.add("root", "b", 0, {}, record("b"));
  const auto c = graph.add("root", "c", 1, {}, record("c"));
  graph.add("child", "a'", 5, {a}, record("a'"));
  graph.add("child", "b'", 5, {b}, record("b'"));
  graph.add("child", "c'", 5, {c}, record("c'"));
  graph.execute_inline();
  EXPECT_EQ(order, (std::vector<std::string>{"b", "c", "a", "a'", "b'", "c'"}));
  for (std::size_t id = 0; id < graph.size(); ++id) {
    EXPECT_EQ(graph.status(id), TaskStatus::Done);
    EXPECT_EQ(graph.error(id), nullptr);
  }
}

TEST(TaskGraph, TraceStampsReadyTimesAndQueueWaits) {
  for (const bool inline_run : {true, false}) {
    TaskGraph graph;
    const auto spin = [] {
      volatile double sink = 0;
      for (int i = 0; i < 20000; ++i) sink = sink + static_cast<double>(i);
    };
    const auto root = graph.add("n", "root", 0, {}, spin);
    graph.add("n", "child", 0, {root}, spin);
    graph.add("n", "boom", 0, {}, [] { throw std::runtime_error("x"); });
    const auto doomed = graph.add("n", "doomed", 0, {2}, spin);
    if (inline_run) {
      graph.execute_inline();
    } else {
      ThreadPool pool(2);
      graph.execute(pool);
    }
    const TaskTrace& trace = graph.trace();
    for (const TraceNode& node : trace.nodes) {
      if (node.status == TaskStatus::Cancelled) continue;
      EXPECT_LE(node.wall_ready, node.wall_start + 1e-9) << node.label;
      EXPECT_GE(node.queue_wait(), -1e-9) << node.label;
    }
    // A dependent becomes ready only once its dependency finishes.
    EXPECT_GE(trace.nodes[1].wall_ready, trace.nodes[0].wall_end - 1e-9);
    EXPECT_EQ(trace.nodes[doomed].queue_wait(), 0.0) << "cancelled nodes never wait";
    // The JSON dump carries the additive v1 fields.
    const std::string json = trace.to_json();
    EXPECT_NE(json.find("\"wall_ready\""), std::string::npos);
    EXPECT_NE(json.find("\"queue_wait\""), std::string::npos);
  }
}

TEST(TaskGraph, PoolRespectsDependencies) {
  // A dependent node must observe every dependency's side effect, whichever
  // worker runs it.  Diamond: a → {b, c} → d, repeated over many graphs.
  ThreadPool pool(4);
  for (int round = 0; round < 25; ++round) {
    TaskGraph graph;
    std::atomic<int> a_runs{0};
    std::atomic<int> bc_after_a{0};
    std::atomic<int> d_after_bc{0};
    const auto a = graph.add("n", "a", 0, {}, [&] { a_runs.fetch_add(1); });
    const auto b = graph.add("n", "b", 0, {a}, [&] {
      if (a_runs.load() == 1) bc_after_a.fetch_add(1);
    });
    const auto c = graph.add("n", "c", 0, {a}, [&] {
      if (a_runs.load() == 1) bc_after_a.fetch_add(1);
    });
    graph.add("n", "d", 0, {b, c}, [&] {
      if (bc_after_a.load() == 2) d_after_bc.fetch_add(1);
    });
    graph.execute(pool);
    EXPECT_EQ(a_runs.load(), 1);
    EXPECT_EQ(bc_after_a.load(), 2);
    EXPECT_EQ(d_after_bc.load(), 1);
  }
}

TEST(TaskGraph, FailureCancelsTransitiveDependentsOnly) {
  // boom → mid → leaf is cancelled; the independent branch still runs.
  for (const bool inline_run : {true, false}) {
    TaskGraph graph;
    std::atomic<int> independent_ran{0};
    std::atomic<int> downstream_ran{0};
    const auto boom = graph.add("n", "boom", 0, {}, [] {
      throw std::runtime_error("boom failed");
    });
    const auto mid =
        graph.add("n", "mid", 0, {boom}, [&] { downstream_ran.fetch_add(1); });
    const auto leaf =
        graph.add("n", "leaf", 0, {mid}, [&] { downstream_ran.fetch_add(1); });
    const auto free1 =
        graph.add("n", "free1", 0, {}, [&] { independent_ran.fetch_add(1); });
    const auto free2 =
        graph.add("n", "free2", 0, {free1}, [&] { independent_ran.fetch_add(1); });
    if (inline_run) {
      graph.execute_inline();
    } else {
      ThreadPool pool(2);
      graph.execute(pool);
    }
    EXPECT_EQ(graph.status(boom), TaskStatus::Failed);
    EXPECT_EQ(graph.status(mid), TaskStatus::Cancelled);
    EXPECT_EQ(graph.status(leaf), TaskStatus::Cancelled);
    EXPECT_EQ(graph.status(free1), TaskStatus::Done);
    EXPECT_EQ(graph.status(free2), TaskStatus::Done);
    EXPECT_EQ(downstream_ran.load(), 0);
    EXPECT_EQ(independent_ran.load(), 2);
    ASSERT_NE(graph.error(boom), nullptr);
    try {
      std::rethrow_exception(graph.error(boom));
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom failed");
    }
    EXPECT_EQ(graph.error(mid), nullptr);  // cancelled, not failed
  }
}

TEST(TaskGraph, ForwardDependenciesAreRejected) {
  TaskGraph graph;
  EXPECT_THROW(graph.add("n", "x", 0, {0}, [] {}), std::invalid_argument);
  graph.add("n", "a", 0, {}, [] {});
  EXPECT_THROW(graph.add("n", "b", 0, {5}, [] {}), std::invalid_argument);
}

TEST(TaskGraph, TraceRecordsScheduleAndCriticalPath) {
  // The m → d → z chain busy-spins so it dominates the no-op stray node and
  // the critical path is unambiguous.
  const auto spin = [] {
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  ThreadPool pool(2);
  TaskGraph graph;
  const auto a = graph.add("model", "m", 0, {}, spin);
  const auto b = graph.add("derive", "d", 1, {a}, spin);
  graph.add("minimize", "z", 2, {b}, spin);
  graph.add("stray", "s", 3, {}, [] {});
  graph.execute(pool);

  const TaskTrace& trace = graph.trace();
  ASSERT_EQ(trace.nodes.size(), 4u);
  EXPECT_EQ(trace.workers, 2u);
  EXPECT_GT(trace.wall_seconds, 0.0);
  double chain = 0;
  for (const TraceNode& node : trace.nodes) {
    EXPECT_EQ(node.status, TaskStatus::Done);
    EXPECT_GE(node.worker, 0);  // every node ran on a pool worker
    EXPECT_LT(node.worker, 2);
    EXPECT_GE(node.wall_end, node.wall_start);
    EXPECT_LE(node.wall_end, trace.wall_seconds + 1e-6);
  }
  // The m → d → z chain is the longest dependency chain; the stray node
  // cannot beat it unless it alone outlasted the chain (it does no work).
  for (const std::size_t id : {a, b}) chain += trace.nodes[id].wall_duration();
  chain += trace.nodes[2].wall_duration();
  EXPECT_NEAR(trace.critical_path_seconds(), chain, 1e-9);
  const std::vector<std::size_t> path = trace.critical_path();
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path, (std::vector<std::size_t>{0, 1, 2}));

  // Dependencies are ordered in the schedule: a dep's wall_end is never
  // after its dependent's wall_start.
  for (const TraceNode& node : trace.nodes) {
    for (const std::size_t dep : node.deps) {
      EXPECT_LE(trace.nodes[dep].wall_end, node.wall_start)
          << "node " << node.id << " started before dep " << dep << " ended";
    }
  }

  const std::string json = trace.to_json();
  EXPECT_NE(json.find("\"schema\": \"punt-schedule-trace\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"derive\""), std::string::npos);
  EXPECT_NE(json.find("\"deps\": [1]"), std::string::npos);
  const std::string summary = graph.trace().summary();
  EXPECT_NE(summary.find("critical path"), std::string::npos);
  EXPECT_NE(summary.find("1 model"), std::string::npos);
}

TEST(TaskGraph, CancelledNodesContributeNothingToTheCriticalPath) {
  TaskGraph graph;
  const auto boom = graph.add("n", "boom", 0, {}, [] {
    throw std::runtime_error("down");
  });
  graph.add("n", "dead", 0, {boom}, [] {});
  graph.execute_inline();
  const TaskTrace& trace = graph.trace();
  EXPECT_EQ(trace.nodes[1].status, TaskStatus::Cancelled);
  EXPECT_EQ(trace.nodes[1].wall_duration(), 0.0);
  EXPECT_EQ(trace.nodes[1].worker, -1);
  EXPECT_NEAR(trace.critical_path_seconds(), trace.nodes[0].wall_duration(), 1e-12);
}

TEST(TaskGraph, EmptyGraphExecutes) {
  TaskGraph graph;
  graph.execute_inline();
  EXPECT_EQ(graph.trace().nodes.size(), 0u);
  EXPECT_EQ(graph.trace().critical_path_seconds(), 0.0);

  ThreadPool pool(2);
  TaskGraph pooled;
  pooled.execute(pool);
  EXPECT_EQ(pooled.trace().nodes.size(), 0u);
}

TEST(TaskGraph, ExecutingTwiceIsRejected) {
  TaskGraph graph;
  graph.add("n", "a", 0, {}, [] {});
  graph.execute_inline();
  EXPECT_THROW(graph.execute_inline(), std::invalid_argument);
  EXPECT_THROW(graph.add("n", "late", 0, {}, [] {}), std::invalid_argument);
}

// The no-deadlock property the old blocking-future scheduler could not
// offer: many small graphs — from several threads at once — churning
// through ONE pool, with continuations posted from inside workers.  Run
// under -fsanitize=thread in CI (the TaskGraph regex of the TSan job).
TEST(TaskGraph, StressManySmallGraphsThroughOnePool) {
  ThreadPool pool(4);
  constexpr int kThreads = 3;
  constexpr int kGraphsPerThread = 40;
  std::atomic<long> total{0};
  std::vector<std::thread> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    drivers.emplace_back([&pool, &total] {
      for (int g = 0; g < kGraphsPerThread; ++g) {
        TaskGraph graph;
        std::atomic<long> sum{0};
        // Two-level fan-out/fan-in: root → 6 middles → sink, plus one
        // failing branch whose dependent must be cancelled.
        const auto root = graph.add("n", "root", 0, {}, [&sum] { sum.fetch_add(1); });
        std::vector<TaskGraph::NodeId> middles;
        for (int m = 0; m < 6; ++m) {
          middles.push_back(
              graph.add("n", "mid", 1, {root}, [&sum] { sum.fetch_add(10); }));
        }
        const auto boom = graph.add("n", "boom", 1, {root}, [] {
          throw std::runtime_error("expected");
        });
        const auto dead = graph.add("n", "dead", 2, {boom}, [&sum] {
          sum.fetch_add(1000000);  // must never run
        });
        graph.add("n", "sink", 3, middles, [&sum] { sum.fetch_add(100); });
        graph.execute(pool);
        EXPECT_EQ(graph.status(dead), TaskStatus::Cancelled);
        EXPECT_EQ(sum.load(), 1 + 6 * 10 + 100);
        total.fetch_add(sum.load());
      }
    });
  }
  for (std::thread& driver : drivers) driver.join();
  EXPECT_EQ(total.load(), static_cast<long>(kThreads) * kGraphsPerThread * 161);
}

}  // namespace
}  // namespace punt::util
