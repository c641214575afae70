// A dependency-aware task-graph executor over util::ThreadPool.
//
// The synthesis flow is naturally a DAG — build the semantic model, derive a
// cover per output signal, minimise each, assemble — and this executor runs
// exactly that shape: nodes carry a function plus the ids of the nodes they
// depend on, and a node is enqueued on the pool the moment its last
// dependency completes (continuation scheduling).  No node ever waits on
// another inside a worker, so dependent tasks cannot park a worker and any
// number of graphs can churn through one pool without deadlock — the
// restriction the old blocking-future scheduler had to forbid.
//
// Semantics:
//   * Ready nodes are dispatched in ascending (priority, id) order: the
//     priority *band* always wins (models before derives,
//     widen-before-deepen — DESIGN.md §7), and within a band the older node
//     goes first.  The inline run (no pool) follows that order exactly, so
//     single-threaded execution is fully deterministic and reproducible.
//   * A node that throws is recorded as Failed with its exception_ptr; its
//     transitive dependents are Cancelled (never run).  Nodes on unrelated
//     branches still run — failure is contained to the downstream cone.
//   * execute() itself never throws a task's exception: callers inspect
//     per-node status()/error() and decide what propagates (the synthesis
//     pipeline rethrows the lowest-signal-index failure per entry).
//   * Every run records a TaskTrace — per node: kind, label, dependencies,
//     the worker that ran it, wall-clock start/end and thread-CPU time —
//     from which the critical path (the longest dependency chain by wall
//     duration, the lower bound on achievable wall-clock) is computed.
//
// The graph is build-then-run: add every node, call execute() (or
// execute_inline()) once, then read results out of whatever state the node
// functions wrote.  Node ids are dense and ascending; dependencies must
// refer to already-added nodes, which makes cycles unrepresentable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "src/util/thread_pool.hpp"

namespace punt::util {

enum class TaskStatus : std::uint8_t { Pending, Done, Failed, Cancelled };

/// The post-run record of one node, in the units the schedule trace and the
/// critical-path computation need.  Wall times are seconds since the start
/// of execute(); cpu_seconds is the node's thread-CPU time (so summed trace
/// times measure work, not oversubscription).
struct TraceNode {
  std::size_t id = 0;
  std::string kind;   // e.g. "model", "derive", "minimize", "assembly"
  std::string label;  // e.g. "chu150/y", for humans reading the trace
  std::vector<std::size_t> deps;
  int priority = 0;
  TaskStatus status = TaskStatus::Pending;
  int worker = -1;        // pool worker index; -1 = inline run or never ran
  double wall_ready = 0;  // when the node became dispatchable (~0 for roots)
  double wall_start = 0;  // seconds since execute() began
  double wall_end = 0;
  double cpu_seconds = 0;

  double wall_duration() const { return wall_end - wall_start; }

  /// Ready→start latency: how long the node sat dispatchable before a worker
  /// picked it up.  Zero for cancelled nodes.
  double queue_wait() const {
    return status == TaskStatus::Cancelled ? 0 : wall_start - wall_ready;
  }
};

/// The executed schedule of one graph run.
struct TaskTrace {
  std::vector<TraceNode> nodes;  // indexed by node id
  std::size_t workers = 1;       // pool width (1 for inline runs)
  double wall_seconds = 0;       // whole-graph wall-clock

  /// Length of the critical path: the dependency chain whose wall durations
  /// sum highest.  Cancelled nodes contribute zero.  This is the shortest
  /// wall-clock any worker count could achieve for the measured node costs.
  double critical_path_seconds() const;

  /// The node ids of that chain, in execution order.
  std::vector<std::size_t> critical_path() const;

  /// Human-readable one-paragraph summary: node counts by kind, wall clock,
  /// critical-path length and the chain's labels.
  std::string summary() const;

  /// JSON dump ("punt-schedule-trace" schema, version 1) for --trace-schedule.
  std::string to_json() const;
};

/// Build-then-run DAG of tasks.  Not thread-safe during construction; one
/// execute() call per graph.
class TaskGraph {
 public:
  using NodeId = std::size_t;

  TaskGraph() = default;
  TaskGraph(const TaskGraph&) = delete;
  TaskGraph& operator=(const TaskGraph&) = delete;

  /// Adds a node.  `deps` must name already-added nodes (so the graph is
  /// acyclic by construction); violating that throws std::invalid_argument.
  /// Lower `priority` dispatches first among simultaneously-ready nodes;
  /// ties break on id, so the schedule is deterministic.
  NodeId add(std::string kind, std::string label, int priority,
             std::vector<NodeId> deps, std::function<void()> fn);

  std::size_t size() const { return nodes_.size(); }

  /// Runs the graph on the calling thread in (priority, id) ready order.
  void execute_inline();

  /// Runs the graph across `pool`'s workers; the calling thread blocks until
  /// every node is Done, Failed or Cancelled.  Must not be called from a
  /// worker of the same pool (the caller blocks; workers never do).  Any
  /// number of graphs may execute over one pool concurrently.
  void execute(ThreadPool& pool);

  TaskStatus status(NodeId id) const { return nodes_[id].trace.status; }

  /// The exception a Failed node threw; null for any other status.
  std::exception_ptr error(NodeId id) const { return nodes_[id].error; }

  /// The executed schedule; meaningful after execute()/execute_inline().
  const TaskTrace& trace() const { return trace_; }

 private:
  struct Node {
    std::function<void()> fn;
    std::vector<NodeId> dependents;
    std::size_t pending_deps = 0;
    std::exception_ptr error;
    TraceNode trace;  // moved into trace_ at the end of the run
  };

  /// Marks every transitive dependent of `id` Cancelled; returns the newly
  /// cancelled ids (callers update their done-counters).  Caller holds the
  /// execution lock when running under a pool.
  std::vector<NodeId> cancel_dependents(NodeId id);

  /// Sorts `ids` into dispatch order, ascending (priority, id).
  void sort_for_dispatch(std::vector<NodeId>& ids) const;

  std::vector<Node> nodes_;
  TaskTrace trace_;
  bool executed_ = false;
};

}  // namespace punt::util
