#include "src/util/task_graph.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <utility>

#include "src/util/json.hpp"
#include "src/util/stopwatch.hpp"

namespace punt::util {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(const Clock::time_point& base) {
  return std::chrono::duration<double>(Clock::now() - base).count();
}

/// The one dispatch-order definition, shared by the inline heap and the
/// pool paths: ascending (priority, id) — the priority band first, id as the
/// deterministic tiebreak.
using ReadyKey = std::pair<int, std::size_t>;

using ReadyQueue =
    std::priority_queue<ReadyKey, std::vector<ReadyKey>, std::greater<ReadyKey>>;

const char* status_name(TaskStatus status) {
  switch (status) {
    case TaskStatus::Pending: return "pending";
    case TaskStatus::Done: return "done";
    case TaskStatus::Failed: return "failed";
    case TaskStatus::Cancelled: return "cancelled";
  }
  return "?";
}

}  // namespace

// --- TaskTrace ----------------------------------------------------------------

double TaskTrace::critical_path_seconds() const {
  double best = 0;
  std::vector<double> cp(nodes.size(), 0);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    double longest_dep = 0;
    for (const std::size_t d : nodes[i].deps) longest_dep = std::max(longest_dep, cp[d]);
    cp[i] = longest_dep + nodes[i].wall_duration();
    best = std::max(best, cp[i]);
  }
  return best;
}

std::vector<std::size_t> TaskTrace::critical_path() const {
  if (nodes.empty()) return {};
  // cp[i] = longest chain ending at i; pred[i] = the dep that realises it.
  std::vector<double> cp(nodes.size(), 0);
  std::vector<std::size_t> pred(nodes.size(), nodes.size());
  std::size_t tail = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    for (const std::size_t d : nodes[i].deps) {
      if (cp[d] > cp[i]) {
        cp[i] = cp[d];
        pred[i] = d;
      }
    }
    cp[i] += nodes[i].wall_duration();
    if (cp[i] > cp[tail]) tail = i;
  }
  std::vector<std::size_t> path;
  for (std::size_t at = tail; at != nodes.size(); at = pred[at]) path.push_back(at);
  std::reverse(path.begin(), path.end());
  return path;
}

std::string TaskTrace::summary() const {
  // Node counts by kind, in first-appearance order.
  std::vector<std::pair<std::string, std::size_t>> kinds;
  for (const TraceNode& node : nodes) {
    auto it = std::find_if(kinds.begin(), kinds.end(),
                           [&](const auto& k) { return k.first == node.kind; });
    if (it == kinds.end()) {
      kinds.emplace_back(node.kind, 1);
    } else {
      ++it->second;
    }
  }
  char buffer[160];
  std::string out = "schedule: " + std::to_string(nodes.size()) + " node(s)";
  if (!kinds.empty()) {
    out += " (";
    for (std::size_t i = 0; i < kinds.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(kinds[i].second) + " " + kinds[i].first;
    }
    out += ")";
  }
  const double critical = critical_path_seconds();
  std::snprintf(buffer, sizeof buffer,
                " over %zu worker(s); wall %.4fs, critical path %.4fs (%.2fx headroom)\n",
                workers, wall_seconds, critical,
                critical > 0 ? wall_seconds / critical : 0.0);
  out += buffer;
  const std::vector<std::size_t> path = critical_path();
  if (!path.empty()) {
    out += "critical path:";
    for (const std::size_t id : path) {
      const TraceNode& node = nodes[id];
      std::snprintf(buffer, sizeof buffer, " %s%s%s%s(%.4fs)",
                    id == path.front() ? " " : "-> ", node.kind.c_str(),
                    node.label.empty() ? "" : ":", node.label.c_str(),
                    node.wall_duration());
      out += buffer;
    }
    out += "\n";
  }
  return out;
}

std::string TaskTrace::to_json() const {
  char buffer[256];
  std::string out = "{\n";
  out += "  \"schema\": \"punt-schedule-trace\",\n";
  out += "  \"version\": 1,\n";
  std::snprintf(buffer, sizeof buffer,
                "  \"workers\": %zu,\n  \"wall_seconds\": %.9f,\n"
                "  \"critical_path_seconds\": %.9f,\n",
                workers, wall_seconds, critical_path_seconds());
  out += buffer;
  out += "  \"nodes\": [\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const TraceNode& node = nodes[i];
    out += "    {\"id\": " + std::to_string(node.id) + ", \"kind\": \"" +
           json_escape(node.kind) + "\", \"label\": \"" + json_escape(node.label) +
           "\", \"deps\": [";
    for (std::size_t d = 0; d < node.deps.size(); ++d) {
      if (d > 0) out += ", ";
      out += std::to_string(node.deps[d]);
    }
    // wall_ready / queue_wait are additive fields of schema version 1 —
    // readers of older dumps treat their absence as zero.
    std::snprintf(buffer, sizeof buffer,
                  "], \"priority\": %d, \"status\": \"%s\", "
                  "\"worker\": %d, \"wall_ready\": %.9f, \"wall_start\": %.9f, "
                  "\"wall_end\": %.9f, \"queue_wait\": %.9f, \"cpu_seconds\": %.9f}%s\n",
                  node.priority, status_name(node.status), node.worker,
                  node.wall_ready, node.wall_start, node.wall_end, node.queue_wait(),
                  node.cpu_seconds, i + 1 < nodes.size() ? "," : "");
    out += buffer;
  }
  out += "  ]\n}\n";
  return out;
}

// --- TaskGraph ----------------------------------------------------------------

TaskGraph::NodeId TaskGraph::add(std::string kind, std::string label, int priority,
                                 std::vector<NodeId> deps, std::function<void()> fn) {
  if (executed_) {
    throw std::invalid_argument("TaskGraph::add called after execute()");
  }
  const NodeId id = nodes_.size();
  for (const NodeId dep : deps) {
    if (dep >= id) {
      throw std::invalid_argument(
          "TaskGraph::add: node " + std::to_string(id) + " depends on node " +
          std::to_string(dep) + ", which has not been added yet (dependencies "
          "must point backwards, keeping the graph acyclic)");
    }
  }
  Node node;
  node.fn = std::move(fn);
  node.pending_deps = deps.size();
  node.trace.id = id;
  node.trace.kind = std::move(kind);
  node.trace.label = std::move(label);
  node.trace.priority = priority;
  node.trace.deps = deps;
  for (const NodeId dep : deps) nodes_[dep].dependents.push_back(id);
  nodes_.push_back(std::move(node));
  return id;
}

void TaskGraph::sort_for_dispatch(std::vector<NodeId>& ids) const {
  std::sort(ids.begin(), ids.end(), [this](NodeId a, NodeId b) {
    return ReadyKey{nodes_[a].trace.priority, a} < ReadyKey{nodes_[b].trace.priority, b};
  });
}

std::vector<TaskGraph::NodeId> TaskGraph::cancel_dependents(NodeId id) {
  std::vector<NodeId> cancelled;
  std::vector<NodeId> frontier = nodes_[id].dependents;
  while (!frontier.empty()) {
    const NodeId at = frontier.back();
    frontier.pop_back();
    Node& node = nodes_[at];
    if (node.trace.status != TaskStatus::Pending) continue;
    node.trace.status = TaskStatus::Cancelled;
    cancelled.push_back(at);
    frontier.insert(frontier.end(), node.dependents.begin(), node.dependents.end());
  }
  return cancelled;
}

void TaskGraph::execute_inline() {
  if (executed_) throw std::invalid_argument("TaskGraph executed twice");
  executed_ = true;
  const Clock::time_point base = Clock::now();

  ReadyQueue ready;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].pending_deps == 0) {
      nodes_[i].trace.wall_ready = seconds_since(base);
      ready.push({nodes_[i].trace.priority, i});
    }
  }
  while (!ready.empty()) {
    const NodeId id = ready.top().second;
    ready.pop();
    Node& node = nodes_[id];
    if (node.trace.status != TaskStatus::Pending) continue;  // cancelled meanwhile
    node.trace.worker = -1;  // inline: no pool worker
    node.trace.wall_start = seconds_since(base);
    ThreadCpuStopwatch cpu;
    try {
      node.fn();
      node.trace.status = TaskStatus::Done;
    } catch (...) {
      node.error = std::current_exception();
      node.trace.status = TaskStatus::Failed;
    }
    node.trace.cpu_seconds = cpu.seconds();
    node.trace.wall_end = seconds_since(base);
    if (node.trace.status == TaskStatus::Failed) {
      (void)cancel_dependents(id);
      continue;
    }
    for (const NodeId dep : node.dependents) {
      Node& next = nodes_[dep];
      if (--next.pending_deps == 0 && next.trace.status == TaskStatus::Pending) {
        next.trace.wall_ready = seconds_since(base);
        ready.push({next.trace.priority, dep});
      }
    }
  }

  trace_.nodes.clear();
  trace_.nodes.reserve(nodes_.size());
  for (Node& node : nodes_) trace_.nodes.push_back(std::move(node.trace));
  trace_.workers = 1;
  trace_.wall_seconds = seconds_since(base);
}

void TaskGraph::execute(ThreadPool& pool) {
  if (executed_) throw std::invalid_argument("TaskGraph executed twice");
  executed_ = true;
  const Clock::time_point base = Clock::now();

  if (nodes_.empty()) {
    trace_.workers = pool.thread_count();
    trace_.wall_seconds = seconds_since(base);
    return;
  }

  // Shared execution state.  Lives on this stack frame; execute() blocks
  // until `finished == nodes_.size()`, so worker lambdas never outlive it.
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t finished = 0;

  // dispatch posts one node's run to the pool.  The node body runs without
  // the lock; completion bookkeeping (dependent wake-ups, cancellation)
  // takes it briefly.
  std::function<void(NodeId)> dispatch = [&](NodeId id) {
    pool.post([&, id] {
      Node& node = nodes_[id];
      node.trace.worker = ThreadPool::current_worker_index();
      node.trace.wall_start = seconds_since(base);
      ThreadCpuStopwatch cpu;
      try {
        node.fn();
        node.trace.status = TaskStatus::Done;
      } catch (...) {
        node.error = std::current_exception();
        node.trace.status = TaskStatus::Failed;
      }
      node.trace.cpu_seconds = cpu.seconds();
      node.trace.wall_end = seconds_since(base);

      std::size_t newly_finished = 1;
      std::vector<NodeId> to_dispatch;
      {
        std::lock_guard<std::mutex> lock(mutex);
        if (node.trace.status == TaskStatus::Failed) {
          newly_finished += cancel_dependents(id).size();
        } else {
          for (const NodeId dep : node.dependents) {
            Node& next = nodes_[dep];
            if (--next.pending_deps == 0 && next.trace.status == TaskStatus::Pending) {
              next.trace.wall_ready = seconds_since(base);
              to_dispatch.push_back(dep);
            }
          }
        }
        finished += newly_finished;
        if (finished == nodes_.size()) all_done.notify_one();
      }
      // Once the last node finished, execute() may already have returned and
      // the graph may be gone; only a non-empty `to_dispatch`, which keeps
      // `finished` below the node count, lets this task touch either again.
      if (to_dispatch.empty()) return;
      // Continuations go out in (priority, id) order — outside the lock, so
      // a free worker can start the first one while we enqueue the rest.
      sort_for_dispatch(to_dispatch);
      for (const NodeId next : to_dispatch) dispatch(next);
    });
  };

  // Seed the pool with the initially-ready nodes in (priority, id) order.
  {
    std::vector<NodeId> seeds;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].pending_deps == 0) {
        nodes_[i].trace.wall_ready = seconds_since(base);
        seeds.push_back(i);
      }
    }
    sort_for_dispatch(seeds);
    for (const NodeId id : seeds) dispatch(id);
  }

  {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return finished == nodes_.size(); });
  }

  trace_.nodes.clear();
  trace_.nodes.reserve(nodes_.size());
  for (Node& node : nodes_) trace_.nodes.push_back(std::move(node.trace));
  trace_.workers = pool.thread_count();
  trace_.wall_seconds = seconds_since(base);
}

}  // namespace punt::util
