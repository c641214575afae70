#include "src/benchmarks/trace_view.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace punt::benchmarks {
namespace {

using punt::printf_string;

constexpr const char* kDocument = "schedule trace JSON";

/// Optional numeric field: the additive v1 field wall_ready defaults to zero
/// so dumps written before it existed still parse.
double optional_number(const util::JsonValue& object, const std::string& key) {
  const util::JsonValue* value = object.find(key);
  if (value == nullptr) return 0.0;
  if (value->type != util::JsonValue::Type::Number) {
    throw ParseError(std::string(kDocument) + ": field '" + key +
                     "' must be a number when present");
  }
  return value->number;
}

util::TaskStatus status_of(const std::string& name) {
  if (name == "pending") return util::TaskStatus::Pending;
  if (name == "done") return util::TaskStatus::Done;
  if (name == "failed") return util::TaskStatus::Failed;
  if (name == "cancelled") return util::TaskStatus::Cancelled;
  throw ParseError(std::string(kDocument) + ": unknown node status '" + name +
                   "' (expected pending|done|failed|cancelled)");
}

/// One distinct letter per node kind, first-appearance order: the first
/// usable character of the kind name (uppercased), falling back through the
/// rest of the name and then the alphabet when kinds collide on their
/// initial (model/minimize both start with 'm').
std::vector<std::pair<std::string, char>> kind_letters(const util::TaskTrace& trace) {
  std::vector<std::pair<std::string, char>> letters;
  const auto taken = [&](char c) {
    return std::any_of(letters.begin(), letters.end(),
                       [&](const auto& entry) { return entry.second == c; });
  };
  for (const util::TraceNode& node : trace.nodes) {
    if (std::any_of(letters.begin(), letters.end(),
                    [&](const auto& entry) { return entry.first == node.kind; })) {
      continue;
    }
    char letter = 0;
    for (const char c : node.kind) {
      const char upper = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
      if (std::isalnum(static_cast<unsigned char>(upper)) && !taken(upper)) {
        letter = upper;
        break;
      }
    }
    for (char c = 'A'; letter == 0 && c <= 'Z'; ++c) {
      if (!taken(c)) letter = c;
    }
    letters.emplace_back(node.kind, letter == 0 ? '?' : letter);
  }
  return letters;
}

char letter_of(const std::vector<std::pair<std::string, char>>& letters,
               const std::string& kind) {
  for (const auto& entry : letters) {
    if (entry.first == kind) return entry.second;
  }
  return '?';
}

/// One Gantt lane: `width` columns over [0, wall]; a node's kind letter
/// where it ran, '.' where the worker was idle.  When several short nodes
/// share a column, the one covering most of it wins.
std::string gantt_lane(const util::TaskTrace& trace,
                       const std::vector<std::pair<std::string, char>>& letters,
                       int worker, std::size_t width) {
  std::string lane(width, '.');
  if (trace.wall_seconds <= 0) return lane;
  const double per_column = trace.wall_seconds / static_cast<double>(width);
  std::vector<double> covered(width, 0.0);
  for (const util::TraceNode& node : trace.nodes) {
    if (node.worker != worker || node.status == util::TaskStatus::Cancelled ||
        node.status == util::TaskStatus::Pending) {
      continue;
    }
    const std::size_t first = std::min(
        width - 1, static_cast<std::size_t>(node.wall_start / per_column));
    const std::size_t last = std::min(
        width - 1, static_cast<std::size_t>(node.wall_end / per_column));
    for (std::size_t c = first; c <= last; ++c) {
      const double column_start = static_cast<double>(c) * per_column;
      const double overlap = std::min(node.wall_end, column_start + per_column) -
                             std::max(node.wall_start, column_start);
      if (overlap > covered[c]) {
        covered[c] = overlap;
        lane[c] = letter_of(letters, node.kind);
      }
    }
  }
  return lane;
}

}  // namespace

util::TaskTrace trace_from_json(std::string_view text) {
  const util::JsonValue root = util::parse_json(text);
  if (root.type != util::JsonValue::Type::Object) {
    throw ParseError(std::string(kDocument) + ": document is not an object");
  }
  const std::string schema = util::json_string(root, "schema", kDocument);
  if (schema != "punt-schedule-trace") {
    throw ParseError(std::string(kDocument) + ": schema is '" + schema +
                     "', expected 'punt-schedule-trace' (is this a "
                     "--trace-schedule dump?)");
  }
  const std::size_t version = util::json_count(root, "version", kDocument);
  if (version != 1) {
    throw ParseError(printf_string(
        "%s: version %zu is not supported (this build reads version 1); "
        "regenerate the dump with this punt's --trace-schedule",
        kDocument, version));
  }

  util::TaskTrace trace;
  trace.workers = util::json_count(root, "workers", kDocument);
  trace.wall_seconds = util::json_number(root, "wall_seconds", kDocument);
  const util::JsonValue& nodes =
      util::json_require(root, "nodes", util::JsonValue::Type::Array, kDocument);
  trace.nodes.reserve(nodes.array.size());
  for (std::size_t i = 0; i < nodes.array.size(); ++i) {
    const util::JsonValue& entry = nodes.array[i];
    if (entry.type != util::JsonValue::Type::Object) {
      throw ParseError(printf_string("%s: nodes[%zu] is not an object", kDocument, i));
    }
    util::TraceNode node;
    node.id = util::json_count(entry, "id", kDocument);
    if (node.id != i) {
      // The executor hands out dense ascending ids; anything else means a
      // truncated or hand-edited dump, and the critical-path arithmetic
      // below would index out of bounds.
      throw ParseError(printf_string(
          "%s: nodes[%zu] has id %zu; node ids must be dense and ascending",
          kDocument, i, node.id));
    }
    node.kind = util::json_string(entry, "kind", kDocument);
    node.label = util::json_string(entry, "label", kDocument);
    const util::JsonValue& deps =
        util::json_require(entry, "deps", util::JsonValue::Type::Array, kDocument);
    for (const util::JsonValue& dep : deps.array) {
      if (dep.type != util::JsonValue::Type::Number || dep.number < 0 ||
          dep.number != std::floor(dep.number) ||
          static_cast<std::size_t>(dep.number) >= node.id) {
        throw ParseError(printf_string(
            "%s: nodes[%zu] has an invalid dep (deps must be ids below %zu; "
            "the graph is acyclic by construction)",
            kDocument, i, node.id));
      }
      node.deps.push_back(static_cast<std::size_t>(dep.number));
    }
    node.priority = static_cast<int>(util::json_number(entry, "priority", kDocument));
    node.status = status_of(util::json_string(entry, "status", kDocument));
    node.worker = static_cast<int>(util::json_number(entry, "worker", kDocument));
    node.wall_ready = optional_number(entry, "wall_ready");
    node.wall_start = util::json_number(entry, "wall_start", kDocument);
    node.wall_end = util::json_number(entry, "wall_end", kDocument);
    node.cpu_seconds = util::json_number(entry, "cpu_seconds", kDocument);
    trace.nodes.push_back(std::move(node));
  }
  return trace;
}

std::string format_trace(const util::TaskTrace& trace) {
  std::string out = trace.summary();
  if (trace.nodes.empty()) return out;

  // Lanes: each pool worker index that ran at least one node; a -1 lane for
  // inline runs.  Sorted so the rendering is deterministic.
  std::vector<int> lanes;
  for (const util::TraceNode& node : trace.nodes) {
    if (node.status != util::TaskStatus::Done && node.status != util::TaskStatus::Failed) {
      continue;
    }
    if (std::find(lanes.begin(), lanes.end(), node.worker) == lanes.end()) {
      lanes.push_back(node.worker);
    }
  }
  std::sort(lanes.begin(), lanes.end());

  out += "\nworker occupancy:\n";
  constexpr std::size_t kGanttWidth = 64;
  const std::vector<std::pair<std::string, char>> letters = kind_letters(trace);
  for (const int worker : lanes) {
    double busy = 0;
    std::size_t count = 0;
    for (const util::TraceNode& node : trace.nodes) {
      if (node.worker != worker || (node.status != util::TaskStatus::Done &&
                                    node.status != util::TaskStatus::Failed)) {
        continue;
      }
      busy += node.wall_duration();
      ++count;
    }
    const double occupancy =
        trace.wall_seconds > 0 ? 100.0 * busy / trace.wall_seconds : 0.0;
    out += printf_string("  %-7s %3zu node(s)  busy %8.4fs  %5.1f%%  |%s|\n",
                         worker < 0 ? "inline" : printf_string("w%d", worker).c_str(),
                         count, busy, occupancy,
                         gantt_lane(trace, letters, worker, kGanttWidth).c_str());
  }
  out += "  legend:";
  for (const auto& [kind, letter] : letters) {
    out += printf_string(" %c=%s", letter, kind.empty() ? "(unnamed)" : kind.c_str());
  }
  out += ", .=idle\n";

  // Queue-wait: how long ready nodes sat before a worker picked them up.
  double wait_total = 0, wait_max = 0;
  std::size_t wait_count = 0;
  for (const util::TraceNode& node : trace.nodes) {
    if (node.status != util::TaskStatus::Done && node.status != util::TaskStatus::Failed) {
      continue;
    }
    const double wait = std::max(0.0, node.queue_wait());
    wait_total += wait;
    wait_max = std::max(wait_max, wait);
    ++wait_count;
  }
  if (wait_count > 0) {
    out += printf_string(
        "queue wait: mean %.4fs, max %.4fs over %zu executed node(s)\n",
        wait_total / static_cast<double>(wait_count), wait_max, wait_count);
  }
  return out;
}

}  // namespace punt::benchmarks
