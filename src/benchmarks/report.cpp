#include "src/benchmarks/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "src/benchmarks/registry.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace punt::benchmarks {
namespace {

using punt::printf_string;

// --- Minimal JSON layer -------------------------------------------------------
//
// Parsing and escaping are the shared util/json layer; these thin wrappers
// pin the document name (for diagnostics) so the accessors below read as
// they did when the parser lived here.

using util::json_escape;
using util::JsonValue;

constexpr const char* kDocument = "report JSON (is this a punt-table1-report?)";

const JsonValue& require(const JsonValue& object, const std::string& key,
                         JsonValue::Type type) {
  return util::json_require(object, key, type, kDocument);
}

double number_field(const JsonValue& object, const std::string& key) {
  return util::json_number(object, key, kDocument);
}

std::size_t count_field(const JsonValue& object, const std::string& key) {
  return util::json_count(object, key, kDocument);
}

std::string string_field(const JsonValue& object, const std::string& key) {
  return util::json_string(object, key, kDocument);
}

bool bool_field(const JsonValue& object, const std::string& key) {
  return util::json_bool(object, key, kDocument);
}

}  // namespace

// --- Shards -------------------------------------------------------------------

Shard parse_shard(const std::string& value) {
  const std::size_t slash = value.find('/');
  const std::string index_text = value.substr(0, slash);
  const std::string count_text = slash == std::string::npos ? "" : value.substr(slash + 1);
  const auto numeric = [](const std::string& text) {
    return !text.empty() && text.find_first_not_of("0123456789") == std::string::npos;
  };
  if (slash == std::string::npos || !numeric(index_text) || !numeric(count_text)) {
    throw Error("invalid --shard value '" + value +
                "'; expected <index>/<count> with non-negative integers "
                "(e.g. --shard=0/4 for the first of four shards)");
  }
  Shard shard;
  shard.index = std::strtoul(index_text.c_str(), nullptr, 10);
  shard.count = std::strtoul(count_text.c_str(), nullptr, 10);
  if (shard.count == 0) {
    throw Error("invalid --shard value '" + value +
                "'; the shard count must be at least 1");
  }
  if (shard.index >= shard.count) {
    throw Error("invalid --shard value '" + value + "'; the shard index must be below " +
                "the count (valid indices: 0.." + std::to_string(shard.count - 1) + ")");
  }
  return shard;
}

bool shard_contains(const Shard& shard, std::size_t position) {
  return position % shard.count == shard.index;
}

std::vector<std::size_t> shard_positions(const Shard& shard, std::size_t registry_size) {
  std::vector<std::size_t> positions;
  for (std::size_t p = shard.index; p < registry_size; p += shard.count) {
    positions.push_back(p);
  }
  return positions;
}

std::vector<std::size_t> weighted_shard_positions(const Shard& shard,
                                                  const Table1Report& weights) {
  const auto& registry = table1();
  if (weights.registry_size != registry.size()) {
    throw ValidationError(
        "weighted_shard_positions: the weights report covers a registry of " +
        std::to_string(weights.registry_size) + " entries but this build has " +
        std::to_string(registry.size()) + "; regenerate it with `punt bench run`");
  }

  // Per-position TotTim from the report, matched by benchmark name.  Every
  // registry entry must be covered and every row must be known — the same
  // exactly-once contract `punt bench merge` enforces.
  std::vector<double> weight(registry.size(), -1.0);
  std::vector<std::uint8_t> failed(registry.size(), 0);
  for (const Table1Row& row : weights.rows) {
    std::size_t position = registry.size();
    for (std::size_t p = 0; p < registry.size(); ++p) {
      if (registry[p].name == row.name) {
        position = p;
        break;
      }
    }
    if (position == registry.size()) {
      throw ValidationError("weighted_shard_positions: the weights report names "
                            "unknown benchmark '" + row.name + "'");
    }
    if (weight[position] >= 0) {
      throw ValidationError("weighted_shard_positions: the weights report lists '" +
                            row.name + "' twice; merge the shards into one report first");
    }
    weight[position] = row.ok ? row.total_seconds : 0.0;
    failed[position] = row.ok ? 0 : 1;
  }
  std::string missing;
  for (std::size_t p = 0; p < registry.size(); ++p) {
    if (weight[p] < 0) {
      if (!missing.empty()) missing += ", ";
      missing += registry[p].name;
    }
  }
  if (!missing.empty()) {
    throw ValidationError(
        "weighted_shard_positions: the weights report has no row for: " + missing +
        "; use a merged report that covers the whole registry");
  }

  // A failed row's TotTim is meaningless; flag it non-positive so the raw
  // overload substitutes the mean-successful-row fallback.
  for (std::size_t p = 0; p < registry.size(); ++p) {
    if (failed[p] != 0) weight[p] = 0.0;
  }
  return weighted_shard_positions(shard, weight);
}

std::vector<std::size_t> weighted_shard_positions(const Shard& shard,
                                                  const std::vector<double>& weights) {
  const std::size_t registry_size = table1().size();
  if (weights.size() != registry_size) {
    throw ValidationError(
        "weighted_shard_positions: got " + std::to_string(weights.size()) +
        " weight(s) for a registry of " + std::to_string(registry_size) + " entries");
  }
  std::vector<double> weight = weights;

  // An unmeasured (or failed-row) entry weighs zero at this point, but
  // keeping it zero would pile every such entry onto whichever shard happens
  // to be least loaded — as "free riders" that each cost real wall-clock to
  // (re)attempt.  Assume it costs about as much as a typical measured one:
  // the mean positive weight.  The fallback must be strictly positive — with
  // weight 0 the greedy loop below never changes any shard's load, so every
  // zero-weight entry would chase the same tied-lightest shard; a positive
  // equal weight makes LPT deal them out round-robin instead (the nothing-
  // measured degenerate case becomes an even split, not shard 0 taking all).
  double measured_total = 0;
  std::size_t measured_count = 0;
  for (std::size_t p = 0; p < registry_size; ++p) {
    if (weight[p] > 0) {
      measured_total += weight[p];
      ++measured_count;
    }
  }
  double fallback =
      measured_count == 0 ? 0.0 : measured_total / static_cast<double>(measured_count);
  if (fallback <= 0.0) fallback = 1.0;
  for (std::size_t p = 0; p < registry_size; ++p) {
    if (!(weight[p] > 0)) weight[p] = fallback;
  }

  // Greedy longest-processing-time: heaviest entry first (ties on position,
  // so the order is total), onto the least-loaded shard (ties on index).
  // Both tie-breaks make the assignment a pure function of the weights, so
  // the n shard invocations partition the registry exactly once.
  std::vector<std::size_t> order(registry_size);
  for (std::size_t p = 0; p < registry_size; ++p) order[p] = p;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (weight[a] != weight[b]) return weight[a] > weight[b];
    return a < b;
  });
  std::vector<double> load(shard.count, 0.0);
  std::vector<std::size_t> positions;
  for (const std::size_t p : order) {
    std::size_t lightest = 0;
    for (std::size_t s = 1; s < shard.count; ++s) {
      if (load[s] < load[lightest]) lightest = s;
    }
    load[lightest] += weight[p];
    if (lightest == shard.index) positions.push_back(p);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

// --- Report construction ------------------------------------------------------

std::size_t Table1Report::failures() const {
  std::size_t n = 0;
  for (const Table1Row& row : rows) {
    if (!row.ok) ++n;
  }
  return n;
}

std::size_t Table1Report::literal_count() const {
  std::size_t n = 0;
  for (const Table1Row& row : rows) {
    if (row.ok) n += row.literals;
  }
  return n;
}

Table1Report make_report(const Shard& shard, const core::BatchResult& batch) {
  return make_report(shard, shard_positions(shard, table1().size()), batch);
}

Table1Report make_report(const Shard& shard, const std::vector<std::size_t>& positions,
                         const core::BatchResult& batch) {
  const auto& registry = table1();
  if (batch.entries.size() != positions.size()) {
    throw ValidationError("make_report: batch has " + std::to_string(batch.entries.size()) +
                          " entries but shard " + std::to_string(shard.index) + "/" +
                          std::to_string(shard.count) + " selects " +
                          std::to_string(positions.size()) + " registry entries");
  }
  for (const std::size_t p : positions) {
    if (p >= registry.size()) {
      throw ValidationError("make_report: position " + std::to_string(p) +
                            " is outside the registry of " +
                            std::to_string(registry.size()) + " entries");
    }
  }

  Table1Report report;
  report.shard = shard;
  report.registry_size = registry.size();
  report.jobs = batch.jobs;
  report.wall_seconds = batch.wall_seconds;
  report.rows.reserve(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const Benchmark& bench = registry[positions[k]];
    const core::BatchEntry& entry = batch.entries[k];
    Table1Row row;
    row.name = bench.name;
    row.signals = bench.signals;
    row.paper_total_seconds = bench.paper_total_time;
    row.paper_literals = bench.paper_literals;
    row.ok = entry.ok;
    if (entry.ok) {
      row.unfold_seconds = entry.result.unfold_seconds;
      row.derive_seconds = entry.result.derive_seconds;
      row.minimize_seconds = entry.result.minimize_seconds;
      row.total_seconds = entry.result.total_seconds;
      row.literals = entry.result.literal_count();
      row.exact_fallbacks = entry.result.exact_fallbacks;
    } else {
      row.error = entry.error;
    }
    report.rows.push_back(std::move(row));
  }
  return report;
}

// --- Formatting ---------------------------------------------------------------

std::string format_table1(const Table1Report& report) {
  const char* rule =
      "-----------------------------------------------------------------"
      "-----------------------------------------";
  std::string out;
  out += printf_string("%-24s %4s | %8s %8s %8s %8s %6s | %8s %6s | %s\n", "benchmark",
                       "sigs", "UnfTim", "SynTim", "EspTim", "TotTim", "LitCnt",
                       "paperTot", "papLit", "status");
  out += printf_string("%.*s\n", 106, rule);

  std::size_t total_signals = 0, total_literals = 0, total_paper_literals = 0;
  double total_seconds = 0, total_paper_seconds = 0;
  for (const Table1Row& row : report.rows) {
    total_signals += row.signals;
    total_paper_seconds += row.paper_total_seconds;
    total_paper_literals += row.paper_literals;
    if (!row.ok) {
      out += printf_string("%-24s %4zu | %s\n", row.name.c_str(), row.signals,
                           row.error.c_str());
      continue;
    }
    total_seconds += row.total_seconds;
    total_literals += row.literals;
    out += printf_string(
        "%-24s %4zu | %8.3f %8.3f %8.3f %8.3f %6zu | %8.2f %6zu | %s\n", row.name.c_str(),
        row.signals, row.unfold_seconds, row.derive_seconds, row.minimize_seconds,
        row.total_seconds, row.literals, row.paper_total_seconds, row.paper_literals,
        row.exact_fallbacks > 0 ? "ok (exact fallback)" : "ok");
  }
  out += printf_string("%.*s\n", 106, rule);
  out += printf_string("%-24s %4zu | %8s %8s %8s %8.3f %6zu | %8.2f %6zu | failures %zu\n",
                       "Total", total_signals, "", "", "", total_seconds, total_literals,
                       total_paper_seconds, total_paper_literals, report.failures());
  return out;
}

// --- JSON ---------------------------------------------------------------------

std::string to_json(const Table1Report& report) {
  std::string out = "{\n";
  out += "  \"schema\": \"punt-table1-report\",\n";
  out += "  \"version\": 1,\n";
  out += printf_string("  \"shard\": {\"index\": %zu, \"count\": %zu},\n",
                       report.shard.index, report.shard.count);
  out += printf_string("  \"registry_size\": %zu,\n", report.registry_size);
  out += printf_string("  \"jobs\": %zu,\n", report.jobs);
  out += printf_string("  \"wall_seconds\": %.17g,\n", report.wall_seconds);
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < report.rows.size(); ++i) {
    const Table1Row& row = report.rows[i];
    out += printf_string(
        "    {\"name\": \"%s\", \"signals\": %zu, \"ok\": %s, \"error\": \"%s\", "
        "\"unfold_seconds\": %.17g, \"derive_seconds\": %.17g, "
        "\"minimize_seconds\": %.17g, \"total_seconds\": %.17g, \"literals\": %zu, "
        "\"exact_fallbacks\": %zu, \"paper_total_seconds\": %.17g, "
        "\"paper_literals\": %zu}%s\n",
        json_escape(row.name).c_str(), row.signals, row.ok ? "true" : "false",
        json_escape(row.error).c_str(), row.unfold_seconds, row.derive_seconds,
        row.minimize_seconds, row.total_seconds, row.literals, row.exact_fallbacks,
        row.paper_total_seconds, row.paper_literals,
        i + 1 < report.rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

Table1Report report_from_json(std::string_view text) {
  const JsonValue root = util::parse_json(text);
  if (root.type != JsonValue::Type::Object) {
    throw ParseError("report JSON must be an object");
  }
  if (string_field(root, "schema") != "punt-table1-report") {
    throw ParseError("report JSON has schema '" + string_field(root, "schema") +
                     "'; expected 'punt-table1-report'");
  }
  if (count_field(root, "version") != 1) {
    throw ParseError("unsupported punt-table1-report version " +
                     std::to_string(count_field(root, "version")) +
                     "; this build reads version 1");
  }

  Table1Report report;
  const JsonValue& shard = require(root, "shard", JsonValue::Type::Object);
  report.shard.index = count_field(shard, "index");
  report.shard.count = count_field(shard, "count");
  if (report.shard.count == 0 || report.shard.index >= report.shard.count) {
    throw ParseError("report JSON has an invalid shard " +
                     std::to_string(report.shard.index) + "/" +
                     std::to_string(report.shard.count));
  }
  report.registry_size = count_field(root, "registry_size");
  report.jobs = count_field(root, "jobs");
  report.wall_seconds = number_field(root, "wall_seconds");

  const JsonValue& rows = require(root, "rows", JsonValue::Type::Array);
  report.rows.reserve(rows.array.size());
  for (const JsonValue& entry : rows.array) {
    if (entry.type != JsonValue::Type::Object) {
      throw ParseError("report JSON rows must be objects");
    }
    Table1Row row;
    row.name = string_field(entry, "name");
    row.signals = count_field(entry, "signals");
    row.ok = bool_field(entry, "ok");
    row.error = string_field(entry, "error");
    row.unfold_seconds = number_field(entry, "unfold_seconds");
    row.derive_seconds = number_field(entry, "derive_seconds");
    row.minimize_seconds = number_field(entry, "minimize_seconds");
    row.total_seconds = number_field(entry, "total_seconds");
    row.literals = count_field(entry, "literals");
    row.exact_fallbacks = count_field(entry, "exact_fallbacks");
    row.paper_total_seconds = number_field(entry, "paper_total_seconds");
    row.paper_literals = count_field(entry, "paper_literals");
    report.rows.push_back(std::move(row));
  }
  return report;
}

// --- Merge --------------------------------------------------------------------

Table1Report merge_reports(const std::vector<Table1Report>& reports) {
  if (reports.empty()) {
    throw ValidationError("merge_reports: no shard reports given");
  }
  const auto& registry = table1();

  Table1Report merged;
  merged.registry_size = registry.size();
  merged.shard = Shard{0, 1};

  // Index the incoming rows by benchmark name, diagnosing overlaps and rows
  // this registry does not know (e.g. a report from a different build).
  std::vector<const Table1Row*> by_position(registry.size(), nullptr);
  std::vector<std::size_t> owner(registry.size(), 0);
  for (std::size_t r = 0; r < reports.size(); ++r) {
    const Table1Report& report = reports[r];
    if (report.registry_size != registry.size()) {
      throw ValidationError(
          "merge_reports: shard report " + std::to_string(r) + " covers a registry of " +
          std::to_string(report.registry_size) + " entries but this build has " +
          std::to_string(registry.size()) + "; regenerate the shard reports");
    }
    merged.jobs = std::max(merged.jobs, report.jobs);
    merged.wall_seconds = std::max(merged.wall_seconds, report.wall_seconds);
    for (const Table1Row& row : report.rows) {
      std::size_t position = registry.size();
      for (std::size_t p = 0; p < registry.size(); ++p) {
        if (registry[p].name == row.name) {
          position = p;
          break;
        }
      }
      if (position == registry.size()) {
        throw ValidationError("merge_reports: shard report " + std::to_string(r) +
                              " names unknown benchmark '" + row.name + "'");
      }
      if (by_position[position] != nullptr) {
        throw ValidationError("merge_reports: benchmark '" + row.name +
                              "' appears in shard reports " + std::to_string(owner[position]) +
                              " and " + std::to_string(r) + "; shards must not overlap");
      }
      by_position[position] = &row;
      owner[position] = r;
    }
  }

  std::string missing;
  for (std::size_t p = 0; p < registry.size(); ++p) {
    if (by_position[p] == nullptr) {
      if (!missing.empty()) missing += ", ";
      missing += registry[p].name;
    }
  }
  if (!missing.empty()) {
    throw ValidationError("merge_reports: no shard report covers: " + missing);
  }

  merged.rows.reserve(registry.size());
  for (std::size_t p = 0; p < registry.size(); ++p) {
    merged.rows.push_back(*by_position[p]);
  }
  return merged;
}

// --- Serve-mode benchmarking --------------------------------------------------

double ServeBenchReport::mean_batch() const {
  return batches == 0 ? 0.0
                      : static_cast<double>(fused_requests) /
                            static_cast<double>(batches);
}

std::string to_json(const ServeBenchReport& report) {
  std::string out = "{\n";
  out += "  \"schema\": \"punt-serve-bench\",\n";
  out += "  \"version\": 1,\n";
  out += "  \"transport\": \"" + util::json_escape(report.transport) + "\",\n";
  out += printf_string("  \"clients\": %zu,\n", report.clients);
  out += printf_string("  \"duration_seconds\": %.17g,\n", report.duration_seconds);
  out += printf_string("  \"wall_seconds\": %.17g,\n", report.wall_seconds);
  out += printf_string("  \"completed\": %zu,\n", report.completed);
  out += printf_string("  \"failed\": %zu,\n", report.failed);
  out += printf_string("  \"shed\": %zu,\n", report.shed);
  out += printf_string("  \"transport_errors\": %zu,\n", report.transport_errors);
  out += printf_string("  \"throughput_rps\": %.17g,\n", report.throughput_rps);
  out += printf_string("  \"mean_ms\": %.17g,\n", report.mean_ms);
  out += printf_string("  \"p50_ms\": %.17g,\n", report.p50_ms);
  out += printf_string("  \"p95_ms\": %.17g,\n", report.p95_ms);
  out += printf_string("  \"p99_ms\": %.17g,\n", report.p99_ms);
  out += printf_string("  \"max_ms\": %.17g,\n", report.max_ms);
  out += printf_string("  \"batch_window_ms\": %.17g,\n", report.batch_window_ms);
  out += printf_string("  \"batches\": %zu,\n", report.batches);
  out += printf_string("  \"fused_requests\": %zu,\n", report.fused_requests);
  out += printf_string("  \"mean_batch\": %.17g,\n", report.mean_batch());
  out += printf_string("  \"max_batch\": %zu,\n", report.max_batch);
  out += printf_string("  \"queue_high_water\": %zu,\n", report.queue_high_water);
  out += printf_string("  \"daemon_shed\": %zu,\n", report.daemon_shed);
  out += "  \"batch_size_histogram\": [";
  for (std::size_t i = 0; i < report.batch_size_histogram.size(); ++i) {
    if (i != 0) out += ", ";
    out += printf_string("%zu", report.batch_size_histogram[i]);
  }
  out += "]\n}\n";
  return out;
}

ServeBenchReport serve_report_from_json(std::string_view text) {
  constexpr const char* kServeDocument = "serve-bench JSON";
  const JsonValue root = util::parse_json(text);
  if (root.type != JsonValue::Type::Object) {
    throw ParseError("serve-bench JSON must be an object");
  }
  if (util::json_string(root, "schema", kServeDocument) != "punt-serve-bench") {
    throw ParseError("serve-bench JSON has schema '" +
                     util::json_string(root, "schema", kServeDocument) +
                     "'; expected 'punt-serve-bench'");
  }
  if (util::json_count(root, "version", kServeDocument) != 1) {
    throw ParseError("unsupported punt-serve-bench version " +
                     std::to_string(util::json_count(root, "version", kServeDocument)) +
                     "; this build reads version 1");
  }
  ServeBenchReport report;
  // "transport" arrived with the TCP listener; absent means a pre-transport
  // (necessarily Unix-socket) artifact, so the version stays 1.
  const JsonValue* transport = root.find("transport");
  if (transport != nullptr) {
    if (transport->type != JsonValue::Type::String) {
      throw ParseError("serve-bench JSON field 'transport' must be a string");
    }
    report.transport = transport->string;
  }
  report.clients = util::json_count(root, "clients", kServeDocument);
  report.duration_seconds = util::json_number(root, "duration_seconds", kServeDocument);
  report.wall_seconds = util::json_number(root, "wall_seconds", kServeDocument);
  report.completed = util::json_count(root, "completed", kServeDocument);
  report.failed = util::json_count(root, "failed", kServeDocument);
  report.shed = util::json_count(root, "shed", kServeDocument);
  report.transport_errors = util::json_count(root, "transport_errors", kServeDocument);
  report.throughput_rps = util::json_number(root, "throughput_rps", kServeDocument);
  report.mean_ms = util::json_number(root, "mean_ms", kServeDocument);
  report.p50_ms = util::json_number(root, "p50_ms", kServeDocument);
  report.p95_ms = util::json_number(root, "p95_ms", kServeDocument);
  report.p99_ms = util::json_number(root, "p99_ms", kServeDocument);
  report.max_ms = util::json_number(root, "max_ms", kServeDocument);
  report.batch_window_ms = util::json_number(root, "batch_window_ms", kServeDocument);
  report.batches = util::json_count(root, "batches", kServeDocument);
  report.fused_requests = util::json_count(root, "fused_requests", kServeDocument);
  report.max_batch = util::json_count(root, "max_batch", kServeDocument);
  report.queue_high_water = util::json_count(root, "queue_high_water", kServeDocument);
  report.daemon_shed = util::json_count(root, "daemon_shed", kServeDocument);
  const JsonValue& histogram =
      util::json_require(root, "batch_size_histogram", JsonValue::Type::Array,
                         kServeDocument);
  report.batch_size_histogram.reserve(histogram.array.size());
  for (const JsonValue& bucket : histogram.array) {
    if (bucket.type != JsonValue::Type::Number || bucket.number < 0) {
      throw ParseError("serve-bench JSON batch_size_histogram entries must be counts");
    }
    report.batch_size_histogram.push_back(static_cast<std::size_t>(bucket.number));
  }
  return report;
}

std::string format_serve_summary(const ServeBenchReport& report) {
  std::string out;
  out += printf_string("# punt bench serve: %zu client(s), %.1fs window, %s transport\n",
                       report.clients, report.duration_seconds,
                       report.transport.c_str());
  out += printf_string(
      "throughput %.1f req/s (%zu completed, %zu failed, %zu transport error(s))\n",
      report.throughput_rps, report.completed, report.failed,
      report.transport_errors);
  out += printf_string(
      "latency mean %.2fms p50 %.2fms p95 %.2fms p99 %.2fms max %.2fms\n",
      report.mean_ms, report.p50_ms, report.p95_ms, report.p99_ms, report.max_ms);
  // `shed=N` is deliberately greppable: the CI smoke job asserts shed=0.
  out += printf_string(
      "fusion: window %.1fms, %zu batch(es), mean %.2f max %zu, "
      "queue high-water %zu, shed=%zu\n",
      report.batch_window_ms, report.batches, report.mean_batch(),
      report.max_batch, report.queue_high_water,
      report.shed + report.daemon_shed);
  out += "batch-size histogram:";
  bool any_bucket = false;
  for (std::size_t i = 0; i < report.batch_size_histogram.size(); ++i) {
    if (report.batch_size_histogram[i] == 0) continue;
    any_bucket = true;
    out += printf_string(" %zu:%zu", i + 1, report.batch_size_histogram[i]);
  }
  if (!any_bucket) out += " (empty)";
  out += "\n";
  return out;
}

}  // namespace punt::benchmarks
