#include "src/benchmarks/report.hpp"

#include <utility>

#include "src/benchmarks/registry.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"

namespace punt::benchmarks {

using util::json_escape;

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

Table1Report make_report(const core::BatchResult& batch) {
  const auto& registry = table1();
  if (batch.entries.size() != registry.size()) {
    throw ValidationError("make_report: batch has " + std::to_string(batch.entries.size()) +
                          " entries but the registry has " +
                          std::to_string(registry.size()));
  }

  Table1Report report;
  report.jobs = batch.jobs;
  report.wall_seconds = batch.wall_seconds;
  report.rows.reserve(registry.size());
  for (std::size_t k = 0; k < registry.size(); ++k) {
    const Benchmark& bench = registry[k];
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
  out += "  \"version\": 2,\n";
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

}  // namespace punt::benchmarks
