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

// --- Serve-mode benchmarking --------------------------------------------------

std::string to_json(const ServeBenchReport& report) {
  std::string out = "{\n";
  out += "  \"schema\": \"punt-serve-bench\",\n";
  out += "  \"version\": 2,\n";
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
  out += printf_string("  \"queue_high_water\": %zu,\n", report.queue_high_water);
  out += printf_string("  \"daemon_shed\": %zu\n", report.daemon_shed);
  out += "}\n";
  return out;
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
  // `shed=N` is deliberately greppable (the CI smoke job asserts shed=0) and
  // counts each refusal once, as the clients saw it; the daemon's own count
  // of the same refusals has a label that does not end in "shed=".
  out += printf_string(
      "admission: shed=%zu (daemon counted %zu), at most %zu synth request(s) "
      "running at once\n",
      report.shed, report.daemon_shed, report.queue_high_water);
  return out;
}

}  // namespace punt::benchmarks
