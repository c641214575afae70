// Tests for the shared Table-1 report helper: report construction from a
// real registry batch, the JSON writers and the human table.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/benchmarks/report.hpp"
#include "src/core/pipeline.hpp"
#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace punt::benchmarks {
namespace {

using util::JsonValue;

constexpr const char* kDocument = "report JSON";

/// A deterministic synthetic report over the full registry (timings and
/// literals derived from the position).
Table1Report synthetic_full_report() {
  const auto& registry = table1();
  Table1Report report;
  report.jobs = 3;
  report.wall_seconds = 1.5;
  for (std::size_t p = 0; p < registry.size(); ++p) {
    Table1Row row;
    row.name = registry[p].name;
    row.signals = registry[p].signals;
    row.ok = true;
    row.unfold_seconds = 0.001 * static_cast<double>(p);
    row.derive_seconds = 0.01 * static_cast<double>(p);
    row.minimize_seconds = 0.1 * static_cast<double>(p);
    row.total_seconds = 0.111 * static_cast<double>(p);
    row.literals = 10 + p;
    row.exact_fallbacks = p % 2;
    row.paper_total_seconds = registry[p].paper_total_time;
    row.paper_literals = registry[p].paper_literals;
    report.rows.push_back(row);
  }
  return report;
}

TEST(Report, MakeReportCarriesBatchAndPaperColumns) {
  const auto& registry = table1();
  std::vector<punt::stg::Stg> stgs;
  for (const auto& bench : registry) stgs.push_back(bench.make());

  core::BatchOptions options;
  options.synthesis.throw_on_csc = false;
  const core::BatchResult batch = core::synthesize_batch(stgs, options);
  const Table1Report report = make_report(batch);

  ASSERT_EQ(report.rows.size(), registry.size());
  EXPECT_EQ(report.jobs, batch.jobs);
  for (std::size_t k = 0; k < registry.size(); ++k) {
    const Benchmark& bench = registry[k];
    EXPECT_EQ(report.rows[k].name, bench.name);
    EXPECT_EQ(report.rows[k].signals, bench.signals);
    EXPECT_EQ(report.rows[k].paper_literals, bench.paper_literals);
    EXPECT_DOUBLE_EQ(report.rows[k].paper_total_seconds, bench.paper_total_time);
    ASSERT_TRUE(report.rows[k].ok) << report.rows[k].error;
    EXPECT_EQ(report.rows[k].literals, batch.entries[k].result.literal_count());
  }
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(report.literal_count(), batch.literal_count());

  // A batch of the wrong size cannot be attributed to the registry.
  core::BatchResult wrong = batch;
  wrong.entries.pop_back();
  EXPECT_THROW((void)make_report(wrong), ValidationError);
}

TEST(Report, JsonRoundTripPreservesEveryField) {
  Table1Report report = synthetic_full_report();
  // Exercise escaping: quotes, backslashes, newlines and a control byte in
  // the error text of a failed row.
  report.rows[2].ok = false;
  report.rows[2].error = "signal 'x' said \"no\"\n\tpath: a\\b\x01";
  report.rows[2].literals = 0;
  // A long diagnostic (capacity errors enumerate budgets and transitions)
  // must survive serialisation intact, not be truncated into invalid JSON.
  report.rows[3].ok = false;
  report.rows[3].error = "the segment blew the event budget: " +
                         std::string(2000, 'e') + " (end of diagnostic)";

  const JsonValue root = util::parse_json(to_json(report));
  EXPECT_EQ(util::json_string(root, "schema", kDocument), "punt-table1-report");
  EXPECT_EQ(util::json_count(root, "version", kDocument), 2u);
  EXPECT_EQ(root.find("shard"), nullptr);
  EXPECT_EQ(root.find("registry_size"), nullptr);
  EXPECT_EQ(util::json_count(root, "jobs", kDocument), report.jobs);
  EXPECT_DOUBLE_EQ(util::json_number(root, "wall_seconds", kDocument), report.wall_seconds);
  const JsonValue& rows = util::json_require(root, "rows", JsonValue::Type::Array, kDocument);
  ASSERT_EQ(rows.array.size(), report.rows.size());
  for (std::size_t p = 0; p < report.rows.size(); ++p) {
    const Table1Row& a = report.rows[p];
    const JsonValue& b = rows.array[p];
    EXPECT_EQ(a.name, util::json_string(b, "name", kDocument));
    EXPECT_EQ(a.signals, util::json_count(b, "signals", kDocument));
    EXPECT_EQ(a.ok, util::json_bool(b, "ok", kDocument));
    EXPECT_EQ(a.error, util::json_string(b, "error", kDocument));
    EXPECT_DOUBLE_EQ(a.unfold_seconds, util::json_number(b, "unfold_seconds", kDocument));
    EXPECT_DOUBLE_EQ(a.derive_seconds, util::json_number(b, "derive_seconds", kDocument));
    EXPECT_DOUBLE_EQ(a.minimize_seconds,
                     util::json_number(b, "minimize_seconds", kDocument));
    EXPECT_DOUBLE_EQ(a.total_seconds, util::json_number(b, "total_seconds", kDocument));
    EXPECT_EQ(a.literals, util::json_count(b, "literals", kDocument));
    EXPECT_EQ(a.exact_fallbacks, util::json_count(b, "exact_fallbacks", kDocument));
    EXPECT_DOUBLE_EQ(a.paper_total_seconds,
                     util::json_number(b, "paper_total_seconds", kDocument));
    EXPECT_EQ(a.paper_literals, util::json_count(b, "paper_literals", kDocument));
  }
}

TEST(Report, FormatShowsPaperColumnsAndErrors) {
  Table1Report report = synthetic_full_report();
  report.rows[0].ok = false;
  report.rows[0].error = "CapacityError: segment blew the event budget";
  const std::string table = format_table1(report);
  EXPECT_NE(table.find("paperTot"), std::string::npos);
  EXPECT_NE(table.find("papLit"), std::string::npos);
  EXPECT_NE(table.find("CapacityError"), std::string::npos);
  EXPECT_NE(table.find("failures 1"), std::string::npos);
  EXPECT_NE(table.find("| ok (exact fallback)\n"), std::string::npos);
  // Every registry entry has a row, failed or not.
  for (const auto& bench : table1()) {
    EXPECT_NE(table.find(bench.name), std::string::npos) << bench.name;
  }
}

TEST(Report, ServeBenchJsonRoundTripPreservesEveryField) {
  ServeBenchReport report;
  report.transport = "tcp";
  report.clients = 8;
  report.duration_seconds = 5;
  report.wall_seconds = 5.25;
  report.completed = 123;
  report.failed = 2;
  report.shed = 3;
  report.transport_errors = 1;
  report.throughput_rps = 23.4;
  report.mean_ms = 41.5;
  report.p50_ms = 30.25;
  report.p95_ms = 120.5;
  report.p99_ms = 250.75;
  report.max_ms = 612.0;
  report.queue_high_water = 9;
  report.daemon_shed = 3;

  constexpr const char* kServe = "serve-bench JSON";
  const JsonValue root = util::parse_json(to_json(report));
  EXPECT_EQ(util::json_string(root, "schema", kServe), "punt-serve-bench");
  EXPECT_EQ(util::json_count(root, "version", kServe), 2u);
  EXPECT_EQ(util::json_string(root, "transport", kServe), "tcp");
  EXPECT_EQ(util::json_count(root, "clients", kServe), report.clients);
  EXPECT_DOUBLE_EQ(util::json_number(root, "duration_seconds", kServe),
                   report.duration_seconds);
  EXPECT_DOUBLE_EQ(util::json_number(root, "wall_seconds", kServe), report.wall_seconds);
  EXPECT_EQ(util::json_count(root, "completed", kServe), report.completed);
  EXPECT_EQ(util::json_count(root, "failed", kServe), report.failed);
  EXPECT_EQ(util::json_count(root, "shed", kServe), report.shed);
  EXPECT_EQ(util::json_count(root, "transport_errors", kServe), report.transport_errors);
  EXPECT_DOUBLE_EQ(util::json_number(root, "throughput_rps", kServe), report.throughput_rps);
  EXPECT_DOUBLE_EQ(util::json_number(root, "mean_ms", kServe), report.mean_ms);
  EXPECT_DOUBLE_EQ(util::json_number(root, "p50_ms", kServe), report.p50_ms);
  EXPECT_DOUBLE_EQ(util::json_number(root, "p95_ms", kServe), report.p95_ms);
  EXPECT_DOUBLE_EQ(util::json_number(root, "p99_ms", kServe), report.p99_ms);
  EXPECT_DOUBLE_EQ(util::json_number(root, "max_ms", kServe), report.max_ms);
  EXPECT_EQ(util::json_count(root, "queue_high_water", kServe), report.queue_high_water);
  EXPECT_EQ(util::json_count(root, "daemon_shed", kServe), report.daemon_shed);
  // v2 carries exactly these fields: v1's request-fusion fields are gone.
  std::vector<std::string> keys;
  keys.reserve(root.object.size());
  for (const auto& field : root.object) keys.push_back(field.first);
  const std::vector<std::string> expected = {
      "schema", "version", "transport", "clients", "duration_seconds", "wall_seconds",
      "completed", "failed", "shed", "transport_errors", "throughput_rps", "mean_ms",
      "p50_ms", "p95_ms", "p99_ms", "max_ms", "queue_high_water", "daemon_shed"};
  EXPECT_EQ(keys, expected);

  const std::string summary = format_serve_summary(report);
  EXPECT_NE(summary.find("tcp transport"), std::string::npos) << summary;
}

TEST(Report, ServeSummaryCountsEachShedRequestOnce) {
  // The daemon's count is the same refusals the clients saw, so the
  // CI-greppable `shed=N` is the client count alone, and the daemon's
  // count carries a label of its own that no `shed=` grep can match.
  ServeBenchReport report;
  report.shed = 3;
  report.daemon_shed = 3;
  const std::string summary = format_serve_summary(report);
  EXPECT_NE(summary.find("shed=3"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("shed=6"), std::string::npos) << summary;
  EXPECT_EQ(summary.find("shed="), summary.rfind("shed=")) << summary;
  EXPECT_NE(summary.find("daemon counted 3"), std::string::npos) << summary;
}

}  // namespace
}  // namespace punt::benchmarks
