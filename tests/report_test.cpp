// Tests for the shared Table-1 report helper: report construction from a
// real registry batch, the JSON writer and the human table.
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

}  // namespace
}  // namespace punt::benchmarks
