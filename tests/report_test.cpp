// Tests for the shared Table-1 report helper: shard parsing/partitioning,
// report construction from a real batch, JSON round-trips, and the merge
// step's exact-coverage validation (overlap / missing / unknown rows).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/benchmarks/report.hpp"
#include "src/core/pipeline.hpp"
#include "src/util/error.hpp"

namespace punt::benchmarks {
namespace {

/// A deterministic synthetic report over the full registry (timings and
/// literals derived from the position, so merged output is comparable).
Table1Report synthetic_full_report() {
  const auto& registry = table1();
  Table1Report report;
  report.shard = Shard{0, 1};
  report.registry_size = registry.size();
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

/// Splits a full report into `count` shard reports exactly the way
/// `punt bench run --shard=i/count` would produce them.
std::vector<Table1Report> split(const Table1Report& full, std::size_t count) {
  std::vector<Table1Report> shards(count);
  for (std::size_t i = 0; i < count; ++i) {
    shards[i].shard = Shard{i, count};
    shards[i].registry_size = full.registry_size;
    shards[i].jobs = full.jobs;
    shards[i].wall_seconds = full.wall_seconds / static_cast<double>(count);
    for (std::size_t p = 0; p < full.rows.size(); ++p) {
      if (shard_contains(shards[i].shard, p)) shards[i].rows.push_back(full.rows[p]);
    }
  }
  return shards;
}

TEST(Report, ParseShardAcceptsValidSpecs) {
  const Shard first = parse_shard("0/4");
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.count, 4u);
  const Shard last = parse_shard("3/4");
  EXPECT_EQ(last.index, 3u);
  EXPECT_EQ(last.count, 4u);
  const Shard whole = parse_shard("0/1");
  EXPECT_EQ(whole.count, 1u);
}

TEST(Report, ParseShardRejectsMalformedSpecs) {
  // Same diagnostic style as --jobs: a punt::Error naming the value and the
  // expected shape.
  for (const char* bad : {"", "3", "abc", "a/4", "1/b", "1/", "/4", "-1/4", "1/-4",
                          "1.5/4", "0/0", "4/4", "5/4"}) {
    try {
      (void)parse_shard(bad);
      FAIL() << "expected punt::Error for --shard=" << bad;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("--shard"), std::string::npos)
          << "diagnostic for '" << bad << "' should name the flag: " << e.what();
    }
  }
}

TEST(Report, ShardPositionsPartitionTheRegistryExactly) {
  const std::size_t registry_size = table1().size();
  for (const std::size_t count : {1u, 2u, 3u, 4u, 7u, 21u, 40u}) {
    std::set<std::size_t> seen;
    for (std::size_t index = 0; index < count; ++index) {
      const Shard shard{index, count};
      for (const std::size_t p : shard_positions(shard, registry_size)) {
        EXPECT_TRUE(shard_contains(shard, p));
        EXPECT_TRUE(seen.insert(p).second)
            << "position " << p << " appears in two shards of " << count;
      }
    }
    EXPECT_EQ(seen.size(), registry_size) << "shards of " << count << " miss entries";
  }
}

TEST(Report, MakeReportCarriesBatchAndPaperColumns) {
  // Shard 0/7 selects registry positions 0, 7, 14 — three real syntheses.
  const auto& registry = table1();
  const Shard shard{0, 7};
  const std::vector<std::size_t> positions = shard_positions(shard, registry.size());
  std::vector<punt::stg::Stg> stgs;
  for (const std::size_t p : positions) stgs.push_back(registry[p].make());

  core::BatchOptions options;
  options.synthesis.throw_on_csc = false;
  const core::BatchResult batch = core::synthesize_batch(stgs, options);
  const Table1Report report = make_report(shard, batch);

  ASSERT_EQ(report.rows.size(), positions.size());
  EXPECT_EQ(report.registry_size, registry.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const Benchmark& bench = registry[positions[k]];
    EXPECT_EQ(report.rows[k].name, bench.name);
    EXPECT_EQ(report.rows[k].signals, bench.signals);
    EXPECT_EQ(report.rows[k].paper_literals, bench.paper_literals);
    EXPECT_DOUBLE_EQ(report.rows[k].paper_total_seconds, bench.paper_total_time);
    ASSERT_TRUE(report.rows[k].ok) << report.rows[k].error;
    EXPECT_EQ(report.rows[k].literals, batch.entries[k].result.literal_count());
  }
  EXPECT_EQ(report.failures(), 0u);

  // A batch of the wrong size cannot be attributed to the shard.
  core::BatchResult wrong = batch;
  wrong.entries.pop_back();
  EXPECT_THROW((void)make_report(shard, wrong), ValidationError);
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

  const Table1Report parsed = report_from_json(to_json(report));
  EXPECT_EQ(parsed.shard.index, report.shard.index);
  EXPECT_EQ(parsed.shard.count, report.shard.count);
  EXPECT_EQ(parsed.registry_size, report.registry_size);
  EXPECT_EQ(parsed.jobs, report.jobs);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, report.wall_seconds);
  ASSERT_EQ(parsed.rows.size(), report.rows.size());
  for (std::size_t p = 0; p < report.rows.size(); ++p) {
    const Table1Row& a = report.rows[p];
    const Table1Row& b = parsed.rows[p];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.signals, b.signals);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_DOUBLE_EQ(a.unfold_seconds, b.unfold_seconds);
    EXPECT_DOUBLE_EQ(a.derive_seconds, b.derive_seconds);
    EXPECT_DOUBLE_EQ(a.minimize_seconds, b.minimize_seconds);
    EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
    EXPECT_EQ(a.literals, b.literals);
    EXPECT_EQ(a.exact_fallbacks, b.exact_fallbacks);
    EXPECT_DOUBLE_EQ(a.paper_total_seconds, b.paper_total_seconds);
    EXPECT_EQ(a.paper_literals, b.paper_literals);
  }
  // The formatted tables agree byte for byte.
  EXPECT_EQ(format_table1(report), format_table1(parsed));
}

TEST(Report, RowsCarryingDcCappedStillParse) {
  // Reports written while espresso still capped its don't-care complement
  // carry a per-row "dc_capped" count; the reader ignores it, so they still
  // parse and merge.
  const Table1Report report = synthetic_full_report();
  std::string json = to_json(report);
  const std::string old_field = "\"dc_capped\": 1, ";
  for (std::size_t at = json.find("\"paper_total_seconds\""); at != std::string::npos;
       at = json.find("\"paper_total_seconds\"", at + old_field.size() + 1)) {
    json.insert(at, old_field);
  }
  ASSERT_NE(json.find(old_field), std::string::npos);
  const Table1Report parsed = report_from_json(json);
  ASSERT_EQ(parsed.rows.size(), report.rows.size());
  EXPECT_EQ(format_table1(parsed), format_table1(report));
  EXPECT_EQ(merge_reports({parsed}).rows.size(), parsed.rows.size());
}

TEST(Report, FromJsonRejectsForeignPayloads) {
  EXPECT_THROW((void)report_from_json("not json at all"), ParseError);
  EXPECT_THROW((void)report_from_json("{\"schema\": \"something-else\"}"), ParseError);
  EXPECT_THROW((void)report_from_json("[1, 2, 3]"), ParseError);
  EXPECT_THROW((void)report_from_json(
                   "{\"schema\": \"punt-table1-report\", \"version\": 2}"),
               ParseError);
  // Truncated output (an interrupted shard upload) must be diagnosed, not
  // half-parsed.
  const std::string full = to_json(synthetic_full_report());
  EXPECT_THROW((void)report_from_json(
                   std::string_view(full).substr(0, full.size() / 2)),
               ParseError);
}

TEST(Report, MergeReproducesTheUnshardedTableExactly) {
  const Table1Report full = synthetic_full_report();
  for (const std::size_t count : {2u, 4u, 5u}) {
    // Round-trip every shard through JSON, as the CI artifact flow does.
    std::vector<Table1Report> shards;
    for (const Table1Report& shard : split(full, count)) {
      shards.push_back(report_from_json(to_json(shard)));
    }
    const Table1Report merged = merge_reports(shards);
    ASSERT_EQ(merged.rows.size(), full.rows.size());
    for (std::size_t p = 0; p < full.rows.size(); ++p) {
      EXPECT_EQ(merged.rows[p].name, full.rows[p].name) << "row order must be "
                                                        << "registry order";
    }
    EXPECT_EQ(format_table1(merged), format_table1(full))
        << count << "-way merge must reproduce the unsharded table";
    EXPECT_EQ(merged.literal_count(), full.literal_count());
  }
}

TEST(Report, MergeRejectsOverlapMissingAndUnknownRows) {
  const Table1Report full = synthetic_full_report();
  std::vector<Table1Report> shards = split(full, 4);

  // Overlap: the same benchmark delivered by two shard reports.
  {
    std::vector<Table1Report> overlapping = shards;
    overlapping[1].rows.push_back(shards[0].rows[0]);
    try {
      (void)merge_reports(overlapping);
      FAIL() << "expected ValidationError for overlapping shards";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("overlap"), std::string::npos) << e.what();
    }
  }
  // Missing: one shard report lost.
  {
    std::vector<Table1Report> missing(shards.begin(), shards.end() - 1);
    try {
      (void)merge_reports(missing);
      FAIL() << "expected ValidationError for missing entries";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("no shard report covers"), std::string::npos)
          << e.what();
    }
  }
  // Unknown benchmark: a report from some other registry.
  {
    std::vector<Table1Report> unknown = shards;
    unknown[0].rows[0].name = "not-a-registry-entry";
    EXPECT_THROW((void)merge_reports(unknown), ValidationError);
  }
  // Registry size mismatch: stale shard reports must be regenerated.
  {
    std::vector<Table1Report> stale = shards;
    stale[2].registry_size = full.registry_size + 1;
    EXPECT_THROW((void)merge_reports(stale), ValidationError);
  }
  EXPECT_THROW((void)merge_reports({}), ValidationError);
}

TEST(Report, WeightedShardsPartitionTheRegistryExactly) {
  // Whatever the weight profile, the n weighted shard runs must cover the
  // registry exactly once — the contract `punt bench merge` enforces.
  Table1Report weights = synthetic_full_report();
  weights.rows[4].ok = false;  // failed rows weigh the mean, they still partition
  weights.rows[4].error = "CSC conflict";
  const std::size_t registry_size = table1().size();
  for (const std::size_t count : {1u, 2u, 3u, 4u, 7u}) {
    std::set<std::size_t> seen;
    for (std::size_t index = 0; index < count; ++index) {
      const std::vector<std::size_t> positions =
          weighted_shard_positions(Shard{index, count}, weights);
      EXPECT_TRUE(std::is_sorted(positions.begin(), positions.end()));
      for (const std::size_t p : positions) {
        EXPECT_LT(p, registry_size);
        EXPECT_TRUE(seen.insert(p).second)
            << "position " << p << " appears in two weighted shards of " << count;
      }
    }
    EXPECT_EQ(seen.size(), registry_size)
        << "weighted shards of " << count << " miss entries";
  }
}

TEST(Report, WeightedShardsBalanceSkewedCosts) {
  // One entry dominating the suite: LPT puts it alone on a shard while the
  // positional rule would pair it with a quarter of the registry.  With
  // per-entry TotTim of (position 0 → 100s, rest → 1s) and 4 shards, the
  // heaviest shard carries 100s and the others ≈ (n-1)/3 s each.
  Table1Report weights = synthetic_full_report();
  for (std::size_t p = 0; p < weights.rows.size(); ++p) {
    weights.rows[p].total_seconds = p == 0 ? 100.0 : 1.0;
  }
  const std::size_t count = 4;
  double max_load = 0;
  std::vector<std::size_t> heavy_shard_positions;
  for (std::size_t index = 0; index < count; ++index) {
    const std::vector<std::size_t> positions =
        weighted_shard_positions(Shard{index, count}, weights);
    double load = 0;
    for (const std::size_t p : positions) load += weights.rows[p].total_seconds;
    max_load = std::max(max_load, load);
    if (std::find(positions.begin(), positions.end(), 0u) != positions.end()) {
      heavy_shard_positions = positions;
    }
  }
  // The dominant entry sits alone on its shard, and no shard's load exceeds
  // the dominant entry's own weight (the LPT optimum here).
  ASSERT_EQ(heavy_shard_positions, std::vector<std::size_t>{0});
  EXPECT_DOUBLE_EQ(max_load, 100.0);
}

TEST(Report, WeightedShardsSpreadFailedRowsByMeanWeight) {
  // Regression: failed rows used to weigh 0.0, so after the successful rows
  // were placed, every failed entry chased the (then fixed) least-loaded
  // shard and piled onto it as free riders — four failures, one unlucky
  // shard re-attempting all of them.  A failed row now weighs the mean
  // successful-row weight, so LPT spreads failures like ordinary entries.
  Table1Report weights = synthetic_full_report();
  for (Table1Row& row : weights.rows) row.total_seconds = 10.0;
  for (std::size_t p = 1; p <= 4; ++p) {
    weights.rows[p].ok = false;
    weights.rows[p].error = "CSC conflict";
    weights.rows[p].total_seconds = 0.0;  // meaningless, as punt reports it
  }

  const std::size_t count = 4;
  std::size_t max_failed_on_one_shard = 0;
  for (std::size_t index = 0; index < count; ++index) {
    const std::vector<std::size_t> positions =
        weighted_shard_positions(Shard{index, count}, weights);
    std::size_t failed_here = 0;
    for (const std::size_t p : positions) {
      if (p >= 1 && p <= 4) ++failed_here;
    }
    max_failed_on_one_shard = std::max(max_failed_on_one_shard, failed_here);
  }
  // With uniform successful weights the mean equals them, so the four failed
  // entries land one per shard (the zero-weight bug put all four on one).
  EXPECT_EQ(max_failed_on_one_shard, 1u);

  // Degenerate case: every row failed.  The fallback must be a *positive*
  // equal weight — with zero weights the greedy loop would never change a
  // load and every entry would land on shard 0 — so the partition is exact
  // AND evenly sized (LPT deals equal weights round-robin).
  Table1Report all_failed = synthetic_full_report();
  for (Table1Row& row : all_failed.rows) {
    row.ok = false;
    row.error = "capacity";
  }
  std::set<std::size_t> seen;
  const std::size_t even_share = (table1().size() + count - 1) / count;
  for (std::size_t index = 0; index < count; ++index) {
    const std::vector<std::size_t> positions =
        weighted_shard_positions(Shard{index, count}, all_failed);
    EXPECT_LE(positions.size(), even_share) << "shard " << index << " is overloaded";
    EXPECT_GE(positions.size(), table1().size() / count - 1)
        << "shard " << index << " is starved";
    for (const std::size_t p : positions) {
      EXPECT_TRUE(seen.insert(p).second);
    }
  }
  EXPECT_EQ(seen.size(), table1().size());
}

TEST(Report, WeightedShardsAreDeterministicUnderUniformWeights) {
  // All-equal weights exercise both tie-breaks (weight ties → position
  // order; load ties → lowest shard index).  Two invocations must agree,
  // and the assignment must be a pure function of the report.
  Table1Report weights = synthetic_full_report();
  for (Table1Row& row : weights.rows) row.total_seconds = 2.0;
  for (std::size_t index = 0; index < 3; ++index) {
    const auto a = weighted_shard_positions(Shard{index, 3}, weights);
    const auto b = weighted_shard_positions(Shard{index, 3}, weights);
    EXPECT_EQ(a, b);
    EXPECT_FALSE(a.empty());
  }
}

TEST(Report, WeightedShardsRejectIncompleteWeights) {
  // Missing registry entry.
  {
    Table1Report weights = synthetic_full_report();
    weights.rows.erase(weights.rows.begin() + 2);
    try {
      (void)weighted_shard_positions(Shard{0, 4}, weights);
      FAIL() << "expected ValidationError for a missing row";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("no row for"), std::string::npos) << e.what();
    }
  }
  // Unknown benchmark name.
  {
    Table1Report weights = synthetic_full_report();
    weights.rows[1].name = "not-a-registry-entry";
    EXPECT_THROW((void)weighted_shard_positions(Shard{0, 4}, weights), ValidationError);
  }
  // Stale registry size.
  {
    Table1Report weights = synthetic_full_report();
    weights.registry_size += 1;
    EXPECT_THROW((void)weighted_shard_positions(Shard{0, 4}, weights), ValidationError);
  }
  // Duplicate rows (e.g. a hand-concatenated report): ambiguous weights
  // must be rejected, not resolved by whichever row comes last.
  {
    Table1Report weights = synthetic_full_report();
    weights.rows.push_back(weights.rows[3]);
    try {
      (void)weighted_shard_positions(Shard{0, 4}, weights);
      FAIL() << "expected ValidationError for a duplicate row";
    } catch (const ValidationError& e) {
      EXPECT_NE(std::string(e.what()).find("twice"), std::string::npos) << e.what();
    }
  }
}

TEST(Report, MakeReportAcceptsExplicitWeightedPositions) {
  // Run a real (tiny) weighted shard end to end: build the batch for the
  // positions LPT assigns to shard 1/7 and attribute rows through the
  // explicit-positions overload.
  Table1Report weights = synthetic_full_report();
  const Shard shard{1, 7};
  const std::vector<std::size_t> positions = weighted_shard_positions(shard, weights);
  ASSERT_FALSE(positions.empty());
  const auto& registry = table1();
  std::vector<punt::stg::Stg> stgs;
  for (const std::size_t p : positions) stgs.push_back(registry[p].make());
  core::BatchOptions options;
  options.synthesis.throw_on_csc = false;
  const core::BatchResult batch = core::synthesize_batch(stgs, options);
  const Table1Report report = make_report(shard, positions, batch);
  ASSERT_EQ(report.rows.size(), positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    EXPECT_EQ(report.rows[k].name, registry[positions[k]].name);
  }
  // Out-of-range positions are rejected.
  EXPECT_THROW((void)make_report(shard, {registry.size()}, batch), ValidationError);
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
  report.batch_window_ms = 2;
  report.batches = 17;
  report.fused_requests = 119;
  report.max_batch = 8;
  report.queue_high_water = 9;
  report.daemon_shed = 3;
  report.batch_size_histogram = {1, 0, 4, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0};

  const ServeBenchReport parsed = serve_report_from_json(to_json(report));
  EXPECT_EQ(parsed.transport, "tcp");
  EXPECT_EQ(parsed.clients, report.clients);
  EXPECT_DOUBLE_EQ(parsed.duration_seconds, report.duration_seconds);
  EXPECT_DOUBLE_EQ(parsed.wall_seconds, report.wall_seconds);
  EXPECT_EQ(parsed.completed, report.completed);
  EXPECT_EQ(parsed.failed, report.failed);
  EXPECT_EQ(parsed.shed, report.shed);
  EXPECT_EQ(parsed.transport_errors, report.transport_errors);
  EXPECT_DOUBLE_EQ(parsed.throughput_rps, report.throughput_rps);
  EXPECT_DOUBLE_EQ(parsed.mean_ms, report.mean_ms);
  EXPECT_DOUBLE_EQ(parsed.p50_ms, report.p50_ms);
  EXPECT_DOUBLE_EQ(parsed.p95_ms, report.p95_ms);
  EXPECT_DOUBLE_EQ(parsed.p99_ms, report.p99_ms);
  EXPECT_DOUBLE_EQ(parsed.max_ms, report.max_ms);
  EXPECT_DOUBLE_EQ(parsed.batch_window_ms, report.batch_window_ms);
  EXPECT_EQ(parsed.batches, report.batches);
  EXPECT_EQ(parsed.fused_requests, report.fused_requests);
  EXPECT_EQ(parsed.max_batch, report.max_batch);
  EXPECT_EQ(parsed.queue_high_water, report.queue_high_water);
  EXPECT_EQ(parsed.daemon_shed, report.daemon_shed);
  EXPECT_EQ(parsed.batch_size_histogram, report.batch_size_histogram);
  EXPECT_DOUBLE_EQ(parsed.mean_batch(), report.mean_batch());

  // The human summary exposes the CI-greppable shed counter (client-side
  // plus daemon-side) and the nonzero histogram buckets.
  const std::string summary = format_serve_summary(report);
  EXPECT_NE(summary.find("shed=6"), std::string::npos) << summary;
  EXPECT_NE(summary.find("8:12"), std::string::npos) << summary;
  EXPECT_NE(summary.find("tcp transport"), std::string::npos) << summary;
}

TEST(Report, ServeBenchWithoutATransportFieldParsesAsUnix) {
  // Artifacts produced before the TCP transport carry no "transport" key;
  // they must keep parsing (version 1 is additive) and default to "unix".
  ServeBenchReport report;
  report.clients = 2;
  report.duration_seconds = 1;
  report.wall_seconds = 1;
  report.completed = 10;
  report.throughput_rps = 10;
  std::string json = to_json(report);
  const std::string field = "\"transport\": \"unix\",\n";
  const std::size_t at = json.find(field);
  ASSERT_NE(at, std::string::npos) << json;
  json.erase(at, field.size());
  const ServeBenchReport parsed = serve_report_from_json(json);
  EXPECT_EQ(parsed.transport, "unix");
  EXPECT_EQ(parsed.completed, 10u);
}

TEST(Report, ServeBenchFromJsonRejectsForeignPayloads) {
  EXPECT_THROW((void)serve_report_from_json("not json"), ParseError);
  EXPECT_THROW((void)serve_report_from_json(R"({"schema": "other", "version": 1})"),
               ParseError);
  EXPECT_THROW(
      (void)serve_report_from_json(R"({"schema": "punt-serve-bench", "version": 2})"),
      ParseError);
  // A Table-1 report is a valid punt JSON document but the wrong schema.
  Table1Report table;
  table.registry_size = table1().size();
  EXPECT_THROW((void)serve_report_from_json(to_json(table)), ParseError);
}

}  // namespace
}  // namespace punt::benchmarks
