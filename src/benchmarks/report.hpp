// Table-1 reporting: the formatting and serialisation behind `punt bench
// run`, the one place that knows the paper-column comparison (paperTot /
// papLit).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "src/core/pipeline.hpp"

namespace punt::benchmarks {

/// One Table-1 row: the measured columns plus the paper's 1997 reference
/// values for the side-by-side comparison.
struct Table1Row {
  std::string name;
  std::size_t signals = 0;
  bool ok = false;
  std::string error;  // exception text when !ok
  double unfold_seconds = 0;    // UnfTim
  double derive_seconds = 0;    // SynTim
  double minimize_seconds = 0;  // EspTim
  double total_seconds = 0;     // TotTim
  std::size_t literals = 0;     // LitCnt
  std::size_t exact_fallbacks = 0;
  double paper_total_seconds = 0;   // paperTot
  std::size_t paper_literals = 0;   // papLit
};

struct Table1Report {
  std::vector<Table1Row> rows;  // registry order
  std::size_t jobs = 1;
  double wall_seconds = 0;

  std::size_t failures() const;      // rows with !ok
  std::size_t literal_count() const; // sum over ok rows
};

/// Builds the report for a batch run over the whole registry (batch entry k
/// corresponds to registry position k).  Throws ValidationError when the
/// batch size does not match the registry.
Table1Report make_report(const core::BatchResult& batch);

/// The human Table-1 table: header, one line per row (error text for failed
/// rows), separator and a Total line.  `punt bench run` appends its own
/// footer (wall clock and critical path).
std::string format_table1(const Table1Report& report);

/// JSON serialisation of a report ("punt-table1-report" schema, version 2;
/// version 1 also carried the shard and the registry size).
std::string to_json(const Table1Report& report);

}  // namespace punt::benchmarks
