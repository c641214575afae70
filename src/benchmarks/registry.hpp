// The Table-1 benchmark registry.
//
// Each entry reproduces one row of the paper's Table 1: the benchmark name,
// the paper's measured columns (for side-by-side reporting), and a
// constructor for our substitute STG with the row's exact signal count (see
// DESIGN.md §4 and templates.hpp for the substitution rationale).
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "src/stg/stg.hpp"

namespace punt::benchmarks {

/// One row of Table 1.
struct Benchmark {
  std::string name;
  std::size_t signals = 0;        // the paper's "Sigs" column
  std::function<stg::Stg()> make; // our substitute spec (same signal count)
  std::string note;               // what the substitute is built from

  // Paper-reported reference values (seconds / literals).  `punt bench run`
  // prints paperTot and papLit beside the measured columns (report.hpp), and
  // tests/benchmarks_test.cpp pins the two literal totals, 592 and 580.
  // LitCnt for "other tools" keeps the first number of entries like "20/17".
  double paper_unf_time = 0;
  double paper_syn_time = 0;
  double paper_esp_time = 0;
  double paper_total_time = 0;
  std::size_t paper_literals = 0;
  double paper_petrify_time = 0;
  double paper_sis_time = 0;
  std::size_t paper_other_literals = 0;
};

/// All 21 rows of Table 1, in the paper's order.
const std::vector<Benchmark>& table1();

/// Looks a row up by name; throws ValidationError when absent.
const Benchmark& find(const std::string& name);

}  // namespace punt::benchmarks
