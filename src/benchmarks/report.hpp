// Table-1 reporting: one formatting/serialisation helper shared by
// `punt bench run`, `punt bench merge` and bench/table1_acg.cpp, so the
// paper-column comparison (paperTot / papLit) exists in exactly one place.
//
// Sharded registry runs: `punt bench run --shard=i/n` synthesises the
// registry entries at positions p with p % n == i (a deterministic
// partition, so n shard runs cover the registry exactly once), emits the
// rows as a JSON report, and `punt bench merge` recombines the per-shard
// reports into the full Table-1 table — validating that the shards neither
// overlap nor miss a registry entry.  This is what CI's bench-shards matrix
// and multi-machine sweeps build on.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/pipeline.hpp"

namespace punt::benchmarks {

/// One deterministic slice of the registry: positions p with
/// p % count == index.
struct Shard {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses the payload of `--shard=i/n`.  Throws punt::Error with an
/// actionable diagnostic for malformed text, n = 0 or i >= n (mirroring the
/// --jobs validation style).
Shard parse_shard(const std::string& value);

/// True when registry position `position` belongs to `shard`.
bool shard_contains(const Shard& shard, std::size_t position);

/// The positions of `shard` within a registry of `registry_size` entries,
/// ascending.
std::vector<std::size_t> shard_positions(const Shard& shard, std::size_t registry_size);

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
  std::vector<Table1Row> rows;  // registry order within the shard
  Shard shard;                  // which slice of the registry this covers
  std::size_t registry_size = 0;  // size of the full registry when produced
  std::size_t jobs = 1;
  double wall_seconds = 0;

  std::size_t failures() const;      // rows with !ok
  std::size_t literal_count() const; // sum over ok rows
};

/// Cost-aware partition (`punt bench run --weights=<report.json>`): assigns
/// registry positions to `shard.count` shards by greedy longest-processing-
/// time over per-entry TotTim from `weights` (a prior — typically merged —
/// report), so skewed suites balance shard wall-clock instead of entry
/// counts.  Deterministic: entries are placed heaviest-first (ties on
/// position) onto the least-loaded shard (ties on index), so the n shard
/// invocations with the same weights file cover the registry exactly once —
/// `punt bench merge` keeps enforcing that.  Failed rows (whose TotTim is
/// meaningless) weigh the mean successful-row weight, so a report with
/// several failures spreads them across shards instead of piling them onto
/// the least-loaded one as free riders.
/// Returns the positions of `shard.index`, ascending.  Throws
/// ValidationError when `weights` does not cover the current registry
/// (missing entry, unknown benchmark, stale registry size).
std::vector<std::size_t> weighted_shard_positions(const Shard& shard,
                                                  const Table1Report& weights);

/// The LPT core of the above, for callers that already hold one weight per
/// registry position (`punt bench run --weights=<costs.puntledger>` derives
/// them from the cost ledger's learned per-node estimates).  Non-positive
/// weights — entries the source has no measurement for — take the mean
/// positive weight, mirroring the failed-row fallback.  Throws
/// ValidationError when `weights.size()` disagrees with the registry.
std::vector<std::size_t> weighted_shard_positions(const Shard& shard,
                                                  const std::vector<double>& weights);

/// Builds the report for a batch run over the registry entries of `shard`
/// (batch entry k corresponds to the k-th shard position).  Throws
/// ValidationError when the batch size does not match the shard.
Table1Report make_report(const Shard& shard, const core::BatchResult& batch);

/// Same, for an explicit position list (the weighted partition): batch
/// entry k corresponds to positions[k].  Throws ValidationError on a size
/// mismatch or an out-of-range position.
Table1Report make_report(const Shard& shard, const std::vector<std::size_t>& positions,
                         const core::BatchResult& batch);

/// The human Table-1 table: header, one line per row (error text for failed
/// rows), separator and a Total line.  Shared by `punt bench run`,
/// `punt bench merge` and bench_table1_acg — callers append their own
/// footers (wall clock, speedups, shard provenance).
std::string format_table1(const Table1Report& report);

/// JSON serialisation of a report ("punt-table1-report" schema, version 1).
std::string to_json(const Table1Report& report);

/// Parses to_json output.  Throws ParseError on malformed JSON or a payload
/// that is not a punt-table1-report.
Table1Report report_from_json(std::string_view text);

/// Combines per-shard reports into one full-registry report (rows in
/// registry order; wall_seconds is the maximum across shards, since CI runs
/// them concurrently).  Throws ValidationError when the shards overlap,
/// miss a registry entry, name an unknown benchmark, or disagree with the
/// current registry size.
Table1Report merge_reports(const std::vector<Table1Report>& reports);

// --- Serve-mode benchmarking --------------------------------------------------

/// The `punt bench serve` outcome: the serving-latency analogue of a
/// Table-1 report.  Client-side latency/throughput from the closed-loop
/// load generator (benchmarks/loadgen.hpp) plus the daemon-side fusion
/// delta observed over the measurement window via {"op":"cache-stats"}.
struct ServeBenchReport {
  /// Which transport carried the run ("unix" | "tcp") — what lets CI track
  /// TCP overhead against the Unix artifact per-commit.  Optional in the
  /// JSON (defaulting to "unix"), so pre-transport artifacts still parse.
  std::string transport = "unix";
  std::size_t clients = 0;
  double duration_seconds = 0;  // configured measurement window
  double wall_seconds = 0;      // measured (>= duration: in-flight finish)
  std::size_t completed = 0;    // responses received, any exit code
  std::size_t failed = 0;       // responses with a nonzero exit code
  std::size_t shed = 0;         // "overloaded" refusals observed client-side
  std::size_t transport_errors = 0;  // broken connections, failed reconnects
  double throughput_rps = 0;    // completed / wall_seconds

  // Latency percentiles over completed requests, milliseconds,
  // nearest-rank.
  double mean_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double max_ms = 0;

  // Daemon-side fusion counters: the delta between the cache-stats
  // snapshots bracketing the measurement window (all zero against a
  // --batch-window=0 daemon).  High-water marks are whole-daemon-lifetime
  // values, not deltas.
  double batch_window_ms = 0;
  std::size_t batches = 0;
  std::size_t fused_requests = 0;
  std::size_t max_batch = 0;
  std::size_t queue_high_water = 0;
  std::size_t daemon_shed = 0;
  std::vector<std::size_t> batch_size_histogram;  // delta, bucket i = size i+1

  double mean_batch() const;
};

/// JSON serialisation ("punt-serve-bench" schema, version 1).
std::string to_json(const ServeBenchReport& report);

/// Parses to_json output.  Throws ParseError on malformed JSON or a payload
/// that is not a punt-serve-bench report.
ServeBenchReport serve_report_from_json(std::string_view text);

/// The human summary `punt bench serve` prints: throughput, latency
/// percentiles, fusion counters (with a greppable `shed=N`) and the
/// batch-size histogram.
std::string format_serve_summary(const ServeBenchReport& report);

}  // namespace punt::benchmarks
