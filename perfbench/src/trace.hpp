// In-memory spans recorded by the benchmark around its calls into each
// layer's public functions, and the traced decomposition of a synthesis
// pass built from those calls.
//
// The decomposition runs exactly what one synthesize_batch entry runs at
// jobs = 1 — SemanticModel::build, then DeriveTask::run and
// MinimizeTask::run per target signal — but calls each stage itself, so
// every stage gets its own span.  Its results are checked same_logic
// against the untraced batch pass, which is what makes the per-layer
// numbers numbers of the same program.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/stg/stg.hpp"

namespace perfbench {

struct Span {
  std::string name;    // the layer, e.g. "core.derive"
  std::string detail;  // the spec or spec/signal it worked on
  std::size_t parent = kNoParent;
  double start = 0;  // seconds since the recorder's origin
  double end = 0;

  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  double seconds() const { return end - start; }
};

class SpanRecorder {
 public:
  std::size_t open(std::string name, std::string detail, std::size_t parent = Span::kNoParent);
  void close(std::size_t id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`.
  double total(std::string_view name) const;

  /// Writes the spans as a Chrome trace-event JSON file (viewable in
  /// Perfetto or chrome://tracing).  Returns false when the file cannot be
  /// written.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::string detail,
             std::size_t parent = Span::kNoParent)
      : recorder_(recorder), id_(recorder.open(std::move(name), std::move(detail), parent)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::size_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::size_t id_;
};

/// One entry of a traced pass: the spec, its display name (the STG's own
/// name can differ: Table 1's sbuf-ram-write is muller11) and its own
/// synthesis options.
struct TracedItem {
  const punt::stg::Stg* stg = nullptr;
  std::string name;
  punt::core::SynthesisOptions options;
};

struct TracedPass {
  std::vector<punt::core::SynthesisResult> results;  // parallel to the items
  std::vector<std::shared_ptr<const punt::core::SemanticModel>> models;
  /// DeriveTask's refinement iterations, per item and target signal.
  std::vector<std::vector<std::size_t>> refine_iterations;
  std::vector<double> derive_seconds;    // per item, summed over signals
  std::vector<double> minimize_seconds;  // per item
  std::size_t pass_span = Span::kNoParent;
  double wall = 0;                       // the whole pass
  /// Self time of the layer spans (model, derive and minimize — leaves, so
  /// their self time is their duration); the rest of `wall` is glue.
  double layer_seconds = 0;
};

/// Runs the items one after another at jobs = 1 under spans: "pass" >
/// "spec" > {"unfolding.build" | "sg.build", "core.derive", "logic.minimize"}.
TracedPass traced_pass(std::span<const TracedItem> items, SpanRecorder& spans);

/// For the approximation method, calls approximate_cover and
/// refine_until_disjoint under "core.approx" / "core.refine" spans and
/// checks the combined covers, the fallback decision and the iteration
/// count against DeriveTask's.  Returns one line per disagreement.
std::vector<std::string> recheck_approximation(std::span<const TracedItem> items,
                                               const TracedPass& pass, SpanRecorder& spans);

/// Netlist::from_synthesis under "netlist.assembly" spans; returns each
/// netlist's literal count.
std::vector<std::size_t> assemble_netlists(std::span<const TracedItem> items,
                                           const TracedPass& pass, SpanRecorder& spans);

/// The traced run shared by every workload: runs traced_pass over `items`,
/// then proves it ran the same program as the untraced pass whose results
/// `reference` holds (parallel to the items) — per-signal same_logic, equal
/// exact counts, the approximation recheck and equal netlist literal totals;
/// each disagreement fails `report`.  Records the per-layer metrics of the
/// model, derive, minimize and assembly layers plus trace.unaccounted_frac
/// and trace.overhead_frac (traced wall over `untraced_wall`, the wall time
/// of the untraced jobs = 1 pass over the same items).
void traced_run(std::span<const TracedItem> items,
                std::span<const punt::core::SynthesisResult* const> reference,
                double untraced_wall, SpanRecorder& spans, Report& report);

}  // namespace perfbench
