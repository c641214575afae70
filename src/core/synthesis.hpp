// Synthesis drivers: the complete flow from an STG to per-signal Boolean
// covers, in three methods and three implementation architectures.
//
// Methods:
//   * UnfoldingApprox — the paper's contribution ("PUNT ACG"): build the
//     STG-unfolding segment, approximate on/off covers from slices, refine
//     until disjoint, fall back to exact per-slice enumeration if refinement
//     stalls;
//   * UnfoldingExact  — exact covers by slice-cut enumeration (paper §4.1);
//   * StateGraph      — the conventional SG flow (the SIS / Petrify stand-in
//     of Table 1 and Fig. 6).
//
// Architectures (paper §2):
//   * ComplexGate — one atomic SOP gate (with internal feedback) per signal;
//   * StandardC   — set/reset excitation functions driving a Muller
//     C-element;
//   * RsLatch     — the same functions driving an RS latch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/approx.hpp"
#include "src/logic/cover.hpp"
#include "src/logic/espresso.hpp"
#include "src/stg/stg.hpp"
#include "src/unfolding/unfolding.hpp"

namespace punt::util {
struct TaskTrace;  // task_graph.hpp
}

namespace punt::core {

enum class Method { UnfoldingApprox, UnfoldingExact, StateGraph };
enum class Architecture { ComplexGate, StandardC, RsLatch };

struct SynthesisOptions {
  Method method = Method::UnfoldingApprox;
  Architecture architecture = Architecture::ComplexGate;
  ApproxSetPolicy approx_policy = ApproxSetPolicy::Full;
  /// Run espresso on the final covers (the paper's EspTim step).
  bool minimize = true;
  /// Reject STGs with output-persistency violations up front.
  bool check_persistency = true;
  /// Throw CscError on a Complete State Coding conflict; if false the
  /// conflict is recorded in the result and the signal is skipped.
  bool throw_on_csc = true;
  /// Worker threads for the per-signal derivation pipeline (phases 2–3).
  /// 1 = run inline (no threads); 0 = one worker per hardware thread.
  /// Results are bit-identical for every value (see DESIGN.md §7).
  std::size_t jobs = 1;
  /// Budgets forwarded to the substrates (0 = unlimited where supported).
  std::size_t state_budget = 2000000;   // StateGraph method
  std::size_t event_budget = 200000;    // unfolding construction
  std::size_t cut_budget = 2000000;     // exact slice enumeration
};

/// The implementation of one output/internal signal.
struct SignalImplementation {
  stg::SignalId signal;
  std::string name;  // the signal's STG name, for reports and diagnostics

  /// Final correct covers (refined/exact); on ∩ off = ∅ unless csc_conflict.
  logic::Cover on_cover;
  logic::Cover off_cover;

  /// ComplexGate: the gate function (minimised) and which phase it covers.
  logic::Cover gate;
  bool gate_covers_on = true;

  /// StandardC / RsLatch: minimised set and reset excitation functions.
  logic::Cover set_function;
  logic::Cover reset_function;

  bool used_exact_fallback = false;  // refinement stalled, exact covers used
  bool csc_conflict = false;         // exact covers still intersect
  logic::MinimizeStats min_stats;

  /// Literal count of this signal's logic (gate, or set+reset).
  std::size_t literal_count(Architecture arch) const;

  /// True when both implementations describe the same circuit: identity,
  /// covers, gate/set/reset functions and derivation flags all match.
  /// MinimizeStats bookkeeping is excluded.  This is the comparison the
  /// pipeline's determinism guarantee is stated in terms of.
  bool same_logic(const SignalImplementation& other) const;
};

struct SynthesisResult {
  Method method = Method::UnfoldingApprox;
  Architecture architecture = Architecture::ComplexGate;
  std::vector<SignalImplementation> signals;

  // The paper's Table 1 time breakdown, in seconds.  unfold_seconds is the
  // model's wall-clock construction cost; derive_seconds and
  // minimize_seconds are the *sum of per-signal task CPU times*, so they
  // measure aggregate work and stay meaningful when the executor runs the
  // nodes concurrently (preemption under oversubscription is not counted).
  // total_seconds is this run's own work — model resolution wall-clock
  // (near zero on a ModelCache hit) plus the summed task times — NOT the
  // run's span in a shared batch schedule, where other entries' nodes
  // interleave.  With jobs = 1 and no cache it is the sequential wall
  // clock, matching the paper's TotTim column.
  double unfold_seconds = 0;    // UnfTim (SG construction time for StateGraph)
  double derive_seconds = 0;    // SynTim: cover derivation + refinement
  double minimize_seconds = 0;  // EspTim
  double total_seconds = 0;     // TotTim

  unf::UnfoldStats unfold_stats;   // segment size (unfolding methods)
  std::size_t sg_states = 0;       // SG size (StateGraph method)
  std::size_t refinement_iterations = 0;
  std::size_t exact_fallbacks = 0;

  /// Total literal count — the paper's LitCnt column.
  std::size_t literal_count() const;

  /// O(1) lookup via the signal index; throws ValidationError naming the
  /// known signals when `signal` has no implementation (e.g. an input).
  const SignalImplementation& implementation(stg::SignalId signal) const;

  /// Rebuilds the signal → position index after `signals` was edited by
  /// hand (the pipeline maintains it for results it produces).
  void rebuild_signal_index();

 private:
  std::unordered_map<std::uint32_t, std::size_t> signal_index_;
};

class ModelCache;  // model_cache.hpp

/// Synthesises every output/internal signal of `stg` through the task-graph
/// executor (one model node, then separately schedulable derive and
/// minimize nodes per signal — DESIGN.md §7).  Throws
/// ImplementabilityError for inconsistent/non-persistent STGs, CapacityError
/// on blown budgets, CscError on coding conflicts (when throw_on_csc); with
/// options.jobs > 1 the exception that surfaces is the one of the
/// lowest-index failing signal, exactly what the sequential run reports.
/// When `cache` is given, the phase-1 semantic model is resolved through it
/// (lookup-or-build), so repeated calls over the same STG — or calls that
/// differ only in derivation options such as the architecture — skip model
/// construction entirely.  Results are byte-identical with and without a
/// cache (the model is immutable either way).  When `trace` is given it
/// receives the executed schedule (`punt synth --trace-schedule`).
SynthesisResult synthesize(const stg::Stg& stg, const SynthesisOptions& options = {},
                           ModelCache* cache = nullptr,
                           util::TaskTrace* trace = nullptr);

}  // namespace punt::core
