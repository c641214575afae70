// The `punt lint --deep` semantic tier: exact verdicts over the state graph.
//
// Where the structural rules (rules.hpp, STG000–STG010) are necessary-
// condition pre-screens that never explore the state space, the semantic
// tier builds the spec's phase-1 model (the same sg::StateGraph the
// synthesis baseline uses, resolved through the shared ModelCache so a warm
// spec deep-lints without rebuilding anything) and decides the properties
// exactly:
//
//   STG100  CSC conflict — two reachable states share a binary code but
//           imply different output behaviour (the exact verdict behind the
//           STG010 pre-screen);
//   STG101  output-persistency (semi-modularity) violation — a firing
//           disables an excited output, the paper's speed-independence
//           condition;
//   STG102  1-safety violation — a reachable firing overfills a place (the
//           exact verdict behind STG007's concurrent-producer half);
//   STG103  dead transition — no reachable marking enables it (the exact
//           verdict behind STG004);
//   STG104  deadlock — a reachable state enables no transition;
//   STG105  inconsistent state assignment — one marking is reachable with
//           two binary codes (what STG008's auto-concurrency pre-screen
//           approximates);
//   STG106  semantic model unavailable — validation failed or a budget was
//           exceeded; carries the pipeline's exception text.
//
// Severity policy mirrors the structural tier's: Error ⇔ `punt synth` with
// default options would reject the spec (CSC, persistency, safety,
// consistency, validation), so a spec that synthesises clean never deep-
// lints with error-severity semantic findings.  The one exception is a
// blown *state budget* (STG106 as a Warning): explicit reachability gave no
// verdict, but the unfolding-based flow may still synthesise the spec.
//
// Findings carry witness firing sequences (util::Witness) from the initial
// state, with each step mapped back to its source span through ParsedG's
// provenance tables — a CSC error points at the transitions whose states
// collide.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "src/lint/rules.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/diagnostics.hpp"

namespace punt::core {
class ModelCache;  // model_cache.hpp
}

namespace punt::lint {

/// The deep-tier catalog in id order (STG100 ... STG106).  Disjoint from
/// rule_catalog(); `punt lint --rules` lists both.
const std::vector<RuleInfo>& semantic_rule_catalog();

/// True for deep-tier rule ids ("STG100"..."STG199").
bool is_semantic_rule(std::string_view rule_id);

struct SemanticOptions {
  /// Forwarded to sg::StateGraph::build (0 = unlimited).
  std::size_t state_budget = 2000000;
  /// Resolve the phase-1 model through this cache (lookup-or-build) instead
  /// of building it fresh; the daemon passes its resident cache so
  /// warm specs deep-lint with zero rebuilds.  Not owned; may be null.
  core::ModelCache* cache = nullptr;
};

struct SemanticOutcome {
  std::vector<util::Diagnostic> diagnostics;
  /// The state graph was resolved; every exact verdict above ran.  This is
  /// what licenses retracting the structural pre-screens (STG004, STG010,
  /// STG008's auto-concurrency half, STG007's concurrent-producer half).
  bool model_ready = false;
  /// 1-safety was decided exactly: the model built under the capacity-1
  /// bound (safe), or STG102 reported the violation.  Licenses retracting
  /// STG007's conservative half even when the model is unavailable.
  bool safety_verdict = false;
  /// This call constructed the model (false on every cache hit).
  bool built = false;
};

/// Runs the semantic tier over one spec.  `text` is re-parsed strictly
/// (stg::parse_g) because the collecting parse behind `parsed` leaves the
/// Stg unvalidated with a possibly-unresolved initial code; `parsed`
/// supplies the span tables the witness steps anchor to.  Never throws on
/// any spec content — every failure becomes a finding.
SemanticOutcome run_semantic_rules(std::string_view text, const stg::ParsedG& parsed,
                                   const SemanticOptions& options = {});

}  // namespace punt::lint
