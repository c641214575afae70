// The lint driver behind `punt lint` and the serve admission gate.
//
// lint_text() runs the collecting parse plus every structural rule from
// rules.hpp over one spec and returns the findings with severities already
// promoted per the options (--Werror and friends).  With options.deep it
// then runs the semantic tier (semantic_rules.hpp): the spec's state-graph
// model is resolved — through options.cache when given, so a warm spec
// deep-lints without rebuilding phase 1 — and the exact STG1xx verdicts are
// appended, while the structural pre-screens they retract (STG004, STG010,
// STG008's auto-concurrency half, STG007's concurrent-producer half) are
// suppressed so nothing is double-reported.
//
// lint_files() is the multi-spec front end: one TaskGraph node per file,
// executed on options.executor (the daemon's resident pool, or a per-call
// one under `punt lint --jobs=N`).
//
// lint_errors() is the admission fast path: it runs the parser plus ONLY
// the error-capable structural rules (rules.hpp run_error_rules) and keeps
// the Error-severity findings, so `server::prepare_synth` refuses a
// structurally broken spec without paying for the warning-tier fixed points
// — refusal severities never depend on caller flags, only on the catalog's
// defaults, and the findings are byte-identical to a full pass's errors.
// Its ParsedG overload lints a parse the caller already holds: admission
// then finishes that same parse into the job's Stg (stg::finish_parse).
//
// Rendering: render_human() produces the caret-and-excerpt blocks of
// util::render_diagnostics plus a per-file summary line; render_json()
// produces the `punt-lint-report` v2 document (v1 plus the additive `tier`
// and `witnesses` fields, so v1 consumers keep parsing):
//
//   {"schema": "punt-lint-report", "version": 2,
//    "files": [{"file": ..., "ok": ..., "errors": N, "warnings": N,
//               "notes": N, "diagnostics": [{"rule", "severity", "tier",
//               "line", "column", "length", "message", "hint",
//               "witnesses": [{"label", "steps": [{"transition", "line",
//               "column", "length"}]}]}]}]}
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/diagnostics.hpp"

namespace punt::core {
class ModelCache;   // model_cache.hpp
class Executor;     // pipeline.hpp
}  // namespace punt::core

namespace punt::stg {
struct ParsedG;     // g_format.hpp
}  // namespace punt::stg

namespace punt::lint {

struct LintOptions {
  /// Promote every Warning to Error (--Werror).  Notes are never promoted.
  bool promote_all_warnings = false;
  /// Promote Warnings of these rule ids only (--Werror=STG006,...).
  std::vector<std::string> promote_rules;

  /// Run the semantic tier (STG1xx) after a structurally error-free pass.
  bool deep = false;
  /// State budget for the deep tier's explicit reachability (0 = unlimited).
  std::size_t deep_state_budget = 2000000;
  /// Resolve deep-tier models through this cache (not owned; may be null —
  /// each lint then builds its model fresh).
  core::ModelCache* cache = nullptr;
  /// lint_files() only: run the per-file nodes on this executor (not owned;
  /// null = inline on the calling thread).
  core::Executor* executor = nullptr;
};

/// The lint result for one spec.
struct FileLint {
  std::string filename;
  std::vector<util::Diagnostic> diagnostics;  // discovery order, post-promotion
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t notes = 0;
  /// Deep tier ran and this call built the model (false on cache hits and
  /// structural-only passes) — surfaced so benches can count rebuilds.
  bool model_built = false;

  bool ok() const { return errors == 0; }
};

/// One input of a lint_files() batch.
struct FileInput {
  std::string filename;
  std::string text;
};

/// Lints one `.g` text.  Never throws on any spec content.
FileLint lint_text(std::string_view text, std::string_view filename,
                   const LintOptions& options = {});

/// Lints every input, one TaskGraph node per file, on options.executor.
/// Results are index-aligned with `files` and identical at any job count.
std::vector<FileLint> lint_files(const std::vector<FileInput>& files,
                                 const LintOptions& options = {});

/// Admission helper: the Error-severity findings of `text` under default
/// severities (no promotion).  Empty means the spec is admissible.
std::vector<util::Diagnostic> lint_errors(std::string_view text);

/// The same findings for a spec already collected by stg::parse_g_collect()
/// into `sink`: runs the error-capable rules into `sink` and returns every
/// Error-severity finding it then holds, parser findings first.
std::vector<util::Diagnostic> lint_errors(const stg::ParsedG& parsed,
                                          util::DiagnosticSink& sink);

/// Human rendering: every finding as a caret block, then one summary line
/// ("file.g: 2 errors, 1 warning").  `source` is the original text.
std::string render_human(const FileLint& lint, std::string_view source);

/// Machine rendering of one or more files: `punt-lint-report` v2.
std::string render_json(const std::vector<FileLint>& files);

}  // namespace punt::lint
