#include "src/lint/lint.hpp"

#include <algorithm>
#include <utility>

#include "src/core/pipeline.hpp"
#include "src/lint/rules.hpp"
#include "src/lint/semantic_rules.hpp"
#include "src/stg/g_format.hpp"
#include "src/util/json.hpp"
#include "src/util/strings.hpp"
#include "src/util/task_graph.hpp"

namespace punt::lint {
namespace {

using util::Diagnostic;
using util::Severity;

/// True for the structural findings the deep tier's exact verdicts replace:
/// STG004 and STG010 whole-rule (STG103/STG100 decide them), plus the
/// conservative halves of STG007 and STG008.  The message-prefix tests are
/// coupled to rules.cpp's emission text (same module, tested together); the
/// definite halves — a multi-token initial marking, self-triggering — carry
/// no "may"/"can be" uncertainty and are never retracted.
bool retracted_by_model(const Diagnostic& d) {
  if (d.rule == "STG004" || d.rule == "STG010") return true;
  if (d.rule == "STG008" && d.message.starts_with("auto-concurrency:")) return true;
  return d.rule == "STG007" &&
         d.message.find("may fire concurrently") != std::string::npos;
}

/// The subset of the above that a 1-safety verdict alone retracts (the model
/// may still be unavailable — e.g. the build stopped at the capacity bound).
bool retracted_by_safety_verdict(const Diagnostic& d) {
  return d.rule == "STG007" &&
         d.message.find("may fire concurrently") != std::string::npos;
}

}  // namespace

FileLint lint_text(std::string_view text, std::string_view filename,
                   const LintOptions& options) {
  FileLint out;
  out.filename = std::string(filename);
  util::DiagnosticSink sink;
  const stg::ParsedG parsed = stg::parse_g_collect(text, sink);
  if (parsed.usable) run_rules(parsed, sink);
  out.diagnostics = sink.diagnostics();

  // The deep tier runs only over structurally error-free specs: an
  // error-severity structural finding means the strict parse the semantic
  // model needs would throw the same defect right back.
  if (options.deep && parsed.usable && !sink.has_errors()) {
    SemanticOptions semantic;
    semantic.state_budget = options.deep_state_budget;
    semantic.cache = options.cache;
    SemanticOutcome outcome = run_semantic_rules(text, parsed, semantic);
    out.model_built = outcome.built;
    if (outcome.model_ready) {
      std::erase_if(out.diagnostics, retracted_by_model);
    } else if (outcome.safety_verdict) {
      std::erase_if(out.diagnostics, retracted_by_safety_verdict);
    }
    out.diagnostics.insert(out.diagnostics.end(),
                           std::make_move_iterator(outcome.diagnostics.begin()),
                           std::make_move_iterator(outcome.diagnostics.end()));
  }

  for (Diagnostic& d : out.diagnostics) {
    if (d.severity == Severity::Warning &&
        (options.promote_all_warnings ||
         std::find(options.promote_rules.begin(), options.promote_rules.end(),
                   d.rule) != options.promote_rules.end())) {
      d.severity = Severity::Error;
    }
    switch (d.severity) {
      case Severity::Error: ++out.errors; break;
      case Severity::Warning: ++out.warnings; break;
      case Severity::Note: ++out.notes; break;
    }
  }
  return out;
}

std::vector<FileLint> lint_files(const std::vector<FileInput>& files,
                                 const LintOptions& options) {
  std::vector<FileLint> results(files.size());
  util::TaskGraph graph;
  for (std::size_t i = 0; i < files.size(); ++i) {
    // Each node writes only its own slot of the pre-sized results vector, so
    // the nodes are trivially safe to run concurrently; the shared
    // ModelCache behind `options` is thread-safe by contract.
    graph.add("lint", files[i].filename, 0, {}, [&results, &files, &options, i] {
      results[i] = lint_text(files[i].text, files[i].filename, options);
    });
  }
  if (options.executor != nullptr) {
    options.executor->run(graph);
  } else {
    graph.execute_inline();
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    // lint never throws on spec *content*; a failed node is a real defect
    // (bad_alloc, logic error) and must surface.
    if (graph.status(i) == util::TaskStatus::Failed) {
      std::rethrow_exception(graph.error(i));
    }
  }
  return results;
}

std::vector<util::Diagnostic> lint_errors(std::string_view text) {
  util::DiagnosticSink sink;
  return lint_errors(stg::parse_g_collect(text, sink), sink);
}

std::vector<util::Diagnostic> lint_errors(const stg::ParsedG& parsed,
                                          util::DiagnosticSink& sink) {
  // Admission fast path: only the error-capable rules — the warning-tier
  // fixed points (place concurrency, potential firability) cannot produce a
  // refusal, so a served request never pays for them.
  if (parsed.usable) run_error_rules(parsed, sink);
  std::vector<Diagnostic> out = sink.diagnostics();
  std::erase_if(out, [](const Diagnostic& d) { return d.severity != Severity::Error; });
  return out;
}

std::string render_human(const FileLint& lint, std::string_view source) {
  std::string out = util::render_diagnostics(lint.diagnostics, source, lint.filename);
  auto plural = [](std::size_t n, const char* word) {
    return std::to_string(n) + " " + word + (n == 1 ? "" : "s");
  };
  out += lint.filename + ": ";
  if (lint.diagnostics.empty()) {
    out += "clean\n";
    return out;
  }
  std::string counts;
  if (lint.errors > 0) counts += plural(lint.errors, "error");
  if (lint.warnings > 0) {
    counts += (counts.empty() ? "" : ", ") + plural(lint.warnings, "warning");
  }
  if (lint.notes > 0) counts += (counts.empty() ? "" : ", ") + plural(lint.notes, "note");
  out += counts + "\n";
  return out;
}

std::string render_json(const std::vector<FileLint>& files) {
  std::string out = "{\"schema\": \"punt-lint-report\", \"version\": 2, \"files\": [";
  bool first_file = true;
  for (const FileLint& file : files) {
    if (!first_file) out += ", ";
    first_file = false;
    out += printf_string(
        "{\"file\": \"%s\", \"ok\": %s, \"errors\": %zu, \"warnings\": %zu, "
        "\"notes\": %zu, \"diagnostics\": [",
        util::json_escape(file.filename).c_str(), file.ok() ? "true" : "false",
        file.errors, file.warnings, file.notes);
    bool first_diag = true;
    for (const Diagnostic& d : file.diagnostics) {
      if (!first_diag) out += ", ";
      first_diag = false;
      out += printf_string(
          "{\"rule\": \"%s\", \"severity\": \"%s\", \"tier\": \"%s\", "
          "\"line\": %u, \"column\": %u, \"length\": %u, \"message\": \"%s\", "
          "\"hint\": \"%s\", \"witnesses\": [",
          util::json_escape(d.rule).c_str(), util::severity_name(d.severity),
          is_semantic_rule(d.rule) ? "semantic" : "structural", d.span.line,
          d.span.column, d.span.length, util::json_escape(d.message).c_str(),
          util::json_escape(d.hint).c_str());
      bool first_witness = true;
      for (const util::Witness& w : d.witnesses) {
        if (!first_witness) out += ", ";
        first_witness = false;
        out += printf_string("{\"label\": \"%s\", \"steps\": [",
                             util::json_escape(w.label).c_str());
        bool first_step = true;
        for (const util::WitnessStep& step : w.steps) {
          if (!first_step) out += ", ";
          first_step = false;
          out += printf_string(
              "{\"transition\": \"%s\", \"line\": %u, \"column\": %u, "
              "\"length\": %u}",
              util::json_escape(step.transition).c_str(), step.span.line,
              step.span.column, step.span.length);
        }
        out += "]}";
      }
      out += "]}";
    }
    out += "]}";
  }
  out += "]}\n";
  return out;
}

}  // namespace punt::lint
