// Oracle-consistency and per-rule fixtures for the `punt lint --deep`
// semantic tier (STG100..STG106, src/lint/semantic_rules.cpp).
//
// The oracle is the synthesis pipeline itself: a spec that `punt synth`
// (default options) rejects with CscError must deep-lint with an STG100
// error whose witnesses anchor to real source lines, and a spec that
// synthesises clean must deep-lint free of error-severity semantic
// findings.  The per-rule fixtures pin each STG1xx verdict — including the
// structural pre-screens the exact verdicts retract — with exact
// witness-span asserts against the fixture text.
//
// DeepLintChurn.* names are matched by the TSan CI job's ctest regex: the
// churn test drives N specs through one shared ModelCache on a
// multi-worker Executor, the daemon's deep-lint concurrency shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "src/benchmarks/registry.hpp"
#include "src/core/model_cache.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/synthesis.hpp"
#include "src/lint/lint.hpp"
#include "src/lint/semantic_rules.hpp"
#include "src/server/protocol.hpp"
#include "src/server/service.hpp"
#include "src/stg/g_format.hpp"
#include "src/stg/generators.hpp"
#include "src/util/error.hpp"

namespace punt {
namespace {

using lint::FileInput;
using lint::FileLint;
using lint::LintOptions;
using util::Diagnostic;
using util::Severity;

LintOptions deep_options(core::ModelCache* cache = nullptr) {
  LintOptions options;
  options.deep = true;
  options.cache = cache;
  return options;
}

std::vector<const Diagnostic*> findings(const FileLint& lint, std::string_view rule) {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : lint.diagnostics) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

/// The source token a span points at — what a witness-span assert compares
/// against, so a passing test proves the span lands on the real occurrence.
std::string token_at(std::string_view text, const util::SourceSpan& span) {
  if (!span.known()) return std::string();
  std::size_t start = 0;
  for (std::uint32_t line = 1; line < span.line; ++line) {
    start = text.find('\n', start);
    if (start == std::string_view::npos) return std::string();
    ++start;
  }
  const std::size_t end = text.find('\n', start);
  const std::string_view row = text.substr(
      start, end == std::string_view::npos ? std::string_view::npos : end - start);
  if (span.column == 0 || span.column - 1 + span.length > row.size()) {
    return std::string();
  }
  return std::string(row.substr(span.column - 1, span.length));
}

// --- Catalog -----------------------------------------------------------------

TEST(SemanticCatalog, SevenExactRulesDisjointFromTheStructuralTier) {
  const std::vector<lint::RuleInfo>& catalog = lint::semantic_rule_catalog();
  ASSERT_EQ(catalog.size(), 7u);
  const char* expected[] = {"STG100", "STG101", "STG102", "STG103",
                            "STG104", "STG105", "STG106"};
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    // Ids are compared as strings: identical literals need not share an
    // address (AddressSanitizer, for one, does not merge them).
    EXPECT_STREQ(catalog[i].id, expected[i]);
    EXPECT_TRUE(lint::is_semantic_rule(catalog[i].id));
    // Disjoint id spaces: nothing semantic appears in the structural catalog.
    for (const lint::RuleInfo& structural : lint::rule_catalog()) {
      EXPECT_STRNE(structural.id, catalog[i].id);
      EXPECT_FALSE(lint::is_semantic_rule(structural.id));
    }
  }
  EXPECT_EQ(catalog[0].severity, Severity::Error);    // CSC
  EXPECT_EQ(catalog[3].severity, Severity::Warning);  // dead transition
  EXPECT_EQ(catalog[4].severity, Severity::Warning);  // deadlock
}

// --- Oracle consistency with the synthesis pipeline --------------------------

TEST(SemanticOracle, CleanSynthesisImpliesCleanDeepLintAcrossTheRegistry) {
  core::ModelCache cache;
  LintOptions options = deep_options(&cache);
  for (const benchmarks::Benchmark& bench : benchmarks::table1()) {
    const stg::Stg stg = bench.make();
    // The oracle direction the issue pins: default `punt synth` accepts
    // every registry spec, so none may deep-lint with an error-severity
    // semantic finding.
    EXPECT_NO_THROW(core::synthesize(stg)) << bench.name;
    const FileLint lint =
        lint::lint_text(stg::write_g(stg), bench.name + ".g", options);
    EXPECT_EQ(lint.errors, 0u) << bench.name;
    for (const Diagnostic& d : lint.diagnostics) {
      EXPECT_FALSE(lint::is_semantic_rule(d.rule) && d.severity == Severity::Error)
          << bench.name << ": " << d.rule << ": " << d.message;
    }
  }
}

TEST(SemanticOracle, CscRejectedSpecYieldsStg100WithSourceAnchoredWitnesses) {
  const stg::Stg vme = stg::make_vme_bus();
  EXPECT_THROW(core::synthesize(vme), CscError);

  const std::string text = stg::write_g(vme);
  const FileLint lint = lint::lint_text(text, "vme.g", deep_options());
  EXPECT_FALSE(lint.ok());
  const std::vector<const Diagnostic*> csc = findings(lint, "STG100");
  ASSERT_FALSE(csc.empty());
  for (const Diagnostic* d : csc) {
    EXPECT_EQ(d->severity, Severity::Error);
    EXPECT_NE(d->message.find("CSC conflict"), std::string::npos);
    ASSERT_EQ(d->witnesses.size(), 2u) << d->message;
    std::size_t anchored_steps = 0;
    for (const util::Witness& w : d->witnesses) {
      EXPECT_NE(w.label.find("trace to state"), std::string::npos);
      for (const util::WitnessStep& step : w.steps) {
        ASSERT_TRUE(step.span.known()) << step.transition;
        // The span must land on the transition's real occurrence in the
        // source — not merely on *a* line.
        EXPECT_EQ(token_at(text, step.span), step.transition);
        ++anchored_steps;
      }
    }
    EXPECT_GT(anchored_steps, 0u) << d->message;
    EXPECT_TRUE(d->span.known()) << d->message;
  }
}

// --- Per-rule fixtures --------------------------------------------------------

// A choice place feeding both an output (c+) and an input (b+): firing the
// input disables the excited output — the paper's semi-modularity condition
// violated, reported exactly by STG101.
constexpr std::string_view kNonPersistent =
    ".model npersist\n"
    ".inputs b\n"
    ".outputs a c\n"
    ".graph\n"
    "p0 a+\n"
    "a+ q\n"
    "q c+\n"
    "q b+\n"
    "c+ c-\n"
    "c- m\n"
    "b+ b-\n"
    "b- m\n"
    "m a-\n"
    "a- p0\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, PersistencyViolationNamesTheDisablingFiring) {
  const FileLint lint = lint::lint_text(kNonPersistent, "npersist.g", deep_options());
  const std::vector<const Diagnostic*> hits = findings(lint, "STG101");
  ASSERT_FALSE(hits.empty());
  const Diagnostic& d = *hits.front();
  EXPECT_EQ(d.severity, Severity::Error);
  EXPECT_NE(d.message.find("persistency"), std::string::npos);
  ASSERT_EQ(d.witnesses.size(), 2u);
  EXPECT_NE(d.witnesses[0].label.find("trace to state"), std::string::npos);
  EXPECT_EQ(d.witnesses[1].label, "disabling firing");
  ASSERT_EQ(d.witnesses[1].steps.size(), 1u);
  EXPECT_EQ(d.witnesses[1].steps[0].transition, "b+");
  // The finding anchors to the disabler's source occurrence.
  EXPECT_EQ(token_at(kNonPersistent, d.span), "b+");
  EXPECT_EQ(token_at(kNonPersistent, d.witnesses[1].steps[0].span), "b+");
}

// A fork whose branches both feed place m: the second concurrent producer
// overfills it.  Structurally this is only the conservative STG007 "may
// fire concurrently" pre-screen; the deep tier proves it and retracts the
// guess in favour of the exact STG102 error.
constexpr std::string_view kUnsafe =
    ".model unsafe\n"
    ".inputs a\n"
    ".outputs x y\n"
    ".graph\n"
    "p0 a+\n"
    "a+ x+\n"
    "a+ y+\n"
    "x+ m\n"
    "y+ m\n"
    "m a-\n"
    "a- x-\n"
    "a- y-\n"
    "x- p0\n"
    "y- p0\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, UnsafeNetGetsAnExactCapacityErrorAndDropsThePreScreen) {
  const FileLint shallow = lint::lint_text(kUnsafe, "unsafe.g");
  const std::vector<const Diagnostic*> guesses = findings(shallow, "STG007");
  EXPECT_TRUE(std::any_of(guesses.begin(), guesses.end(),
                          [](const Diagnostic* d) {
                            return d->message.find("may fire concurrently") !=
                                   std::string::npos;
                          }))
      << "fixture should trip the structural pre-screen";

  const FileLint deep = lint::lint_text(kUnsafe, "unsafe.g", deep_options());
  const std::vector<const Diagnostic*> hits = findings(deep, "STG102");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front()->severity, Severity::Error);
  EXPECT_NE(hits.front()->message.find("not 1-safe"), std::string::npos);
  EXPECT_EQ(token_at(kUnsafe, hits.front()->span), "m");
  // The exact verdict replaces the conservative half of STG007.
  for (const Diagnostic* d : findings(deep, "STG007")) {
    EXPECT_EQ(d->message.find("may fire concurrently"), std::string::npos)
        << d->message;
  }
}

// A second instance of a+ behind a never-marked self-loop place: dead.  The
// signal itself stays live through the first instance, so the strict parse
// (initial-code inference) succeeds and the state graph proves the instance
// unreachable.
constexpr std::string_view kDeadTransition =
    ".model deadt\n"
    ".inputs a\n"
    ".outputs b\n"
    ".graph\n"
    "p0 a+\n"
    "a+ b+\n"
    "b+ a-\n"
    "a- b-\n"
    "b- p0\n"
    "q a+/2\n"
    "a+/2 q\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, DeadTransitionVerdictRetractsTheStructuralGuess) {
  const FileLint shallow = lint::lint_text(kDeadTransition, "deadt.g");
  EXPECT_FALSE(findings(shallow, "STG004").empty())
      << "fixture should trip the structural reachability pre-screen";

  const FileLint deep = lint::lint_text(kDeadTransition, "deadt.g", deep_options());
  EXPECT_TRUE(findings(deep, "STG004").empty())
      << "the exact verdict must suppress the structural pre-screen";
  const std::vector<const Diagnostic*> hits = findings(deep, "STG103");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front()->severity, Severity::Warning);
  EXPECT_NE(hits.front()->message.find("'a+/2'"), std::string::npos);
  EXPECT_EQ(token_at(kDeadTransition, hits.front()->span), "a+/2");
  EXPECT_TRUE(deep.ok());  // dead code is a warning, not a refusal
}

// A one-way handshake that stops: after a+ then a- nothing is enabled.
constexpr std::string_view kDeadlock =
    ".model stops\n"
    ".outputs a\n"
    ".graph\n"
    "r a+\n"
    "a+ p\n"
    "p a-\n"
    "a- q\n"
    ".marking { r }\n"
    ".end\n";

TEST(SemanticRules, DeadlockWitnessIsTheFiringSequenceFromTheInitialState) {
  const FileLint lint = lint::lint_text(kDeadlock, "stops.g", deep_options());
  const std::vector<const Diagnostic*> hits = findings(lint, "STG104");
  ASSERT_EQ(hits.size(), 1u);
  const Diagnostic& d = *hits.front();
  EXPECT_EQ(d.severity, Severity::Warning);
  EXPECT_NE(d.message.find("deadlock"), std::string::npos);
  ASSERT_EQ(d.witnesses.size(), 1u);
  ASSERT_EQ(d.witnesses[0].steps.size(), 2u);
  EXPECT_EQ(d.witnesses[0].steps[0].transition, "a+");
  EXPECT_EQ(d.witnesses[0].steps[1].transition, "a-");
  EXPECT_EQ(token_at(kDeadlock, d.witnesses[0].steps[0].span), "a+");
  EXPECT_EQ(token_at(kDeadlock, d.witnesses[0].steps[1].span), "a-");
}

// a rises twice along one path (a+ then a+/2 with no a- between): the
// initial-code inference proves the state assignment inconsistent.
constexpr std::string_view kInconsistent =
    ".model incons\n"
    ".inputs a\n"
    ".outputs b\n"
    ".graph\n"
    "p0 a+\n"
    "a+ b+\n"
    "b+ a+/2\n"
    "a+/2 b-\n"
    "b- p0\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, InconsistentAssignmentAnchorsTheConflictingEdge) {
  const FileLint lint = lint::lint_text(kInconsistent, "incons.g", deep_options());
  const std::vector<const Diagnostic*> hits = findings(lint, "STG105");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front()->severity, Severity::Error);
  EXPECT_NE(hits.front()->message.find("inconsistent state assignment"),
            std::string::npos);
  EXPECT_EQ(token_at(kInconsistent, hits.front()->span), "a+/2");
}

// A clean two-phase handshake, deep-linted under an absurd state budget:
// the tier must give up loudly but *without* an error — the unfolding-based
// synthesis flow can still handle the spec, so refusal would be wrong.
constexpr std::string_view kTinyHandshake =
    ".model tiny\n"
    ".inputs r\n"
    ".outputs a\n"
    ".graph\n"
    "p0 r+\n"
    "r+ a+\n"
    "a+ r-\n"
    "r- a-\n"
    "a- p0\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, BlownStateBudgetIsAWarningNotARefusal) {
  LintOptions options = deep_options();
  options.deep_state_budget = 1;
  const FileLint lint = lint::lint_text(kTinyHandshake, "tiny.g", options);
  const std::vector<const Diagnostic*> hits = findings(lint, "STG106");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.front()->severity, Severity::Warning);
  EXPECT_NE(hits.front()->message.find("state budget"), std::string::npos);
  EXPECT_TRUE(lint.ok());

  // Same spec under the default budget: clean, and no STG106 chatter.
  const FileLint roomy = lint::lint_text(kTinyHandshake, "tiny.g", deep_options());
  EXPECT_TRUE(findings(roomy, "STG106").empty());
  EXPECT_EQ(roomy.errors, 0u);
}

// Signal z can never fire, so no initial value for it exists: the strict
// parse behind the semantic model fails, and the tier reports the model
// unavailable at error severity (default `punt synth` refuses this spec).
constexpr std::string_view kUnresolvable =
    ".model stuck\n"
    ".inputs z\n"
    ".outputs a\n"
    ".graph\n"
    "p0 a+\n"
    "a+ a-\n"
    "a- p0\n"
    "q z+\n"
    "z+ q\n"
    ".marking { p0 }\n"
    ".end\n";

TEST(SemanticRules, UnbuildableModelIsAnErrorFindingNotAThrow) {
  const FileLint lint = lint::lint_text(kUnresolvable, "stuck.g", deep_options());
  const std::vector<const Diagnostic*> hits = findings(lint, "STG106");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits.front()->severity, Severity::Error);
  EXPECT_NE(hits.front()->message.find("could not infer initial values"),
            std::string::npos);
  EXPECT_FALSE(lint.ok());
  // No verdict was reached, so the structural pre-screens must survive.
  EXPECT_FALSE(findings(lint, "STG004").empty());
}

// --- Admission fast path ------------------------------------------------------

TEST(SemanticFastPath, LintErrorsEqualsTheErrorSubsetOfAFullPass) {
  const std::string_view texts[] = {
      kNonPersistent, kUnsafe, kDeadTransition, kTinyHandshake,
      // A structural error (dangling transition) plus unrelated warnings.
      ".model broken\n.inputs a\n.outputs b\n.graph\np0 a+\na+ b+\n"
      ".marking { p0 }\n.end\n",
      // Unparseable garbage: parser errors must match too.
      ".model junk\n.graph\n<<nonsense\n",
  };
  for (const std::string_view text : texts) {
    const std::vector<Diagnostic> fast = lint::lint_errors(text);
    const FileLint full = lint::lint_text(text, "spec.g");
    std::vector<const Diagnostic*> slow;
    for (const Diagnostic& d : full.diagnostics) {
      if (d.severity == Severity::Error) slow.push_back(&d);
    }
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].rule, slow[i]->rule);
      EXPECT_EQ(fast[i].message, slow[i]->message);
      EXPECT_EQ(fast[i].span.line, slow[i]->span.line);
      EXPECT_EQ(fast[i].span.column, slow[i]->span.column);
    }
  }
}

// --- Wire protocol ------------------------------------------------------------

TEST(ProtocolLint, RoundTripPreservesEveryField) {
  server::Request request;
  request.op = server::Op::Lint;
  request.lint_files.push_back({"a.g", std::string(kTinyHandshake)});
  request.lint_files.push_back({"b.g", std::string(kNonPersistent)});
  request.lint_deep = true;
  request.lint_json = true;
  request.lint_werror = true;
  request.lint_werror_rules = {"STG006", "STG104"};

  const server::Request parsed = server::request_from_json(server::to_json(request));
  EXPECT_EQ(parsed.op, server::Op::Lint);
  ASSERT_EQ(parsed.lint_files.size(), 2u);
  EXPECT_EQ(parsed.lint_files[0].name, "a.g");
  EXPECT_EQ(parsed.lint_files[0].text, kTinyHandshake);
  EXPECT_EQ(parsed.lint_files[1].name, "b.g");
  EXPECT_EQ(parsed.lint_files[1].text, kNonPersistent);
  EXPECT_TRUE(parsed.lint_deep);
  EXPECT_TRUE(parsed.lint_json);
  EXPECT_TRUE(parsed.lint_werror);
  EXPECT_EQ(parsed.lint_werror_rules, request.lint_werror_rules);
}

TEST(ProtocolLint, MissingFilesArrayIsAProtocolError) {
  EXPECT_THROW(server::request_from_json("{\"op\": \"lint\"}"), Error);
  EXPECT_THROW(server::request_from_json("{\"op\": \"lint\", \"files\": \"x\"}"),
               Error);
}

TEST(ServeLint, ResponseBytesMatchTheDirectRendering) {
  server::Request request;
  request.op = server::Op::Lint;
  request.lint_files.push_back({"tiny.g", std::string(kTinyHandshake)});
  request.lint_files.push_back({"npersist.g", std::string(kNonPersistent)});
  request.lint_deep = true;
  request.lint_json = true;

  core::ModelCache cache;
  const server::Response response = server::run_lint(request, cache, nullptr);
  EXPECT_TRUE(response.ok);
  EXPECT_EQ(response.exit_code, 1);  // npersist has error-severity findings

  // The same inputs through lint_files, rendered with the same render_json.
  std::vector<FileInput> inputs = {{"tiny.g", std::string(kTinyHandshake)},
                                   {"npersist.g", std::string(kNonPersistent)}};
  core::ModelCache direct_cache;
  const std::string expected =
      lint::render_json(lint::lint_files(inputs, deep_options(&direct_cache)));
  EXPECT_EQ(response.output, expected);
  // The daemon appends the request's cache summary line, not the handler
  // (Server.ServedLintIsTheHandlersResponsePlusItsCacheDelta).
  EXPECT_EQ(response.log, "");
}

// --- Concurrency churn (matched by the TSan CI regex) --------------------------

TEST(DeepLintChurn, ParallelRoundsOverASharedCacheAreDeterministic) {
  std::vector<FileInput> inputs;
  const std::vector<benchmarks::Benchmark>& registry = benchmarks::table1();
  for (std::size_t i = 0; i < 8 && i < registry.size(); ++i) {
    inputs.push_back({registry[i].name + ".g", stg::write_g(registry[i].make())});
  }
  inputs.push_back({"npersist.g", std::string(kNonPersistent)});
  inputs.push_back({"stops.g", std::string(kDeadlock)});

  core::ModelCache cache;
  core::Executor executor(4);
  LintOptions options = deep_options(&cache);
  options.executor = &executor;

  const std::vector<FileLint> baseline = lint::lint_files(inputs, options);
  ASSERT_EQ(baseline.size(), inputs.size());
  const std::size_t cold_builds = cache.stats().builds;
  EXPECT_GT(cold_builds, 0u);
  EXPECT_LE(cold_builds, inputs.size());

  for (int round = 0; round < 2; ++round) {
    const std::vector<FileLint> warm = lint::lint_files(inputs, options);
    ASSERT_EQ(warm.size(), baseline.size());
    for (std::size_t i = 0; i < warm.size(); ++i) {
      // Identical findings at any job count, on any round.
      EXPECT_EQ(warm[i].errors, baseline[i].errors) << inputs[i].filename;
      EXPECT_EQ(warm[i].warnings, baseline[i].warnings) << inputs[i].filename;
      ASSERT_EQ(warm[i].diagnostics.size(), baseline[i].diagnostics.size())
          << inputs[i].filename;
      for (std::size_t j = 0; j < warm[i].diagnostics.size(); ++j) {
        EXPECT_EQ(warm[i].diagnostics[j].rule, baseline[i].diagnostics[j].rule);
        EXPECT_EQ(warm[i].diagnostics[j].message,
                  baseline[i].diagnostics[j].message);
      }
      EXPECT_FALSE(warm[i].model_built) << inputs[i].filename;
    }
  }
  // Warm rounds resolve every model from the resident tier: zero rebuilds.
  EXPECT_EQ(cache.stats().builds, cold_builds);
}

}  // namespace
}  // namespace punt
