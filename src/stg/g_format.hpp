// Reader / writer for the astg `.g` interchange format used by SIS and
// petrify (and by the paper's benchmark suite).
//
// Supported directives: .model, .inputs, .outputs, .internal, .dummy,
// .graph, .marking, .end, plus the punt extension .init_values that pins the
// initial binary state explicitly.  When .init_values is absent the initial
// code is inferred by exploring the reachability graph until the first edge
// of every signal has been seen (the standard trick: if a+ fires first, a
// started at 0), with a configurable state budget.
//
// `.graph` lines are adjacency lists "src dst1 dst2 ..." where each node is
// a place name or a transition token ("a+", "b-/2", dummy name).  An arc
// between two transitions introduces an implicit place named "<src,dst>".
//
// Two entry points share one implementation:
//
//  - parse_g_collect() is the provenance-tracking, diagnostic-collecting
//    parser behind `punt lint`: every problem becomes a util::Diagnostic
//    with a 1-based line/column span (continuation lines resolve to their
//    physical position) and parsing continues past it, so a broken spec
//    yields *all* of its parse defects plus whatever Stg structure could
//    still be built for the structural rules to inspect.
//  - parse_g() is the strict front door the synthesis pipeline uses: it runs
//    the same collecting parse, then finish_parse() drains the sink by
//    throwing the first error (ParseError, same message the fail-fast parser
//    produced), validates and resolves the initial code — so strict and
//    lenient callers can never disagree about what a `.g` file means.
//    Serve admission lints a collecting parse and then finishes that same
//    parse, so a served request is parsed once.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/stg/stg.hpp"
#include "src/util/diagnostics.hpp"

namespace punt::stg {

struct ParseOptions {
  /// Cap on the number of markings visited while inferring the initial
  /// binary code (only used when the file lacks .init_values).
  std::size_t inference_state_budget = 500000;
};

/// The result of a collecting parse: the (possibly partial) Stg plus the
/// source provenance the lint rules anchor their diagnostics to.
struct ParsedG {
  Stg stg;

  /// True when a .graph section with at least one line was read — the gate
  /// for running structural lint rules.  Individual arcs or tokens may
  /// still have been dropped (each drop reported to the sink).
  bool usable = false;

  bool has_init_values = false;
  bool saw_end = false;

  /// Declaration site per signal name (the token inside .inputs/...).
  std::map<std::string, util::SourceSpan> signal_spans;
  /// First-use site per canonical transition name ("a+", "b-/2", "dum").
  std::map<std::string, util::SourceSpan> transition_spans;
  /// First-use site per place name (implicit "<a+,b->" places anchor at the
  /// source token of the arc that introduced them).
  std::map<std::string, util::SourceSpan> place_spans;

  /// Every .model/.name directive, in order (duplicates are a lint finding).
  std::vector<util::SourceSpan> model_spans;
  /// Every .marking directive, in order.
  std::vector<util::SourceSpan> marking_spans;
  /// Every resolved `.marking` token (place name, site), duplicates kept.
  std::vector<std::pair<std::string, util::SourceSpan>> marking_entries;
  /// Every `.init_values` entry as written: name, value, site.
  struct InitValueEntry {
    std::string name;
    std::uint8_t value = 0;
    util::SourceSpan span;
  };
  std::vector<InitValueEntry> init_value_entries;

  /// Span for a transition/place/signal by name; unknown names get a
  /// zeroed (fileless) span so lookups never fail.
  util::SourceSpan transition_span(const std::string& name) const;
  util::SourceSpan place_span(const std::string& name) const;
  util::SourceSpan signal_span(const std::string& name) const;
};

/// Parses `.g` text, reporting every problem to `sink` (rule STG000 for
/// syntax, STG001 for duplicate/contradictory constructs) instead of
/// throwing, and returns the Stg it could build plus provenance.  The
/// returned Stg is NOT validated and its initial code is all-zero unless the
/// text carries .init_values — callers that need a synthesis-ready Stg use
/// parse_g().  Never throws on any input.
ParsedG parse_g_collect(std::string_view text, util::DiagnosticSink& sink,
                        const ParseOptions& options = {});

/// The strict second half of parse_g(): throws the first Error-severity
/// finding in `sink` (ParseError), validates the Stg and infers its initial
/// code unless the text carried .init_values.  `parsed` and `sink` come from
/// one parse_g_collect() call; findings other callers added to `sink` after
/// it (lint rules) count too.
Stg finish_parse(ParsedG parsed, const util::DiagnosticSink& sink,
                 const ParseOptions& options = {});

/// Parses `.g` text into an Stg: parse_g_collect() then finish_parse().
/// Throws ParseError on malformed input and ImplementabilityError when
/// initial-code inference finds an inconsistency.
Stg parse_g(std::string_view text, const ParseOptions& options = {});

/// Serialises an Stg to `.g` text (including .init_values, so round-trips
/// never need inference).
std::string write_g(const Stg& stg);

/// Infers the initial binary code of a parsed STG whose initial values are
/// unknown, by bounded reachability exploration.  Exposed for testing.
Code infer_initial_code(const Stg& stg, std::size_t state_budget);

}  // namespace punt::stg
