#include "src/stg/g_format.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "src/util/error.hpp"
#include "src/util/strings.hpp"

namespace punt::stg {
namespace {

using util::Severity;
using util::SourceSpan;

/// Parser diagnostics carry the syntax rule id; duplicated constructs (a
/// signal declared twice, a duplicate arc) carry the duplicate-directive id
/// so `punt lint` groups them with the other STG001 findings.
constexpr const char* kSyntaxRule = "STG000";
constexpr const char* kDuplicateRule = "STG001";

/// A transition token decomposed into signal name, polarity and occurrence.
struct TransitionToken {
  std::string signal;
  std::optional<Polarity> polarity;  // nullopt for dummy tokens
  std::size_t occurrence = 1;
};

/// Splits "sig+/2" into its parts; returns nullopt when the token carries no
/// polarity sign (it is then either a dummy transition or a place name).
/// A malformed occurrence suffix sets `error` (same message the fail-fast
/// parser used to throw) and reads as a place.
std::optional<TransitionToken> parse_transition_token(std::string_view token,
                                                      std::string* error) {
  std::string_view body = token;
  std::size_t occurrence = 1;
  if (const std::size_t slash = body.rfind('/'); slash != std::string_view::npos) {
    const std::string_view suffix = body.substr(slash + 1);
    if (suffix.empty()) {
      if (error != nullptr) {
        *error = "empty occurrence suffix in '" + std::string(token) + "'";
      }
      return std::nullopt;
    }
    occurrence = 0;
    for (const char c : suffix) {
      if (c < '0' || c > '9') return std::nullopt;  // e.g. a name containing '/'
      occurrence = occurrence * 10 + static_cast<std::size_t>(c - '0');
    }
    if (occurrence == 0) {
      if (error != nullptr) {
        *error = "occurrence suffix 0 in '" + std::string(token) + "'";
      }
      return std::nullopt;
    }
    body = body.substr(0, slash);
  }
  if (body.empty()) return std::nullopt;
  TransitionToken out;
  out.occurrence = occurrence;
  const char last = body.back();
  if (last == '+' || last == '-') {
    out.polarity = last == '+' ? Polarity::Rise : Polarity::Fall;
    body.remove_suffix(1);
    if (body.empty()) return std::nullopt;
  }
  out.signal = std::string(body);
  return out;
}

/// Canonical token spelling used as map key ("a+", "a+/2", "dum/3").
std::string canonical_token(const TransitionToken& t) {
  std::string out = t.signal;
  if (t.polarity) out += *t.polarity == Polarity::Rise ? '+' : '-';
  if (t.occurrence > 1) out += "/" + std::to_string(t.occurrence);
  return out;
}

/// One whitespace-delimited token of a logical line, with the physical
/// source position it started at (continuation lines resolve to their own
/// physical line/column).
struct Token {
  std::string text;
  SourceSpan span;
};

/// A logical line: physical lines joined over trailing-backslash
/// continuations, comment-stripped and tokenized, with per-token provenance.
struct LogicalLine {
  std::vector<Token> tokens;
  std::string trimmed;  // comment-stripped, trimmed text (for diagnostics)
};

/// Splits `text` into provenance-carrying logical lines.  Mirrors
/// util::logical_lines exactly (trailing '\\' joins, '\r' stripped, '#'
/// comments stripped from the *joined* text), with each token mapped back to
/// the physical line/column it began at.
std::vector<LogicalLine> lex_lines(std::string_view text) {
  struct Segment {
    std::uint32_t line = 0;     // 1-based physical line
    std::size_t begin = 0;      // offset of the segment in the joined text
    std::size_t length = 0;
  };
  std::vector<LogicalLine> out;
  std::string joined;
  std::vector<Segment> segments;
  std::uint32_t line_no = 0;
  std::size_t pos = 0;

  auto flush = [&] {
    LogicalLine logical;
    // Comments strip from the joined text, exactly like the pre-provenance
    // parser (a '#' on the first physical line of a continuation comments
    // out the continuation too).
    std::string_view effective = joined;
    if (const std::size_t hash = effective.find('#'); hash != std::string_view::npos) {
      effective = effective.substr(0, hash);
    }
    logical.trimmed = std::string(trim(effective));
    // Tokenize, mapping each token's start offset through the segment table.
    std::size_t i = 0;
    while (i < effective.size()) {
      while (i < effective.size() && (effective[i] == ' ' || effective[i] == '\t')) ++i;
      std::size_t j = i;
      while (j < effective.size() && effective[j] != ' ' && effective[j] != '\t') ++j;
      if (j > i) {
        Token token;
        token.text = std::string(effective.substr(i, j - i));
        for (const Segment& seg : segments) {
          if (i >= seg.begin && i < seg.begin + std::max<std::size_t>(seg.length, 1)) {
            token.span.line = seg.line;
            token.span.column = static_cast<std::uint32_t>(i - seg.begin + 1);
            // Clamp the caret run to the segment so a token broken across a
            // continuation doesn't underline into the next physical line.
            token.span.length = static_cast<std::uint32_t>(
                std::min(j, seg.begin + seg.length) - i);
            break;
          }
        }
        logical.tokens.push_back(std::move(token));
      }
      i = j;
    }
    if (!logical.tokens.empty() || !logical.trimmed.empty()) out.push_back(std::move(logical));
    joined.clear();
    segments.clear();
  };

  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string_view line =
        nl == std::string_view::npos ? text.substr(pos) : text.substr(pos, nl - pos);
    ++line_no;
    while (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const bool continued = !line.empty() && line.back() == '\\';
    if (continued) line.remove_suffix(1);
    segments.push_back(Segment{line_no, joined.size(), line.size()});
    joined += line;
    if (!continued) flush();
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  if (!joined.empty()) flush();  // dangling continuation at EOF
  return out;
}

/// Accumulates a non-negative integer with an overflow cap; returns nullopt
/// on non-digits or overflow (the pre-provenance parser crashed through
/// std::stoul on these).
std::optional<std::uint32_t> parse_count(std::string_view digits) {
  if (digits.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : digits) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
    if (value > 1'000'000'000) return std::nullopt;
  }
  return static_cast<std::uint32_t>(value);
}

}  // namespace

util::SourceSpan ParsedG::transition_span(const std::string& name) const {
  const auto it = transition_spans.find(name);
  return it != transition_spans.end() ? it->second : util::SourceSpan{};
}

util::SourceSpan ParsedG::place_span(const std::string& name) const {
  const auto it = place_spans.find(name);
  return it != place_spans.end() ? it->second : util::SourceSpan{};
}

util::SourceSpan ParsedG::signal_span(const std::string& name) const {
  const auto it = signal_spans.find(name);
  return it != signal_spans.end() ? it->second : util::SourceSpan{};
}

Code infer_initial_code(const Stg& stg, std::size_t state_budget) {
  const pn::PetriNet& net = stg.net();
  const std::size_t n = stg.signal_count();
  Code initial(n, 0);
  std::vector<std::uint8_t> resolved(n, 0);
  std::size_t unresolved = 0;
  for (std::size_t s = 0; s < n; ++s) {
    const SignalId sig(static_cast<std::uint32_t>(s));
    if (stg.signal_kind(sig) == SignalKind::Dummy || stg.instances_of(sig).empty()) {
      resolved[s] = 1;  // constants and dummies default to 0
    } else {
      ++unresolved;
    }
  }
  if (unresolved == 0) return initial;

  // Parity of signal toggles along the path to each visited marking.  For a
  // consistent STG the parity is path-independent, so storing one parity per
  // marking is sound; an actual inconsistency surfaces as a parity conflict.
  struct State {
    pn::Marking marking;
    std::vector<std::uint8_t> parity;
  };
  std::unordered_map<std::size_t, std::vector<std::size_t>> seen;  // hash -> state ids
  std::vector<State> states;
  std::deque<std::size_t> queue;

  auto intern = [&](pn::Marking m, std::vector<std::uint8_t> parity) {
    const std::size_t h = m.hash();
    for (const std::size_t id : seen[h]) {
      if (states[id].marking == m) {
        if (states[id].parity != parity) {
          throw ImplementabilityError(
              "inconsistent state assignment detected while inferring the "
              "initial code: a marking is reachable with two different signal "
              "parities");
        }
        return;
      }
    }
    seen[h].push_back(states.size());
    queue.push_back(states.size());
    states.push_back(State{std::move(m), std::move(parity)});
  };

  intern(net.initial_marking(), std::vector<std::uint8_t>(n, 0));
  while (!queue.empty() && unresolved > 0) {
    if (states.size() > state_budget) {
      throw CapacityError(
          "initial-code inference exceeded the state budget (" +
          std::to_string(state_budget) +
          " markings); add an explicit .init_values line to the .g source");
    }
    const std::size_t id = queue.front();
    queue.pop_front();
    const pn::Marking marking = states[id].marking;           // copy: states may grow
    const std::vector<std::uint8_t> parity = states[id].parity;
    for (const pn::TransitionId t : net.enabled_transitions(marking)) {
      const Label& label = stg.label(t);
      std::vector<std::uint8_t> next_parity = parity;
      if (!label.dummy) {
        const std::size_t s = label.signal.index();
        // value(marking) = initial ^ parity; firing a+ needs value 0, a- needs 1.
        const std::uint8_t implied_initial =
            label.rising() ? parity[s] : static_cast<std::uint8_t>(1 - parity[s]);
        if (!resolved[s]) {
          initial[s] = implied_initial;
          resolved[s] = 1;
          --unresolved;
        } else if (initial[s] != implied_initial) {
          throw ImplementabilityError(
              "inconsistent state assignment: transition '" + stg.transition_name(t) +
              "' implies initial value " + std::to_string(int(implied_initial)) +
              " for signal '" + stg.signal_name(label.signal) +
              "' but an earlier edge implied " + std::to_string(int(initial[s])));
        }
        next_parity[s] ^= 1;
      }
      intern(net.fire(marking, t), std::move(next_parity));
    }
  }
  if (unresolved > 0) {
    std::string names;
    for (std::size_t s = 0; s < n; ++s) {
      if (!resolved[s]) names += (names.empty() ? "" : ", ") +
                                 stg.signal_name(SignalId(static_cast<std::uint32_t>(s)));
    }
    throw ImplementabilityError(
        "could not infer initial values for signal(s) " + names +
        ": none of their transitions is reachable from the initial marking");
  }
  return initial;
}

ParsedG parse_g_collect(std::string_view text, util::DiagnosticSink& sink,
                        const ParseOptions& options) {
  (void)options;  // inference (the only option consumer) runs in parse_g()
  ParsedG parsed;
  Stg& stg = parsed.stg;
  std::map<std::string, SignalKind> declared;  // signal name -> kind
  std::vector<std::vector<Token>> graph_lines;
  std::vector<Token> marking_tokens;
  bool in_graph = false;

  auto declare = [&](const Token& token, SignalKind kind) {
    if (declared.contains(token.text)) {
      sink.report(kDuplicateRule, Severity::Error, token.span,
                  "signal '" + token.text + "' declared twice",
                  "remove the duplicate declaration (the first one wins)");
      return;
    }
    declared.emplace(token.text, kind);
    stg.add_signal(token.text, kind);
    parsed.signal_spans.emplace(token.text, token.span);
  };

  for (const LogicalLine& line : lex_lines(text)) {
    if (line.tokens.empty()) continue;
    const Token& head = line.tokens.front();

    if (head.text.front() == '.') {
      in_graph = false;
      const std::string& directive = head.text;
      if (directive == ".model" || directive == ".name") {
        if (line.tokens.size() >= 2) stg.set_name(line.tokens[1].text);
        parsed.model_spans.push_back(head.span);
      } else if (directive == ".inputs") {
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          declare(line.tokens[i], SignalKind::Input);
        }
      } else if (directive == ".outputs") {
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          declare(line.tokens[i], SignalKind::Output);
        }
      } else if (directive == ".internal") {
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          declare(line.tokens[i], SignalKind::Internal);
        }
      } else if (directive == ".dummy") {
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          declare(line.tokens[i], SignalKind::Dummy);
        }
      } else if (directive == ".graph") {
        in_graph = true;
      } else if (directive == ".marking") {
        parsed.marking_spans.push_back(head.span);
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          // Braces are decoration: "{p0}", "{", "p0}" all reduce to names.
          Token token = line.tokens[i];
          std::erase(token.text, '{');
          std::erase(token.text, '}');
          if (!token.text.empty()) marking_tokens.push_back(std::move(token));
        }
      } else if (directive == ".init_values") {
        parsed.has_init_values = true;
        for (std::size_t i = 1; i < line.tokens.size(); ++i) {
          const Token& word = line.tokens[i];
          const std::size_t eq = word.text.find('=');
          if (eq == std::string::npos) {
            sink.report(kSyntaxRule, Severity::Error, word.span,
                        ".init_values entries must look like name=0|1, got '" +
                            word.text + "'");
            continue;
          }
          const std::string name = word.text.substr(0, eq);
          const std::string value = word.text.substr(eq + 1);
          if (value != "0" && value != "1") {
            sink.report(kSyntaxRule, Severity::Error, word.span,
                        "initial value of '" + name + "' must be 0 or 1");
            continue;
          }
          parsed.init_value_entries.push_back(ParsedG::InitValueEntry{
              name, static_cast<std::uint8_t>(value == "1"), word.span});
        }
      } else if (directive == ".end") {
        parsed.saw_end = true;
        break;
      } else if (directive == ".capacity" || directive == ".coords" ||
                 directive == ".slowenv" || directive == ".level") {
        // Accepted and ignored: these carry tool-specific hints that do not
        // affect the synthesis semantics.
      } else {
        sink.report(kSyntaxRule, Severity::Error, head.span,
                    "unknown directive '" + directive + "'");
      }
      continue;
    }

    if (!in_graph) {
      sink.report(kSyntaxRule, Severity::Error, head.span,
                  "unexpected line outside .graph section: '" + line.trimmed + "'",
                  "graph adjacency lines must follow a .graph directive");
      continue;
    }
    graph_lines.push_back(line.tokens);
  }
  if (!parsed.saw_end) {
    sink.report(kSyntaxRule, Severity::Error, SourceSpan{},
                "missing .end directive");
  }
  if (graph_lines.empty()) {
    sink.report(kSyntaxRule, Severity::Error, SourceSpan{}, "empty .graph section");
  } else {
    parsed.usable = true;
  }

  // Pass 1: find every transition token so instances can be created with
  // their canonical names ("a+" before "a+/2").
  struct InstanceKey {
    std::string signal;
    int polarity;  // 0 rise, 1 fall, 2 dummy
    bool operator<(const InstanceKey& o) const {
      return std::tie(signal, polarity) < std::tie(o.signal, o.polarity);
    }
  };
  std::map<InstanceKey, std::set<std::size_t>> occurrences;
  std::map<std::string, SourceSpan> token_sites;  // canonical spelling -> first site
  auto classify = [&](const Token& token) -> std::optional<TransitionToken> {
    std::string error;
    std::optional<TransitionToken> result = parse_transition_token(token.text, &error);
    if (!error.empty()) {
      sink.report(kSyntaxRule, Severity::Error, token.span, error);
      return std::nullopt;
    }
    if (!result) return std::nullopt;
    const auto it = declared.find(result->signal);
    if (it == declared.end()) return std::nullopt;  // an undeclared name is a place
    if (result->polarity && it->second == SignalKind::Dummy) {
      sink.report(kSyntaxRule, Severity::Error, token.span,
                  "dummy signal '" + result->signal + "' used with a polarity sign",
                  "dummy transitions are written without +/-");
      return std::nullopt;
    }
    if (!result->polarity && it->second != SignalKind::Dummy) {
      sink.report(kSyntaxRule, Severity::Error, token.span,
                  "signal '" + result->signal +
                      "' used as a transition without +/- (only dummies may be)",
                  "write '" + result->signal + "+' or '" + result->signal + "-'");
      return std::nullopt;
    }
    return result;
  };
  for (const auto& words : graph_lines) {
    for (const Token& token : words) {
      if (const auto result = classify(token)) {
        const int pol = result->polarity ? (*result->polarity == Polarity::Rise ? 0 : 1) : 2;
        occurrences[InstanceKey{result->signal, pol}].insert(result->occurrence);
        token_sites.emplace(canonical_token(*result), token.span);
      }
    }
  }
  std::unordered_map<std::string, pn::TransitionId> transition_by_name;
  for (const auto& [key, occs] : occurrences) {
    std::size_t expected = 1;
    bool gap_reported = false;
    for (const std::size_t occ : occs) {
      if (occ != expected && !gap_reported) {
        TransitionToken probe;
        probe.signal = key.signal;
        if (key.polarity != 2) {
          probe.polarity = key.polarity == 0 ? Polarity::Rise : Polarity::Fall;
        }
        probe.occurrence = occ;
        sink.report(kSyntaxRule, Severity::Error,
                    token_sites.contains(canonical_token(probe))
                        ? token_sites[canonical_token(probe)]
                        : SourceSpan{},
                    "occurrences of transition '" + key.signal +
                        "' are not contiguous: missing /" + std::to_string(expected),
                    "renumber the /k suffixes to run 1, 2, 3, ...");
        gap_reported = true;
      }
      ++expected;
      const SignalId sig = *stg.find_signal(key.signal);
      const pn::TransitionId t =
          key.polarity == 2
              ? stg.add_dummy_transition(sig)
              : stg.add_transition(sig, key.polarity == 0 ? Polarity::Rise : Polarity::Fall);
      TransitionToken tok;
      tok.signal = key.signal;
      if (key.polarity != 2) tok.polarity = key.polarity == 0 ? Polarity::Rise : Polarity::Fall;
      tok.occurrence = occ;
      const std::string written = canonical_token(tok);
      transition_by_name.emplace(written, t);
      const auto site = token_sites.find(written);
      parsed.transition_spans.emplace(stg.transition_name(t),
                                      site != token_sites.end() ? site->second
                                                                : SourceSpan{});
    }
  }

  // Pass 2: create places and arcs.
  std::unordered_map<std::string, pn::PlaceId> place_by_name;
  auto get_place = [&](const Token& token) {
    const auto it = place_by_name.find(token.text);
    if (it != place_by_name.end()) return it->second;
    const pn::PlaceId p = stg.net().add_place(token.text);
    place_by_name.emplace(token.text, p);
    parsed.place_spans.emplace(token.text, token.span);
    return p;
  };
  auto lookup_transition = [&](const std::string& token) -> std::optional<pn::TransitionId> {
    const auto it = transition_by_name.find(token);
    if (it == transition_by_name.end()) return std::nullopt;
    return it->second;
  };
  auto arc_t_to_p = [&](pn::TransitionId t, pn::PlaceId p, const SourceSpan& span) {
    const auto& post = stg.net().post(t);
    if (std::find(post.begin(), post.end(), p) != post.end()) {
      sink.report(kDuplicateRule, Severity::Error, span,
                  "duplicate arc " + stg.net().transition_name(t) + " -> " +
                      stg.net().place_name(p),
                  "remove the repeated adjacency");
      return;
    }
    stg.net().add_arc(t, p);
  };
  auto arc_p_to_t = [&](pn::PlaceId p, pn::TransitionId t, const SourceSpan& span) {
    const auto& pre = stg.net().pre(t);
    if (std::find(pre.begin(), pre.end(), p) != pre.end()) {
      sink.report(kDuplicateRule, Severity::Error, span,
                  "duplicate arc " + stg.net().place_name(p) + " -> " +
                      stg.net().transition_name(t),
                  "remove the repeated adjacency");
      return;
    }
    stg.net().add_arc(p, t);
  };
  for (const auto& words : graph_lines) {
    if (words.size() < 2) {
      sink.report(kSyntaxRule, Severity::Error, words.front().span,
                  "a .graph line needs a source and at least one target");
      continue;
    }
    const std::optional<pn::TransitionId> src_t = lookup_transition(words.front().text);
    for (std::size_t i = 1; i < words.size(); ++i) {
      const std::optional<pn::TransitionId> dst_t = lookup_transition(words[i].text);
      if (src_t && dst_t) {
        Token implicit = words[i];
        implicit.text = "<" + words.front().text + "," + words[i].text + ">";
        const pn::PlaceId p = get_place(implicit);
        arc_t_to_p(*src_t, p, words[i].span);
        arc_p_to_t(p, *dst_t, words[i].span);
      } else if (src_t && !dst_t) {
        arc_t_to_p(*src_t, get_place(words[i]), words[i].span);
      } else if (!src_t && dst_t) {
        arc_p_to_t(get_place(words.front()), *dst_t, words[i].span);
      } else {
        sink.report(kSyntaxRule, Severity::Error, words[i].span,
                    "arc between two places: '" + words.front().text + "' -> '" +
                        words[i].text + "'",
                    "at least one endpoint of every arc must be a transition");
      }
    }
  }

  // Initial marking.  Tokens: "p", "p=2", "<a+,b->", "<a+,b->=2".
  for (const Token& token : marking_tokens) {
    std::string name = token.text;
    std::uint32_t count = 1;
    std::size_t eq = std::string::npos;
    if (const std::size_t last_eq = token.text.rfind('='); last_eq != std::string::npos) {
      if (token.text.find('>') < last_eq ||
          token.text.find('<') == std::string::npos) {
        eq = last_eq;
      }
    }
    if (eq != std::string::npos) {
      name = token.text.substr(0, eq);
      const auto parsed_count = parse_count(token.text.substr(eq + 1));
      if (!parsed_count) {
        // The pre-provenance parser crashed through std::stoul here.
        sink.report(kSyntaxRule, Severity::Error, token.span,
                    "invalid token count in marking token '" + token.text + "'",
                    "write '" + name + "' or '" + name + "=<count>'");
        continue;
      }
      count = *parsed_count;
    }
    const auto it = place_by_name.find(name);
    if (it == place_by_name.end()) {
      sink.report(kSyntaxRule, Severity::Error, token.span,
                  "marked place '" + name + "' does not appear in .graph",
                  "every marked place must occur on a .graph adjacency line");
      continue;
    }
    parsed.marking_entries.emplace_back(name, token.span);
    stg.net().set_initial_tokens(it->second, count);
  }

  // Explicit initial values apply here (last entry wins, matching the
  // pre-provenance parser); inference for the implicit case is parse_g()'s
  // job — the lint path deliberately never explores the state space.
  for (const ParsedG::InitValueEntry& entry : parsed.init_value_entries) {
    const auto sig = stg.find_signal(entry.name);
    if (!sig) {
      sink.report(kSyntaxRule, Severity::Error, entry.span,
                  ".init_values mentions unknown signal '" + entry.name + "'",
                  "declare the signal or drop the entry");
      continue;
    }
    stg.set_initial_value(*sig, entry.value);
  }
  return parsed;
}

Stg finish_parse(ParsedG parsed, const util::DiagnosticSink& sink,
                 const ParseOptions& options) {
  // First-error-throw semantics: the first Error-severity diagnostic in
  // discovery order is exactly what the fail-fast parser used to throw.
  sink.throw_first_error();
  parsed.stg.validate();
  if (!parsed.has_init_values) {
    const Code inferred = infer_initial_code(parsed.stg, options.inference_state_budget);
    for (std::size_t s = 0; s < inferred.size(); ++s) {
      parsed.stg.set_initial_value(SignalId(static_cast<std::uint32_t>(s)), inferred[s]);
    }
  }
  return std::move(parsed.stg);
}

Stg parse_g(std::string_view text, const ParseOptions& options) {
  util::DiagnosticSink sink;
  return finish_parse(parse_g_collect(text, sink, options), sink, options);
}

std::string write_g(const Stg& stg) {
  const pn::PetriNet& net = stg.net();
  std::string out = ".model " + stg.name() + "\n";
  auto emit_signals = [&](SignalKind kind, const char* directive) {
    std::string line;
    for (std::size_t s = 0; s < stg.signal_count(); ++s) {
      const SignalId sig(static_cast<std::uint32_t>(s));
      if (stg.signal_kind(sig) == kind) line += " " + stg.signal_name(sig);
    }
    if (!line.empty()) out += directive + line + "\n";
  };
  emit_signals(SignalKind::Input, ".inputs");
  emit_signals(SignalKind::Output, ".outputs");
  emit_signals(SignalKind::Internal, ".internal");
  emit_signals(SignalKind::Dummy, ".dummy");

  out += ".graph\n";
  // Every arc is written through its place; implicit "<x,y>" names from a
  // previous parse are preserved verbatim, so round-trips are stable.
  for (std::size_t i = 0; i < net.transition_count(); ++i) {
    const pn::TransitionId t(static_cast<std::uint32_t>(i));
    std::string line = net.transition_name(t);
    for (const pn::PlaceId p : net.post(t)) line += " " + net.place_name(p);
    out += line + "\n";
  }
  for (std::size_t i = 0; i < net.place_count(); ++i) {
    const pn::PlaceId p(static_cast<std::uint32_t>(i));
    if (net.post(p).empty()) continue;
    std::string line = net.place_name(p);
    for (const pn::TransitionId t : net.post(p)) line += " " + net.transition_name(t);
    out += line + "\n";
  }

  out += ".marking {";
  for (const pn::PlaceId p : net.initial_marking().marked_places()) {
    out += " " + net.place_name(p);
    if (net.initial_marking().tokens(p) > 1) {
      out += "=" + std::to_string(net.initial_marking().tokens(p));
    }
  }
  out += " }\n";

  out += ".init_values";
  for (std::size_t s = 0; s < stg.signal_count(); ++s) {
    const SignalId sig(static_cast<std::uint32_t>(s));
    if (stg.signal_kind(sig) == SignalKind::Dummy) continue;
    out += " " + stg.signal_name(sig) + "=" + (stg.initial_value(sig) ? "1" : "0");
  }
  out += "\n.end\n";
  return out;
}

}  // namespace punt::stg
