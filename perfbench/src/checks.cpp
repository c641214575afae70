#include "checks.hpp"

#include <cstdint>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sg/state_graph.hpp"

namespace perfbench {
namespace {

using punt::core::SignalImplementation;
using punt::core::SynthesisResult;
using punt::stg::SignalId;
using punt::stg::Stg;

/// The pipe a signal name belongs to and its stage: "a12" -> ("a", 12).
std::optional<std::pair<std::string, std::size_t>> stage_of(const std::string& name) {
  std::size_t digits = name.size();
  while (digits > 0 && name[digits - 1] >= '0' && name[digits - 1] <= '9') --digits;
  if (digits == 0 || digits == name.size()) return std::nullopt;
  return std::make_pair(name.substr(0, digits), std::stoul(name.substr(digits)));
}

/// The output stages of each pipe, as {pipe, last stage index}.
std::vector<std::pair<std::string, std::size_t>> pipes_of(const Stg& stg) {
  std::vector<std::pair<std::string, std::size_t>> pipes;
  for (const SignalId s : stg.real_signals()) {
    const auto stage = stage_of(stg.signal_name(s));
    if (!stage) continue;
    bool known = false;
    for (auto& [pipe, last] : pipes) {
      if (pipe == stage->first) {
        known = true;
        if (stage->second > last) last = stage->second;
      }
    }
    if (!known) pipes.push_back(*stage);
  }
  return pipes;
}

bool gate_value(const SignalImplementation& impl, const std::vector<std::uint8_t>& code) {
  const bool covered = impl.gate.covers_point(code);
  return impl.gate_covers_on ? covered : !covered;
}

}  // namespace

std::optional<std::string> check_conformance(const Stg& stg, const SynthesisResult& result) {
  const punt::sg::StateGraph sgraph = punt::sg::StateGraph::build(stg);
  const punt::net::Netlist netlist = punt::net::Netlist::from_synthesis(stg, result);
  const auto violations = punt::net::verify_conformance(sgraph, netlist);
  if (violations.empty()) return std::nullopt;
  return stg.signal_name(violations.front().signal) +
         " violates conformance: " + violations.front().detail;
}

bool is_pipeline(const Stg& stg) {
  return stg.name().starts_with("muller") || stg.name().starts_with("counterflow");
}

std::optional<std::string> check_pipeline(const Stg& stg, const SynthesisResult& result) {
  if (result.architecture != punt::core::Architecture::ComplexGate) {
    return "the closed form is stated for complex gates";
  }
  const std::size_t n = stg.signal_count();
  for (const auto& [pipe, last] : pipes_of(stg)) {
    const auto id = [&, &pipe = pipe](std::size_t stage) {
      const auto s = stg.find_signal(pipe + std::to_string(stage));
      return s ? s->index() : n;
    };
    for (std::size_t i = 1; i <= last; ++i) {
      const std::string where = "stage " + pipe + std::to_string(i);
      const std::size_t prev = id(i - 1), self = id(i), next = i < last ? id(i + 1) : n;
      if (prev == n || self == n) return where + ": missing signal";
      const SignalImplementation& impl = result.implementation(SignalId(self));
      for (const auto& cube : impl.gate.cubes()) {
        for (std::size_t v = 0; v < n; ++v) {
          if (v != prev && v != self && v != next && cube.get(v) != punt::logic::Lit::DC) {
            return where + ": gate depends on " + stg.signal_name(SignalId(v));
          }
        }
      }
      const std::size_t want_literals = i < last ? 6 : 1;
      if (impl.gate.literal_count() != want_literals) {
        return where + ": " + std::to_string(impl.gate.literal_count()) + " literals, want " +
               std::to_string(want_literals);
      }
      std::vector<std::uint8_t> code(n, 0);
      for (unsigned bits = 0; bits < 8; ++bits) {
        const bool a = bits & 1, self_value = bits & 2, b = bits & 4;
        code[prev] = a;
        code[self] = self_value;
        if (next != n) code[next] = b;
        const bool want = next != n ? (a && self_value) || (self_value && !b) || (a && !b) : a;
        if (gate_value(impl, code) != want) return where + ": gate is not the closed form";
      }
    }
  }
  return std::nullopt;
}

std::size_t pipeline_literals(const Stg& stg) {
  std::size_t literals = 0;
  for (const auto& [pipe, last] : pipes_of(stg)) literals += 6 * (last - 1) + 1;
  return literals;
}

bool same_logic(const SynthesisResult& a, const SynthesisResult& b) {
  if (a.signals.size() != b.signals.size()) return false;
  for (std::size_t i = 0; i < a.signals.size(); ++i) {
    if (!a.signals[i].same_logic(b.signals[i])) return false;
  }
  return true;
}

ExactCounts& ExactCounts::operator+=(const ExactCounts& other) {
  literals += other.literals;
  events += other.events;
  states += other.states;
  refine_iterations += other.refine_iterations;
  exact_fallbacks += other.exact_fallbacks;
  espresso_calls += other.espresso_calls;
  cubes_in += other.cubes_in;
  cubes_out += other.cubes_out;
  espresso_iterations += other.espresso_iterations;
  return *this;
}

std::string ExactCounts::describe() const {
  return "literals=" + std::to_string(literals) + " events=" + std::to_string(events) +
         " states=" + std::to_string(states) +
         " refine_iterations=" + std::to_string(refine_iterations) +
         " exact_fallbacks=" + std::to_string(exact_fallbacks) +
         " espresso_calls=" + std::to_string(espresso_calls) +
         " cubes_in=" + std::to_string(cubes_in) + " cubes_out=" + std::to_string(cubes_out) +
         " espresso_iterations=" + std::to_string(espresso_iterations);
}

ExactCounts counts_of(const SynthesisResult& result, bool minimize) {
  ExactCounts counts;
  counts.literals = result.literal_count();
  counts.events = result.unfold_stats.events;
  counts.states = result.sg_states;
  counts.refine_iterations = result.refinement_iterations;
  counts.exact_fallbacks = result.exact_fallbacks;
  for (const SignalImplementation& impl : result.signals) {
    if (minimize && !impl.csc_conflict) counts.espresso_calls += 2;
    counts.cubes_in += impl.min_stats.initial_cubes;
    counts.cubes_out += impl.min_stats.final_cubes;
    counts.espresso_iterations += impl.min_stats.iterations;
  }
  return counts;
}

}  // namespace perfbench
