// Independent references every perfbench output is checked against, and
// the exact counts that must repeat across runs, job counts and seeds.
#pragma once

#include <cstddef>
#include <optional>
#include <string>

#include "src/core/synthesis.hpp"
#include "src/stg/stg.hpp"

namespace perfbench {

/// The circuit conforms to the spec's state graph: every reachable state is
/// replayed against the netlist (net::verify_conformance).  Returns a
/// description of the first violation, or nullopt.
std::optional<std::string> check_conformance(const punt::stg::Stg& stg,
                                             const punt::core::SynthesisResult& result);

/// True for the Muller and counterflow pipelines, whose circuits have a
/// closed form.
bool is_pipeline(const punt::stg::Stg& stg);

/// Every stage a_i of every pipe implements the C-element
///   a_i = a_{i-1} a_i + a_i a_{i+1}' + a_{i-1} a_{i+1}'
/// with six literals, and the last stage a_n = a_{n-1} with one — checked by
/// truth table over the stage's three neighbours, independently of how the
/// gate is phased.  Returns a description of the first wrong stage.
std::optional<std::string> check_pipeline(const punt::stg::Stg& stg,
                                          const punt::core::SynthesisResult& result);

/// 6(n-1)+1 literals per pipe of n output stages.
std::size_t pipeline_literals(const punt::stg::Stg& stg);

/// Signal-by-signal same_logic of two results of one spec.
bool same_logic(const punt::core::SynthesisResult& a, const punt::core::SynthesisResult& b);

/// The exact (untimed) counts of a pass; they must never vary.
struct ExactCounts {
  std::size_t literals = 0;
  std::size_t events = 0;             // unfolding segment events
  std::size_t states = 0;             // state-graph states
  std::size_t refine_iterations = 0;
  std::size_t exact_fallbacks = 0;
  std::size_t espresso_calls = 0;
  std::size_t cubes_in = 0;
  std::size_t cubes_out = 0;
  std::size_t espresso_iterations = 0;

  ExactCounts& operator+=(const ExactCounts& other);
  bool operator==(const ExactCounts& other) const = default;
  std::string describe() const;
};

/// Counts of one result.  MinimizeTask runs espresso twice per signal (both
/// phases for a complex gate, set and reset for a latch) unless the signal
/// has a CSC conflict or minimisation is off.
ExactCounts counts_of(const punt::core::SynthesisResult& result, bool minimize);

}  // namespace perfbench
