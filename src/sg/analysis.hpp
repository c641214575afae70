// Dynamic correctness analyses on the State Graph:
//   * output persistency (semi-modularity) — an excited output must stay
//     excited until it fires;
//   * USC / CSC — binary codes must determine the marking (USC) or at least
//     the excited output behaviour (CSC);
//   * exact on/off-set covers per signal, the input to SG-based synthesis.
#pragma once

#include <string>
#include <vector>

#include "src/logic/cover.hpp"
#include "src/sg/state_graph.hpp"
#include "src/stg/stg.hpp"

namespace punt::sg {

/// An excited output signal lost its excitation when another transition
/// fired — a potential hazard in any speed-independent implementation.
struct PersistencyViolation {
  stg::SignalId victim;          // the output signal that was disabled
  pn::TransitionId disabler;     // the transition whose firing disabled it
  std::size_t state;             // state where both were enabled
  std::string describe(const stg::Stg& stg) const;
};

/// Two reachable states share a binary code but imply different behaviour
/// for at least one non-input signal.
struct CscViolation {
  std::size_t state_a = 0;
  std::size_t state_b = 0;
  std::vector<stg::SignalId> conflicting;  // signals with differing implied value
  std::string describe(const stg::Stg& stg, const StateGraph& sg) const;
};

/// All persistency violations w.r.t. non-input signals.  Input signals may
/// be disabled freely (environment choice), matching the paper's
/// semi-modularity criterion.
std::vector<PersistencyViolation> persistency_violations(const stg::Stg& stg,
                                                         const StateGraph& sg);

/// All CSC violations: pairs of states with equal codes and differing
/// implied values of some output/internal signal.  One violation is
/// reported per offending state pair.
std::vector<CscViolation> csc_violations(const stg::Stg& stg, const StateGraph& sg);

/// True when every reachable state has a unique binary code (USC).
bool has_unique_state_coding(const StateGraph& sg);

/// Exact on-set (implied value 1) cover of `signal`: one minterm cube per
/// distinct state code.
logic::Cover on_cover(const StateGraph& sg, stg::SignalId signal);
/// Exact off-set (implied value 0) cover of `signal`.
logic::Cover off_cover(const StateGraph& sg, stg::SignalId signal);

/// Exact cover of the excitation region ER(+signal) / ER(-signal).
logic::Cover er_cover(const stg::Stg& stg, const StateGraph& sg, stg::SignalId signal,
                      bool rising);

}  // namespace punt::sg
