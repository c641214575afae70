// Explicit State Graph (State Transition Diagram) of an STG.
//
// The SG is the reachability graph of the underlying net, with the binary
// code carried along every path.  Building it verifies two of the paper's
// general correctness criteria on the fly:
//   * consistent state assignment — firing a+ from a state where a=1 (or a-
//     where a=0) throws ImplementabilityError;
//   * boundedness — a configurable place-capacity bound and a state budget
//     turn state explosion into a CapacityError instead of an OOM.
//
// This module is the substrate of the SG-based synthesis baseline (the
// paper's SIS / Petrify comparison columns) and the reference oracle for the
// unfolding-based flow's tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/pn/marking.hpp"
#include "src/stg/stg.hpp"

namespace punt::sg {

/// One SG arc: firing `transition` leads to state `target`.
struct Arc {
  pn::TransitionId transition;
  std::size_t target;
};

struct BuildOptions {
  /// Maximum states explored before CapacityError (0 = unlimited).
  std::size_t state_budget = 2000000;
  /// Per-place token bound (1 = require safeness); 0 disables the check.
  std::uint32_t capacity = 1;
};

/// The state graph.  States are dense indices; state 0 is the initial state.
class StateGraph {
 public:
  static StateGraph build(const stg::Stg& stg, const BuildOptions& options = {});

  std::size_t state_count() const { return markings_.size(); }
  std::size_t initial_state() const { return 0; }

  const pn::Marking& marking(std::size_t s) const { return markings_[s]; }
  const stg::Code& code(std::size_t s) const { return codes_[s]; }
  const std::vector<Arc>& arcs(std::size_t s) const { return arcs_[s]; }

  std::size_t arc_count() const;

  /// True when some transition of `signal` is enabled at state `s`.
  bool excited(std::size_t s, stg::SignalId signal) const {
    return excited_[s * signal_count_ + signal.index()] != 0;
  }

  /// The value the implementation of `signal` must produce at state `s`:
  /// its current value flipped when an edge of the signal is enabled.
  std::uint8_t implied_value(std::size_t s, stg::SignalId signal) const {
    const std::uint8_t now = codes_[s][signal.index()];
    return excited(s, signal) ? static_cast<std::uint8_t>(1 - now) : now;
  }

  /// States with implied_value == 1 (the on-set of the signal).
  std::vector<std::size_t> on_set(stg::SignalId signal) const;
  /// States with implied_value == 0 (the off-set of the signal).
  std::vector<std::size_t> off_set(stg::SignalId signal) const;

  /// States where `signal`'s rising (falling) edge is enabled — the
  /// excitation region ER(+a) (ER(-a)) as a state list.
  std::vector<std::size_t> excitation_region(stg::SignalId signal, bool rising,
                                             const stg::Stg& stg) const;

 private:
  std::size_t signal_count_ = 0;
  std::vector<pn::Marking> markings_;
  std::vector<stg::Code> codes_;
  std::vector<std::vector<Arc>> arcs_;
  std::vector<std::uint8_t> excited_;  // state-major [state][signal]
};

}  // namespace punt::sg
