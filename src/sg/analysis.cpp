#include "src/sg/analysis.hpp"

#include <map>
#include <set>

namespace punt::sg {

std::string PersistencyViolation::describe(const stg::Stg& stg) const {
  return "output signal '" + stg.signal_name(victim) +
         "' is excited in state " + std::to_string(state) +
         " but firing '" + stg.transition_name(disabler) + "' disables it";
}

std::string CscViolation::describe(const stg::Stg& stg, const StateGraph& sg) const {
  std::string out = "states " + std::to_string(state_a) + " and " +
                    std::to_string(state_b) + " share code " +
                    stg::code_to_string(sg.code(state_a)) +
                    " but disagree on the implied value of";
  for (const stg::SignalId s : conflicting) out += " '" + stg.signal_name(s) + "'";
  return out;
}

std::vector<PersistencyViolation> persistency_violations(const stg::Stg& stg,
                                                         const StateGraph& sg) {
  std::vector<PersistencyViolation> out;
  for (std::size_t s = 0; s < sg.state_count(); ++s) {
    for (const Arc& arc : sg.arcs(s)) {
      // After firing arc.transition, every *other* signal that was excited
      // at s must still be excited at the target (unless it is an input).
      for (std::size_t sig = 0; sig < stg.signal_count(); ++sig) {
        const stg::SignalId signal(static_cast<std::uint32_t>(sig));
        const stg::SignalKind kind = stg.signal_kind(signal);
        if (kind != stg::SignalKind::Output && kind != stg::SignalKind::Internal) continue;
        const stg::Label& fired = stg.label(arc.transition);
        if (!fired.dummy && fired.signal == signal) continue;  // it fired itself
        if (sg.excited(s, signal) && !sg.excited(arc.target, signal)) {
          out.push_back(PersistencyViolation{signal, arc.transition, s});
        }
      }
    }
  }
  return out;
}

std::vector<CscViolation> csc_violations(const stg::Stg& stg, const StateGraph& sg) {
  std::map<stg::Code, std::vector<std::size_t>> by_code;
  for (std::size_t s = 0; s < sg.state_count(); ++s) by_code[sg.code(s)].push_back(s);

  const std::vector<stg::SignalId> outputs = stg.non_input_signals();
  std::vector<CscViolation> out;
  for (const auto& [code, states] : by_code) {
    for (std::size_t i = 0; i < states.size(); ++i) {
      for (std::size_t j = i + 1; j < states.size(); ++j) {
        CscViolation v;
        v.state_a = states[i];
        v.state_b = states[j];
        for (const stg::SignalId sig : outputs) {
          if (sg.implied_value(states[i], sig) != sg.implied_value(states[j], sig)) {
            v.conflicting.push_back(sig);
          }
        }
        if (!v.conflicting.empty()) out.push_back(std::move(v));
      }
    }
  }
  return out;
}

bool has_unique_state_coding(const StateGraph& sg) {
  std::set<stg::Code> codes;
  for (std::size_t s = 0; s < sg.state_count(); ++s) {
    if (!codes.insert(sg.code(s)).second) return false;
  }
  return true;
}

namespace {

/// One minterm cube per distinct code of `states`, in first-occurrence
/// order.
logic::Cover cover_of_states(const StateGraph& sg, const std::vector<std::size_t>& states) {
  std::vector<logic::Cube> cubes;
  cubes.reserve(states.size());
  for (const std::size_t s : states) cubes.push_back(logic::Cube::from_code(sg.code(s)));
  logic::Cover out(sg.state_count() == 0 ? 0 : sg.code(0).size(), std::move(cubes));
  out.remove_duplicates();
  return out;
}

}  // namespace

logic::Cover on_cover(const StateGraph& sg, stg::SignalId signal) {
  return cover_of_states(sg, sg.on_set(signal));
}

logic::Cover off_cover(const StateGraph& sg, stg::SignalId signal) {
  return cover_of_states(sg, sg.off_set(signal));
}

logic::Cover er_cover(const stg::Stg& stg, const StateGraph& sg, stg::SignalId signal,
                      bool rising) {
  return cover_of_states(sg, sg.excitation_region(signal, rising, stg));
}

}  // namespace punt::sg
