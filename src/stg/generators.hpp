// Programmatic STG constructors.
//
// * The worked examples of the paper (Fig. 1, Fig. 4a/b, Fig. 4c),
//   reconstructed from the figures and the cover calculations in the text —
//   these anchor the unit tests of the synthesis algorithms.
// * The scalable specifications of Fig. 6: the n-stage Muller pipeline and
//   the counterflow-pipeline substitute (see DESIGN.md §4).
// * A classic VME-bus controller with a genuine CSC conflict, used by the
//   csc_diagnosis example.
#pragma once

#include <cstddef>

#include "src/stg/stg.hpp"

namespace punt::stg {

/// The STG of Fig. 1(b): three signals a, b, c; a free-choice net whose SG
/// has exactly 8 states; the paper derives C_On(b) = a + c, C_Off(b) = a'c'.
Stg make_paper_fig1();

/// The STG underlying Fig. 4(a)/(b): +a forks three concurrent chains
/// (b-e, c-f, d-g) that join in -a.  Used for the ER/MR approximation
/// examples: C*e(+d') = a d' g', C*mr(p7) = a d g', ...
Stg make_paper_fig4ab();

/// The fragment of Fig. 4(c): +a ; +d forks {p2-chain: +b,+c,-a} and
/// {p5: +e}.  Used for the refinement example: refining the MR cover of p5
/// with P'r = {p2,p4,p7,p9} yields a c' d e' + b c d e'.
Stg make_paper_fig4c();

/// n-stage Muller pipeline (n >= 1).  Signals: a0 (input request) and
/// a1..an (outputs), so n+1 signals total — the x-axis of Fig. 6.
/// Marked-graph STG: a_i+ needs a_{i-1}+ and a_{i+1}-; a_i- needs a_{i-1}-
/// and a_{i+1}+.  The SG grows exponentially with n while the unfolding
/// segment grows quadratically, as about n²/2 events: 466 at n = 29, 1831
/// at 59 and 7261 at 119.
Stg make_muller_pipeline(std::size_t n);

/// Counterflow-pipeline substitute: two opposing Muller pipelines of
/// `stages` stages each (forward data / backward results), 2*(stages+1)
/// signals.  stages=16 gives the paper's 34-signal configuration.  See
/// DESIGN.md §4 for why this preserves the experiment's behaviour.
Stg make_counterflow_pipeline(std::size_t stages);

/// VME bus controller (read/write cycles selected by the environment) with
/// the classic CSC conflict; used to demonstrate CSC diagnosis.
Stg make_vme_bus();

}  // namespace punt::stg
