// `punt trace <trace.json>`: offline occupancy analysis of a schedule dump.
//
// `punt synth --trace-schedule` and `punt bench run --trace-schedule` write
// the executed task graph as a "punt-schedule-trace" v1 document
// (util/task_graph.cpp to_json).  This module parses such a dump back into a
// util::TaskTrace — validating the structural invariants the executor
// guarantees (dense ids, backward deps, known status names) so a truncated
// or hand-edited file fails loudly instead of rendering nonsense — and
// renders the scheduling picture the raw JSON buries: per-worker occupancy,
// an ASCII Gantt lane per worker, queue waits and the critical path.
#pragma once

#include <string>
#include <string_view>

#include "src/util/task_graph.hpp"

namespace punt::benchmarks {

/// Parses a "punt-schedule-trace" version-1 document (the `--trace-schedule`
/// output).  The additive v1 fields (wall_ready, queue_wait) are optional,
/// so dumps written before they existed still parse — they read as zero;
/// fields this build does not read are ignored.  Throws ParseError on
/// malformed JSON, a different schema/version, non-dense node ids, forward
/// or out-of-range deps, or an unknown status.
util::TaskTrace trace_from_json(std::string_view text);

/// The human rendering `punt trace` prints: the schedule summary (node
/// counts, wall vs critical path), per-worker occupancy percentages, one
/// ASCII Gantt lane per worker (a letter per node kind, '.' for idle) and
/// queue-wait statistics.
std::string format_trace(const util::TaskTrace& trace);

}  // namespace punt::benchmarks
