// ccsched tests — the rotation phase (Definition 4.1) on a ScheduleTable,
// kept as the referee for RemapEngine::rotate.
//
// Rotating the schedule deallocates the tasks that start in the table's
// first row and retimes the graph by drawing one delay from every edge
// entering that set and pushing one onto every edge leaving it; the rest of
// the table shifts one control step earlier (the paper's "moving row 1 to
// position L+1" followed by renumbering).  In a valid schedule every edge
// entering a first-row task from outside carries at least one delay, so the
// rotation is always a legal retiming (the argument behind Lemma 4.1).
#pragma once

#include <vector>

#include "core/csdfg.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"

namespace ccs {

/// Rotates the first row of `table`:
///  1. J = tasks with CB == 1 (returned),
///  2. removes them from the table,
///  3. applies the retiming r(J) += 1 to `g` (throws GraphError, leaving both
///     arguments untouched, if the schedule was invalid in a way that makes
///     the retiming illegal),
///  4. shifts the remaining tasks one step earlier (length decreases by 1).
///
/// If `accumulated` is non-null the rotation's retiming is added to it.
/// Precondition: the table is complete and length() >= 1.
std::vector<NodeId> rotate_first_row(Csdfg& g, ScheduleTable& table,
                                     Retiming* accumulated = nullptr);

}  // namespace ccs
