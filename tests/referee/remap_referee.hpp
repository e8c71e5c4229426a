// ccsched tests — the v1 remapping procedures, kept as the referee.
//
// Before ccs::RemapEngine (core/remap_engine.hpp) the remapping phase
// (Definition 4.2, Lemmas 4.2/4.3) was a set of free functions over a
// ScheduleTable: the anticipation function recomputed from scratch for
// every (node, processor, target) probe and a slot test that walks the
// schedule grid cell by cell.  They are kept here verbatim as the
// reference the engine is checked against, together with a driver that
// runs them through the same pass loop as cyclo_compact and an engine-
// shaped wrapper for lockstep tests.  Placement order, slot choice, events
// and counters are those of the engine, except that `remap.slots_scanned`
// counts grid cells here (bitset words in the engine) and the
// `remap.an_cache_hit` / `remap.bitset_probe` counters do not exist here.
#pragma once

#include <optional>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/cyclo_compaction.hpp"
#include "core/remap_engine.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Result of one remapping attempt.
struct RemapResult {
  bool success = false;  ///< Every rotated task was placed.
  int length = 0;        ///< Final table length (occupied + PSL padding).
};

/// Anticipation function AN(v, pe) at target length `target_length` given
/// the current partial table: the earliest start step on `pe` respecting
/// every *placed* predecessor of v (Lemma 4.2; unplaced predecessors and
/// self-loops do not constrain the start step).  Always >= 1.
[[nodiscard]] int anticipation(const Csdfg& g, const ScheduleTable& table,
                               const CommModel& comm, NodeId v, PeId pe,
                               int target_length);

/// Latest start step of v on `pe` such that every *placed* successor of v
/// still satisfies the master constraint at `target_length`, and v itself
/// fits inside the table (CE <= target_length).  May be < 1, meaning no
/// feasible step exists on that processor.
[[nodiscard]] int latest_start(const Csdfg& g, const ScheduleTable& table,
                               const CommModel& comm, NodeId v, PeId pe,
                               int target_length);

/// Tries to place every task of `rotated` into `table` with all CE within
/// `target_length`, then pads the table to the PSL bound.  On success the
/// table is complete with length() == result.length; on failure the table
/// is left partially filled (callers work on a copy).  Placement order:
/// larger execution time first, node id as tie-break.  Slot choice:
/// smallest start step, then smallest total communication to placed
/// neighbors, then lowest processor id.  `tally`, when non-null,
/// accumulates AN evaluations and grid cells probed.
[[nodiscard]] RemapResult try_remap(const Csdfg& g, ScheduleTable& table,
                                    const CommModel& comm,
                                    const std::vector<NodeId>& rotated,
                                    int target_length, RemapSelection selection,
                                    const ObsContext& obs = {},
                                    RemapStats* tally = nullptr);

/// One full remapping pass per Definition 4.2: tries target lengths
/// `previous_length - 1`, then `previous_length`, then (with relaxation
/// only) successively longer targets until placement succeeds.  Returns the
/// successful table, or std::nullopt when no target admits a placement the
/// policy accepts.  `table` is the post-rotation (shifted) table; it is not
/// modified.
[[nodiscard]] std::optional<ScheduleTable> remap_rotated(
    const Csdfg& g, const ScheduleTable& table, const CommModel& comm,
    const std::vector<NodeId>& rotated, int previous_length,
    RemapPolicy policy,
    RemapSelection selection = RemapSelection::kBidirectional,
    const ObsContext& obs = {}, RemapStats* tally = nullptr);

/// cyclo_compact on the v1 procedures: start-up schedule, then up to z
/// rotate_first_row + remap_rotated passes with the same pass count,
/// rollback rule and best-so-far bookkeeping.  Budgets are not modelled
/// (options.budget is ignored).  `backend` reads "naive".
[[nodiscard]] CycloCompactionResult referee_cyclo_compact(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const CycloCompactionOptions& options = {});

/// RemapEngine's bind / rotate / remap / commit / rollback lifecycle over
/// the v1 procedures, for lockstep comparison with the engine.
class RefereeRemapEngine {
 public:
  RefereeRemapEngine(const Csdfg& g, const CommModel& comm);

  void bind(const ScheduleTable& table);
  std::vector<NodeId> rotate();
  [[nodiscard]] std::optional<int> remap(const std::vector<NodeId>& rotated,
                                         int previous_length,
                                         RemapPolicy policy,
                                         RemapSelection selection,
                                         const ObsContext& obs = {});
  void commit();
  void rollback();

  [[nodiscard]] int length() const noexcept { return table_.length(); }
  [[nodiscard]] const ScheduleTable& table() const noexcept { return table_; }
  [[nodiscard]] const Csdfg& graph() const noexcept { return graph_; }
  [[nodiscard]] const Retiming& retiming() const noexcept {
    return retiming_;
  }
  [[nodiscard]] const RemapStats& stats() const noexcept { return stats_; }

 private:
  const CommModel* comm_;
  Csdfg base_graph_;
  // Working state.
  Csdfg graph_;
  ScheduleTable table_;
  Retiming retiming_;
  // Last committed state.
  Csdfg committed_graph_;
  ScheduleTable committed_table_;
  Retiming committed_retiming_;
  RemapStats stats_;
};

}  // namespace ccs
