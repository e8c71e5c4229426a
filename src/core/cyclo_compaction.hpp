// ccsched — the cyclo-compaction scheduling algorithm (Section 4).
//
// Algorithm Cyclo-Compact(G, z):
//   S <- Start-Up-Schedule(G); Q <- S
//   repeat z times:
//     (G, S) <- Rotate-Remap(G, S)      // rotation (implicit retiming)
//                                       // + communication-sensitive remap
//     if length(S) < length(Q): Q <- S
//   return Q
//
// Each pass deallocates the first row of the table, retimes the graph
// accordingly (loop pipelining), and remaps the freed tasks to the slots the
// anticipation function suggests.  Without relaxation the pass length never
// grows (Theorem 4.4); with relaxation intermediate growth is allowed and
// the best table seen is returned — the paper's recommended configuration
// ("the remapping scheme with relaxation yields the better result").
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/budget.hpp"
#include "core/csdfg.hpp"
#include "core/list_scheduler.hpp"
#include "core/remap_engine.hpp"
#include "core/retiming.hpp"
#include "core/schedule.hpp"
#include "obs/obs.hpp"

namespace ccs {

/// Configuration of the cyclo-compaction driver.
struct CycloCompactionOptions {
  /// Remapping policy (Def. 4.2); the paper's experiments favor relaxation.
  RemapPolicy policy = RemapPolicy::kWithRelaxation;
  /// Slot selection; kBidirectional is the default refinement, while
  /// kAnticipationOnly reproduces the paper's literal procedure.
  RemapSelection selection = RemapSelection::kBidirectional;
  /// Number of rotate-remap passes z; 0 selects the default 3 * |V|
  /// (every task is rotated a few times — the examples in the paper converge
  /// within a handful of passes).
  int passes = 0;
  /// Start-up scheduler configuration.
  StartUpOptions startup;
  /// Cooperative stop conditions (core/budget.hpp).  Checked at pass
  /// boundaries; a budget stop returns the best-so-far schedule and sets
  /// CycloCompactionResult::stop_reason.  The default budget never fires.
  RunBudget budget;

  friend bool operator==(const CycloCompactionOptions&,
                         const CycloCompactionOptions&) = default;
};

/// Everything a caller needs to audit a cyclo-compaction run.
struct CycloCompactionResult {
  /// The retimed graph corresponding to `best` (delays as after the winning
  /// pass; the prologue/epilogue realize the retiming at run time).
  Csdfg retimed_graph;
  /// Total retiming from the input graph to `retimed_graph`.
  Retiming retiming;
  /// The shortest valid schedule found (Q in the algorithm).
  ScheduleTable best;
  /// The start-up schedule the compaction began from.
  ScheduleTable startup;
  /// Schedule length after each pass (index 0 = after pass 1).  A pass that
  /// stalls (without-relaxation rollback) repeats the previous value and
  /// ends the trace.
  std::vector<int> length_trace;
  /// Pass index (1-based) at which `best` was first reached; 0 when the
  /// start-up schedule was never improved.
  int best_pass = 0;
  /// Why the run stopped before its configured pass count: "max-passes",
  /// "deadline", or "patience" when a budget fired, or "preempted" when an
  /// external BudgetStopToken asked the run to yield (a budget_exhausted
  /// event carries the same reason); empty when every pass ran or a
  /// without-relaxation rollback ended the loop.
  std::string stop_reason;
  /// Remap cost accounting accumulated over every pass (docs/API.md):
  /// occupancy probes (bitset words), AN evaluations, AN cache hits and
  /// bitset word fetches.
  RemapStats remap_stats{};
  /// Always "incremental": RemapEngine has one implementation since API
  /// v3.  Kept because the committed benchmark rig still reads it; it goes
  /// with the next change to that rig.
  std::string backend = "incremental";

  [[nodiscard]] int startup_length() const { return startup.length(); }
  [[nodiscard]] int best_length() const { return best.length(); }
};

/// The pass loop of cyclo-compaction as a copyable value: the RemapEngine,
/// the result so far, the pass index, the stale-pass count and the budget
/// clock's start.  The loop is deterministic, so what a run holds after k
/// passes is exactly what a run configured for k passes returns; and until
/// a with-relaxation pass first ends longer than it began, a
/// without-relaxation run of the same configuration makes the same
/// decisions (Definition 4.2 differs only in accepting that growth).  The
/// portfolio engine uses both facts to serve several attempts from one run
/// (engine/portfolio.hpp).
///
/// Driving it:  `while (run.admit(obs)) run.step(obs);`
class CompactionRun {
public:
  /// Called by step() when a with-relaxation pass accepts a length above
  /// the one it started from, before the pass commits.
  using GrowthHook = std::function<void(const CompactionRun&)>;

  /// A run of `options` from the start-up table `startup` of `g` (as
  /// start_up_schedule(g, ..., options.startup) returns it; options.startup
  /// itself is never read).  No pass has run.  `g`, `comm` and the budget's
  /// clock and stop token must outlive the run and its copies.
  CompactionRun(const Csdfg& g, const CommModel& comm,
                const ScheduleTable& startup,
                const CycloCompactionOptions& options);

  /// Passes run so far.
  [[nodiscard]] int passes_done() const noexcept { return next_pass_ - 1; }

  /// Exactly what a run configured for passes_done() passes returns
  /// (remap_stats included); after admit() returned false, what this run
  /// returns.
  [[nodiscard]] const CycloCompactionResult& result() const noexcept {
    return result_;
  }
  [[nodiscard]] CycloCompactionResult take_result() noexcept {
    return std::move(result_);
  }

  /// The boundary before the next pass: checks `options.budget`.  False
  /// when the run is over — its pass count is spent, a rollback ended it,
  /// or a budget fired (which sets stop_reason and emits budget_exhausted).
  /// The RemapEngine is built when the first pass is admitted, so a run
  /// stopped at pass 1 costs a table copy.
  [[nodiscard]] bool admit(const ObsContext& obs = {});

  /// Runs the pass admit() let through: rotate, remap, then commit or roll
  /// back.  Emits the pass events and counters cyclo_compact documents
  /// (the run emits no startup event, span or timer).
  /// `at_growth`, if set, sees the run when a with-relaxation pass grows.
  void step(const ObsContext& obs = {}, const GrowthHook& at_growth = {});

  /// Only inside a GrowthHook: a copy of the run as it stood at the
  /// boundary before the growing pass — engine state and remap stats
  /// included — continuing under `options`, which may differ from the
  /// run's own only in policy, passes and budget.stop.  Its admit() checks
  /// that boundary again under `options`; its step() then runs the pass
  /// again.
  [[nodiscard]] CompactionRun fork(const CycloCompactionOptions& options) const;

private:
  [[nodiscard]] const char* budget_stop() const;

  const Csdfg* g_;
  const CommModel* comm_;
  CycloCompactionOptions options_;
  int passes_;  ///< Effective pass count (options.passes or 3 * |V|).
  long long start_ms_ = 0;
  std::optional<RemapEngine> engine_;
  CycloCompactionResult result_;
  int next_pass_ = 1;
  int stale_passes_ = 0;  ///< Consecutive passes without a new best.
  bool admitted_ = false;
  bool growing_ = false;
  bool ended_ = false;
};

/// Runs start-up scheduling followed by z rotate-remap passes of
/// cyclo-compaction on machine `topo` under `comm`.  Deterministic; throws
/// GraphError if `g` is illegal.  Every schedule returned (startup and best)
/// satisfies validate_schedule.
///
/// `obs` (optional) streams the run: pass_start / rotation / remap_target /
/// remap_decision / psl_pad / rollback / pass_end / budget_exhausted events
/// plus the
/// compaction.* counters and the time.compaction / time.startup /
/// time.remap timers (docs/OBSERVABILITY.md).  The default context is
/// disabled and costs nothing.
[[nodiscard]] CycloCompactionResult cyclo_compact(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const CycloCompactionOptions& options = {}, const ObsContext& obs = {});

}  // namespace ccs
