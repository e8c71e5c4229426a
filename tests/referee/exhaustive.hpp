// ccsched tests — exhaustive optimal scheduling for small instances.
//
// A branch-and-bound search over all (processor, step) placements that
// finds the true minimum static cyclic schedule length for a CSDFG on a
// machine, subject to the same master constraint the validator enforces.
// Exponential, usable to ~10 tasks — its purpose is calibration: the
// optimality-gap tests and the bench compare cyclo-compaction's heuristic
// results against ground truth, which the paper could not do.
//
// The search fixes a candidate length L and asks "is there a valid
// complete table of exactly this length?", trying L = lower bound upward.
// Placement order is the zero-delay topological order; pruning uses the
// per-task earliest start implied by already-placed predecessors.  Note
// that the search explores retimings implicitly ONLY through the given
// delays: it optimizes placement for the graph as handed in (schedule the
// retimed graph from cyclo-compaction to compare end results fairly).
#pragma once

#include <optional>

#include "arch/comm_model.hpp"
#include "arch/topology.hpp"
#include "core/csdfg.hpp"
#include "core/schedule.hpp"

namespace ccs {

/// Search limits for the exhaustive scheduler.
struct ExhaustiveOptions {
  /// Hard cap on candidate lengths tried (inclusive); 0 derives a cap from
  /// the serial schedule (total computation + worst single transfer).
  int max_length = 0;
  /// Abort a single feasibility probe after this many search nodes
  /// (placement attempts); the probe then counts as "unknown" and the
  /// result is std::nullopt.  Guards against exponential blowup.
  long long max_search_nodes = 2'000'000;
};

/// The minimum-length valid schedule of `g` (with its CURRENT delays) on
/// `topo`/`comm`, or std::nullopt when the node budget was exhausted
/// before an answer was proven.  Deterministic.
[[nodiscard]] std::optional<ScheduleTable> optimal_schedule(
    const Csdfg& g, const Topology& topo, const CommModel& comm,
    const ExhaustiveOptions& options = {});

}  // namespace ccs
